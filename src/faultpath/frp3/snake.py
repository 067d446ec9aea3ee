"""Paths weaving through two middle intervals, and the halving probe loop.

With all failures on the s-t path, the hard replacement paths visit two of
the cut intervals in either order.  ``snake_through`` computes the best such
path forced through a chosen vertex or edge by composing one B-type and one
A-type oracle value around the crossing point.  ``PairProbeLoop`` answers
every middle failure between a fixed outer pair by probing middle edges; the
squared-interval potential drops geometrically, so O(log) stages suffice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..frp2 import OffPathMatrix, path_prefix
from ..weights import CompositeWeight as W
from .oracles import MirrorOracleB, OracleA, OracleB, PathCoords, mirror_coords
from .partition import PaddedInstance


Seg = tuple[int, int]  # vertex interval on the padded path


def _seg_edges(seg: Seg) -> int:
    return max(0, seg[1] - seg[0])


def _covers_edge(seg: Seg, e: int) -> bool:
    return seg[0] <= e and e + 1 <= seg[1]


def _clip(a: Seg, b: Seg) -> Optional[Seg]:
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    if lo > hi:
        return None
    return (lo, hi)


@dataclass
class SnakeHit:
    length: W
    visits: tuple[Seg, Seg]  # on-path segments of the two middle visits

    @property
    def base(self) -> int:
        return self.length.base


class SnakeOracles:
    """The A / B / mirrored-B trio over one padded instance."""

    def __init__(self, inst: PaddedInstance, matrix: OffPathMatrix):
        coords = PathCoords(path_prefix(inst.graph, inst.path_eids), matrix.dist)
        self.a = OracleA(coords, inst.k)
        self.b = OracleB(self.a)
        self.bm = MirrorOracleB(mirror_coords(coords), inst.k)
        self.L = coords.L


def _intervals_of_cuts(cuts: list[int], L: int) -> list[Seg]:
    out = []
    lo = 0
    for c in cuts:
        out.append((lo, c))
        lo = c + 1
    out.append((lo, L))
    return out


def snake_through(oracles: SnakeOracles, cuts: list[int], x) -> Optional[SnakeHit]:
    """Best two-visit path through ``x`` avoiding the cut edges.

    ``cuts`` are sorted distinct edge positions (at least two); ``x`` is
    ("v", pos) or ("e", pos), strictly between the outer cuts and not itself
    a cut.
    """
    L = oracles.L
    d1, dw = cuts[0], cuts[-1]
    ivs = _intervals_of_cuts(cuts, L)
    first, last = ivs[0], ivs[-1]
    middles = ivs[1:-1]
    if not middles:
        return None
    kind, pos = x
    if kind == "e":
        xi = next(i for i, (lo, hi) in enumerate(middles) if lo <= pos and pos + 1 <= hi)
        left_part: Seg = (middles[xi][0], pos)
        right_part: Seg = (pos + 1, middles[xi][1])
        cross = oracles.a.c.walk(pos, pos + 1)
    else:
        xi = next(i for i, (lo, hi) in enumerate(middles) if lo <= pos <= hi)
        left_part = (middles[xi][0], pos)
        right_part = (pos, middles[xi][1])
        cross = W(0, 0)

    best: Optional[SnakeHit] = None

    def consider(total: W, v1: Seg, v2: Seg) -> None:
        nonlocal best
        if best is None or total < best.length:
            best = SnakeHit(total, (v1, v2))

    # heads/tails of the crossing interval do not depend on the other visit
    tail_rr = oracles.a.query("r", "r", left_part, last)
    tail_lr = oracles.a.query("l", "r", right_part, last)
    head_lr = oracles.a.query("l", "r", first, left_part)
    head_ll = oracles.a.query("l", "l", first, right_part)

    # the other visit may share the crossing interval (two events, one
    # interval), so the pair enumeration includes ji == xi with overlapping
    # index ranges
    for other in middles:
        # x's interval visited second, crossing right to left
        got = oracles.b.query("l", d1, other, right_part, allow_overlap=True)
        if got is not None and tail_rr is not None:
            (bw, (_, y1, y2, z)), (aw, (x2, _)) = got, tail_rr
            consider(bw + cross + aw,
                     (min(y1, y2), max(y1, y2)), (x2, z))
        # x's interval visited second, crossing left to right
        got = oracles.b.query("r", d1, other, left_part, allow_overlap=True)
        if got is not None and tail_lr is not None:
            (bw, (_, y1, y2, z)), (aw, (x2, _)) = got, tail_lr
            consider(bw + cross + aw,
                     (min(y1, y2), max(y1, y2)), (z, x2))
        # x's interval visited first, crossing left to right
        if head_lr is not None:
            tail = oracles.bm.query("l", dw, other, right_part, allow_overlap=True)
            if tail is not None:
                (aw, (_, y1)), (bw, (_, j1, j2, dv)) = head_lr, tail
                consider(aw + cross + bw,
                         (y1, dv), (min(j1, j2), max(j1, j2)))
        # x's interval visited first, crossing right to left
        if head_ll is not None:
            tail = oracles.bm.query("r", dw, other, left_part, allow_overlap=True)
            if tail is not None:
                (aw, (_, y1)), (bw, (_, j1, j2, dv)) = head_ll, tail
                consider(aw + cross + bw,
                         (dv, y1), (min(j1, j2), max(j1, j2)))
    return best


def shortest_snake(oracles: SnakeOracles, cuts: list[int]) -> Optional[SnakeHit]:
    """Minimum over every vertex strictly between the outer cuts."""
    d1, dw = cuts[0], cuts[-1]
    best: Optional[SnakeHit] = None
    for pos in range(d1 + 1, dw + 1):
        hit = snake_through(oracles, cuts, ("v", pos))
        if hit is not None and (best is None or hit.length < best.length):
            best = hit
    return best


@dataclass
class ProbeStage:
    probe: int                   # edge position removed at this stage
    path: Optional[SnakeHit]     # shortest snake avoiding every probe so far
    e1: Seg                      # larger surviving interval (by edge count)
    e2: Seg
    potential: int               # edges(e1)^2 + edges(e2)^2


class PairProbeLoop:
    """All middle answers between one outer failure pair (l, r)."""

    def __init__(self, oracles: SnakeOracles, l_edge: int, r_edge: int):
        self.o = oracles
        self.l = l_edge
        self.r = r_edge
        self.stages: list[ProbeStage] = []
        self._run()

    def _middle_edge(self, seg: Seg) -> int:
        # the left one of the two central edges on even counts
        return (seg[0] + seg[1] - 1) // 2

    def _run(self) -> None:
        l, r = self.l, self.r
        if l + 1 > r - 1:
            return  # no middle edges, no middle failures to answer
        probes: list[int] = []
        survivors: Optional[tuple[Seg, Seg]] = None
        src: Seg = (l + 1, r)
        while True:
            probe = self._middle_edge(src)
            probes.append(probe)
            cuts = sorted({l, r, *probes})
            hit = shortest_snake(self.o, cuts)
            e1, e2 = self._survivors(hit, survivors)
            pot = _seg_edges(e1) ** 2 + _seg_edges(e2) ** 2
            self.stages.append(ProbeStage(probe, hit, e1, e2, pot))
            if _seg_edges(e1) == 0:
                return
            survivors = (e1, e2)
            src = e1

    def _survivors(self, hit: Optional[SnakeHit],
                   prev: Optional[tuple[Seg, Seg]]) -> tuple[Seg, Seg]:
        if hit is None:
            return (0, 0), (0, 0)
        mid: Seg = (self.l + 1, self.r)
        fsegs = [s for s in (_clip(v, mid) for v in hit.visits) if s is not None]
        if prev is None:
            pieces = fsegs
        else:
            pieces = []
            for f in fsegs:
                for e in prev:
                    got = _clip(f, e)
                    if got is not None:
                        pieces.append(got)
        pieces = sorted({p for p in pieces if _seg_edges(p) > 0},
                        key=_seg_edges, reverse=True)
        assert len(pieces) <= 2, f"more than two surviving intervals: {pieces}"
        e1 = pieces[0] if pieces else (0, 0)
        e2 = pieces[1] if len(pieces) > 1 else (0, 0)
        return e1, e2

    def answer(self, mid_edge: int) -> Optional[int]:
        """Best snake length avoiding {l, mid, r}, base channel."""
        best: Optional[W] = None
        probes: list[int] = []
        for stage in self.stages:
            if stage.probe != mid_edge:
                cuts = sorted({self.l, self.r, mid_edge, *probes})
                through = snake_through(self.o, cuts, ("e", stage.probe))
                if through is not None and (best is None or through.length < best):
                    best = through.length
            probes.append(stage.probe)
            if stage.path is None:
                break
            if not any(_covers_edge(v, mid_edge) for v in stage.path.visits):
                if best is None or stage.path.length < best:
                    best = stage.path.length
                break
        return None if best is None else best.base

    # -- instrumentation -------------------------------------------------

    def potentials(self) -> list[int]:
        return [s.potential for s in self.stages]

    def stage_bound_ok(self) -> bool:
        if len(self.stages) <= 1:
            return True
        s1 = self.stages[0].potential
        if s1 <= 1:
            return len(self.stages) <= 2
        return len(self.stages) <= math.ceil(math.log(s1, 8 / 5)) + 1
