"""Paths weaving through two middle intervals, and the halving probe loop.

With all failures on the s-t path, the hard replacement paths visit two of
the cut intervals in either order.  ``snake_through`` computes the best such
path forced through a chosen vertex or edge by composing one B-type and one
A-type oracle value around the crossing point.  ``_second_visit`` covers the
paths that cross it on their second visit; a path that crosses it on its
first visit is, read from t back to s, a second-visit path on the mirrored
path, so one rule serves both.  ``PairProbeLoop`` answers
every middle failure between a fixed outer pair by probing middle edges; the
squared-interval potential drops geometrically, so O(log) stages suffice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..frp2 import PathCoords
from ..weights import CompositeWeight as W
from .oracles import OracleA, OracleB


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


class IntervalOracles:
    """Oracles A and B over one set of path coordinates."""

    def __init__(self, coords: PathCoords, k: int):
        self.a = OracleA(coords, k)
        self.b = OracleB(self.a)
        self.L = coords.L


class SnakeOracles(IntervalOracles):
    """A and B over a 2^k-edge path, and ``mirror``: the pair over the same
    path read from t back to s.  ``coords`` holds both coordinate sets, as
    ``Frp2Solver.coords`` builds them."""

    def __init__(self, coords: tuple[PathCoords, PathCoords], k: int):
        super().__init__(coords[0], k)
        self.mirror = IntervalOracles(coords[1], k)


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
    kind, pos = x
    best = _second_visit(oracles, cuts, x)
    # x's interval visited first: the second-visit path of the mirror,
    # whose visits come back flipped and in the other order
    got = _second_visit(oracles.mirror, [L - 1 - c for c in reversed(cuts)],
                        (kind, L - pos if kind == "v" else L - 1 - pos))
    if got is not None and (best is None or got.length < best.length):
        (lo1, hi1), (lo2, hi2) = got.visits
        best = SnakeHit(got.length, ((L - hi2, L - lo2), (L - hi1, L - lo1)))
    return best


def _second_visit(side: IntervalOracles, cuts: list[int], x) -> Optional[SnakeHit]:
    """Best two-visit path through ``x`` that crosses it on its second visit.

    The source leg visits another middle interval and converges into one
    part of x's interval (oracle B); the path crosses x to the other part
    and leaves it from the anchor next to x for the last interval (oracle A).
    """
    ivs = _intervals_of_cuts(cuts, side.L)
    last, middles = ivs[-1], ivs[1:-1]
    kind, pos = x
    e = 1 if kind == "e" else 0  # x spans positions pos .. pos + e
    lo, hi = next(iv for iv in middles if iv[0] <= pos and pos + e <= iv[1])
    left_part: Seg = (lo, pos)
    right_part: Seg = (pos + e, hi)
    cross = side.a.c.walk(pos, pos + e)
    best: Optional[SnakeHit] = None
    # crossing right to left, then left to right: B converges into one part
    # at the anchor facing x, A leaves the other part from its anchor facing x
    for into, out, anchor in ((right_part, left_part, "r"), (left_part, right_part, "l")):
        tail = side.a.query(anchor, "r", out, last)
        if tail is None:
            continue
        aw, (x2, _) = tail
        # the other visit may share the crossing interval (two events, one
        # interval), so the enumeration includes x's own interval with
        # overlapping index ranges
        for other in middles:
            got = side.b.query("l" if anchor == "r" else "r", cuts[0], other, into,
                               allow_overlap=True)
            if got is None:
                continue
            bw, (_, y1, y2, z) = got
            total = bw + cross + aw
            if best is None or total < best.length:
                best = SnakeHit(total, ((min(y1, y2), max(y1, y2)),
                                        (min(x2, z), max(x2, z))))
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
