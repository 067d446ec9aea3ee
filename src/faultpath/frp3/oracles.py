"""Range-tree oracles over intervals of the s-t path.

Oracle A answers: cheapest walk from one interval's anchor, off the path,
into a second interval, ending at its anchor.  Oracle B prefixes that with a
leg from the source that diverges before a given failed edge and makes one
intermediate interval visit.  Values carry their witness positions so
callers can recover the visited segments.

Entries live on range-tree items (dyadic edge ranges or single vertices) and
are memoised lazily; arbitrary intervals decompose into O(log) items and
fold with the same merge rules used between siblings.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Optional

from ..weights import CompositeWeight as W
from .partition import PaddedInstance


class DisjointnessViolated(ValueError):
    """Oracle query intervals overlap."""


Item = tuple  # ("v", pos) or ("r", lo_edge, hi_edge)


def item_left(it: Item) -> int:
    return it[1]


def item_right(it: Item) -> int:
    return it[1] if it[0] == "v" else it[2] + 1


class PathCoords:
    """Positions, prefix sums and the off-path matrix for the padded path."""

    def __init__(self, inst: PaddedInstance, matrix):
        self.inst = inst
        self.L = inst.hops
        self.pre = [W(0, 0)]
        for eid in inst.path_eids:
            self.pre.append(self.pre[-1] + inst.graph.edges[eid].w)
        self.matrix = matrix  # OffPathMatrix over the padded path

    def walk(self, i: int, j: int) -> W:
        a, b = (i, j) if i <= j else (j, i)
        return self.pre[b] - self.pre[a]

    def off(self, i: int, j: int) -> Optional[W]:
        return self.matrix.d(i, j)


@lru_cache(maxsize=65536)
def decompose(lo: int, hi: int, k: int) -> tuple[Item, ...]:
    """Vertex interval [lo, hi] as range-tree items, left to right."""
    if lo == hi:
        return (("v", lo),)
    out: list[Item] = []

    def rec(nlo: int, nhi: int, qlo: int, qhi: int) -> None:
        if qlo <= nlo and nhi <= qhi:
            out.append(("r", nlo, nhi))
            return
        mid = (nlo + nhi) // 2
        if qlo <= mid:
            rec(nlo, mid, qlo, min(qhi, mid))
        if qhi > mid:
            rec(mid + 1, nhi, max(qlo, mid + 1), qhi)

    rec(0, (1 << k) - 1, lo, hi - 1)
    return tuple(out)


def _children(it: Item) -> tuple[Item, Item]:
    _, lo, hi = it
    if lo == hi:
        return ("v", lo), ("v", lo + 1)
    mid = (lo + hi) // 2
    return ("r", lo, mid), ("r", mid + 1, hi)


def _better(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a[0] <= b[0] else b


class OracleA:
    """A[sigma, tau](R1, R2): anchored single-detour values with (x, y) witnesses."""

    def __init__(self, coords: PathCoords, k: int):
        self.c = coords
        self.k = k
        self._memo: dict = {}
        self._qmemo: dict = {}

    # -- stored entries on items ----------------------------------------

    def entry(self, sig: str, tau: str, it1: Item, it2: Item):
        key = (sig, tau, it1, it2)
        hit = self._memo.get(key, False)
        if hit is not False:
            return hit
        if it1[0] == "v" and it2[0] == "v":
            d = self.c.off(it1[1], it2[1])
            val = None if d is None else (d, (it1[1], it2[1]))
        elif it1[0] == "r":
            c1, c2 = _children(it1)
            if sig == "l":
                anchor = item_left(it1)
                a = self.entry(sig, tau, c1, it2)
                b = self._shift(self.entry(sig, tau, c2, it2),
                                self.c.walk(anchor, item_left(c2)))
            else:
                anchor = item_right(it1)
                a = self.entry(sig, tau, c2, it2)
                b = self._shift(self.entry(sig, tau, c1, it2),
                                self.c.walk(item_right(c1), anchor))
            val = _better(a, b)
        else:
            c1, c2 = _children(it2)
            if tau == "l":
                anchor = item_left(it2)
                a = self.entry(sig, tau, it1, c1)
                b = self._shift(self.entry(sig, tau, it1, c2),
                                self.c.walk(anchor, item_left(c2)))
            else:
                anchor = item_right(it2)
                a = self.entry(sig, tau, it1, c2)
                b = self._shift(self.entry(sig, tau, it1, c1),
                                self.c.walk(item_right(c1), anchor))
            val = _better(a, b)
        self._memo[key] = val
        return val

    @staticmethod
    def _shift(val, extra: W):
        if val is None:
            return None
        return (val[0] + extra, val[1])

    # -- arbitrary intervals ----------------------------------------------

    def query(self, sig: str, tau: str, iv1: tuple[int, int], iv2: tuple[int, int]):
        """Best (length, (x, y)) between disjoint vertex intervals; None if impossible."""
        lo1, hi1 = iv1
        lo2, hi2 = iv2
        if not (lo1 <= hi1 and lo2 <= hi2):
            return None
        if max(lo1, lo2) <= min(hi1, hi2):
            raise DisjointnessViolated(f"{iv1} and {iv2} overlap")
        key = (sig, tau, lo1, hi1, lo2, hi2)
        hit = self._qmemo.get(key, False)
        if hit is not False:
            return hit
        parts1 = decompose(lo1, hi1, self.k)
        parts2 = decompose(lo2, hi2, self.k)
        best = None
        for p1 in parts1:
            g1 = (self.c.walk(lo1, item_left(p1)) if sig == "l"
                  else self.c.walk(item_right(p1), hi1))
            for p2 in parts2:
                g2 = (self.c.walk(lo2, item_left(p2)) if tau == "l"
                      else self.c.walk(item_right(p2), hi2))
                v = self.entry(sig, tau, p1, p2)
                if v is not None:
                    best = _better(best, (v[0] + g1 + g2, v[1]))
        self._qmemo[key] = best
        return best


class OracleB:
    """B[sigma](d1, R1, R2): source leg plus one interval visit, witnesses (x, y1, y2, z)."""

    def __init__(self, oracle_a: OracleA):
        self.a = oracle_a
        self.c = oracle_a.c
        self.k = oracle_a.k
        self._memo: dict = {}
        self._qmemo: dict = {}

    def _base(self, d1: int, w: int, sig: str, it2: Item):
        """R1 a single vertex w: two chained A queries."""
        first = self.a.query("l", "l", (0, d1), (w, w))
        if first is None:
            return None
        second = self.a.entry("l", sig, ("v", w), it2)
        if second is None:
            return None
        (lw, (x, _)), (rw, (_, z)) = first, second
        return (lw + rw, (x, w, w, z))

    def entry(self, sig: str, d1: int, it1: Item, it2: Item):
        key = (sig, d1, it1, it2)
        hit = self._memo.get(key, False)
        if hit is not False:
            return hit
        if it1[0] == "v":
            val = self._base(d1, it1[1], sig, it2)
        else:
            c1, c2 = _children(it1)
            cands = [self.entry(sig, d1, c1, it2), self.entry(sig, d1, c2, it2)]
            # converge in the left child, cross into the right, or vice versa
            fa = self.a.query("l", "r", (0, d1), (item_left(c1), item_right(c1)))
            if fa is not None:
                sb = self.a.entry("l", sig, c2, it2)
                if sb is not None:
                    gap = self.c.walk(item_right(c1), item_left(c2))
                    (lw, (x, y1)), (rw, (y2, z)) = fa, sb
                    cands.append((lw + gap + rw, (x, y1, y2, z)))
            fb = self.a.query("l", "l", (0, d1), (item_left(c2), item_right(c2)))
            if fb is not None:
                sb = self.a.entry("r", sig, c1, it2)
                if sb is not None:
                    gap = self.c.walk(item_right(c1), item_left(c2))
                    (lw, (x, y1)), (rw, (y2, z)) = fb, sb
                    cands.append((lw + gap + rw, (x, y1, y2, z)))
            val = None
            for cd in cands:
                val = _better(val, cd)
        self._memo[key] = val
        return val

    def query(self, sig: str, d1: int, iv1: tuple[int, int], iv2: tuple[int, int],
              allow_overlap: bool = False):
        """Best (length, (x, y1, y2, z)); intervals are vertex spans after d1."""
        lo1, hi1 = iv1
        lo2, hi2 = iv2
        if not (lo1 <= hi1 and lo2 <= hi2):
            return None
        if not allow_overlap and max(lo1, lo2) <= min(hi1, hi2):
            raise DisjointnessViolated(f"{iv1} and {iv2} overlap")
        if lo1 <= d1 or lo2 <= d1:
            raise DisjointnessViolated("intervals must lie after the failure")
        key = (sig, d1, lo1, hi1, lo2, hi2)
        hit = self._qmemo.get(key, False)
        if hit is not False:
            return hit
        parts1 = decompose(lo1, hi1, self.k)
        parts2 = decompose(lo2, hi2, self.k)
        best = None
        for i2, p2 in enumerate(parts2):
            g2 = (self.c.walk(lo2, item_left(p2)) if sig == "l"
                  else self.c.walk(item_right(p2), hi2))
            # single-part visits
            for p1 in parts1:
                v = self.entry(sig, d1, p1, p2)
                if v is not None:
                    best = _better(best, (v[0] + g2, v[1]))
            # cross-part visits: converge in parts1[i], diverge from parts1[j]
            for i in range(len(parts1)):
                for j in range(len(parts1)):
                    if i == j:
                        continue
                    pi, pj = parts1[i], parts1[j]
                    if i < j:
                        fa = self.a.query("l", "r", (0, d1),
                                          (item_left(pi), item_right(pi)))
                        anchor_j = "l"
                        gap = self.c.walk(item_right(pi), item_left(pj))
                    else:
                        fa = self.a.query("l", "l", (0, d1),
                                          (item_left(pi), item_right(pi)))
                        anchor_j = "r"
                        gap = self.c.walk(item_left(pi), item_right(pj))
                    if fa is None:
                        continue
                    sb = self.a.entry(anchor_j, sig, pj, p2)
                    if sb is None:
                        continue
                    (lw, (x, y1)), (rw, (y2, z)) = fa, sb
                    best = _better(best, (lw + gap + rw + g2, (x, y1, y2, z)))
        self._qmemo[key] = best
        return best


class MirrorOracleB:
    """Suffix-side twin of OracleB, phrased in original path coordinates.

    ``query(sigma, d3, Rj, Rend)``: best path starting at Rend's sigma anchor,
    diverging from Rend, visiting Rj once, then converging after edge d3 and
    running to t.
    """

    def __init__(self, coords_mirror: PathCoords, k: int):
        self.b = OracleB(OracleA(coords_mirror, k))
        self.L = coords_mirror.L

    def _mi(self, iv: tuple[int, int]) -> tuple[int, int]:
        lo, hi = iv
        return (self.L - hi, self.L - lo)

    def query(self, sig: str, d3_edge: int, rj: tuple[int, int], rend: tuple[int, int],
              allow_overlap: bool = False):
        sig_m = "r" if sig == "l" else "l"
        d1_m = self.L - 1 - d3_edge
        got = self.b.query(sig_m, d1_m, self._mi(rj), self._mi(rend),
                           allow_overlap=allow_overlap)
        if got is None:
            return None
        w, (x, y1, y2, z) = got
        return (w, (self.L - x, self.L - y1, self.L - y2, self.L - z))


def mirror_coords(inst: PaddedInstance, matrix) -> PathCoords:
    """PathCoords of the reversed path, sharing the off-path matrix."""

    class _RevMatrix:
        def __init__(self, m, L):
            self.m = m
            self.L = L

        def d(self, i, j):
            return self.m.d(self.L - i, self.L - j)

    class _RevCoords(PathCoords):
        def __init__(self, inst, matrix):
            self.inst = inst
            self.L = inst.hops
            pre = [W(0, 0)]
            for eid in reversed(inst.path_eids):
                pre.append(pre[-1] + inst.graph.edges[eid].w)
            self.pre = pre
            self.matrix = _RevMatrix(matrix, inst.hops)

    return _RevCoords(inst, matrix)
