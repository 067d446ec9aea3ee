"""Range-tree oracles over intervals of the s-t path.

Oracle A answers: cheapest walk from one interval's anchor, off the path,
into a second interval, ending at its anchor.  Oracle B prefixes that with a
leg from the source that diverges before a given failed edge and makes one
intermediate interval visit.  Values carry their witness positions so
callers can recover the visited segments.

Entries live on range-tree items (dyadic edge ranges or single vertices) and
are memoised lazily; arbitrary intervals decompose into O(log) items and
fold with the same merge rules used between siblings.  Two rules build
every entry:

- Split (A): a range item splits into its two children.  The child holding
  the item's anchor end answers as it is; the far child's answer is shifted
  by the walk from its own anchor end back to the item's.  One rule covers
  both items and both anchor sides.
- Cross (B): converge in one item from the source leg, walk the path to
  another item, and diverge from it into the target.  The walk joins the
  ends of the two items that face each other, so converging left of the
  other item arrives at its right end.  A single vertex is the cross from
  itself to itself; a range item adds the crosses between its children to
  their own entries; a query adds the crosses between its parts.

Suffix-side values (leave a part, visit another, converge after a failure
and run to t) are oracle B's values on the mirrored path, position i read as
L - i (``frp2.mirror_coords``).
"""
from __future__ import annotations

from functools import lru_cache

from ..frp2 import PathCoords
from ..weights import CompositeWeight as W


class DisjointnessViolated(ValueError):
    """Oracle query intervals overlap."""


Item = tuple  # ("v", pos) or ("r", lo_edge, hi_edge)


def item_left(it: Item) -> int:
    return it[1]


def item_right(it: Item) -> int:
    return it[1] if it[0] == "v" else it[2] + 1


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


def item_end(it: Item, side: str) -> int:
    return item_left(it) if side == "l" else item_right(it)


def _lead(c: PathCoords, side: str, part: Item, lo: int, hi: int) -> W:
    """Walk from ``part``'s ``side`` end out to the same end of [lo, hi]."""
    return c.walk(item_end(part, side), lo if side == "l" else hi)


def _better(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a[0] <= b[0] else b


def _shift(val, extra: W):
    if val is None:
        return None
    return (val[0] + extra, val[1])


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
        if it1[0] == "r":
            near, far, gap = self._split(it1, sig)
            val = _better(self.entry(sig, tau, near, it2),
                          _shift(self.entry(sig, tau, far, it2), gap))
        elif it2[0] == "r":
            near, far, gap = self._split(it2, tau)
            val = _better(self.entry(sig, tau, it1, near),
                          _shift(self.entry(sig, tau, it1, far), gap))
        else:
            d = self.c.off(it1[1], it2[1])
            val = None if d is None else (d, (it1[1], it2[1]))
        self._memo[key] = val
        return val

    def _split(self, it: Item, side: str) -> tuple[Item, Item, W]:
        """The child holding ``it``'s ``side`` end, the other child, and the
        walk from the other child's ``side`` end back to ``it``'s."""
        c1, c2 = _children(it)
        near, far = (c1, c2) if side == "l" else (c2, c1)
        return near, far, self.c.walk(item_end(far, side), item_end(it, side))

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
            g1 = _lead(self.c, sig, p1, lo1, hi1)
            for p2 in parts2:
                g2 = _lead(self.c, tau, p2, lo2, hi2)
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

    def entry(self, sig: str, d1: int, it1: Item, it2: Item):
        key = (sig, d1, it1, it2)
        hit = self._memo.get(key, False)
        if hit is not False:
            return hit
        if it1[0] == "v":
            val = self._cross(sig, d1, it1, it1, it2)
        else:
            c1, c2 = _children(it1)
            val = _better(self.entry(sig, d1, c1, it2), self.entry(sig, d1, c2, it2))
            val = _better(val, self._cross(sig, d1, c1, c2, it2))
            val = _better(val, self._cross(sig, d1, c2, c1, it2))
        self._memo[key] = val
        return val

    def _cross(self, sig: str, d1: int, into: Item, out: Item, it2: Item):
        """Converge in ``into`` from the source leg, walk the path to ``out``,
        diverge from ``out`` into ``it2`` and on to its ``sig`` end.

        The walk joins the ends of the two items that face each other (both
        ends of one vertex when they are the same).
        """
        conv, div = ("r", "l") if item_left(into) <= item_left(out) else ("l", "r")
        first = self.a.query("l", conv, (0, d1), (item_left(into), item_right(into)))
        if first is None:
            return None
        second = self.a.entry(div, sig, out, it2)
        if second is None:
            return None
        gap = self.c.walk(item_end(into, conv), item_end(out, div))
        (lw, (x, y1)), (rw, (y2, z)) = first, second
        return (lw + gap + rw, (x, y1, y2, z))

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
        for p2 in parts2:
            g2 = _lead(self.c, sig, p2, lo2, hi2)
            # the visit stays inside one part of R1 ...
            for p1 in parts1:
                v = self.entry(sig, d1, p1, p2)
                if v is not None:
                    best = _better(best, (v[0] + g2, v[1]))
            # ... or converges in one part and diverges from another
            for pi in parts1:
                for pj in parts1:
                    if pi != pj:
                        v = self._cross(sig, d1, pi, pj, p2)
                        if v is not None:
                            best = _better(best, (v[0] + g2, v[1]))
        self._qmemo[key] = best
        return best
