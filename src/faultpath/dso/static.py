"""Single-failure distance sensitivity oracle with interval queries.

The structure keeps, for every vertex pair, shortest detours around the
power-of-two anchored intervals of their shortest path.  A stored entry is
the exact detour whenever some single failure inside the interval forces the
whole interval to be avoided (the interval is then "weak"); otherwise it is
any proper-form detour that clears the interval, or null.  Arbitrary
intervals are answered by combining four anchored lookups; single edges are
always weak, which yields the classic edge-failure query.

The build reads every pair's single-failure detours off the trees of its
source u in G - e, one per edge e of u's tree that some pair needs.  Each
such tree comes from ``spt.without_tree_edge``: only the subtree below e is
searched again, and every other vertex keeps its path from u's tree.  Each
detour is read off its tree as a proper form (the forms Bernstein and
Karger, SODA 2009, build their oracle from).  A tied forest, or a tied
G - e tree, raises TieDetected.

A table can also be filled on demand (``IncrementalDso.on_demand``): a
pair's entries are computed the first time the pair is read, from the same
routine, with one G - e tree cache per source read.  The two-failure solver
uses it on its auxiliary graph, whose answers read a few of its pairs, and
every offline range tree at its root.  A reader of every pair completes the
table first, source by source, keeping one source's trees alive at a time:
``build`` is exactly that completion, and ``insert_edge`` and ``save_dso``
complete an on-demand table before they read it, so a snapshot is never
partial.  Completion stores each pair it fills in the shared table too, so
a table that several oracles share is completed once: a later completion
only collects its pairs.  ``PairTable`` takes its per-pair routine as a
parameter, so an insertion's lazy layer in the offline range tree is the
same table with ``pair_table`` as its fill.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

from ..graph import Graph, TieSource
from ..pathform import (
    ProperForm, join, pf_intersects_interval, pf_segments, segs_edge_ids, segs_length,
    transform_avoiding, walk,
)
from ..spt import SptForest, without_tree_edge


class IntervalNotOnPath(ValueError):
    """Query interval endpoints do not lie on the pair's shortest path."""


class TieDetected(RuntimeError):
    """Some vertex has two shortest paths, so the trees are not unique."""


@lru_cache(maxsize=4096)
def anchors(h: int) -> tuple[tuple[int, int], ...]:
    """Anchored (i, j) offsets: zero or powers of two with i + j < h."""
    vals = [0]
    p = 1
    while p < h:
        vals.append(p)
        p <<= 1
    out = []
    for i in vals:
        for j in vals:
            if i + j < h:
                out.append((i, j))
    return tuple(out)


def _anchored(x: int) -> bool:
    return x == 0 or (x & (x - 1)) == 0


def _floor_pow2(x: int) -> int:
    return 1 << (x.bit_length() - 1)


def replacement_forms(forest: SptForest, u: int, v: int, trees: dict):
    """Proper form of the exact detour around each edge of pi(u, v), or None.

    ``trees`` maps an edge id to the tree of u in G minus that edge; it is
    filled on demand, so the pairs of one source share their G - e trees.
    Each is made by ``without_tree_edge`` from u's tree in ``forest``, which
    reruns Dijkstra only on the subtree S that e cuts off: under unique ties,
    the vertices whose distance changed.  Walking up from v while the parent
    is in S stops at y, the first vertex of S on the detour.  The prefix to
    x = parent[y] avoids S, so it is u's tree path; the rest is pi(y, v),
    which avoids e because pi(u, y) uses it.  A tied G - e tree raises
    TieDetected, since its detours would not be unique.
    """
    graph = forest.graph
    spt_u = forest.spts[u]
    du = spt_u.dist
    out: list[Optional[ProperForm]] = []
    for eid in forest.path_edge_ids(u, v):
        tree = trees.get(eid)
        if tree is None:
            tree = trees[eid] = without_tree_edge(graph, spt_u, eid)
            if tree.tied:
                raise TieDetected("G - e has two shortest paths between some pair")
        length = tree.dist[v]
        if length is None:
            out.append(None)
            continue
        dist, parent = tree.dist, tree.parent
        y = v
        while dist[parent[y]] != du[parent[y]]:
            y = parent[y]
        x, bridge = parent[y], tree.parent_edge[y]
        assert du[x] + graph.edges[bridge].w + forest.dist(y, v) == length, \
            "single-failure detours are always proper"
        out.append(ProperForm(u, x, bridge, y, v, length))
    return out


@dataclass
class Demand:
    """Pairs of lazy tables filled on a read, against the connected pairs
    they hold; one counter can be shared by many tables."""

    filled: int = 0
    held: int = 0


class PairTable(dict):
    """``table[(u, v)]`` (u < v) computes a pair's sub-table on its first
    read, as ``fill(u, v, cache)``, and keeps it; ``cache`` is a dict kept
    per source u while the table fills (the static fill keeps u's G - e
    trees there).  A pair with no path raises KeyError and is not stored.
    ``dict.get`` and ``in`` skip the fill, so callers read through ``[]``.
    A ``demand`` counter counts the table's connected pairs once and each
    pair it fills.
    """

    __slots__ = ("forest", "fill", "demand", "_caches")

    def __init__(self, forest: SptForest, fill: Callable[[int, int, dict], dict],
                 demand: Optional[Demand] = None):
        super().__init__()
        self.forest = forest
        self.fill = fill
        self.demand = demand
        self._caches: dict[int, dict] = {}  # source u -> its fill cache
        if demand is not None:
            n = forest.graph.n
            demand.held += sum(d is not None for u in range(n)
                               for d in forest.spts[u].dist[u + 1:])

    def _fill(self, u: int, v: int, cache: dict) -> dict:
        if self.demand is not None:
            self.demand.filled += 1
        return self.fill(u, v, cache)

    def __missing__(self, pair: tuple[int, int]) -> dict:
        u, v = pair
        f = self.forest
        if not 0 <= u < v < f.graph.n or f.dist(u, v) is None:
            raise KeyError(pair)
        sub = self[pair] = self._fill(u, v, self._caches.setdefault(u, {}))
        return sub

    def filled(self) -> dict:
        """Every connected pair in (u, v) order, the pairs read so far kept.

        Sources are filled one at a time and each one's cache is dropped
        when it is done, so at most one source's G - e trees are alive.
        Each pair filled here is also stored in this table, so every oracle
        that shares it reads it full and no pair is filled twice.
        """
        f = self.forest
        n = f.graph.n
        out: dict = {}
        for u in range(n):
            du = f.spts[u].dist
            cache = self._caches.pop(u, {})
            for v in range(u + 1, n):
                if du[v] is None:
                    continue
                pair = (u, v)
                sub = self.get(pair)  # no fill: a miss is filled below
                if sub is None:
                    sub = self[pair] = self._fill(u, v, cache)
                out[pair] = sub
        return out


class IncrementalDso:
    """All-pairs interval-avoidance table plus per-source trees.

    ``table[(u, v)][(i, j)]`` (u < v) holds the entry for the interval
    [u + i, v - j] of pi(u, v), as a ProperForm or None.  Every stored form
    is made against ``forest``; insertions replace both together.  The
    table is a plain dict once full, or a ``PairTable`` while on demand.
    """

    __slots__ = ("graph", "forest", "table", "ties")

    def __init__(self, graph: Graph, forest: SptForest, table, ties: TieSource):
        self.graph = graph
        self.forest = forest
        self.table = table
        self.ties = ties

    # -- construction ----------------------------------------------------

    @classmethod
    def build(cls, graph: Graph, seed: int = 0,
              forest: Optional[SptForest] = None) -> "IncrementalDso":
        """Every pair's entries, filled source by source.  ``forest`` is
        graph's all-sources forest when the caller has it."""
        dso = cls.on_demand(graph, seed, forest)
        dso.complete()
        return dso

    @classmethod
    def on_demand(cls, graph: Graph, seed: int = 0,
                  forest: Optional[SptForest] = None) -> "IncrementalDso":
        """``build`` with a table that fills each pair on its first read."""
        if forest is None:
            forest = SptForest.build(graph)
        if any(tree.tied for tree in forest.spts):
            raise TieDetected("the graph has two shortest paths between some pair")
        return cls(graph, forest, PairTable(forest, partial(_pair_entries, forest)),
                   TieSource(seed + 7919))

    def complete(self) -> None:
        """Fill every pair of an on-demand table; a full table stays as is."""
        if isinstance(self.table, PairTable):
            self.table = self.table.filled()

    # -- helpers ----------------------------------------------------------

    def entry(self, u: int, v: int, i: int, j: int) -> Optional[ProperForm]:
        """Stored anchored entry, (i, j) measured from the (u, v) orientation."""
        if u < v:
            return self.table[(u, v)].get((i, j))
        return self.table[(v, u)].get((j, i))

    # -- queries ----------------------------------------------------------

    def query_interval(self, u: int, v: int, a: int, b: int) -> Optional[ProperForm]:
        """Interval-avoidance entry for the subpath a..b of pi(u, v).

        Exact when the interval is weak; otherwise a verified avoiding proper
        form or None.
        """
        f = self.forest
        if u == v or f.dist(u, v) is None:
            raise IntervalNotOnPath(f"no path between {u} and {v}")
        if not (f.on_path(u, v, a) and f.on_path(u, v, b)):
            raise IntervalNotOnPath(f"({a}, {b}) not on pi({u}, {v})")
        if a == b:
            raise IntervalNotOnPath("interval holds no edge")
        return self._query_vertices(u, v, a, b)

    def _query_vertices(self, u: int, v: int, a: int, b: int) -> Optional[ProperForm]:
        """``_query_pos`` for the subpath a..b of pi(u, v), by its end
        vertices in either order; a == b is the empty interval."""
        f = self.forest
        pa = f.path_pos(u, v, a)
        pb = f.path_pos(u, v, b)
        if u > v:
            u, v = v, u
            pa, pb = f.hops(u, v) - pa, f.hops(u, v) - pb
        if pa > pb:
            pa, pb = pb, pa
        return self._query_pos(u, v, pa, pb)

    def _query_pos(self, u: int, v: int, pa: int, pb: int) -> Optional[ProperForm]:
        """Core interval query; u < v, positions measured from u, pa <= pb.

        An unanchored interval is pulled back to anchors a2 and b2 on the
        path.  The candidates are the pair's own wider entry and the entries
        of (a2, b2), (a2, v) and (u, b2), each stitched to the pair by tree
        walks and gated; the first of equal lengths wins.
        """
        f = self.forest
        h = f.hops(u, v)
        if pa == pb:
            # empty interval: nothing to avoid
            return ProperForm(u, v, None, v, v, f.dist(u, v))
        jr = h - pb
        if _anchored(pa) and _anchored(jr):
            return self.table[(u, v)].get((pa, jr))

        i = 0 if pa == 0 else _floor_pow2(pa)
        j = 0 if jr == 0 else _floor_pow2(jr)
        spt_u = f.spts[u]
        a2 = spt_u.ancestor_at_depth(v, pa - i)
        b2 = spt_u.ancestor_at_depth(v, pb + j)

        best: Optional[ProperForm] = None
        # when a2 == u or b2 == v a pair repeats; its first place counts
        for p, q in dict.fromkeys(((a2, b2), (u, v), (a2, v), (u, b2))):
            if (p, q) == (u, v):
                # the pair's own wider anchored interval: already avoids [pa, pb]
                best = _pf_min(best, self.table[(u, v)].get((i, j)))
                continue
            pf = self.entry(p, q, i, j)
            if pf is not None:
                segs = join(walk(f, u, p), pf_segments(pf, f, p), walk(f, q, v))
                best = _pf_min_gated(best, segs, transform_avoiding, f, u, v, pa, pb)
        return best

    def query_edge_failure(self, u: int, v: int, eid: int, want_path: bool = False):
        """Distance (and optionally path) from u to v avoiding one edge.

        Returns ``(length, path_edge_ids)``; length None means unreachable.
        """
        f = self.forest
        if f.dist(u, v) is None:
            return None, None
        pos = f.edge_pos(u, v, eid)
        if pos is None:
            return f.dist(u, v), (f.path_edge_ids(u, v) if want_path else None)
        swap = u > v
        if swap:
            u, v = v, u
            pos = f.hops(u, v) - pos - 1
        pf = self._query_pos(u, v, pos, pos + 1)
        if pf is None:
            return None, None
        path = segs_edge_ids(pf_segments(pf, f, v if swap else u)) if want_path else None
        return pf.length, path


def _pf_min(a: Optional[ProperForm], b: Optional[ProperForm]) -> Optional[ProperForm]:
    if a is None:
        return b
    if b is None:
        return a
    return a if a.length <= b.length else b


def _pf_min_gated(best: Optional[ProperForm], segs, gate, *args) -> Optional[ProperForm]:
    """The shorter of ``best`` and ``gate(segs, *args)``, ``best`` on a tie.

    A gated form is as long as its walk, so a walk no shorter than ``best``
    is not gated.
    """
    if segs is None or (best is not None and segs_length(segs) >= best.length):
        return best
    return _pf_min(best, gate(segs, *args))


def _pair_entries(forest: SptForest, u: int, v: int, trees: dict) -> dict:
    """Anchored entries of (u, v): for each interval, the longest
    single-failure detour inside it, kept only if it clears the interval."""
    forms = replacement_forms(forest, u, v, trees)
    h = len(forms)
    sub: dict[tuple[int, int], Optional[ProperForm]] = {}
    for (i, j) in anchors(h):
        inside = forms[i:h - j]
        if None in inside:
            # no detour for some failure: nothing can avoid the interval
            sub[(i, j)] = None
            continue
        best = max(inside, key=lambda pf: pf.length)
        # equal composite lengths must be the same path (verified ties)
        assert all(pf == best for pf in inside if pf.length == best.length)
        sub[(i, j)] = None if pf_intersects_interval(best, forest, u, v, i, h - j) else best
    return sub
