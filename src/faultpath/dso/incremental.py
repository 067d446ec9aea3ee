"""Worst-case edge insertion for the distance sensitivity oracle.

Inserting an edge (x, y) of weight w does only the work the edge can change.

- Trees.  The tree of source s is refreshed in closed form, with no
  search (``_updated_tree``): one walk over the vertices whose distance
  falls and their children, in O(n) with the copy it patches.  For
  each orientation (a, b) of the new edge with d(s, a) finite, let
  base = d(s, a) + w.  When d(s, b) < base the orientation changes
  nothing; otherwise the walk runs down b's old tree from b, and a vertex
  c improves when base + d(b, c) < d(s, c) or c was unreachable.  It then
  takes its parent in b's tree (a, for b itself) and that parent's new
  depth plus one.  A vertex that does not improve is not descended into.
  A tree in which nothing improves is kept as the same object; any other
  is a copy patched on the improved vertices, whose unchanged distances
  share the old weight objects.  This is the tree Dijkstra builds on the
  grown graph:

  - A shortest path uses the new edge at most once, so the new distance
    is min(d(s, c), d(s, x) + w + d(y, c), d(s, y) + w + d(x, c)), and the
    part after the edge is old pi(b, c), whose last edge is c's parent
    edge in b's tree.
  - The improved set is closed under parents in b's tree: if c improves
    and p is its parent there, then d(s, c) <= d(s, p) + w(p, c), so
    base + d(b, p) < d(s, p) (subpaths of shortest paths are shortest).
    So it is the subtree at b that the walk visits, and below a vertex
    with base + d(b, c) > d(s, c) every descendant stays strictly worse.
  - The two orientations cannot both improve, or tie, at one vertex:
    adding d(s, x) + w <= d(s, y) and d(s, y) + w <= d(s, x), which both
    would need at the edge's ends, gives 2w <= 0.
  - Two shortest s-c paths in G + e cannot both avoid e (the old tree is
    untied), nor both use it (they would cross it the same way, with the
    old unique halves).  So a tie is exactly base + d(b, c) == d(s, c) at
    a vertex the walk reaches, and it raises TieDetected.  A kept tree
    gains no second shortest path.
- Keep rule.  A pair (u, v) whose distance is unchanged keeps its path.
  Its floor, the least d(u, ex) + w + d(ey, v) over the orientations
  (ex, ey) of the new edge reachable from it, bounds every u-v walk through
  the edge; it is None when no orientation is reachable.  An entry is kept
  as the same object when the floor is None or the entry is non-null and
  no longer than the floor (``_keeps_entry``).  With no floor, no walk
  inside the pair's component uses the edge, so the entry, null or not, is
  as before.  Otherwise no walk through the edge beats the entry, and its
  prefix d(u, x') cannot shorten: the shorter prefix plus the rest of the
  entry would be a walk through the edge that beats the entry, hence the
  floor; the suffix likewise.  So the entry names the same path, and a
  non-weak interval cannot become weak.  A pair whose entries are all kept
  keeps its old sub-table object, any other a copy in which the rest are
  recomputed; a pair whose distance fell recomputes every entry.
- Recomputing.  ``pair_entry`` recomputes one anchored interval
  R = [pa, pb] of the new path pi'(u, v) from routes through old tree
  paths.  On an unchanged pair the old entry is a candidate (gated unless
  its prefix and suffix kept their distances) and each reachable
  orientation (ex, ey) is a route: old pi(u, ex), the edge, old pi(ey, v).
  A pair whose distance fell now runs through the edge; its routes are its
  old pi(u, v), if any, and that one orientation.

The covering rule.  A route's old path shares a prefix [0, P] and a suffix
[Q, h] of pi'(u, v), either possibly empty; p and q are the vertices where
it leaves and rejoins.  A path that shares no edge with R is taken as its
plain walk.  Otherwise the old table is asked for the shortest subpath of
it that covers its edges in R: a..min(b, p) when R meets only the prefix,
max(a, q)..b when only the suffix, a..b when both.  An orientation is
skipped when R meets both of its sides, since no one old entry covers two
paths, or holds the new edge.  The subpath starts and ends at R's shared
edges: when a moved pair has pa == P, R meets the old pi(u, v) only on its
suffix, so the entry read is old [q..b].  An entry for old [p..b] would
also avoid the old middle [p..q], and on a weak interval it can be null or
too long.  Each candidate is a ``join`` of these parts and the new edge,
gated through the canonicalising transform against the new graph; the
shortest wins, the first of equal lengths.

Old values are only read, new values only written (double buffering), so the
covering rule always sees the pre-insertion structure.  Kept trees,
sub-tables and entries are shared between the old and the new structure
and are never mutated.

Lazy layers.  An insertion builds its new trees and its ``InsertionContext``
and then fills every pair with ``pair_table``.  Inside the offline range
tree an insertion may stop before the fill: its table is a ``PairTable``
whose fill is ``pair_table`` against the context, so each pair is computed
on its first read.  The context keeps its own handle on the old graph,
forest and table, which the insertion replaces on the live oracle; the old
table may itself be a lazy layer, and reading it fills it.  A fill is a
pure function of that frozen structure, so it gives the eager sub-table,
and a shared table may be filled by whichever reader comes first.  The
trees are updated at insertion, so TieDetected is raised there.
"""
from __future__ import annotations

from typing import Optional

from ..pathform import (
    CandidatePath, ProperForm, join, pf_intersects_interval, pf_segments, seg_edge,
    to_proper_form, transform_avoiding, walk,
)
from ..spt import ShortestPathTree, SptForest
from ..weights import CompositeWeight as W
from .static import Demand, IncrementalDso, PairTable, TieDetected, _pf_min_gated, anchors


class DuplicateEdge(ValueError):
    """The endpoints are already joined by an edge."""


class InsertionContext:
    """Shared state for one insertion: old and new structure side by side.

    Forms read from ``old_table`` or ``old_query`` are expanded against
    ``old_forest``; forms leaving ``gate`` are made against ``new_forest``.
    ``old`` is a handle of its own on the pre-insertion structure: the
    insertion then replaces the fields of the live oracle, and a lazy layer
    reads the old structure long after.
    """

    __slots__ = (
        "old", "old_forest", "old_table", "new_forest", "eid", "x", "y", "w",
        "_oq_cache",
    )

    def __init__(self, dso: IncrementalDso, new_forest: SptForest,
                 eid: int, x: int, y: int, w: W):
        self.old = IncrementalDso(dso.graph, dso.forest, dso.table, dso.ties)
        self.old_forest = dso.forest
        self.old_table = dso.table
        self.new_forest = new_forest
        self.eid = eid
        self.x = x
        self.y = y
        self.w = w
        self._oq_cache: dict = {}

    def fill(self, u: int, v: int, _cache: dict) -> dict:
        """``pair_table`` as the new ``PairTable``'s fill; it needs no
        per-source cache."""
        return pair_table(self, u, v)

    # -- candidate parts from the old structure ---------------------------

    def old_query(self, uu: int, vv: int, a: int, b: int) -> Optional[ProperForm]:
        """Old interval entry for the subpath a..b of pi(uu, vv), empty allowed."""
        key = (uu, vv, a, b)
        hit = self._oq_cache.get(key, False)
        if hit is not False:
            return hit
        got = None
        if self.old_forest.dist(uu, vv) is not None:
            got = self.old._query_vertices(uu, vv, a, b)
        self._oq_cache[key] = got
        return got

    def leg(self, s: int, t: int, lo: int, hi: int, met: bool):
        """Old pi(s, t) from s, or, when the interval ``met`` it, the old
        entry for its subpath lo..hi."""
        if not met:
            return walk(self.old_forest, s, t)
        return self.form(self.old_query(s, t, lo, hi), s)

    def form(self, pf: Optional[ProperForm], start: int):
        return None if pf is None else pf_segments(pf, self.old_forest, start)

    def edge(self, ex: int, ey: int):
        """The inserted edge, traversed ex -> ey."""
        return [seg_edge(self.eid, ex, ey, self.w)]

    # -- the canonicalising gate against the new graph -------------------

    def gate(self, segs, u: int, v: int, pa: int, pb: int,
             forms: Optional[dict] = None, key=None) -> Optional[ProperForm]:
        """``transform_avoiding`` against the new graph; with ``forms`` the
        proper form of ``segs`` is kept there under ``key`` for the next call."""
        nf = self.new_forest
        if forms is None or segs is None:
            return transform_avoiding(segs, nf, u, v, pa, pb)
        pf = forms.get(key, False)
        if pf is False:
            pf = forms[key] = to_proper_form(CandidatePath(segs), nf)
        if pf is None or pf_intersects_interval(pf, nf, u, v, pa, pb):
            return None
        return pf

    def pf_survives(self, pf: ProperForm) -> bool:
        """Prefix and suffix distances unchanged: the same paths, still valid."""
        of, nf = self.old_forest, self.new_forest
        return (nf.spts[pf.u].dist[pf.x] == of.spts[pf.u].dist[pf.x]
                and nf.spts[pf.y].dist[pf.v] == of.spts[pf.y].dist[pf.v])

    # -- per-pair geometry ------------------------------------------------

    def orientations(self, u: int, v: int) -> list:
        """(ex, ey, floor) for each orientation of the new edge reachable
        from u and v; floor = d(u, ex) + w + d(ey, v), read off the old trees
        of u and v, is the shortest u-v walk crossing the edge once, ex to ey."""
        du, dv = self.old_forest.spts[u].dist, self.old_forest.spts[v].dist
        return [(ex, ey, du[ex] + self.w + dv[ey])
                for ex, ey in ((self.x, self.y), (self.y, self.x))
                if du[ex] is not None and dv[ey] is not None]

    def _build_pair_info(self, u: int, v: int, orientations: list):
        """(X, routes) from the pair's ``orientations``: X is the new edge's
        position on the new pi(u, v), None when the path did not change; each
        route is (ex, ey, P, Q, p, q, floor), ex None for the old pi(u, v)."""
        of, nf = self.old_forest, self.new_forest
        d_old, d_new = of.dist(u, v), nf.dist(u, v)
        routes = []
        if d_old == d_new:
            # one route per reachable orientation, its floor pruning candidates
            h = of.hops(u, v)
            for ex, ey, floor in orientations:
                p = of.spts[u].lca(ex, v)
                q = of.spts[v].lca(ey, u)
                routes.append((ex, ey, of.spts[u].depth[p], h - of.spts[v].depth[q],
                               p, q, floor))
            return None, routes
        # the new path runs through the inserted edge; find its orientation
        through = [(ex, ey) for ex, ey, floor in orientations if floor == d_new]
        assert through, "changed pair must route through the new edge"
        ex, ey = through[0]
        X = nf.spts[u].depth[ex]
        if d_old is not None:
            # the old path leaves the new one at p and rejoins it at q
            p = of.spts[u].lca(v, ex)
            q = of.spts[v].lca(u, ey)
            routes.append((None, None, nf.spts[u].depth[p], nf.hops(u, v) - nf.spts[v].depth[q],
                           p, q, d_old))
        routes.append((ex, ey, X, X + 1, ex, ey, d_new))
        return X, routes


def pair_entry(ctx: InsertionContext, u: int, v: int, i: int, j: int,
               info, forms: dict, path: list) -> Optional[ProperForm]:
    """New entry (i, j) of pair (u, v) by the covering rule (module
    docstring); ``info`` is the pair's ``_build_pair_info``, ``forms``
    keeps the proper form of each route R misses for the pair's next entry,
    and ``path`` is the vertex list of the new pi(u, v)."""
    X, routes = info
    pa, pb = i, len(path) - 1 - j
    best = None
    if X is None:
        # an old entry whose endpoints kept their distances names the same
        # pair of tree paths, which still clears the same interval
        best = ctx.old_table[(u, v)][(i, j)]
        if best is not None and not ctx.pf_survives(best):
            best = ctx.gate(ctx.form(best, u), u, v, pa, pb)
    a, b = path[pa], path[pb]
    for ex, ey, P, Q, p, q, floor in routes:
        if best is not None and floor >= best.length:
            continue  # every candidate of the route is at least its floor
        pre, suf = pa < P, pb > Q  # R shares an edge with the shared prefix / suffix
        lo = a if pre or pa >= Q else q
        hi = b if suf or pb <= P else p
        if ex is None:
            segs = ctx.leg(u, v, lo, hi, pre or suf)
        elif (pre and suf) or (X is not None and pa <= X < pb):
            continue  # no one old entry covers both sides, none covers the edge
        else:
            segs = join(ctx.leg(u, ex, lo, hi, pre), ctx.edge(ex, ey), ctx.leg(ey, v, lo, hi, suf))
        best = _pf_min_gated(best, segs, ctx.gate, u, v, pa, pb,
                             None if pre or suf else forms, ex)
    return best


def _updated_tree(tree: ShortestPathTree, old_spts: list, x: int, y: int, w: W,
                  eid: int) -> ShortestPathTree:
    """The tree of ``tree.source`` with edge ``eid`` = (x, y, w) added, read
    off ``old_spts``, the trees before the insertion (module docstring):
    ``tree`` itself when no distance falls.  Raises TieDetected when the
    edge gives some vertex a second shortest path."""
    old = tree.dist
    for a, b in ((x, y), (y, x)):
        if old[a] is None:
            continue
        base = old[a] + w
        if old[b] is not None and not base < old[b]:
            if base == old[b]:
                raise TieDetected("inserted weight creates equal-length paths")
            continue
        # b improves, so the other orientation neither improves nor ties
        dist, parent = list(old), list(tree.parent)
        parent_edge, depth = list(tree.parent_edge), list(tree.depth)
        dist[b], parent[b], parent_edge[b], depth[b] = base, a, eid, depth[a] + 1
        spt_b = old_spts[b]
        db, pb, eb = spt_b.dist, spt_b.parent, spt_b.parent_edge
        children = spt_b.children()
        todo = list(children[b])
        for c in todo:
            d = base + db[c]
            if old[c] is not None and not d < old[c]:
                if d == old[c]:
                    raise TieDetected("inserted weight creates equal-length paths")
                continue
            p = pb[c]
            dist[c], parent[c], parent_edge[c], depth[c] = d, p, eb[c], depth[p] + 1
            todo.extend(children[c])
        new = ShortestPathTree(tree.source, dist, parent, parent_edge, depth, tree.tied)
        new.build_lca()
        return new
    return tree


def _keeps_entry(pf: Optional[ProperForm], floor: Optional[W]) -> bool:
    """Does an entry of a pair whose distance is unchanged stay as it is,
    given the pair's floor (the keep rule of the module docstring)?"""
    return floor is None or (pf is not None and pf.length <= floor)


def pair_table(ctx: InsertionContext, u: int, v: int) -> dict:
    """New sub-table of the connected pair (u, v) by the keep rule: the old
    object when every entry is kept, otherwise a table whose other entries
    ``pair_entry`` recomputes."""
    orientations = ctx.orientations(u, v)
    if ctx.old_forest.spts[u].dist[v] == ctx.new_forest.spts[u].dist[v]:
        old = ctx.old_table[(u, v)]
        floor = min((f for _, _, f in orientations), default=None)
        redo = [k for k, pf in old.items() if not _keeps_entry(pf, floor)]
        if not redo:
            return old
        sub = dict(old)
    else:
        redo, sub = anchors(ctx.new_forest.hops(u, v)), {}
    info = ctx._build_pair_info(u, v, orientations)
    forms: dict = {}  # route -> its proper form, for this pair only
    path = ctx.new_forest.path_vertices(u, v)
    for i, j in redo:
        sub[(i, j)] = pair_entry(ctx, u, v, i, j, info, forms, path)
    return sub


def insert_edge(dso: IncrementalDso, x: int, y: int, w_base: int,
                tie: Optional[int] = None, eid: Optional[int] = None,
                demand: Optional[Demand] = None) -> int:
    """Add an edge and refresh the structure; returns the new edge id.

    Updates each tree in closed form (``_updated_tree``); ``pair_table``
    keeps each entry the keep rule of the module docstring allows, and
    every other stored interval entry is recomputed from the old structure.
    Worst-case cost is O(n) per tree, plus its lifting table when it
    changes, plus a constant amount of work per stored interval entry.
    Raises DuplicateEdge for parallel inserts and TieDetected when the new
    edge gives some vertex two shortest paths.

    With a ``demand`` counter the new table is a lazy layer (module
    docstring) that counts its pairs there; without one every pair is
    filled before the call returns.
    """
    g = dso.graph
    if x == y:
        raise DuplicateEdge("self-loops are not allowed")
    if g.has_endpoints(x, y):
        raise DuplicateEdge(f"({x}, {y}) already present")
    if demand is None:
        # every old pair is read below; fill an on-demand table one source at a time
        dso.complete()
    if tie is None:
        tie = dso.ties.next()
    w = W(w_base, tie)
    g2, eid = g.plus_edge(x, y, w, eid=eid)
    old_spts = dso.forest.spts
    new_forest = SptForest(g2, [_updated_tree(tree, old_spts, x, y, w, eid)
                                for tree in old_spts])

    ctx = InsertionContext(dso, new_forest, eid, x, y, w)
    table = PairTable(new_forest, ctx.fill, demand)
    if demand is None:
        table = table.filled()

    dso.graph = g2
    dso.forest = new_forest
    dso.table = table
    return eid
