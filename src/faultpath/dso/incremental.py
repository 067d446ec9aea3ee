"""Worst-case edge insertion for the distance sensitivity oracle.

Inserting an edge (x, y) of weight w does only the work the edge can change.

- Trees.  The tree of source s is kept as the same object when neither
  endpoint is reachable from s, or when both are and d(s, x) + w > d(s, y)
  and d(s, y) + w > d(s, x): every route through the edge is then strictly
  longer than one avoiding it, so Dijkstra settles every vertex with the
  same distance and parent.  Every other tree is rebuilt, and a rebuilt
  tree whose ``tied`` flag is set raises TieDetected.  A kept tree needs no
  such check: no route through the edge is as short as its distances, so
  it gains no second shortest path.
- Pairs.  A pair (u, v) keeps its old sub-table object when d(u, v) is
  unchanged, no entry is null, and no entry is longer than the through-edge
  floor d(u, ex) + w + d(ey, v) of each reachable orientation (ex, ey).
  Any u-v walk through the edge costs at least the floor, so no entry can
  improve.  An entry's prefix d(u, x') cannot shorten either: the shorter
  prefix plus the rest of the entry would be a walk through the edge that
  beats the entry, hence the floor; the suffix likewise.  So every entry
  still names the same path, and a non-weak interval cannot become weak.
  On such a pair the case analysis below would return every old entry
  object unchanged.

Every other pair is classified by whether its shortest path changed, then
each anchored interval falls into one of a dozen positional cases relative
to the new edge and the old path's divergence/convergence points.  Every
case builds its candidates one way: a ``join`` of old tree walks
(``ctx.walk``), expanded old interval entries (``ctx.form``) and the new
edge (``ctx.edge``), each gated through the canonicalising transform
against the new graph.

Old values are only read, new values only written (double buffering), so the
case formulas always see the pre-insertion structure.  Kept trees and
reused sub-tables are shared between the old and the new structure and are
never mutated.
"""
from __future__ import annotations

from typing import Optional

from ..pathform import (
    CandidatePath, ProperForm, join, pf_intersects_interval, pf_segments, seg_edge,
    segs_length, to_proper_form, transform_avoiding, walk,
)
from ..spt import ShortestPathTree, SptForest, dijkstra
from ..weights import CompositeWeight as W
from .static import IncrementalDso, TieDetected, _pf_min, anchors


class DuplicateEdge(ValueError):
    """The endpoints are already joined by an edge."""


class CaseUnmatched(AssertionError):
    """Defensive: the positional case analysis failed to match."""


class InsertionContext:
    """Shared state for one insertion: old and new structure side by side.

    Forms read from ``old_table`` or ``old_query`` are expanded against
    ``old_forest``; forms leaving ``gate`` are made against ``new_forest``.
    """

    __slots__ = (
        "dso", "old_forest", "old_table", "new_forest", "eid", "x", "y", "w",
        "_pair", "_pf_cache", "_oq_cache",
    )

    def __init__(self, dso: IncrementalDso, new_forest: SptForest,
                 eid: int, x: int, y: int, w: W):
        self.dso = dso
        self.old_forest = dso.forest
        self.old_table = dso.table
        self.new_forest = new_forest
        self.eid = eid
        self.x = x
        self.y = y
        self.w = w
        self._pair: dict = {}
        self._pf_cache: dict = {}
        self._oq_cache: dict = {}

    # -- candidate parts from the old structure ---------------------------

    def old_query(self, uu: int, vv: int, a: int, b: int) -> Optional[ProperForm]:
        """Old interval entry for the subpath a..b of pi(uu, vv), empty allowed."""
        key = (uu, vv, a, b)
        hit = self._oq_cache.get(key, False)
        if hit is not False:
            return hit
        got = None
        if self.old_forest.dist(uu, vv) is not None:
            got = self.dso._query_vertices(uu, vv, a, b)
        self._oq_cache[key] = got
        return got

    def walk(self, a: int, b: int):
        return walk(self.old_forest, a, b)

    def form(self, pf: Optional[ProperForm], start: int):
        return None if pf is None else pf_segments(pf, self.old_forest, start)

    def edge(self, ex: int, ey: int):
        """The inserted edge, traversed ex -> ey."""
        return [seg_edge(self.eid, ex, ey, self.w)]

    # -- the canonicalising gate against the new graph -------------------

    def gate(self, segs, u: int, v: int, pa: int, pb: int,
             cache_key=None) -> Optional[ProperForm]:
        """``transform_avoiding`` against the new graph; with ``cache_key``
        the proper form of ``segs`` is kept for the next call with that key."""
        nf = self.new_forest
        if cache_key is None or segs is None:
            return transform_avoiding(segs, nf, u, v, pa, pb)
        pf = self._pf_cache.get(cache_key, False)
        if pf is False:
            pf = self._pf_cache[cache_key] = to_proper_form(CandidatePath(segs), nf)
        if pf is None or pf_intersects_interval(pf, nf, u, v, pa, pb):
            return None
        return pf

    def pf_survives(self, pf: ProperForm) -> bool:
        """Prefix and suffix distances unchanged: the same paths, still valid."""
        of, nf = self.old_forest, self.new_forest
        return (nf.spts[pf.u].dist[pf.x] == of.spts[pf.u].dist[pf.x]
                and nf.spts[pf.y].dist[pf.v] == of.spts[pf.y].dist[pf.v])

    # -- per-pair geometry ------------------------------------------------

    def pair_info(self, u: int, v: int):
        info = self._pair.get((u, v))
        if info is None:
            info = self._build_pair_info(u, v)
            self._pair[(u, v)] = info
        return info

    def _build_pair_info(self, u: int, v: int):
        of, nf = self.old_forest, self.new_forest
        d_old = of.dist(u, v)
        d_new = nf.dist(u, v)
        changed = d_old != d_new
        if not changed:
            # per-orientation divergence/convergence of the old trees, plus
            # the unconstrained through-edge length as a pruning floor
            orients = []
            h = of.hops(u, v)
            for ex, ey in ((self.x, self.y), (self.y, self.x)):
                due = of.dist(u, ex)
                dev = of.dist(ey, v)
                if due is None or dev is None:
                    continue
                p = of.spts[u].lca(ex, v)
                q = of.spts[v].lca(ey, u)
                floor = due + self.w + dev
                orients.append((ex, ey, of.spts[u].depth[p], h - of.spts[v].depth[q],
                                p, q, floor))
            return ("same", orients)
        # the new path runs through the inserted edge; find its orientation
        via_x = _opt_add3(of.dist(u, self.x), self.w, of.dist(self.y, v))
        via_y = _opt_add3(of.dist(u, self.y), self.w, of.dist(self.x, v))
        if via_x is not None and via_x == d_new:
            ex, ey = self.x, self.y
        else:
            assert via_y == d_new, "changed pair must route through the new edge"
            ex, ey = self.y, self.x
        h2 = nf.hops(u, v)
        pos_x = nf.spts[u].depth[ex]
        if d_old is None:
            p_pos, q_pos = 0, h2
            p_vtx, q_vtx = u, v
        else:
            p_vtx = of.spts[u].lca(v, ex)
            q_vtx = of.spts[v].lca(u, ey)
            p_pos = nf.spts[u].depth[p_vtx]
            q_pos = h2 - nf.spts[v].depth[q_vtx]
        return ("moved", ex, ey, pos_x, p_pos, q_pos, p_vtx, q_vtx)


def _opt_add3(a: Optional[W], w: W, b: Optional[W]) -> Optional[W]:
    if a is None or b is None:
        return None
    return a + w + b


def dispatch_changed(ctx: InsertionContext, u: int, v: int, i: int, j: int) -> Optional[ProperForm]:
    """New entry for a pair whose shortest path moved onto the new edge."""
    info = ctx.pair_info(u, v)
    _, ex, ey, pos_x, P, Q, p_vtx, q_vtx = info
    nf = ctx.new_forest
    h2 = nf.hops(u, v)
    pa, pb = i, h2 - j
    a_v = nf.vertex_at(u, v, pa)
    b_v = nf.vertex_at(u, v, pb)
    X = pos_x
    ra = 0 if pa <= P else (1 if pa <= X else (2 if pa <= Q else 3))
    rb = 0 if pb <= P else (1 if pb <= X else (2 if pb <= Q else 3))

    def t(segs, key=None, best=None):
        # the shorter of best and the gated walk; a gated form is as long as
        # its walk and _pf_min keeps best on a tie, so a walk no shorter than
        # best is not gated
        if segs is None or (best is not None and segs_length(segs) >= best.length):
            return best
        return _pf_min(best, ctx.gate(segs, u, v, pa, pb, cache_key=key))

    edge = ctx.edge(ex, ey)
    old_uv = lambda: t(ctx.walk(u, v), key=("uv", u, v))
    q_uv = lambda a, b: t(ctx.form(ctx.old_query(u, v, a, b), u))
    q_left = lambda a, b, best: t(join(
        ctx.form(ctx.old_query(u, ex, a, b), u), edge, ctx.walk(ey, v)), best=best)
    q_right = lambda a, b, best: t(join(
        ctx.walk(u, ex), edge, ctx.form(ctx.old_query(ey, v, a, b), ey)), best=best)

    if ra == 1 and rb == 2:
        # CASE 1: divergence and convergence bracket R, the edge inside
        return old_uv()
    if ra == 0 and rb == 0:
        # CASE 2: R on the shared prefix before the divergence point
        return q_left(a_v, b_v, q_uv(a_v, b_v))
    if ra == 3 and rb == 3:
        # CASE 2 mirrored: R on the shared suffix after the convergence
        return q_right(a_v, b_v, q_uv(a_v, b_v))
    if ra == 2 and rb == 2:
        # CASE 3: R between the edge and the convergence point
        return q_right(a_v, b_v, old_uv())
    if ra == 1 and rb == 1:
        # CASE 3 mirrored: R between the divergence point and the edge
        return q_left(a_v, b_v, old_uv())
    if ra == 1 and rb == 3:
        # CASE 4: a inside [p, x], b beyond q
        return q_uv(q_vtx, b_v)
    if ra == 0 and rb == 2:
        # CASE 4 mirrored
        return q_uv(a_v, p_vtx)
    if ra == 2 and rb == 3:
        # CASE 5: a in [y, q], b beyond q
        return q_right(a_v, b_v, q_uv(q_vtx, b_v))
    if ra == 0 and rb == 1:
        # CASE 5 mirrored
        return q_left(a_v, b_v, q_uv(a_v, p_vtx))
    if ra == 0 and rb == 3:
        # CASE 6: R spans both divergence and convergence
        return q_uv(a_v, b_v)
    raise CaseUnmatched(f"pair ({u},{v}) interval ({i},{j}): ra={ra} rb={rb}")


def dispatch_unchanged(ctx: InsertionContext, u: int, v: int, i: int, j: int) -> Optional[ProperForm]:
    """New entry for a pair whose shortest path is untouched by the edge."""
    orients = ctx.pair_info(u, v)[1]
    old_pf = ctx.old_table[(u, v)].get((i, j))
    # endpoints kept their distances, so the stored decomposition is the
    # same pair of tree paths and still clears the same interval
    survives = old_pf is not None and ctx.pf_survives(old_pf)
    if survives and all(floor >= old_pf.length for *_, floor in orients):
        return old_pf  # no through-edge candidate is shorter than its floor
    nf = ctx.new_forest
    h = nf.hops(u, v)
    pa, pb = i, h - j
    a_v = nf.vertex_at(u, v, pa)
    b_v = nf.vertex_at(u, v, pb)

    def t(segs, key=None):
        # a gated form is as long as its walk, and _pf_min keeps best on a
        # tie, so a walk no shorter than best cannot change the entry
        if segs is None or (best is not None and segs_length(segs) >= best.length):
            return None
        return ctx.gate(segs, u, v, pa, pb, cache_key=key)

    best = old_pf if survives else None
    if best is None:
        best = t(ctx.form(old_pf, u))
    for ex, ey, P, Q, p_vtx, q_vtx, floor in orients:
        if best is not None and floor >= best.length:
            continue  # every through-edge candidate is at least the floor
        edge = ctx.edge(ex, ey)
        if pb <= P:
            cand = t(join(ctx.form(ctx.old_query(u, ex, a_v, b_v), u), edge, ctx.walk(ey, v)))
        elif pa < P <= pb <= Q:
            cand = t(join(ctx.form(ctx.old_query(u, ex, a_v, p_vtx), u), edge, ctx.walk(ey, v)))
        elif P <= pa and pb <= Q:
            cand = t(join(ctx.walk(u, ex), edge, ctx.walk(ey, v)), key=("uxyv", u, v, ex))
        elif P <= pa <= Q < pb:
            cand = t(join(ctx.walk(u, ex), edge, ctx.form(ctx.old_query(ey, v, q_vtx, b_v), ey)))
        elif Q <= pa:
            cand = t(join(ctx.walk(u, ex), edge, ctx.form(ctx.old_query(ey, v, a_v, b_v), ey)))
        else:
            # a < p <= q < b: a weak interval cannot route through the edge
            cand = None
        best = _pf_min(best, cand)
    return best


def _keeps_tree(tree: ShortestPathTree, x: int, y: int, w: W) -> bool:
    """Is the old tree of this source still its tree with (x, y, w) added?"""
    dx, dy = tree.dist[x], tree.dist[y]
    if dx is None or dy is None:
        return dx is None and dy is None
    return dx + w > dy and dy + w > dx


def _reuses_pair(ctx: InsertionContext, u: int, v: int) -> bool:
    """May pair (u, v) keep its old sub-table object (module docstring)?"""
    of = ctx.old_forest
    du = of.spts[u].dist
    if du[v] is None or du[v] != ctx.new_forest.spts[u].dist[v]:
        return False
    floor = None
    for ex, ey in ((ctx.x, ctx.y), (ctx.y, ctx.x)):
        f = _opt_add3(du[ex], ctx.w, of.spts[ey].dist[v])
        if f is not None and (floor is None or f < floor):
            floor = f
    for pf in ctx.old_table[(u, v)].values():
        if pf is None or (floor is not None and pf.length > floor):
            return False
    return True


def insert_edge(dso: IncrementalDso, x: int, y: int, w_base: int,
                tie: Optional[int] = None, eid: Optional[int] = None) -> int:
    """Add an edge and refresh the structure; returns the new edge id.

    Rebuilds only the trees the edge can change and keeps the old sub-table
    object of every pair that passes the reuse rule of the module docstring;
    every other stored interval entry is recomputed from the old structure.
    Worst-case cost is one all-sources rebuild plus a constant amount of
    work per stored interval entry.  Raises DuplicateEdge for parallel
    inserts and TieDetected when a rebuilt tree has two shortest paths.
    """
    g = dso.graph
    if x == y:
        raise DuplicateEdge("self-loops are not allowed")
    if g.has_endpoints(x, y):
        raise DuplicateEdge(f"({x}, {y}) already present")
    if tie is None:
        tie = dso.ties.next()
    w = W(w_base, tie)
    g2, eid = g.plus_edge(x, y, w, eid=eid)
    spts = []
    for s, tree in enumerate(dso.forest.spts):
        if not _keeps_tree(tree, x, y, w):
            tree = dijkstra(g2, s, with_lca=True)
            if tree.tied:
                raise TieDetected("inserted weight creates equal-length paths")
        spts.append(tree)
    new_forest = SptForest(g2, spts)

    ctx = InsertionContext(dso, new_forest, eid, x, y, w)
    new_table: dict = {}
    n = g2.n
    for u in range(n):
        spt_u = new_forest.spts[u]
        for v in range(u + 1, n):
            if spt_u.dist[v] is None:
                continue
            if _reuses_pair(ctx, u, v):
                new_table[(u, v)] = ctx.old_table[(u, v)]
                continue
            h2 = spt_u.depth[v]
            sub = {}
            moved = ctx.pair_info(u, v)[0] == "moved"
            fn = dispatch_changed if moved else dispatch_unchanged
            for (i, j) in anchors(h2):
                sub[(i, j)] = fn(ctx, u, v, i, j)
            new_table[(u, v)] = sub

    dso.graph = g2
    dso.forest = new_forest
    dso.table = new_table
    return eid
