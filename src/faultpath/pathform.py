"""Canonical path decompositions: shortest prefix + bridge edge + shortest suffix.

A candidate path is held as a short list of implicit segments (tree paths
or single edges), indexable in O(log) without materialising vertices.
``to_proper_form`` decides in O(polylog) whether a candidate can be
rewritten as shortest-path / bridge / shortest-path in the current graph,
and ``transform_avoiding`` additionally rejects candidates sharing an edge
with a given interval of pi(u, v).
"""
from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple, Optional

from .spt import SptForest
from .weights import CompositeWeight as W, ZERO


class NotAPath(ValueError):
    """Vertex sequence is not edge-connected."""


class ProperForm(NamedTuple):
    """Path u -> v as shortest(u, x) + bridge + shortest(y, v).

    ``bridge is None`` means x == y (two shortest halves) or, when also
    x == v, the plain shortest path.  The halves are tree paths of the
    forest the form was made against; ``length`` is re-derived from its
    tree distances.
    """

    u: int
    x: int
    bridge: Optional[int]
    y: int
    v: int
    length: W


# ---------------------------------------------------------------------------
# candidate paths as segment lists
# ---------------------------------------------------------------------------

def seg_down(spt, top: int, bottom: int):
    """Tree path traversed from ancestor ``top`` down to ``bottom``."""
    ne = spt.depth[bottom] - spt.depth[top]
    a, b = spt.dist[top], spt.dist[bottom]
    return ("d", spt, top, bottom, ne, W(b.base - a.base, b.tie - a.tie), top, bottom)


def seg_up(spt, bottom: int, top: int):
    """Tree path traversed from ``bottom`` up to its ancestor ``top``."""
    ne = spt.depth[bottom] - spt.depth[top]
    a, b = spt.dist[top], spt.dist[bottom]
    return ("u", spt, top, bottom, ne, W(b.base - a.base, b.tie - a.tie), bottom, top)


def seg_edge(eid: int, frm: int, to: int, w: W):
    return ("e", eid, frm, to, 1, w, frm, to)


class CandidatePath:
    """Concatenation of segments with O(log) indexed access.

    Supports ``vertex(i)`` for 0 <= i <= num_edges, ``edge(i)`` and
    ``probe(i)``, which gives vertex i with the composite length of the first
    i edges.  Segments must chain end-to-start; zero-edge segments are
    dropped.
    """

    __slots__ = ("segs", "cum_edges", "cum_len", "num_edges", "length", "start", "end")

    def __init__(self, segs):
        segs = [s for s in segs if s[4] > 0]
        self.segs = segs
        cum_e = [0]
        cum_l = [ZERO]
        for s in segs:
            cum_e.append(cum_e[-1] + s[4])
            cum_l.append(cum_l[-1] + s[5])
        self.cum_edges = cum_e
        self.cum_len = cum_l
        self.num_edges = cum_e[-1]
        self.length = cum_l[-1]
        if segs:
            self.start = segs[0][6]
            self.end = segs[-1][7]
            prev_end = self.start
            for s in segs:
                if s[6] != prev_end:
                    raise NotAPath("segments do not chain")
                prev_end = s[7]
        else:
            self.start = self.end = None  # caller handles empty paths

    def _locate(self, i: int) -> int:
        return bisect_right(self.cum_edges, i) - 1 if i else 0

    def vertex(self, i: int) -> int:
        if i == self.num_edges:
            return self.end
        k = self._locate(i)
        s = self.segs[k]
        j = i - self.cum_edges[k]
        kind = s[0]
        if kind == "d":
            spt, top, bottom = s[1], s[2], s[3]
            return spt.ancestor_at_depth(bottom, spt.depth[top] + j)
        if kind == "u":
            spt, bottom = s[1], s[3]
            return spt.ancestor_at_depth(bottom, spt.depth[bottom] - j)
        return s[2] if j == 0 else s[3]

    def edge(self, i: int) -> int:
        k = self._locate(i)
        s = self.segs[k]
        j = i - self.cum_edges[k]
        kind = s[0]
        if kind == "d":
            spt, top, bottom = s[1], s[2], s[3]
            child = spt.ancestor_at_depth(bottom, spt.depth[top] + j + 1)
            return spt.parent_edge[child]
        if kind == "u":
            spt, bottom = s[1], s[3]
            node = spt.ancestor_at_depth(bottom, spt.depth[bottom] - j)
            return spt.parent_edge[node]
        return s[1]

    def probe(self, i: int) -> tuple[int, W]:
        """Vertex i and the composite length of the first i edges."""
        if i == 0:
            return self.start, ZERO
        if i == self.num_edges:
            return self.end, self.length
        k = self._locate(i)
        s = self.segs[k]
        j = i - self.cum_edges[k]
        base = self.cum_len[k]
        kind = s[0]
        if kind == "d":
            spt, top, bottom = s[1], s[2], s[3]
            z = spt.ancestor_at_depth(bottom, spt.depth[top] + j)
            dz, dt = spt.dist[z], spt.dist[top]
            return z, W(base.base + dz.base - dt.base, base.tie + dz.tie - dt.tie)
        if kind == "u":
            spt, bottom = s[1], s[3]
            z = spt.ancestor_at_depth(bottom, spt.depth[bottom] - j)
            db, dz = spt.dist[bottom], spt.dist[z]
            return z, W(base.base + db.base - dz.base, base.tie + db.tie - dz.tie)
        return (s[2], base) if j == 0 else (s[3], base + s[5])

    def vertices(self) -> list[int]:
        return [self.vertex(i) for i in range(self.num_edges + 1)]

    def edge_ids(self) -> list[int]:
        return [self.edge(i) for i in range(self.num_edges)]


def pf_segments(pf: ProperForm, forest: SptForest, start: int):
    """Expand a proper form made against ``forest`` into segments oriented
    to begin at ``start``."""
    segs = []
    if start == pf.u:
        if pf.x != pf.u:
            segs.append(seg_down(forest.spts[pf.u], pf.u, pf.x))
        if pf.bridge is not None:
            e = forest.graph.edges[pf.bridge]
            segs.append(seg_edge(pf.bridge, pf.x, pf.y, e.w))
        if pf.y != pf.v:
            segs.append(seg_up(forest.spts[pf.v], pf.y, pf.v))
    elif start == pf.v:
        if pf.y != pf.v:
            segs.append(seg_down(forest.spts[pf.v], pf.v, pf.y))
        if pf.bridge is not None:
            e = forest.graph.edges[pf.bridge]
            segs.append(seg_edge(pf.bridge, pf.y, pf.x, e.w))
        if pf.x != pf.u:
            segs.append(seg_up(forest.spts[pf.u], pf.x, pf.u))
    else:
        raise ValueError("start must be an endpoint of the proper form")
    return segs


def pf_path(pf: ProperForm, forest: SptForest, start: Optional[int] = None) -> CandidatePath:
    return CandidatePath(pf_segments(pf, forest, pf.u if start is None else start))


# ---------------------------------------------------------------------------
# the decomposition and transform
# ---------------------------------------------------------------------------

def to_proper_form(path: CandidatePath, forest: SptForest) -> Optional[ProperForm]:
    """Rewrite ``path`` as prefix/bridge/suffix of ``forest``'s graph, or None.

    Binary-searches the longest walk prefix whose length matches the tree
    distance (prefixes of shortest paths are shortest, so the predicate is
    monotone), then accepts if the remainder, with or without one bridge
    edge, is itself a shortest path.
    """
    ne = path.num_edges
    u = path.start
    v = path.end
    du = forest.spts[u].dist
    if ne == 0:
        return ProperForm(u, u, None, u, u, ZERO)

    lo, hi = 0, ne  # predicate(lo) always true
    while lo < hi:
        mid = (lo + hi + 1) // 2
        z, plen = path.probe(mid)
        if du[z] == plen:
            lo = mid
        else:
            hi = mid - 1
    j = lo
    if j == ne:
        return ProperForm(u, v, None, v, v, du[v])

    x, tail_x = path.probe(j)
    total = path.length
    # remainder after one bridge edge
    y, tail = path.probe(j + 1)
    rest = W(total.base - tail.base, total.tie - tail.tie)
    dyv = forest.spts[y].dist[v]
    if dyv is not None and dyv == rest:
        eid = path.edge(j)
        length = du[x] + forest.graph.edges[eid].w + dyv
        return ProperForm(u, x, eid, y, v, length)
    # remainder without a bridge (two shortest halves meeting at x)
    rest_x = W(total.base - tail_x.base, total.tie - tail_x.tie)
    dxv = forest.spts[x].dist[v]
    if dxv is not None and dxv == rest_x:
        return ProperForm(u, x, None, x, v, du[x] + dxv)
    return None


def pf_intersects_interval(pf: ProperForm, forest: SptForest, u: int, v: int,
                           pa: int, pb: int) -> bool:
    """Does the proper form share an edge with positions [pa, pb] of pi(u, v)?

    Constant-time LCA test; ``pf`` must be oriented u -> v and its prefix and
    suffix must be tree paths of ``forest``, the forest of the interval.
    """
    spt_u = forest.spts[u]
    spt_v = forest.spts[v]
    a_vtx = spt_u.ancestor_at_depth(v, pa)
    b_vtx = spt_u.ancestor_at_depth(v, pb)
    if pf.x != pf.u and spt_u.root_paths_share_edge(pf.x, a_vtx, b_vtx):
        return True
    if pf.y != pf.v:
        # seen from v the interval runs [b_vtx .. a_vtx]
        if spt_v.root_paths_share_edge(pf.y, b_vtx, a_vtx):
            return True
    if pf.bridge is not None:
        e = forest.graph.edges[pf.bridge]
        if forest.on_path(u, v, e.u) and forest.on_path(u, v, e.v):
            p1 = forest.path_pos(u, v, e.u)
            p2 = forest.path_pos(u, v, e.v)
            lo, hi = (p1, p2) if p1 < p2 else (p2, p1)
            if hi - lo == 1 and lo >= pa and hi <= pb and forest.edge_at(u, v, lo) == pf.bridge:
                return True
    return False


def transform_avoiding(segs, forest: SptForest, u: int, v: int,
                       pa: int, pb: int) -> Optional[ProperForm]:
    """The canonicalising gate: proper form that avoids [pa, pb], else None.

    ``segs`` may be None (absorbing null input) or a segment list whose walk
    runs u -> v.
    """
    if segs is None:
        return None
    path = CandidatePath(segs)
    pf = to_proper_form(path, forest)
    if pf is None:
        return None
    if pf_intersects_interval(pf, forest, u, v, pa, pb):
        return None
    return pf

