"""Canonical path decompositions: shortest prefix + bridge edge + shortest suffix.

A candidate path is held as a short list of implicit segments, read at
their ends without materialising vertices.  There are two kinds: a tree walk
``seg_walk(spt, v)``, the path from the tree's source down to v, and a
single edge ``seg_edge``.  Every candidate is assembled the same way: ``walk``
gives pi(a, b) read off a's tree, ``pf_segments`` expands a stored proper
form (walk + bridge + walk, as in Bernstein and Karger, SODA 2009), and
``join`` concatenates the parts, absorbing a missing one as None;
``segs_length`` and ``segs_edge_ids`` read a list's length and edges.  A walk
toward a tree's root is read off the tree of its first vertex instead,
which is the same path on the verified untied forests the oracle uses.
``to_proper_form`` decides in O(polylog) whether a candidate can be
rewritten as shortest-path / bridge / shortest-path in the current graph,
and ``transform_avoiding`` additionally rejects candidates sharing an edge
with a given interval of pi(u, v).

The decision is made at segment ends first.  A prefix or suffix of a
shortest walk is itself shortest, so "the prefix up to position i is
shortest" holds up to the split point and fails after it, and "the
suffix from position i is shortest" fails up to some point and holds
from there on.  The segment ends are read in O(1) each, so a scan of
them finds the one segment that holds the split; when the suffix from
that segment's end is not shortest, no form exists and no position
inside is probed.  Only then does a binary search run, inside that one
segment.  It finds the split point a search over every position would
find, so the form is the same.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

from .spt import SptForest
from .weights import CompositeWeight as W, ZERO


class NotAPath(ValueError):
    """A segment does not start where the previous one ends."""


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
# A segment is (kind, tree or edge id, edge count, length, start, end).

def seg_walk(spt, v: int):
    """Tree path from ``spt.source`` down to ``v``."""
    return ("w", spt, spt.depth[v], spt.dist[v], spt.source, v)


def seg_edge(eid: int, frm: int, to: int, w: W):
    return ("e", eid, 1, w, frm, to)


def walk(forest: SptForest, a: int, b: int):
    """Segments of pi(a, b): ``[]`` when a == b, None when b is unreachable.

    The walk is read off a's tree; under unique ties it is the reverse of
    the path b's tree holds.
    """
    if a == b:
        return []
    spt = forest.spts[a]
    return None if spt.dist[b] is None else [seg_walk(spt, b)]


def join(*parts):
    """Concatenated segment lists, or None when some part is None."""
    if None in parts:
        return None
    return [seg for part in parts for seg in part]


def segs_length(segs) -> W:
    """Composite length of a segment list."""
    total = ZERO
    for seg in segs:
        total = total + seg[3]
    return total


def segs_edge_ids(segs) -> list[int]:
    """Edge ids of a segment list, in walk order."""
    return [eid for seg in segs
            for eid in (seg[1].path_edges(seg[5]) if seg[0] == "w" else (seg[1],))]


def pf_segments(pf: ProperForm, forest: SptForest, start: int):
    """Expand a proper form made against ``forest`` into segments oriented
    to begin at ``start``."""
    if start == pf.u:
        a, x, y, b = pf.u, pf.x, pf.y, pf.v
    elif start == pf.v:
        a, x, y, b = pf.v, pf.y, pf.x, pf.u
    else:
        raise ValueError("start must be an endpoint of the proper form")
    bridge = [] if pf.bridge is None else \
        [seg_edge(pf.bridge, x, y, forest.graph.edges[pf.bridge].w)]
    return join(walk(forest, a, x), bridge, walk(forest, y, b))


# ---------------------------------------------------------------------------
# the decomposition and transform
# ---------------------------------------------------------------------------

def to_proper_form(segs, forest: SptForest) -> Optional[ProperForm]:
    """Rewrite the walk of the nonempty segment list ``segs`` as
    prefix/bridge/suffix of ``forest``'s graph, or None; NotAPath if the
    segments do not chain end to start.

    The split x is the end of the longest prefix whose length matches the
    tree distance.  Prefixes of shortest walks are shortest, and so are
    suffixes, so both predicates are monotone along the walk.  A scan of
    the segment ends, O(1) each, finds the first segment whose end has no
    shortest prefix; x lies inside it.  The remainder from that segment's
    end must then be shortest, since every accepted form's remainder
    contains it; if not, no form exists.  Otherwise a binary search inside
    that one segment finds x, the same vertex a search over every position
    finds.  The walk is accepted if the remainder after x, with or without
    one bridge edge, is itself a shortest path.
    """
    u, v = segs[0][4], segs[-1][5]
    # cum_len[k]: length of the first k segments
    cum_len = [ZERO]
    end = u
    for seg in segs:
        if seg[4] != end:
            raise NotAPath("segments do not chain")
        end = seg[5]
        cum_len.append(cum_len[-1] + seg[3])
    du = forest.spts[u].dist
    t = 0
    for seg in segs:
        if du[seg[5]] != cum_len[t + 1]:
            break
        t += 1
    else:
        return ProperForm(u, v, None, v, v, du[v])
    total = cum_len[-1]
    if forest.spts[seg[5]].dist[v] != total - cum_len[t + 1]:
        return None

    # x and y: the ends of the bridge edge inside segment t, with their
    # prefix lengths px and py
    base = cum_len[t]
    if seg[0] == "e":
        x, y, eid = seg[4], seg[5], seg[1]
        px, py = base, base + seg[3]
    else:
        spt, x, y = seg[1], seg[4], seg[5]
        dist = spt.dist
        lo, hi = 0, seg[2] - 1  # depth of x, and of y less one
        while lo < hi:
            mid = (lo + hi + 1) // 2
            z = spt.ancestor_at_depth(seg[5], mid)
            if du[z] == base + dist[z]:
                lo, x = mid, z
            else:
                hi, y = mid - 1, z
        eid = spt.parent_edge[y]
        px, py = base + dist[x], base + dist[y]
    # remainder after one bridge edge
    dyv = forest.spts[y].dist[v]
    if dyv is not None and dyv == total - py:
        return ProperForm(u, x, eid, y, v, du[x] + forest.graph.edges[eid].w + dyv)
    # remainder without a bridge (two shortest halves meeting at x)
    dxv = forest.spts[x].dist[v]
    if dxv is not None and dxv == total - px:
        return ProperForm(u, x, None, x, v, du[x] + dxv)
    return None


def pf_intersects_interval(pf: ProperForm, forest: SptForest, u: int, v: int,
                           pa: int, pb: int) -> bool:
    """Does the proper form share an edge with positions [pa, pb] of pi(u, v)?

    O(log n) LCA test; ``pf`` must be oriented u -> v and its prefix and
    suffix must be tree paths of ``forest``, the forest of the interval.
    """
    spt_u = forest.spts[u]
    spt_v = forest.spts[v]
    a_vtx = spt_u.ancestor_at_depth(v, pa)
    b_vtx = spt_u.ancestor_at_depth(v, pb)
    if pf.x != pf.u and spt_u.root_paths_share_edge(pf.x, a_vtx, b_vtx):
        return True
    # seen from v the interval runs [b_vtx .. a_vtx]
    if pf.y != pf.v and spt_v.root_paths_share_edge(pf.y, b_vtx, a_vtx):
        return True
    if pf.bridge is None:
        return False
    pos = forest.edge_pos(u, v, pf.bridge)
    return pos is not None and pa <= pos < pb


def transform_avoiding(segs, forest: SptForest, u: int, v: int,
                       pa: int, pb: int) -> Optional[ProperForm]:
    """The canonicalising gate: proper form that avoids [pa, pb], else None.

    ``segs`` may be None (absorbing null input) or a segment list whose walk
    runs u -> v.
    """
    pf = None if segs is None else to_proper_form(segs, forest)
    if pf is None or pf_intersects_interval(pf, forest, u, v, pa, pb):
        return None
    return pf

