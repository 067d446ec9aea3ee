import random

import pytest

from conftest import edge_walk
from faultpath.families import detour_rich, path, random_connected
from faultpath.graph import perturb_and_verify
from faultpath.dso.incremental import insert_edge
from faultpath.dso.static import IncrementalDso
from faultpath.pathform import (
    NotAPath, ProperForm,
    join, pf_intersects_interval, pf_segments, seg_edge, seg_walk, segs_edge_ids, segs_length,
    to_proper_form, transform_avoiding, walk,
)
from faultpath.reference import path_avoiding
from faultpath.spt import SptForest
from faultpath.weights import ZERO


def forest_of(g):
    return SptForest.build(g)


def expand(segs):
    """Vertices and edge ids of a segment list, read off each walk's tree
    by its own ``path_vertices`` and ``path_edges``."""
    verts, eids = [segs[0][4]], []
    for kind, obj, _, _, _, end in segs:
        if kind == "w":
            verts += obj.path_vertices(end)[1:]
            eids += obj.path_edges(end)
        else:
            verts.append(end)
            eids.append(obj)
    return verts, eids


def _prefix_lengths(g, eids):
    """Composite length of the first i edges of ``eids``, for every i."""
    pre = [ZERO]
    for eid in eids:
        pre.append(pre[-1] + g.edges[eid].w)
    return pre


def test_segs_edge_ids_and_length(g_small):
    f = forest_of(g_small)
    for v in range(1, g_small.n):
        segs = [seg_walk(f.spts[0], v)]
        assert segs_edge_ids(segs) == f.path_edge_ids(0, v)
        assert segs_length(segs) == f.dist(0, v)
        # reversed traversal, read off the tree of v
        back = [seg_walk(f.spts[v], 0)]
        assert segs_edge_ids(back) == segs_edge_ids(segs)[::-1]
        assert segs_length(back) == segs_length(segs)
    # walk + edge + walk
    for e in g_small.edges.values():
        segs = join(walk(f, 0, e.u), _edge(e, e.u), walk(f, e.v, 5))
        assert segs_edge_ids(segs) == f.path_edge_ids(0, e.u) + [e.eid] + f.path_edge_ids(e.v, 5)
        assert segs_length(segs) == f.dist(0, e.u) + e.w + f.dist(e.v, 5)


def test_to_proper_form_shortest_path_is_degenerate(g_small):
    f = forest_of(g_small)
    pf = to_proper_form([seg_walk(f.spts[2], 9)], f)
    assert pf is not None and pf.bridge is None and pf.x == 9
    assert pf.length == f.dist(2, 9)


def test_to_proper_form_recovers_bridge_decomposition(g_mid):
    f = forest_of(g_mid)
    g = g_mid
    # build sp(u, x) + edge + sp(y, v) and check exact recovery
    hits = 0
    for e in g.edges.values():
        for u, v in ((0, g.n - 1), (3, 11)):
            if f.dist(u, e.u) is None or f.dist(e.v, v) is None:
                continue
            segs = []
            if e.u != u:
                segs.append(seg_walk(f.spts[u], e.u))
            segs.append(seg_edge(e.eid, e.u, e.v, e.w))
            if e.v != v:
                segs.append(seg_walk(f.spts[e.v], v))
            pf = to_proper_form(segs, f)
            if pf is None:
                continue
            hits += 1
            # the decomposition must re-derive the same length as the walk
            # only when the walk itself was minimal among proper forms
            assert pf.length <= segs_length(segs)
            assert pf.u == u and pf.v == v
    assert hits > 10


def test_segments_that_do_not_chain_raise(g_small):
    f = forest_of(g_small)
    e = next(e for e in g_small.edges.values() if not {0, 3, 7} & {e.u, e.v})
    whole = join(walk(f, 0, e.u), _edge(e, e.u), walk(f, e.v, 7))
    # the edge, or the last walk, starts away from the previous segment's end
    for k, seg in ((1, _edge(e, e.v)[0]), (2, seg_walk(f.spts[3], 7))):
        broken = whole[:k] + [seg] + whole[k + 1:]
        with pytest.raises(NotAPath):
            to_proper_form(broken, f)
        with pytest.raises(NotAPath):
            transform_avoiding(broken, f, 0, 7, 0, 1)


def test_walk_reversed_is_the_reverse_path(g_small):
    f = forest_of(g_small)
    for a in range(g_small.n):
        assert walk(f, a, a) == []
        for b in range(a + 1, g_small.n):
            ab, ba = walk(f, a, b), walk(f, b, a)
            (va, ea), (vb, eb) = expand(ab), expand(ba)
            assert vb == va[::-1]
            assert eb == ea[::-1]
            assert segs_length(ba) == segs_length(ab) == f.dist(a, b)


def test_walk_to_unreachable_vertex_is_none():
    g = perturb_and_verify(4, [(0, 1, 3), (2, 3, 4)], seed=1)
    f = forest_of(g)
    assert walk(f, 0, 2) is None
    assert walk(f, 0, 1) is not None


def test_pf_segments_from_v_reverse_those_from_u(g_mid):
    dso = IncrementalDso.build(g_mid)
    f = dso.forest
    checked = 0
    for sub in dso.table.values():
        for pf in sub.values():
            if pf is None:
                continue
            fwd, back = pf_segments(pf, f, pf.u), pf_segments(pf, f, pf.v)
            (vf, ef), (vb, eb) = expand(fwd), expand(back)
            assert vb == vf[::-1]
            assert eb == ef[::-1]
            assert segs_length(back) == segs_length(fwd) == pf.length
            checked += 1
    assert checked > 100


def test_three_piece_concatenation_rejected():
    # two forced bridges: 0-1 | 1-2 | 2-3 with heavy shortcut edges
    g = perturb_and_verify(
        6,
        [(0, 1, 10), (1, 2, 10), (2, 3, 10), (0, 4, 1), (4, 1, 1),
         (1, 5, 1), (5, 2, 1)],
        seed=2,
    )
    f = forest_of(g)
    # walk 0-1-2-3 along the heavy edges: its prefix 0-1 is not shortest
    # (0-4-1 is), nor is any one-bridge decomposition of the full walk
    eids = []
    for a, b in ((0, 1), (1, 2), (2, 3)):
        eids.append(next(e.eid for e in g.edges.values() if {e.u, e.v} == {a, b}))
    assert to_proper_form(edge_walk(g, 0, eids), f) is None


def test_transform_null_absorbing(g_small):
    f = forest_of(g_small)
    assert transform_avoiding(None, f, 0, 5, 0, 1) is None


def test_transform_rejects_interval_overlap():
    g = path(5, weights=[2, 3, 4, 5])
    f = forest_of(g)
    segs = [seg_walk(f.spts[0], 4)]
    # pi(0,4) itself must be rejected against any of its own intervals
    assert transform_avoiding(segs, f, 0, 4, 1, 2) is None
    assert transform_avoiding(segs, f, 0, 4, 0, 4) is None


def test_intersects_interval_matches_edge_sets(g_mid):
    f = forest_of(g_mid)
    g = g_mid
    rng = random.Random(4)
    checked = 0
    for _ in range(4000):
        u, v = rng.randrange(g.n), rng.randrange(g.n)
        if u == v or f.dist(u, v) is None:
            continue
        h = f.hops(u, v)
        if h < 2:
            continue
        pa = rng.randrange(0, h)
        pb = rng.randrange(pa + 1, h + 1)
        iv_eids = set(f.path_edge_ids(u, v)[pa:pb])
        # take a replacement path as the proper-form candidate
        f_eid = f.path_edge_ids(u, v)[rng.randrange(h)]
        rp = path_avoiding(g, u, v, [f_eid])
        if rp is None:
            continue
        pf = to_proper_form(edge_walk(g, u, rp), f)
        assert pf is not None, "1ns-fault replacement paths are always proper"
        got = pf_intersects_interval(pf, f, u, v, pa, pb)
        assert got == bool(iv_eids.intersection(rp))
        checked += 1
    assert checked > 300


def test_proper_form_faithfulness_one_fault():
    # 1-fault replacement paths are always representable
    for n, seed in ((14, 0), (22, 5), (30, 9)):
        g = random_connected(n, seed=seed)
        f = forest_of(g)
        for u in range(0, n, 5):
            for v in range(n):
                if u == v:
                    continue
                for eid in f.path_edge_ids(u, v):
                    rp = path_avoiding(g, u, v, [eid])
                    if rp is None:
                        continue
                    pf = to_proper_form(edge_walk(g, u, rp), f)
                    assert pf is not None
                    assert pf.length == sum(
                        (g.edges[e].w for e in rp), start=f.dist(u, u))



def linear_proper_form(segs, forest):
    """Reference for ``to_proper_form``: a linear scan of every position
    finds the last one whose prefix is shortest, then the same bridge and
    two-halves checks decide."""
    verts, eids = expand(segs)
    u, v, ne = verts[0], verts[-1], len(eids)
    du = forest.spts[u].dist
    pre = _prefix_lengths(forest.graph, eids)
    j = max(i for i in range(ne + 1) if du[verts[i]] == pre[i])
    if j == ne:
        return ProperForm(u, v, None, v, v, du[v])
    x, y = verts[j], verts[j + 1]
    dyv = forest.spts[y].dist[v]
    if dyv is not None and dyv == pre[ne] - pre[j + 1]:
        eid = eids[j]
        return ProperForm(u, x, eid, y, v, du[x] + forest.graph.edges[eid].w + dyv)
    dxv = forest.spts[x].dist[v]
    if dxv is not None and dxv == pre[ne] - pre[j]:
        return ProperForm(u, x, None, x, v, du[x] + dxv)
    return None


def _edge(e, a):
    return [seg_edge(e.eid, a, e.other(a), e.w)]


def _candidates(g, old, table, rng):
    """Segment lists from u of the kinds the oracle gates, with the edges of
    ``g`` and walks and stored forms read off ``old`` and its ``table``:
    walk + edge + walk, stored form + edge + walk, and edge-by-edge walks
    (random ones and one-fault replacement paths)."""
    for _ in range(150):
        u, v = rng.sample(range(g.n), 2)
        # the newest edge always, which after an insertion is the inserted one
        for e in rng.sample(list(g.edges.values()), 11) + [g.edges[max(g.edges)]]:
            for a in (e.u, e.v):
                yield join(walk(old, u, a), _edge(e, a), walk(old, e.other(a), v))
        h = old.hops(u, v)
        if h:
            rp = path_avoiding(g, u, v, [old.path_edge_ids(u, v)[rng.randrange(h)]])
            if rp:
                yield edge_walk(g, u, rp)
        start, eids = u, []
        for _ in range(rng.randint(1, 6)):
            e = g.edges[rng.choice(g.adj[start])[1]]
            eids.append(e.eid)
            start = e.other(start)
        yield edge_walk(g, u, eids)
        a, b = min(u, v), max(u, v)
        if h:
            for pf in table[(a, b)].values():
                if pf is not None:
                    for _, eid, _, _ in g.adj[b][:3]:
                        e = g.edges[eid]
                        yield join(pf_segments(pf, old, a), _edge(e, b),
                                   walk(old, e.other(b), rng.randrange(g.n)))


@pytest.mark.parametrize("make", [lambda: detour_rich(12, 0), lambda: random_connected(20, 0)],
                         ids=["detour12", "random20"])
def test_boundary_scan_equals_linear_scan(make):
    """``to_proper_form`` equals the linear-scan reference on candidates
    gated against their own forest and, as ``pair_entry`` gates them, on
    walks of the old forest gated against the forest after one insertion."""
    g = make()
    dso = IncrementalDso.build(g)
    old, table = dso.forest, dso.table
    x, y = next((a, b) for a in range(g.n) for b in range(g.n - 1, a, -1)
                if not g.has_endpoints(a, b))
    insert_edge(dso, x, y, 1)
    rng = random.Random(5)
    outcomes = {True: 0, False: 0}
    for graph, forest in ((g, old), (dso.graph, dso.forest)):
        for segs in _candidates(graph, old, table, rng):
            if segs is None or not any(seg[2] for seg in segs):
                continue
            got = to_proper_form(segs, forest)
            assert got == linear_proper_form(segs, forest), segs
            outcomes[got is None] += 1
    assert min(outcomes.values()) > 200, outcomes
