import random

import pytest

from faultpath.dso import TieDetected
from faultpath.dso.incremental import insert_edge
from faultpath.dso.snapshot import save_dso
from faultpath.dso.static import IncrementalDso, IntervalNotOnPath, anchors, \
    replacement_forms
from faultpath.families import cycle, detour_rich, path, random_connected
from faultpath.frp2 import build_H
from faultpath.graph import Graph
from faultpath.pathform import pf_intersects_interval, pf_segments, segs_edge_ids
from faultpath.reference import dist_avoiding, path_avoiding, weak_classify
from faultpath.spt import SptForest, dijkstra
from faultpath.weights import CompositeWeight as W


def test_anchor_domain_matches_rule():
    for h in (1, 2, 3, 5, 8, 13):
        got = set(anchors(h))
        vals = {0, 1, 2, 4, 8, 16}
        expect = {(i, j) for i in vals for j in vals if i + j < h}
        assert got == expect


def test_path_graph_bridge_interval_is_null():
    g = path(4, weights=[3, 5, 2])
    dso = IncrementalDso.build(g)
    mid = g.n // 2
    # pair (0, 3), interval = the middle edge: removing it disconnects
    a, b = 1, 2
    assert dso.query_interval(0, 3, a, b) is None


def test_cycle_complement_arc():
    g = cycle(5, w=4)
    dso = IncrementalDso.build(g)
    # pair at hop distance 2; drop one on-path edge; expect the 3-edge arc
    pf = dso.query_interval(0, 2, 0, 1)
    assert pf is not None
    assert pf.length.base == 12
    # the whole-path interval has the same only candidate
    whole = dso.query_interval(0, 2, 0, 2)
    assert whole is not None and whole.length.base == 12


def test_weak_intervals_exact_n25():
    g = random_connected(25, seed=1)
    dso = IncrementalDso.build(g)
    f = dso.forest
    for (u, v), sub in dso.table.items():
        h = f.hops(u, v)
        eids = f.path_edge_ids(u, v)
        for (i, j), pf in sub.items():
            lo, hi = i, h - j
            cls = weak_classify(g, u, v, eids[lo:hi], lo, hi)
            truth = dist_avoiding(g, u, v, eids[lo:hi])
            if cls.is_weak:
                if truth is None:
                    assert pf is None
                else:
                    assert pf is not None and pf.length == truth
            elif pf is not None:
                # non-weak intervals may store any avoiding proper form
                assert not pf_intersects_interval(pf, f, u, v, lo, hi)


def test_query_interval_equals_removal_on_weak(g_mid):
    g = g_mid
    dso = IncrementalDso.build(g)
    f = dso.forest
    for u in range(0, g.n, 4):
        for v in range(g.n):
            if u == v or f.dist(u, v) is None:
                continue
            h = f.hops(u, v)
            eids = f.path_edge_ids(u, v)
            verts = f.path_vertices(u, v)
            for lo in range(h):
                for hi in range(lo + 1, h + 1):
                    cls = weak_classify(g, u, v, eids[lo:hi], lo, hi)
                    pf = dso.query_interval(u, v, verts[lo], verts[hi])
                    if cls.is_weak:
                        truth = dist_avoiding(g, u, v, eids[lo:hi])
                        if truth is None:
                            assert pf is None
                        else:
                            assert pf is not None and pf.length == truth
                    elif pf is not None:
                        assert not pf_intersects_interval(pf, f, u, v, lo, hi)


def test_query_edge_failure_all_triples_n25():
    g = random_connected(25, seed=2)
    dso = IncrementalDso.build(g)
    f = dso.forest
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if f.dist(u, v) is None:
                continue
            for eid in f.path_edge_ids(u, v):
                got, _ = dso.query_edge_failure(u, v, eid)
                want = dist_avoiding(g, u, v, [eid])
                assert got == want


def test_query_edge_failure_off_path_and_paths(g_small):
    g = g_small
    dso = IncrementalDso.build(g)
    f = dso.forest
    u, v = 0, g.n - 1
    on_path = set(f.path_edge_ids(u, v))
    for eid in g.edges:
        if eid in on_path:
            continue
        got, p = dso.query_edge_failure(u, v, eid, want_path=True)
        assert got == f.dist(u, v)
        assert p == f.path_edge_ids(u, v)
    for eid in on_path:
        got, p = dso.query_edge_failure(u, v, eid, want_path=True)
        want = dist_avoiding(g, u, v, [eid])
        assert got == want
        if got is not None:
            # replay the returned path: connected, avoids eid, right length
            assert eid not in p
            total = f.dist(u, u)
            x = u
            for e in p:
                total = total + g.edges[e].w
                x = g.edges[e].other(x)
            assert x == v and total == got


def test_symmetry_and_determinism():
    g = random_connected(15, seed=4)
    d1 = IncrementalDso.build(g)
    d2 = IncrementalDso.build(g)
    assert d1.table == d2.table
    f = d1.forest
    for u in range(0, 15, 2):
        for v in range(15):
            if u == v or f.dist(u, v) is None:
                continue
            for eid in f.path_edge_ids(u, v):
                a, _ = d1.query_edge_failure(u, v, eid)
                b, _ = d1.query_edge_failure(v, u, eid)
                assert a == b


def test_interval_errors(g_small):
    dso = IncrementalDso.build(g_small)
    f = dso.forest
    u, v = 0, g_small.n - 1
    with pytest.raises(IntervalNotOnPath):
        dso.query_interval(u, u, u, u)
    verts = f.path_vertices(u, v)
    with pytest.raises(IntervalNotOnPath):
        dso.query_interval(u, v, verts[1], verts[1])
    off = next(z for z in range(g_small.n) if z not in verts)
    with pytest.raises(IntervalNotOnPath):
        dso.query_interval(u, v, verts[0], off)


def test_stored_entry_hygiene(g_mid):
    dso = IncrementalDso.build(g_mid)
    f = dso.forest
    for (u, v), sub in dso.table.items():
        h = f.hops(u, v)
        for (i, j), pf in sub.items():
            if pf is None:
                continue
            assert not pf_intersects_interval(pf, f, u, v, i, h - j)
            w = f.dist(u, pf.x)
            if pf.bridge is not None:
                w = w + dso.graph.edges[pf.bridge].w
            w = w + f.dist(pf.y, v)
            assert w == pf.length


def _frp2_aux_forest(n: int = 8):
    g = detour_rich(n, seed=0)
    spt = dijkstra(g, 0)
    return build_H(g, spt.path_vertices(g.n - 1), spt.path_edges(g.n - 1)).forest


def _two_components():
    # random_connected(8, 1) on vertices 0..7 and random_connected(7, 2) on 8..14
    g = Graph(15)
    for off, part in ((0, random_connected(8, 1)), (8, random_connected(7, 2))):
        for e in part.edges.values():
            g.add_edge(e.u + off, e.v + off, e.w)
    return g


@pytest.mark.parametrize("make_forest", [
    lambda: SptForest.build(random_connected(20, seed=0)),
    lambda: SptForest.build(detour_rich(12, seed=0)),
    _frp2_aux_forest,
], ids=["random20", "detour12", "frp2-H"])
def test_replacement_forms_match_reference(make_forest):
    f = make_forest()
    g = f.graph
    checked = 0
    for u in range(g.n):
        trees: dict = {}
        for v in range(g.n):
            if u == v or f.dist(u, v) is None:
                continue
            eids = f.path_edge_ids(u, v)
            forms = replacement_forms(f, u, v, trees)
            assert len(forms) == len(eids)
            for eid, pf in zip(eids, forms):
                want = path_avoiding(g, u, v, [eid])
                if want is None:
                    assert pf is None
                    continue
                assert pf is not None
                assert segs_edge_ids(pf_segments(pf, f, pf.u)) == want
                assert pf.length == dist_avoiding(g, u, v, [eid])
                checked += 1
    assert checked > 100


def test_build_rejects_tied_graph():
    # a 4-cycle of equal weights: 0 reaches 2 both ways at the same length
    g = Graph(4)
    for a in range(4):
        g.add_edge(a, (a + 1) % 4, W(1, 0))
    with pytest.raises(TieDetected):
        IncrementalDso.build(g)


def test_build_rejects_tied_g_minus_e_tree():
    # every tree of G is untied, but without (0, 3) vertex 0 reaches 3 over
    # 1 and over 2 at the same length (2, 3)
    g = Graph(4)
    for u, v, w in [(0, 3, W(1, 0)), (0, 1, W(1, 1)), (1, 3, W(1, 2)),
                    (0, 2, W(1, 2)), (2, 3, W(1, 1)), (1, 2, W(1, 5))]:
        g.add_edge(u, v, w)
    assert not any(tree.tied for tree in SptForest.build(g).spts)
    with pytest.raises(TieDetected):
        IncrementalDso.build(g)


@pytest.mark.parametrize("make_forest", [
    lambda: _frp2_aux_forest(8),
    lambda: _frp2_aux_forest(12),
    lambda: SptForest.build(random_connected(20, seed=0)),
    lambda: SptForest.build(_two_components()),
], ids=["frp2-H8", "frp2-H12", "random20", "two-components"])
def test_on_demand_pairs_equal_eager_build(make_forest):
    f = make_forest()
    eager = IncrementalDso.build(f.graph, forest=f)
    lazy = IncrementalDso.on_demand(f.graph, forest=f)
    assert len(lazy.table) == 0
    pairs = list(eager.table)
    random.Random(0).shuffle(pairs)
    for k, pair in enumerate(pairs, 1):
        assert lazy.table[pair] == eager.table[pair]
        assert len(lazy.table) == k
    assert lazy.table == eager.table


def test_on_demand_disconnected_pair_is_absent():
    g = _two_components()
    dso = IncrementalDso.on_demand(g)
    assert dso.table[(0, 1)] is not None and len(dso.table) == 1
    for pair in ((0, 8), (7, 14), (3, 3), (5, 2), (2, 15)):
        with pytest.raises(KeyError):
            dso.table[pair]
        assert len(dso.table) == 1


def _read_a_few(dso):
    for pair in ((0, 5), (2, 9), (0, 1), (6, 11)):
        if dso.forest.dist(*pair) is not None:
            dso.table[pair]
    assert 0 < len(dso.table) <= 4


@pytest.mark.parametrize("make_graph,x,y", [
    (lambda: random_connected(14, seed=4), 0, 9),
    (_two_components, 2, 11),
], ids=["random14", "join-components"])
def test_insert_completes_on_demand_table(make_graph, x, y):
    eager = IncrementalDso.build(make_graph(), seed=1)
    lazy = IncrementalDso.on_demand(make_graph(), seed=1)
    _read_a_few(lazy)
    assert insert_edge(lazy, x, y, 3) == insert_edge(eager, x, y, 3)
    assert type(lazy.table) is dict
    assert list(lazy.table) == list(eager.table)
    assert lazy.table == eager.table


def test_save_completes_on_demand_table(tmp_path):
    g = random_connected(14, seed=4)
    eager, lazy = tmp_path / "eager.dso", tmp_path / "lazy.dso"
    save_dso(IncrementalDso.build(g, seed=1), str(eager))
    dso = IncrementalDso.on_demand(g, seed=1)
    _read_a_few(dso)
    save_dso(dso, str(lazy))
    assert lazy.read_bytes() == eager.read_bytes()
