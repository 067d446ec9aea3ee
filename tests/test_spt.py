import itertools
import random

import pytest

from faultpath.families import detour_rich, random_connected
from faultpath.frp2 import Frp2Solver
from faultpath.graph import Graph, perturb_and_verify
from faultpath.reference import tied
from faultpath.spt import SptForest, dijkstra, without_tree_edge
from faultpath.weights import CompositeWeight as W


def _without(g, eid):
    """``g`` rebuilt without edge ``eid``; every other edge keeps its id and
    its place in the adjacency lists."""
    h = Graph(g.n)
    for e in g.edges.values():
        if e.eid != eid:
            h.add_edge(e.u, e.v, e.w, eid=e.eid)
    return h


def brute_lca(tree, a, b):
    pa = set(tree.path_vertices(a))
    for z in reversed(tree.path_vertices(b)):
        if z in pa:
            return z
    raise AssertionError


def test_spt_consistency(g_mid):
    t = dijkstra(g_mid, 0)
    for v in range(g_mid.n):
        if v == 0 or t.dist[v] is None:
            continue
        e = g_mid.edges[t.parent_edge[v]]
        assert t.dist[v] == t.dist[t.parent[v]] + e.w
        assert t.depth[v] == t.depth[t.parent[v]] + 1


def _two_components():
    # random_connected(8, 1) on vertices 0..7 and random_connected(7, 2) on 8..14
    g = Graph(15)
    for off, part in ((0, random_connected(8, 1)), (8, random_connected(7, 2))):
        for e in part.edges.values():
            g.add_edge(e.u + off, e.v + off, e.w)
    return g


def _check_lca_and_level_ancestor(t, pairs):
    for a, b in pairs:
        if t.reachable(a) and t.reachable(b):
            assert t.lca(a, b) == brute_lca(t, a, b)
    for v in range(len(t.dist)):
        if t.reachable(v):
            pv = t.path_vertices(v)
            for d in range(len(pv)):
                assert t.ancestor_at_depth(v, d) == pv[d]


def test_lca_and_level_ancestor_match_brute_force():
    rng = random.Random(5)
    for seed in range(4):
        t = dijkstra(random_connected(18, seed=seed), 0, with_lca=True)
        _check_lca_and_level_ancestor(
            t, [(rng.randrange(18), rng.randrange(18)) for _ in range(200)])
    # a deep tree: depth 47 from source 0 needs six lifting rows
    g = detour_rich(48, 0)
    depths = []
    for s in range(0, g.n, 5):
        t = dijkstra(g, s, with_lca=True)
        depths.append(max(t.depth))
        _check_lca_and_level_ancestor(t, itertools.product(range(g.n), repeat=2))
    assert max(depths) == 47
    # two components: only pairs inside the source's component are asked
    g = _two_components()
    for s in (0, 8):
        t = dijkstra(g, s, with_lca=True)
        assert sum(t.reachable(v) for v in range(g.n)) == (8 if s == 0 else 7)
        _check_lca_and_level_ancestor(t, itertools.product(range(g.n), repeat=2))


def test_on_root_path_and_share_edge():
    g = random_connected(15, seed=9)
    t = dijkstra(g, 0, with_lca=True)
    for v in range(15):
        pv = t.path_vertices(v)
        on = set(pv)
        for z in range(15):
            assert t.on_root_path(v, z) == (z in on)
        assert sorted(t.subtree(v)) == [w for w in range(15) if v in t.path_vertices(w)]
        # segment sharing against explicit edge sets
        for i in range(len(pv)):
            for j in range(i, len(pv)):
                seg = set(t.path_edges(pv[j])[i:j])
                for w in range(15):
                    expl = bool(seg.intersection(t.path_edges(w)))
                    assert t.root_paths_share_edge(w, pv[i], pv[j]) == expl
    for eid, e in g.edges.items():
        below = [v for v in range(15) if v != 0 and t.path_edges(v)[-1] == eid]
        assert t.lower_end(e) == (below[0] if below else None)


def test_forest_path_positions(g_mid):
    f = SptForest.build(g_mid)
    for u in range(0, g_mid.n, 3):
        for v in range(g_mid.n):
            if u == v or f.dist(u, v) is None:
                continue
            pv = f.path_vertices(u, v)
            assert f.hops(u, v) == len(pv) - 1
            for pos, z in enumerate(pv):
                assert f.on_path(u, v, z)
                assert f.path_pos(u, v, z) == pos
            for z in range(g_mid.n):
                if z not in pv:
                    assert not f.on_path(u, v, z)
            eids = f.path_edge_ids(u, v)
            for pos, eid in enumerate(eids):
                assert f.edge_pos(u, v, eid) == pos


def _bridged():
    # a 4-cycle joined by the bridge 3-4 to a triangle with a pendant vertex
    edges = [(0, 1, 2), (1, 2, 3), (2, 3, 2), (3, 0, 4), (3, 4, 5),
             (4, 5, 1), (5, 6, 2), (6, 4, 2), (6, 7, 3)]
    return perturb_and_verify(8, edges, seed=0)


@pytest.mark.parametrize("make", [
    lambda: detour_rich(12, 0),
    lambda: random_connected(20, 0),
    lambda: Frp2Solver(detour_rich(12, 0), 0, 11).aux.graph,
    _bridged,
], ids=["detour12", "random20", "aux-H-detour12", "bridge"])
def test_without_tree_edge_matches_full_run(make):
    g = make()
    cut_off = 0
    for s in range(g.n):
        tree = dijkstra(g, s)
        for v in range(g.n):
            if v == s or tree.dist[v] is None:
                continue
            eid = tree.parent_edge[v]
            got = without_tree_edge(g, tree, eid)
            want = dijkstra(_without(g, eid), s)
            for z in range(g.n):
                assert got.dist[z] == want.dist[z]
                assert got.parent[z] == want.parent[z]
                assert got.parent_edge[z] == want.parent_edge[z]
                assert got.depth[z] == want.depth[z]
                assert got.tied == want.tied
                if want.dist[z] is None:
                    cut_off += 1
                else:
                    assert got.path_edges(z) == want.path_edges(z)
    if make is _bridged:
        # removing the bridge cuts the triangle and its pendant off
        assert cut_off > 0


def test_without_tree_edge_keeps_tree_for_non_tree_edges():
    g = random_connected(20, 0)
    tree = dijkstra(g, 0)
    on_tree = {tree.parent_edge[v] for v in range(g.n) if v != 0}
    off_tree = [eid for eid in g.edges if eid not in on_tree]
    assert off_tree
    for eid in off_tree:
        assert without_tree_edge(g, tree, eid) is tree
    assert without_tree_edge(g, tree, max(g.edges) + 1) is tree


def _planted(n, edges):
    g = Graph(n)
    for u, v, base, tie in edges:
        g.add_edge(u, v, W(base, tie))
    return g


def _square():
    # 0-1-3 and 0-2-3 are equal in both channels
    return _planted(4, [(0, 1, 1, 1), (1, 3, 1, 1), (0, 2, 1, 1), (2, 3, 1, 1)])


def _beaten():
    # from 0, vertex 4 is offered (10, 2) by 1 and by 2, then (7, 2) by 3
    return _planted(5, [(0, 1, 5, 1), (0, 2, 5, 1), (0, 3, 6, 1),
                        (1, 4, 5, 1), (2, 4, 5, 1), (3, 4, 1, 1)])


def _tied_after_cut():
    # from 0, vertex 3 is reached by the edge 0-3 alone; without it the
    # routes through 1 and through 2 tie
    return _planted(4, [(0, 3, 1, 1), (0, 1, 5, 1), (1, 3, 5, 1),
                        (0, 2, 5, 1), (2, 3, 5, 1)])


def _degenerate(n, seed):
    # a random graph whose weights collide in both channels
    g = random_connected(n, seed)
    return _planted(n, [(e.u, e.v, e.w.base % 3 + 1, 1) for e in g.edges.values()])


@pytest.mark.parametrize("make", [
    _square, _beaten, _tied_after_cut, _bridged,
    lambda: _degenerate(9, 1), lambda: _degenerate(12, 2), lambda: _degenerate(14, 3),
], ids=["square", "beaten", "tied-after-cut", "bridge", "random9", "random12", "random14"])
def test_tied_flag_matches_reference(make):
    g = make()
    for s in range(g.n):
        tree = dijkstra(g, s)
        assert tree.tied == tied(g, s)
        for eid in g.edges:
            want = tied(g, s, 1 << eid)
            assert dijkstra(_without(g, eid), s).tied == want
            # exact from an untied tree; a tied tree stays tied
            assert without_tree_edge(g, tree, eid).tied == (tree.tied or want)


def test_tied_flag_cases():
    assert dijkstra(_square(), 0).tied
    # equal offers that a later one beats are not a tie
    g = _beaten()
    assert not dijkstra(g, 0).tied and not tied(g, 0)
    # G has no tie from 0, G - (0, 3) has one, found by the subtree search
    g = _tied_after_cut()
    tree = dijkstra(g, 0)
    assert not tree.tied
    assert without_tree_edge(g, tree, tree.parent_edge[3]).tied
    # the degenerate graphs hold both tied and untied trees
    flags = {dijkstra(_degenerate(n, seed), s).tied
             for n, seed in ((9, 1), (12, 2), (14, 3)) for s in range(n)}
    assert flags == {False, True}


def test_edge_pos_matches_path_edge_list():
    # a connected graph, two components, and the auxiliary graph H
    for g, least in ((random_connected(20, seed=0), 1000), (_two_components(), 100),
                     (Frp2Solver(detour_rich(12, 0), 0, 11).aux.graph, 1000)):
        f = SptForest.build(g)
        on_path = 0
        for u in range(g.n):
            for v in range(g.n):
                ids = [] if f.dist(u, v) is None else f.path_edge_ids(u, v)
                for eid in g.edges:
                    want = ids.index(eid) if eid in ids else None
                    assert f.edge_pos(u, v, eid) == want
                    on_path += want is not None
        assert on_path > least
