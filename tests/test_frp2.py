import random

import pytest

from faultpath.families import cycle, detour_rich, path, random_connected
from faultpath.frp2 import Frp2Solver, OffPathMatrix, build_H, frp1_all, \
    frp2_one_on_path, iter_required_pairs
from faultpath.frp3.partition import pad_to_power_of_two
from faultpath.dso.static import TieDetected
from faultpath.graph import Graph, perturb_and_verify
from faultpath.reference import all_dists_avoiding, dist_avoiding, path_avoiding
from faultpath.spt import SptForest, dijkstra
from faultpath.weights import CompositeWeight as W


def test_frp1_path_graph_all_unreachable():
    g = path(6)
    r = frp1_all(g, 0, 5)
    assert all(x is None for x in r.lengths)


def test_frp1_cycle_complement():
    g = cycle(6, w=2)
    r = frp1_all(g, 0, 3)
    assert all(x is not None and x.base == 6 for x in r.lengths)


def test_frp1_matches_oracle_and_union_bound():
    for seed in (0, 4):
        g = random_connected(30, seed=seed)
        r = frp1_all(g, 0, 29)
        for k, eid in enumerate(r.path_eids):
            want = dist_avoiding(g, 0, 29, [eid])
            assert (r.lengths[k] is None) == (want is None)
            if want is not None:
                assert r.lengths[k] == want
        assert len(r.union_edges) <= 3 * g.n


def test_build_H_shape_and_single_edge():
    g = perturb_and_verify(2, [(0, 1, 5)], seed=0)
    spt = dijkstra(g, 0)
    aux = build_H(g, spt.path_vertices(1), spt.path_edges(1))
    assert aux.graph.n == 2 + 2
    # d- wired to prefix {s}, d+ wired to suffix {t} only
    stars = [aux.graph.edges[e] for e in aux.star_info]
    minus = [e for e in stars if aux.term_minus[0] in (e.u, e.v)]
    plus = [e for e in stars if aux.term_plus[0] in (e.u, e.v)]
    assert len(minus) == 1 and len(plus) == 1
    assert {minus[0].u, minus[0].v} == {aux.term_minus[0], 0}
    assert {plus[0].u, plus[0].v} == {aux.term_plus[0], 1}


def test_H_two_failure_identity_n20():
    g = random_connected(20, seed=13)
    s, t = 0, 19
    sol = Frp2Solver(g, s, t)
    aux = sol.aux
    h_dso = sol.h_dso
    on_path = set(sol.path_eids)
    for d1_pos, d1 in enumerate(sol.path_eids):
        for d2 in sorted(g.edges):
            if d2 in on_path:
                continue
            base, _ = frp2_one_on_path(h_dso, aux, d1_pos, d2)
            want = dist_avoiding(g, s, t, [d1, d2])
            if want is None:
                assert base is None
            else:
                assert base == want.base


def _cut_by_path():
    # pi(0, 3) is 0-1-2-3; off it only 1-4-3 is left, so G - pi(0, 3)
    # leaves 0 and 2 on their own
    return perturb_and_verify(
        5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (1, 4, 2), (4, 3, 2)], seed=0)


def test_H_between_base_vertices_ignores_terminals(g_mid):
    padded = pad_to_power_of_two(g_mid, 0, g_mid.n - 1)
    assert padded.pad > 0
    cases = {"unpadded": (g_mid, 0, g_mid.n - 1),
             "padded": (padded.graph, padded.s, padded.t),
             "cut": (_cut_by_path(), 0, 3)}
    matrices = {}
    for name, (g, s, t) in cases.items():
        sol = Frp2Solver(g, s, t)
        aux = sol.aux
        pv, pe = sol.path_verts, sol.path_eids
        for u in range(0, g.n, 4):
            tree_h = dijkstra(aux.graph, u)
            want_row = all_dists_avoiding(g, u, pe)
            for v in range(g.n):
                got = tree_h.dist[v]
                want = want_row[v]
                if want is None:
                    # may only be reachable through terminals, which costs >= 2N
                    assert got is None or got.base >= 2 * aux.n_big
                else:
                    assert got == want
        # the off-path matrix read off H is G - pi(s, t) between path vertices
        m = OffPathMatrix(aux)
        for i, u in enumerate(pv):
            want_row = all_dists_avoiding(g, u, pe)
            for j, v in enumerate(pv):
                assert m.d(i, j) == want_row[v], (i, j)
                if want_row[v] is not None:
                    assert m.path(i, j) == path_avoiding(g, u, v, pe), (i, j)
        matrices[name] = (pv, m)
    # the padding chain lies on pi(s, t), so G - pi(s, t) isolates it
    pv, m = matrices["padded"]
    assert pv == padded.path_verts
    for i in range(padded.pad):
        assert [m.d(i, j) is not None for j in range(len(pv))] == \
            [j == i for j in range(len(pv))]
    pv, m = matrices["cut"]
    assert pv == [0, 1, 2, 3]
    assert m.d(0, 2) is None and m.d(1, 3) is not None


def test_required_pair_stream_matches_oracle_n25():
    from faultpath.families import detour_rich
    count = 0
    graphs = [random_connected(25, seed=21), random_connected(25, seed=24),
              detour_rich(14, seed=1)]
    for g in graphs:
        s, t = 0, g.n - 1
        sol = Frp2Solver(g, s, t)
        for d1, d2 in iter_required_pairs(sol):
            got = sol.answer_pair(d1, d2)
            want = dist_avoiding(g, s, t, [d1, d2])
            assert (got is None) == (want is None)
            if want is not None:
                assert got == want.base
            count += 1
    assert count > 150


def test_both_on_path_all_pairs_oracle():
    for seed in (1, 5, 9):
        g = random_connected(16, seed=seed)
        sol = Frp2Solver(g, 0, 15)
        h = len(sol.path_eids)
        for l in range(h):
            for r in range(l + 1, h):
                got = sol.both_on_path(l, r).base
                want = dist_avoiding(
                    g, 0, 15, [sol.path_eids[l], sol.path_eids[r]])
                assert (got is None) == (want is None)
                if want is not None:
                    assert got == want.base


def test_both_on_adjacent_reduces_to_H_value():
    # H's terminal-to-terminal distance avoids the whole middle, so it bounds
    # every answer from above and is the answer when the middle is one vertex
    g = random_connected(18, seed=3)
    sol = Frp2Solver(g, 0, 17)
    aux = sol.aux
    h = len(sol.path_eids)
    for l in range(h - 1):
        td = aux.forest.spts[aux.term_minus[l]].dist
        for r in range(l + 1, h):
            got = sol.both_on_path(l, r).base
            hval = aux.two_term_value(td[aux.term_plus[r]])
            if r == l + 1:
                assert got == hval
            elif hval is not None:
                assert got is not None and got <= hval


# detour_rich(12, 0) adds 99 pairs with both failures on the path; their
# paths are expanded from H or from a winner of the two-order sweep
@pytest.mark.parametrize("family,n,seed", [(random_connected, 20, 8), (detour_rich, 12, 0)],
                         ids=["random_connected-20-8", "detour_rich-12-0"])
def test_rp2_paths_replay_exactly(family, n, seed):
    g = family(n, seed=seed)
    s, t = 0, n - 1
    sol = Frp2Solver(g, s, t)
    rng = random.Random(2)
    for d1, d2 in iter_required_pairs(sol):
        want = sol.answer_pair(d1, d2)
        d1_pos = sol.pos_on_st(d1)
        p = sol.rp2_path(d1_pos, d2)
        if want is None:
            assert p is None
            continue
        # replay: walk the edges from s, avoid both failures, sum base weights
        assert d1 not in p and d2 not in p
        x = s
        total = 0
        for eid in p:
            e = g.edges[eid]
            assert x in (e.u, e.v)
            x = e.other(x)
            total += e.w.base
        assert x == t
        assert total == want


@pytest.mark.parametrize("family,n,seed", [(detour_rich, 12, 0), (detour_rich, 16, 0),
                                           (detour_rich, 20, 1), (random_connected, 20, 6)],
                         ids=["detour_rich-12-0", "detour_rich-16-0", "detour_rich-20-1",
                              "random_connected-20-6"])
def test_both_on_rp2_paths_are_the_reference_paths(family, n, seed):
    # base-equal routes are decided by the graph's ties, as in the reference
    g = family(n, seed=seed)
    sol = Frp2Solver(g, 0, n - 1)
    checked = 0
    for d1, d2 in iter_required_pairs(sol):
        if sol.pos_on_st(d2) is None:
            continue
        assert sol.rp2_path(sol.pos_on_st(d1), d2) == path_avoiding(g, 0, n - 1, [d1, d2])
        checked += 1
    assert checked > 0


def test_both_on_backward_order_wins():
    # leave at 1, re-enter at 3, walk back over edge 2 to vertex 2, leave
    # again and re-enter at t: only the backward order converges at a >= b
    g = perturb_and_verify(8, [(0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 4, 2), (4, 5, 2),
                               (1, 6, 2), (6, 3, 3), (2, 7, 4), (7, 5, 4)], seed=0)
    sol = Frp2Solver(g, 0, 5)
    d1, d2 = sol.path_eids[1], sol.path_eids[3]
    got = sol.both_on_path(1, 3)
    assert got.winner == (1, 3, 2, 5)
    assert got.base == 17 == dist_avoiding(g, 0, 5, [d1, d2]).base
    p = sol.rp2_path(1, d2)
    assert d1 not in p and d2 not in p
    x = 0
    for eid in p:
        x = g.edges[eid].other(x)
    assert x == 5
    assert sum(g.edges[eid].w.base for eid in p) == 17


@pytest.mark.parametrize("family,n,seed", [(detour_rich, 12, 0), (random_connected, 15, 6)],
                         ids=["detour_rich-12-0", "random_connected-15-6"])
def test_suffix_hookups_vs_brute(family, n, seed):
    # U'[r][b], read off the mirrored table, is the best off(b, z) + the
    # path from z to t over z > r, the largest z winning ties
    sol = Frp2Solver(family(n, seed=seed), 0, n - 1)
    L = len(sol.path_eids)
    m = sol.matrix
    mirrored = sol.hookup_tables[1]
    checked = 0
    for r in range(L):
        for b in range(r + 1):
            want = None
            for z in range(L, r, -1):
                d = m.d(b, z)
                if d is not None:
                    cand = d + (sol.pre[L] - sol.pre[z])
                    if want is None or cand < want[0]:
                        want = (cand, z)
            got = mirrored[L - 1 - r][L - b]
            if want is None:
                assert got is None
            else:
                assert got is not None and (got[0], L - got[1]) == want
                checked += 1
    assert checked > 0


def test_w_recurrence_monotonicity():
    g = random_connected(15, seed=6)
    sol = Frp2Solver(g, 0, 14)
    h = len(sol.path_eids)
    m = sol.matrix
    for l in range(h - 1):
        for r in range(l + 1, h):
            sol.both_on_path(l, r)
            u_row = sol.hookup_tables[0][l]
            # recompute W backward row and check W(b) <= U(b), equality at r
            wrow = {}
            for b in range(r, l, -1):
                cand = u_row[b]
                best = None if cand is None else cand[0]
                if b < r and wrow[b + 1] is not None:
                    stepped = wrow[b + 1] + g.edges[sol.path_eids[b]].w
                    if best is None or stepped < best:
                        best = stepped
                wrow[b] = best
                if u_row[b] is not None:
                    assert best <= u_row[b][0]
            if u_row[r] is not None:
                assert wrow[r] == u_row[r][0]


def _tied_without_0_3():
    # every tree of G is untied, but without (0, 3) vertex 0 reaches 3 over
    # 1 and over 2 at the same length (2, 3)
    g = Graph(4)
    for u, v, w in [(0, 3, W(1, 0)), (0, 1, W(1, 1)), (1, 3, W(1, 2)),
                    (0, 2, W(1, 2)), (2, 3, W(1, 1)), (1, 2, W(1, 5))]:
        g.add_edge(u, v, w)
    assert not any(tree.tied for tree in SptForest.build(g).spts)
    return g


def test_frp1_rejects_tied_g_minus_e_tree():
    with pytest.raises(TieDetected):
        frp1_all(_tied_without_0_3(), 0, 3)
