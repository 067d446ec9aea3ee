import math
import random
import sys

import pytest

from faultpath.families import cycle, detour_rich, fixed_c8_family, path, \
    random_connected
from faultpath.dso.static import IncrementalDso
from faultpath.frp2 import Frp2Solver
from faultpath.frp3.partition import pad_to_power_of_two
from faultpath.frp3.snake import PairProbeLoop, SnakeOracles, snake_through
from faultpath.frp3.solver import Frp3Solver, solve_3frp
from faultpath.reference import dist_avoiding, snake_oracle
from faultpath.spt import dijkstra


def snake_setup(g, seed=0):
    inst = pad_to_power_of_two(g, 0, g.n - 1, seed=seed)
    sol = Frp2Solver(inst.graph, inst.s, inst.t, spt=inst.spt)
    return inst, SnakeOracles(sol.coords, inst.k)


def test_snake_through_two_sided_vs_exhaustive():
    # every answer is a real walk length (lower bound: true distance) and at
    # most the best genuine two-visit path through x (upper bound)
    rng = random.Random(8)
    checked = exact = 0
    for seed in (0, 2):
        g = detour_rich(14, seed=seed)
        inst, oracles = snake_setup(g, seed)
        L = inst.hops
        for _ in range(250):
            cuts = sorted(rng.sample(range(inst.pad, L), 3))
            if cuts[0] + 1 > cuts[-1] - 1:
                continue
            inner = [p for p in range(cuts[0] + 1, cuts[-1] + 1)]
            pos = rng.choice(inner)
            kind = rng.choice(["v", "e"])
            if kind == "e" and (pos in cuts or pos >= cuts[-1]):
                continue
            hit = snake_through(oracles, cuts, (kind, pos))
            want = snake_oracle(inst.graph, inst.path_verts, inst.path_eids,
                                cuts, through=(kind, pos))
            got = None if hit is None else hit.base
            if want is None:
                # nothing to capture; any value must still be a real walk
                if got is not None:
                    truth = dist_avoiding(
                        inst.graph, inst.s, inst.t,
                        [inst.path_eids[c] for c in cuts])
                    assert truth is not None and got >= truth.base
            else:
                assert got is not None and got <= want
                truth = dist_avoiding(inst.graph, inst.s, inst.t,
                                      [inst.path_eids[c] for c in cuts])
                assert truth is not None and got >= truth.base
                if got == want:
                    exact += 1
            checked += 1
    assert checked > 150 and exact > 100


def test_probe_loop_potentials_and_answers():
    for seed in (1, 3):
        g = detour_rich(16, seed=seed)
        inst, oracles = snake_setup(g, seed)
        L = inst.hops
        pairs = [(inst.pad, L - 1), (inst.pad + 1, L - 2), (inst.pad + 2, L - 5)]
        for l, r in pairs:
            if l + 1 > r - 1:
                continue
            loop = PairProbeLoop(oracles, l, r)
            pots = loop.potentials()
            for a, b in zip(pots, pots[1:]):
                assert b <= math.floor(0.625 * a)
            assert loop.stage_bound_ok()
            for mid in range(l + 1, r):
                got = loop.answer(mid)
                want = snake_oracle(inst.graph, inst.path_verts, inst.path_eids,
                                    sorted([l, mid, r]))
                truth = dist_avoiding(inst.graph, inst.s, inst.t,
                                      [inst.path_eids[c] for c in (l, mid, r)])
                if want is None:
                    if got is not None:
                        assert truth is not None and got >= truth.base
                    continue
                assert got is not None and got <= want, (l, mid, r, got, want)
                assert truth is not None and got >= truth.base


def run_and_check(g, s, t, seed=0):
    emitted = []
    stats = solve_3frp(g, s, t, lambda *a: emitted.append(a), seed=seed)
    assert stats.loop_bounds_ok
    for d1, d2, d3, ans, kind in emitted:
        want = dist_avoiding(g, s, t, [d1, d2, d3])
        wb = None if want is None else want.base
        assert ans == wb, (d1, d2, d3, kind, ans, wb)
    return emitted


def test_tree_input_everything_unreachable():
    g = path(8, weights=[2, 3, 1, 4, 2, 5, 3])
    emitted = []
    solve_3frp(g, 0, 7, lambda *a: emitted.append(a))
    assert emitted == []  # no replacement exists after the first failure


def test_cycle_single_detour_level():
    g = cycle(8, w=3)
    emitted = run_and_check(g, 0, 4)
    # once d1 and the whole complementary arc edge d2 fail, nothing is left
    assert all(ans is None for *_, ans, _k in emitted)


def test_exhaustive_fixed_c8_family():
    for g in fixed_c8_family():
        run_and_check(g, 0, 4, seed=5)


def test_random_n16_many_seeds():
    total = 0
    for seed in range(10):
        g = random_connected(16, seed=100 + seed)
        emitted = run_and_check(g, 0, 15, seed=seed)
        total += len(emitted)
    assert total > 200


def test_detour_rich_n12_all_cases_hit():
    g = detour_rich(12, seed=4)
    emitted = run_and_check(g, 0, 11, seed=4)
    kinds = {k for *_, k in emitted}
    assert kinds == {"1on", "2on", "3on"}


def test_setup_runs_no_dijkstra_on_a_level_graph(monkeypatch):
    # every sweep checks the trees it builds, so set-up runs no search on
    # the level graphs themselves, and it reads the one H of its 2FRP solver
    seen = []

    def traced(graph, *args, **kwargs):
        seen.append(graph)
        return dijkstra(graph, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("faultpath") and getattr(mod, "dijkstra", None) is dijkstra:
            monkeypatch.setattr(mod, "dijkstra", traced)
    sol = Frp3Solver(detour_rich(12, 0), 0, 11)
    assert seen
    assert not any(g is level for g in seen for level in sol.levels.values())
    assert sol.aux is sol.frp2.aux


def test_two_on_pass_never_queries_H_oracle(monkeypatch):
    # the even level sweep's leaf holds all of H, so the 2on pass needs no
    # seed from H's own oracle; its values are checked against brute force
    # elsewhere
    queried = []
    in_two_on = []
    raw_query = IncrementalDso.query_edge_failure
    raw_two_on = Frp3Solver._solve_two_on

    def query(dso, *args, **kwargs):
        if in_two_on:
            queried.append(dso)
        return raw_query(dso, *args, **kwargs)

    def two_on(sol, keys, answers):
        in_two_on.append(keys)
        try:
            return raw_two_on(sol, keys, answers)
        finally:
            in_two_on.pop()

    monkeypatch.setattr(IncrementalDso, "query_edge_failure", query)
    monkeypatch.setattr(Frp3Solver, "_solve_two_on", two_on)
    sol = Frp3Solver(detour_rich(12, seed=4), 0, 11, seed=4)
    stats = sol.solve(lambda *a: None)
    assert stats.by_case["2on"] > 0 and queried
    assert all(dso is not sol.frp2.h_dso for dso in queried)


@pytest.mark.parametrize("n", [12, 9], ids=["padded", "unpadded"])
def test_setup_finds_pi_s_t_with_one_dijkstra(monkeypatch, n):
    # the padded source's tree is read off the input source's tree, so
    # set-up runs one search rooted at s in either graph
    g = detour_rich(n, 0)
    seen = []

    def traced(graph, source, *args, **kwargs):
        seen.append((graph, source))
        return dijkstra(graph, source, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("faultpath") and getattr(mod, "dijkstra", None) is dijkstra:
            monkeypatch.setattr(mod, "dijkstra", traced)
    sol = Frp3Solver(g, 0, n - 1)
    P = sol.inst
    assert (P.pad > 0) == (n == 12)
    roots = [(gr, src) for gr, src in seen
             if (gr is g and src == 0) or (gr is P.graph and src == P.s)]
    assert roots == [(g, 0)]
    assert sol.frp2._spt is P.spt
    full = dijkstra(P.graph, P.s)
    for field in ("source", "dist", "parent", "parent_edge", "depth", "tied"):
        assert getattr(P.spt, field) == getattr(full, field), field
