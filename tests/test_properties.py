"""Invariant suites: uniqueness, structural path lemmas, oracle self-checks."""
import itertools
import random

from hypothesis import given, settings, strategies as st

from conftest import edge_walk
from faultpath.dso.static import IncrementalDso
from faultpath.families import fixed_p12_family, random_connected
from faultpath.frp2 import frp1_all
from faultpath.pathform import to_proper_form
from faultpath.reference import all_dists_avoiding, dist_avoiding, path_avoiding, tied
from faultpath.spt import SptForest, dijkstra


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=4, max_value=14))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    extra = draw(st.integers(min_value=2, max_value=2 * n))
    return random_connected(n, seed=seed, extra=extra)


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_unique_paths_after_perturbation(g):
    for s in range(g.n):
        assert not tied(g, s)


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_spt_consistency(g):
    for s in range(0, g.n, 3):
        t = dijkstra(g, s)
        for v in range(g.n):
            if v == s or t.dist[v] is None:
                continue
            e = g.edges[t.parent_edge[v]]
            assert t.dist[v] == t.dist[t.parent[v]] + e.w


@settings(max_examples=20, deadline=None)
@given(graphs(), st.integers(min_value=0, max_value=10**6))
def test_dist_avoiding_monotone_in_failures(g, pick):
    rng = random.Random(pick)
    eids = sorted(g.edges)
    fails = rng.sample(eids, min(3, len(eids)))
    u, v = 0, g.n - 1
    prev = dist_avoiding(g, u, v, [])
    for k in range(1, len(fails) + 1):
        cur = dist_avoiding(g, u, v, fails[:k])
        if prev is None:
            assert cur is None
        elif cur is not None:
            assert cur >= prev
        prev = cur


@settings(max_examples=15, deadline=None)
@given(graphs())
def test_one_fault_paths_are_proper(g):
    forest = SptForest.build(g)
    u, v = 0, g.n - 1
    if forest.dist(u, v) is None:
        return
    for eid in forest.path_edge_ids(u, v):
        rp = path_avoiding(g, u, v, [eid])
        if rp is None:
            continue
        assert to_proper_form(edge_walk(g, u, rp), forest) is not None


def test_interval_avoidance_transfer_exhaustive_n20():
    # one-failure replacement paths avoiding two intervals avoid everything
    # in between, checked against explicit edge sets
    for n, seed in ((12, 0), (20, 3)):
        g = random_connected(n, seed=seed)
        f = SptForest.build(g)
        for u in range(0, n, 3):
            for v in range(u + 1, n):
                h = f.hops(u, v)
                if h is None or h < 3:
                    continue
                eids = f.path_edge_ids(u, v)
                for k in range(h):
                    rp = path_avoiding(g, u, v, [eids[k]])
                    if rp is None:
                        continue
                    hit = [e in set(rp) for e in eids]
                    # for every avoided pair of positions, the stretch
                    # between them must be avoided too
                    avoided = [i for i in range(h) if not hit[i]]
                    for a, b in itertools.combinations(avoided, 2):
                        assert not any(hit[a:b + 1]), (u, v, k, a, b)


def test_replacement_union_bound_3n():
    for n, seed in ((16, 1), (24, 2), (30, 5)):
        g = random_connected(n, seed=seed)
        r = frp1_all(g, 0, n - 1)
        assert len(r.union_edges) <= 3 * n


def classify_visits(g, forest, s, t, fail_positions, rp_eids):
    """Middle-interval edge-run pattern of a replacement path."""
    pos_of_eid = {eid: k for k, eid in enumerate(forest.path_edge_ids(s, t))}
    l, m, r = fail_positions
    runs = []
    cur = []
    for eid in rp_eids:
        p = pos_of_eid.get(eid)
        if p is None or not (l < p < r):
            if cur:
                runs.append((min(cur), max(cur)))
                cur = []
            continue
        cur.append(p)
    if cur:
        runs.append((min(cur), max(cur)))
    pattern = []
    for lo, hi in runs:
        if hi < m:
            pattern.append("D2")
        elif lo > m:
            pattern.append("D3")
        else:
            raise AssertionError("visit crosses the failed middle edge")
    return pattern


def test_five_type_completeness_exhaustive_n12():
    # every all-on-path optimum matches one of the five structural shapes
    seen = set()
    for g in fixed_p12_family():
        forest = SptForest.build(g)
        s, t = 0, 11
        eids = forest.path_edge_ids(s, t)
        h = len(eids)
        for l, m, r in itertools.combinations(range(h), 3):
            rp = path_avoiding(g, s, t, [eids[l], eids[m], eids[r]])
            if rp is None:
                continue
            pattern = classify_visits(g, forest, s, t, (l, m, r), rp)
            assert pattern in ([], ["D2"], ["D3"], ["D2", "D3"], ["D3", "D2"]), \
                (l, m, r, pattern)
            seen.add(tuple(pattern))
    assert ("D2", "D3") in seen or ("D3", "D2") in seen


def test_dso_determinism_same_seed():
    g = random_connected(14, seed=8)
    a = IncrementalDso.build(g, seed=3)
    b = IncrementalDso.build(g, seed=3)
    assert a.table == b.table


def test_bellman_ford_cross_check_random_failures():
    g = random_connected(20, seed=12)
    rng = random.Random(0)
    from faultpath.reference import bellman_ford
    for _ in range(10):
        fails = rng.sample(sorted(g.edges), 3)
        for s in (0, 5):
            assert all_dists_avoiding(g, s, fails) == bellman_ford(g, s, fails)
