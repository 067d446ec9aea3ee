import itertools
import random

import pytest

from faultpath import ssrp
from faultpath.dso.static import TieDetected
from faultpath.families import detour_rich, random_connected
from faultpath.graph import Graph
from faultpath.reference import all_dists_avoiding, required_ssrp2
from faultpath.spt import dijkstra
from faultpath.ssrp import SsrpResolver, SsrpStats, ssrp2
from faultpath.weights import CompositeWeight as W


def test_ssrp_exhaustive_n14():
    g = random_connected(14, seed=5)
    s = 0
    res = SsrpResolver(g, s)
    eids = sorted(g.edges)
    for d1, d2 in itertools.combinations(eids, 2):
        oracle = all_dists_avoiding(g, s, [d1, d2])
        for t in range(g.n):
            got = res.answer(d1, d2, t)
            want = None if oracle[t] is None else oracle[t].base
            assert got == want, (d1, d2, t, got, want)


def test_ssrp_sampled_n25():
    g = random_connected(25, seed=9)
    s = 3
    res = SsrpResolver(g, s)
    rng = random.Random(2)
    eids = sorted(g.edges)
    for _ in range(120):
        d1, d2 = rng.sample(eids, 2)
        oracle = all_dists_avoiding(g, s, [d1, d2])
        for t in rng.sample(range(g.n), 6):
            got = res.answer(d1, d2, t)
            want = None if oracle[t] is None else oracle[t].base
            assert got == want, (d1, d2, t, got, want)


def test_stream_shape_and_dedup():
    g = random_connected(12, seed=3)
    s = 0
    emitted = []
    stats = ssrp2(g, s, lambda *a: emitted.append(a))
    spt = dijkstra(g, s)
    n_tree = sum(1 for v in range(g.n) if v != s and spt.dist[v] is not None)
    assert stats.timeline_steps == n_tree
    keys = [(min(d1, d2), max(d1, d2), t) for d1, d2, t, _ in emitted]
    assert len(keys) == len(set(keys))
    assert stats.emitted == len(emitted)
    # the sweep's lazy layers filled some of their pairs, not all
    assert 0 < stats.pairs_filled < stats.pairs_held


@pytest.mark.parametrize("graph", [random_connected(28, 0), detour_rich(16, 0),
                                   random_connected(20, 0)],
                         ids=["random28", "detour16", "random20"])
def test_emitted_set_is_the_required_set(graph):
    # the first two graphs have base-length ties among replacement paths
    emitted = []
    ssrp2(graph, 0, lambda d1, d2, t, _: emitted.append((min(d1, d2), max(d1, d2), t)))
    assert len(emitted) == len(set(emitted))
    assert set(emitted) == required_ssrp2(graph, 0)


def test_off_tree_failure_is_one_fault_value():
    g = random_connected(15, seed=7)
    s = 0
    res = SsrpResolver(g, s)
    spt = dijkstra(g, s)
    tree = {spt.parent_edge[v] for v in range(g.n) if v != s and spt.dist[v] is not None}
    off = [e for e in sorted(g.edges) if e not in tree]
    assert off, "family should have non-tree edges"
    d2 = off[0]
    for d1 in sorted(tree):
        for t in range(1, g.n):
            got = res.answer(d1, d2, t)
            oracle = all_dists_avoiding(g, s, [d1, d2])[t]
            assert got == (None if oracle is None else oracle.base)

def test_one_fault_rejects_tied_g_minus_e_tree(monkeypatch):
    # without (0, 3) vertex 0 reaches 3 over 1 and over 2 at the same
    # length; the sweep would raise first, so it is skipped here to reach
    # the single-fault fallback's own check
    g = Graph(4)
    for u, v, w in [(0, 3, W(1, 0)), (0, 1, W(1, 1)), (1, 3, W(1, 2)),
                    (0, 2, W(1, 2)), (2, 3, W(1, 1)), (1, 2, W(1, 5))]:
        g.add_edge(u, v, w)
    with pytest.raises(TieDetected):
        SsrpResolver(g, 0)
    monkeypatch.setattr(ssrp, "ssrp2", lambda *args: SsrpStats())
    res = SsrpResolver(g, 0)
    eid = next(e.eid for e in g.edges.values() if {e.u, e.v} == {0, 3})
    with pytest.raises(TieDetected):
        res.one_fault(eid, 3)
