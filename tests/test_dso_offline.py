import math
import random
from collections import Counter
from functools import partial

import pytest

from faultpath.cli import _load_timeline
from faultpath.dso import offline, static
from faultpath.dso.incremental import insert_edge
from faultpath.dso.offline import DeletionSweep, InvalidDelete, Timeline, build_timeline
from faultpath.dso.static import Demand, IncrementalDso, PairTable
from faultpath.families import detour_rich, random_connected
from faultpath.graph import Graph
from faultpath.reference import dist_avoiding
from faultpath.spt import SptForest, dijkstra


def random_timeline(g, steps, seed):
    rng = random.Random(f"tl:{seed}")
    tl = Timeline(g)
    specs = {eid: (e.u, e.v, e.w.base) for eid, e in g.edges.items()}
    present = set(specs)
    next_eid = max(specs) + 1
    removed: list = []
    for _ in range(steps):
        if removed and (len(present) < g.n + 2 or rng.random() < 0.5):
            u, v, w = removed.pop(rng.randrange(len(removed)))
            tl.updates.append(("+", u, v, w))
            specs[next_eid] = (u, v, w)
            present.add(next_eid)
            next_eid += 1
        else:
            eid = rng.choice(sorted(present))
            u, v, w = specs[eid]
            tl.updates.append(("-", eid))
            present.discard(eid)
            removed.append((u, v, w))
    return tl


def leaf_answers(timeline, failures=None):
    """Build ``timeline`` and answer single-failure queries at every leaf:
    {(t, u, v, eid): length}.  By default (u, v) runs over every connected
    pair and eid over pi(u, v); ``failures(dso)`` instead yields the
    (u, v, eid) to ask of the leaf oracle ``dso``."""
    answers = {}
    graphs = {}

    def every_path_edge(dso):
        f = SptForest.build(dso.graph)
        for u in range(f.graph.n):
            for v in range(u + 1, f.graph.n):
                if f.dist(u, v) is not None:
                    for eid in f.path_edge_ids(u, v):
                        yield u, v, eid

    def on_leaf(t, dso):
        graphs[t] = dso.graph
        for u, v, eid in (failures or every_path_edge)(dso):
            answers[(t, u, v, eid)], _ = dso.query_edge_failure(u, v, eid)

    off = build_timeline(timeline, on_leaf=on_leaf)
    assert sorted(graphs) == list(range(off.steps + 1))
    for t, g_t in graphs.items():
        assert g_t.edges == off.graph_at(t).edges
    return off, answers


def all_queries_match(off, answers, t):
    g_t = off.graph_at(t)
    checked = 0
    for (at, u, v, eid), got in answers.items():
        if at != t:
            continue
        want = dist_avoiding(g_t, u, v, [eid])
        assert got is None and want is None or got.base == want.base, \
            (t, u, v, eid)
        checked += 1
    assert checked


def test_empty_timeline_is_static_build():
    g = random_connected(10, seed=1)
    off, answers = leaf_answers(Timeline(g))
    assert off.steps == 0
    all_queries_match(off, answers, 0)


def test_alternating_delete_insert_single_edge():
    g = random_connected(10, seed=3)
    eid = next(e.eid for e in g.edges.values())
    e = g.edges[eid]
    tl = Timeline(g)
    cur = eid
    for k in range(2):
        tl.updates.append(("-", cur))
        tl.updates.append(("+", e.u, e.v, e.w.base))
        cur = max(g.edges) + 1 + k
    off, answers = leaf_answers(tl)
    # even steps (post-insert) contain the endpoints, odd steps do not
    for t in range(5):
        has = any(
            {spec[0], spec[1]} == {e.u, e.v}
            for eid2, spec in off.edge_specs.items()
            if (off.masks[t] >> eid2) & 1
        )
        assert has == (t % 2 == 0)
        all_queries_match(off, answers, t)


def test_random_timeline_t40_n20_matches_per_step_static():
    g = random_connected(20, seed=11)
    tl = random_timeline(g, steps=40, seed=4)
    answers = {}

    def on_leaf(t, dso):
        f = dso.forest
        for u in range(0, g.n, 5):
            for v in range(u + 1, g.n):
                if f.dist(u, v) is None:
                    answers[(t, u, v, -1)] = None
                    continue
                for eid in f.path_edge_ids(u, v):
                    got, _ = dso.query_edge_failure(u, v, eid)
                    answers[(t, u, v, eid)] = got

    off = build_timeline(tl, on_leaf=on_leaf)
    assert off.peak_live <= math.ceil(math.log2(max(off.steps, 2))) + 1
    for (t, u, v, eid), got in sorted(answers.items()):
        g_t = off.graph_at(t)
        if eid == -1:
            assert dist_avoiding(g_t, u, v, []) is None
            continue
        want = dist_avoiding(g_t, u, v, [eid])
        if want is None:
            assert got is None
        else:
            assert got is not None and got.base == want.base


def split_insertions(masks):
    """(lo, hi, count) per range-tree node in build order, where count is
    the edges the node's interval holds that its parent's interval lacks."""
    def held(lo, hi):
        m = masks[lo]
        for t in range(lo + 1, hi + 1):
            m &= masks[t]
        return m

    out = []

    def descend(lo, hi):
        if lo == hi:
            return
        mid = (lo + hi) // 2
        for a, b in ((lo, mid), (mid + 1, hi)):
            out.append((a, b, bin(held(a, b) & ~held(lo, hi)).count("1")))
            descend(a, b)

    descend(0, len(masks) - 1)
    return out


def test_subset_chain_and_memory_bound():
    # the second timeline adds four new edges, one per step: a node takes
    # every edge its parent's interval lacks, which can exceed its width,
    # as [2, 2] takes two edges and [3, 4] three
    g = random_connected(10, seed=1)
    new = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
           if v not in {x for x, *_ in g.adj[u]}][:4]
    for tl in (random_timeline(random_connected(14, seed=2), steps=24, seed=9),
               Timeline(g, [("+", u, v, 5) for u, v in new])):
        off = build_timeline(tl, on_leaf=lambda t, d: None)
        assert off.node_stats == split_insertions(off.masks)
        assert off.peak_live <= math.ceil(math.log2(len(off.masks))) + 1  # one per level
    assert (2, 2, 2) in off.node_stats and (3, 4, 3) in off.node_stats


def test_double_removal_through_timeline():
    # delete edge d, then query avoiding f: equals removing both from G
    g = random_connected(12, seed=6)
    f0 = IncrementalDso.build(g).forest
    d = f0.path_edge_ids(0, g.n - 1)[0]
    tl = Timeline(g, [("-", d)])
    _, answers = leaf_answers(tl)
    for (t, u, v, f_eid), got in answers.items():
        if (t, u, v) != (1, 0, g.n - 1):
            continue
        want = dist_avoiding(g, 0, g.n - 1, [d, f_eid])
        if want is None:
            assert got is None
        else:
            assert got.base == want.base


def test_determinism_same_graph_same_answers():
    g = random_connected(12, seed=8)
    eid = sorted(g.edges)[2]
    e = g.edges[eid]
    tl = Timeline(g, [("-", eid), ("+", e.u, e.v, e.w.base), ("-", max(g.edges) + 1)])

    def every_edge(dso):
        for u in range(0, 12, 3):
            for v in range(u + 1, 12):
                for f_eid in sorted(dso.graph.edges):
                    yield u, v, f_eid

    _, answers = leaf_answers(tl, every_edge)
    # steps 1 and 3 hold graphs with identical base weights
    common = 0
    for (t, u, v, f_eid), a in answers.items():
        if t != 1 or (3, u, v, f_eid) not in answers:
            continue
        b = answers[(3, u, v, f_eid)]
        assert (a is None) == (b is None)
        if a is not None:
            assert a.base == b.base
        common += 1
    assert common


def test_errors():
    g = random_connected(8, seed=1)
    with pytest.raises(InvalidDelete):
        build_timeline(Timeline(g, [("-", max(g.edges) + 5)]),
                       on_leaf=lambda t, d: None)
    with pytest.raises(InvalidDelete):
        build_timeline(DeletionSweep(g, [max(g.edges) + 1]),
                       on_leaf=lambda t, d: None)


def edge_failure_answers(dso):
    """Every single-failure query of every pair, with its path's edge ids."""
    f = dso.forest
    return {(u, v, eid): dso.query_edge_failure(u, v, eid, want_path=True)
            for u in range(f.graph.n) for v in range(u + 1, f.graph.n)
            if f.dist(u, v) is not None for eid in f.path_edge_ids(u, v)}


@pytest.mark.parametrize("graph,source", [(detour_rich(12, 0), 0),
                                          (random_connected(20, 0), 3)],
                         ids=["detour12", "random20"])
def test_deletion_sweep_leaf_is_the_graph_minus_one_edge(graph, source):
    spt = dijkstra(graph, source)
    eids = sorted(spt.parent_edge[v] for v in range(graph.n)
                  if v != source and spt.dist[v] is not None)
    visited = []

    def on_leaf(k, dso):
        # the input's own ids and ties, minus the k-th swept edge
        g_minus = Graph(graph.n)
        for eid, e in sorted(graph.edges.items()):
            if eid != eids[k]:
                g_minus.add_edge(e.u, e.v, e.w, eid=eid)
        assert dso.graph.edges == g_minus.edges
        ref = IncrementalDso.build(g_minus)
        assert [(t.dist, t.parent_edge) for t in dso.forest.spts] == \
            [(t.dist, t.parent_edge) for t in ref.forest.spts]
        # a grown table may hold other interval entries than a fresh build,
        # so compare what a caller observes: the trees, and every
        # edge-failure answer with its path
        assert edge_failure_answers(dso) == edge_failure_answers(ref)
        visited.append(k)

    off = build_timeline(DeletionSweep(graph, eids), on_leaf=on_leaf)
    assert visited == list(range(len(eids)))
    assert off.peak_live <= math.ceil(math.log2(len(eids))) + 1


def _tree_edge_sweep(graph, source):
    spt = dijkstra(graph, source)
    return DeletionSweep(graph, sorted(spt.parent_edge[v] for v in range(graph.n)
                                       if v != source and spt.dist[v] is not None))


def _cli_timeline(tmp_path):
    # the timeline of tests/test_cli.py::test_dso_offline_cli
    g = random_connected(8, seed=1)
    edges = [(e.u, e.v, e.w.base) for _, e in sorted(g.edges.items())]
    u, v, w = edges[0]
    text = f"p {g.n} {len(edges)}\n" + "".join(f"e {a} {b} {c}\n" for a, b, c in edges)
    path = tmp_path / "t.timeline"
    path.write_text(text + f"- {u} {v}\n+ {u} {v} {w}\n")
    return _load_timeline(str(path), None, 0)[0]


def _lazy_layers(table):
    """Lazy layers in the chain under a leaf's table, down to a full one or
    to the sweep's on-demand root, whose fill is the static one."""
    layers = 0
    while isinstance(table, PairTable) and not isinstance(table.fill, partial):
        layers += 1
        table = table.fill.__self__.old_table
    return layers


def _leaf_states(schedule):
    """Each leaf's lazy layer count, its trees and its completed table."""
    states = []

    def on_leaf(t, dso):
        layers = _lazy_layers(dso.table)
        dso.complete()
        states.append((layers, [(tr.dist, tr.parent_edge) for tr in dso.forest.spts],
                       dso.table))

    return build_timeline(schedule, on_leaf=on_leaf), states


@pytest.mark.parametrize("make", [
    lambda _: _tree_edge_sweep(detour_rich(12, 0), 0),
    lambda _: _tree_edge_sweep(detour_rich(16, 0), 0),
    lambda _: _tree_edge_sweep(random_connected(20, 0), 0),
    _cli_timeline,
], ids=["detour12", "detour16", "random20", "cli-timeline"])
def test_lazy_leaf_tables_equal_eager_ones(make, tmp_path, monkeypatch):
    schedule = make(tmp_path)
    off, lazy = _leaf_states(schedule)
    with monkeypatch.context() as m:
        # the reference fills every layer at insertion
        m.setattr(offline, "insert_edge",
                  lambda *args, demand=None, **kw: insert_edge(*args, **kw))
        eager_off, eager = _leaf_states(schedule)
    assert len(lazy) == len(eager) == off.steps + 1
    for (layers, trees, table), (eager_layers, eager_trees, eager_table) in zip(lazy, eager):
        # a leaf's lowest ancestor that is no lazy layer (an eager node, or
        # the root) spans at most five leaves, and each lazy layer below it
        # restores one of its missing edges
        assert layers <= 4 and eager_layers == 0
        assert trees == eager_trees
        assert list(table) == list(eager_table) and table == eager_table
    assert max(layers for layers, _, _ in lazy) >= 1
    assert off.node_stats == eager_off.node_stats
    assert off.peak_live <= math.ceil(math.log2(len(off.masks))) + 1
    assert 0 < off.demand.filled <= off.demand.held and eager_off.demand == Demand()


def _root_fills(schedule, monkeypatch, on_leaf):
    """Build ``schedule``; return how often the static fill computed each
    pair, and the connected pairs of the root graph."""
    calls = Counter()
    fill = static._pair_entries

    def counted(forest, u, v, trees):
        calls[(u, v)] += 1
        return fill(forest, u, v, trees)

    # the root's PairTable looks the fill up when build_timeline makes it
    monkeypatch.setattr(static, "_pair_entries", counted)
    off = build_timeline(schedule, on_leaf=on_leaf)
    root_mask = off.masks[0]
    for m in off.masks[1:]:
        root_mask &= m
    root = SptForest.build(offline._graph_for_mask(schedule.graph0.n, off.edge_specs,
                                                   root_mask))
    held = {(u, v) for u in range(root.graph.n) for v in range(u + 1, root.graph.n)
            if root.dist(u, v) is not None}
    return calls, held


def test_small_sweep_root_fills_only_the_pairs_its_leaves_read(monkeypatch):
    # three leaves: both children of the root are lazy layers, so nothing
    # completes the root and its pairs are filled on first read
    graph = detour_rich(12, 0)
    sweep = DeletionSweep(graph, _tree_edge_sweep(graph, 0).eids[:3])
    t = graph.n - 1
    answers = {}

    def on_leaf(k, dso):
        for eid in dso.forest.path_edge_ids(0, t):
            answers[(k, eid)], _ = dso.query_edge_failure(0, t, eid)

    calls, held = _root_fills(sweep, monkeypatch, on_leaf)
    assert set(calls.values()) == {1} and set(calls) <= held
    assert 0 < len(calls) < len(held)
    for (k, eid), got in answers.items():
        want = dist_avoiding(graph, 0, t, [sweep.eids[k], eid])
        assert got is None and want is None or got.base == want.base


@pytest.mark.parametrize("graph", [detour_rich(16, 0), random_connected(20, 0)],
                         ids=["detour16", "random20"])
def test_root_pairs_are_filled_once_when_eager_nodes_complete_it(graph, monkeypatch):
    # both children of the root span three or more leaves: the left clone
    # and the parent each complete the shared root table before inserting
    calls, held = _root_fills(_tree_edge_sweep(graph, 0), monkeypatch,
                              lambda k, dso: None)
    assert set(calls) == held and set(calls.values()) == {1}
