import random
import sys
from collections import Counter

import pytest

from faultpath.dso import incremental, offline
from faultpath.dso.incremental import DuplicateEdge, TieDetected, insert_edge
from faultpath.dso.offline import DeletionSweep, build_timeline
from faultpath.dso.static import Demand, IncrementalDso
from faultpath.families import detour_rich, random_connected
from faultpath.graph import Graph, TieSource, perturb_and_verify
from faultpath.pathform import pf_intersects_interval
from faultpath.reference import dist_avoiding, weak_classify
from faultpath.spt import SptForest, dijkstra
from faultpath.weights import CompositeWeight as W


def check_all_queries(g, dso):
    f = dso.forest
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if f.dist(u, v) is None:
                continue
            for eid in f.path_edge_ids(u, v):
                got, _ = dso.query_edge_failure(u, v, eid)
                want = dist_avoiding(g, u, v, [eid])
                assert got == want, (u, v, eid, got, want)


def test_heavy_insert_changes_nothing():
    g = random_connected(12, seed=0)
    dso = IncrementalDso.build(g)
    before = {
        (u, v, eid): dso.query_edge_failure(u, v, eid)[0]
        for u in range(g.n) for v in range(u + 1, g.n)
        if dso.forest.dist(u, v) is not None
        for eid in dso.forest.path_edge_ids(u, v)
    }
    rng = random.Random(3)
    u, v = next((a, b) for a in range(12) for b in range(a + 1, 12)
                if not g.has_endpoints(a, b))
    heavy = 10 * sum(e.w.base for e in g.edges.values())
    old_table, old_trees = dso.table, dso.forest.spts
    insert_edge(dso, u, v, heavy)
    # every tree is kept; a pair with no null entry keeps its sub-table, and
    # a pair with one keeps every non-null entry (a null one may gain a
    # detour through the new edge)
    assert all(a is b for a, b in zip(dso.forest.spts, old_trees))
    assert dso.table.keys() == old_table.keys()
    for pair, old_sub in old_table.items():
        if None not in old_sub.values():
            assert dso.table[pair] is old_sub
        else:
            assert all(dso.table[pair][k] is pf
                       for k, pf in old_sub.items() if pf is not None)
    for (a, b, eid), want in before.items():
        got, _ = dso.query_edge_failure(a, b, eid)
        assert got == want
    g2 = dso.graph
    check_all_queries(g2, dso)


def _state(dso):
    """Every table entry as a plain tuple, and every tree's dist/parent_edge."""
    table = {pair: {k: None if pf is None else tuple(pf) for k, pf in sub.items()}
             for pair, sub in dso.table.items()}
    return table, [(t.dist, t.parent_edge) for t in dso.forest.spts]


def _grown_states(g, inserts):
    dso = IncrementalDso.build(g)
    states = []
    for u, v, w in inserts:
        insert_edge(dso, u, v, w)
        states.append(_state(dso))
    return states


@pytest.mark.parametrize("family,wmax", [(detour_rich, 700), (random_connected, 60)],
                         ids=["detour_rich", "random_connected"])
def test_reuse_matches_full_recompute(family, wmax, monkeypatch):
    g = family(16, seed=4)
    rng = random.Random(21)
    inserts, present = [], {frozenset((e.u, e.v)) for e in g.edges.values()}
    while len(inserts) < 8:
        u, v = rng.randrange(16), rng.randrange(16)
        if u != v and frozenset((u, v)) not in present:
            present.add(frozenset((u, v)))
            inserts.append((u, v, rng.randint(1, wmax)))
    counts = {"entries": 0, "trees": 0}
    keeps_entry, updated_tree = incremental._keeps_entry, incremental._updated_tree

    def counting_entries(*args):
        hit = keeps_entry(*args)
        counts["entries"] += hit
        return hit

    def counting_trees(tree, *args):
        new = updated_tree(tree, *args)
        counts["trees"] += new is tree  # a kept tree is the old object
        return new

    with monkeypatch.context() as m:
        m.setattr(incremental, "_keeps_entry", counting_entries)
        m.setattr(incremental, "_updated_tree", counting_trees)
        shipped = _grown_states(g, inserts)
    assert counts["entries"] > 0 and counts["trees"] > 0  # the fast paths ran
    # the reference keeps nothing: every entry goes through pair_entry, and
    # every tree is a full Dijkstra run on the grown graph
    def rebuilt(graph, _updated):
        forest = SptForest.build(graph)
        assert not any(tree.tied for tree in forest.spts)
        return forest

    monkeypatch.setattr(incremental, "_keeps_entry", lambda *args: False)
    monkeypatch.setattr(incremental, "_updated_tree", lambda tree, *args: tree)
    monkeypatch.setattr(incremental, "SptForest", rebuilt)
    full = _grown_states(g, inserts)
    for step, (got, want) in enumerate(zip(shipped, full)):
        assert got[0] == want[0], f"table differs after insertion {step}"
        assert got[1] == want[1], f"forest differs after insertion {step}"


def test_other_component_keeps_every_sub_table():
    # a 4-cycle with a chord, and a triangle with a pendant bridge (6, 7), so
    # the pairs (4, 7), (5, 7) and (6, 7) hold null entries
    edges = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 0, 6), (0, 2, 8),
             (4, 5, 3), (5, 6, 4), (4, 6, 5), (6, 7, 2)]
    g = perturb_and_verify(8, edges, seed=2)
    dso = IncrementalDso.build(g)
    other = [(u, v) for u in range(4, 8) for v in range(u + 1, 8)]
    assert any(None in dso.table[pair].values() for pair in other)
    old_table = dso.table
    insert_edge(dso, 1, 3, 4)
    assert all(dso.table[pair] is old_table[pair] for pair in other)
    check_all_queries(dso.graph, dso)


def test_zero_base_shortcut_becomes_path():
    g = random_connected(10, seed=2)
    dso = IncrementalDso.build(g)
    u, v = next((a, b) for a in range(10) for b in range(a + 1, 10)
                if not g.has_endpoints(a, b))
    eid = insert_edge(dso, u, v, 0)
    f = dso.forest
    assert f.hops(u, v) == 1
    assert f.path_edge_ids(u, v) == [eid]
    check_all_queries(dso.graph, dso)


def test_twenty_insertions_stay_exact():
    g = random_connected(20, seed=7)
    dso = IncrementalDso.build(g)
    rng = random.Random(77)
    done = 0
    while done < 20:
        u, v = rng.randrange(20), rng.randrange(20)
        if u == v or dso.graph.has_endpoints(u, v):
            continue
        insert_edge(dso, u, v, rng.randint(0, 60))
        done += 1
        check_all_queries(dso.graph, dso)


def test_insertion_weak_intervals_and_monotonicity():
    g = random_connected(14, seed=9)
    dso = IncrementalDso.build(g)
    rng = random.Random(5)
    for step in range(6):
        old_d = {(u, v): dso.forest.dist(u, v)
                 for u in range(14) for v in range(u + 1, 14)}
        while True:
            u, v = rng.randrange(14), rng.randrange(14)
            if u != v and not dso.graph.has_endpoints(u, v):
                break
        insert_edge(dso, u, v, rng.randint(1, 50))
        g2 = dso.graph
        f = dso.forest
        # monotonicity
        for (a, b), before in old_d.items():
            after = f.dist(a, b)
            assert after is not None
            if before is not None:
                assert after <= before
        # weak-interval correctness of the fresh table
        for (a, b), sub in dso.table.items():
            h = f.hops(a, b)
            eids = f.path_edge_ids(a, b)
            for (i, j), pf in sub.items():
                lo, hi = i, h - j
                cls = weak_classify(g2, a, b, eids[lo:hi], lo, hi)
                if cls.is_weak:
                    truth = dist_avoiding(g2, a, b, eids[lo:hi])
                    if truth is None:
                        assert pf is None
                    else:
                        assert pf is not None and pf.length == truth
                elif pf is not None:
                    assert not pf_intersects_interval(pf, f, a, b, lo, hi)


def test_insert_connects_components():
    # two disjoint triangles joined online
    edges = [(0, 1, 3), (1, 2, 4), (0, 2, 5), (3, 4, 3), (4, 5, 4), (3, 5, 5)]
    g = perturb_and_verify(6, edges, seed=1)
    dso = IncrementalDso.build(g)
    assert dso.forest.dist(0, 4) is None
    insert_edge(dso, 2, 3, 7)
    check_all_queries(dso.graph, dso)
    insert_edge(dso, 0, 5, 9)
    check_all_queries(dso.graph, dso)


def test_duplicate_and_selfloop_rejected(g_small):
    dso = IncrementalDso.build(g_small)
    e = next(iter(g_small.edges.values()))
    with pytest.raises(DuplicateEdge):
        insert_edge(dso, e.u, e.v, 5)
    with pytest.raises(DuplicateEdge):
        insert_edge(dso, 3, 3, 5)


def test_tie_detected_on_colliding_weight():
    g = perturb_and_verify(4, [(0, 1, 2), (1, 2, 3), (2, 3, 2)], seed=0)
    dso = IncrementalDso.build(g)
    # mirror the existing 0-1-2 route exactly, tie included
    t01 = next(e.w for e in g.edges.values() if {e.u, e.v} == {0, 1})
    t12 = next(e.w for e in g.edges.values() if {e.u, e.v} == {1, 2})
    with pytest.raises(TieDetected):
        insert_edge(dso, 0, 2, t01.base + t12.base, tie=t01.tie + t12.tie)


def _without(g, eids):
    """g minus ``eids``, every other edge with its own id and tie."""
    out = Graph(g.n)
    for eid, e in sorted(g.edges.items()):
        if eid not in eids:
            out.add_edge(e.u, e.v, e.w, eid=eid)
    return out


def _missed_weak_entries(grown, fresh):
    """Entries a fresh build holds that the grown table lacks or lengthens.

    A fresh build's non-null entry is the exact detour of a weak interval,
    which every table must hold; other entries may differ."""
    assert grown.table.keys() == fresh.table.keys()
    return [(pair, k) for pair, sub in fresh.table.items()
            for k, pf in sub.items() if pf is not None
            and (grown.table[pair][k] is None or grown.table[pair][k].length != pf.length)]


def test_grown_weak_entries_match_fresh_build():
    # one insertion into G - {d, a}: grown back to G - d
    g = random_connected(20, seed=0)
    ids = sorted(g.edges)
    missed = []
    for d in ids[:6]:
        for a in ids[6:14]:
            e = g.edges[a]
            dso = IncrementalDso.build(_without(g, {d, a}))
            insert_edge(dso, e.u, e.v, e.w.base, tie=e.w.tie, eid=a)
            missed += _missed_weak_entries(dso, IncrementalDso.build(_without(g, {d})))
    assert missed == []
    # chained insertions: every leaf of a deletion sweep
    g = detour_rich(16, seed=0)
    spt = dijkstra(g, 0)
    eids = sorted(spt.parent_edge[v] for v in range(1, g.n))

    def on_leaf(k, dso):
        dso.complete()  # a leaf's table is a lazy layer; compare every pair
        missed.extend(_missed_weak_entries(dso, IncrementalDso.build(_without(g, {eids[k]}))))

    build_timeline(DeletionSweep(g, eids), on_leaf=on_leaf)
    assert missed == []


def _two_components():
    # random_connected(8, 1) on vertices 0..7 and random_connected(7, 2) on 8..14
    g = Graph(15)
    for off, part in ((0, random_connected(8, 1)), (8, random_connected(7, 2))):
        for e in part.edges.values():
            g.add_edge(e.u + off, e.v + off, e.w)
    return g


def test_lazy_layer_fills_each_pair_on_first_read():
    g = _two_components()
    x, y = next((u, v) for u in range(8) for v in range(u + 1, 8) if not g.has_endpoints(u, v))
    eager, lazy = IncrementalDso.build(g), IncrementalDso.build(g)
    demand = Demand()
    assert insert_edge(lazy, x, y, 7, demand=demand) == insert_edge(eager, x, y, 7)
    # the trees are updated at insertion; only the table waits for reads
    assert [(t.dist, t.parent_edge) for t in lazy.forest.spts] == \
        [(t.dist, t.parent_edge) for t in eager.forest.spts]
    assert len(lazy.table) == 0 and demand == Demand(0, len(eager.table))
    for pair in ((0, 8), (7, 14), (3, 3), (5, 2), (2, 15)):
        with pytest.raises(KeyError):
            lazy.table[pair]
    assert len(lazy.table) == 0 and demand.filled == 0
    pairs = list(eager.table)
    random.Random(0).shuffle(pairs)
    for k, pair in enumerate(pairs, 1):
        assert lazy.table[pair] == eager.table[pair]
        assert len(lazy.table) == demand.filled == k
    lazy.complete()
    assert list(lazy.table) == list(eager.table) and demand.filled == len(pairs)


def test_lazy_insert_detects_ties():
    g = perturb_and_verify(4, [(0, 1, 2), (1, 2, 3), (2, 3, 2)], seed=0)
    dso = IncrementalDso.build(g)
    t01 = next(e.w for e in g.edges.values() if {e.u, e.v} == {0, 1})
    t12 = next(e.w for e in g.edges.values() if {e.u, e.v} == {1, 2})
    with pytest.raises(TieDetected):
        insert_edge(dso, 0, 2, t01.base + t12.base, tie=t01.tie + t12.tie, demand=Demand())


def _tree_fields(tree):
    return (tree.source, tree.dist, tree.parent, tree.parent_edge, tree.depth,
            tree.tied, tree._lift)


def _check_update(g, spts, x, y, w, seen):
    """Add (x, y, w) to g and update every tree of ``spts`` in closed form;
    each must equal a fresh run on the grown graph, be the old object
    exactly when no distance changed, and raise TieDetected exactly when
    the fresh run is tied.  Returns the grown graph and its trees, or None
    when some tree tied; ``seen`` counts the outcomes."""
    g2, eid = g.plus_edge(x, y, w)
    new = []
    for tree in spts:
        fresh = dijkstra(g2, tree.source, with_lca=True)
        try:
            got = incremental._updated_tree(tree, spts, x, y, w, eid)
        except TieDetected:
            assert fresh.tied
            seen["tied"] += 1
            new = None
            continue
        assert not fresh.tied
        assert _tree_fields(got) == _tree_fields(fresh)
        assert (got is tree) == (got.dist == tree.dist)
        seen["kept" if got is tree else "updated"] += 1
        if new is not None:
            new.append(got)
    return None if new is None else (g2, new)


def test_updated_tree_equals_dijkstra_on_small_graphs():
    # weights 1-4 with a mostly-zero tie channel, so that ties occur
    seen = Counter()
    rng = random.Random(2024)
    for _ in range(1500):
        n = rng.randint(2, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        m = rng.randrange(len(pairs))
        g = Graph(n)
        for u, v in pairs[:m]:
            g.add_edge(u, v, W(rng.randint(1, 4), rng.choice((0, 0, 0, 1, 2))))
        spts = [dijkstra(g, s, with_lca=True) for s in range(n)]
        if any(tree.tied for tree in spts):
            continue
        x, y = pairs[m]
        _check_update(g, spts, x, y, W(rng.randint(1, 4), rng.choice((0, 0, 1, 2))), seen)
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("family,n", [(detour_rich, 12), (random_connected, 20)],
                         ids=["detour12", "random20"])
def test_updated_tree_equals_dijkstra_in_deletion_sweeps(family, n, monkeypatch):
    # every insertion of the range tree over G minus each of its edges
    g = family(n, 0)
    seen = Counter()
    real = incremental.insert_edge

    def checked(dso, *args, **kwargs):
        old = dso.forest.spts
        eid = real(dso, *args, **kwargs)
        for s, tree in enumerate(dso.forest.spts):
            assert _tree_fields(tree) == _tree_fields(dijkstra(dso.graph, s, with_lca=True))
            assert (tree is old[s]) == (tree.dist == old[s].dist)
            seen["kept" if tree is old[s] else "updated"] += 1
        return eid

    monkeypatch.setattr(offline, "insert_edge", checked)
    build_timeline(DeletionSweep(g, sorted(g.edges)), on_leaf=lambda k, dso: None)
    assert seen["kept"] > 0 and seen["updated"] > 0, seen


def test_updated_tree_equals_dijkstra_on_c3_graphs():
    # C3's insertion sequences: 2 x 20 on n=20, and the bench's at n=32/64/128
    seen = Counter()
    runs = [(random_connected(20, seed=400 + seed), TieSource(seed + 7919),
             random.Random(f"c3:{seed}"), 20, (0, 60)) for seed in (5, 6)]
    runs += [(random_connected(n, seed=3, extra=2 * n), TieSource(3 + 7919),
              random.Random(f"bench-inc:3:{n}"), 3, (1, 50)) for n in (32, 64, 128)]
    for g, ties, rng, count, (lo, hi) in runs:
        spts = SptForest.build(g).spts
        for _ in range(count):
            while True:
                u, v = rng.randrange(g.n), rng.randrange(g.n)
                if u != v and not g.has_endpoints(u, v):
                    break
            g, spts = _check_update(g, spts, u, v, W(rng.randint(lo, hi), ties.next()), seen)
    assert seen["kept"] > 0 and seen["updated"] > 0 and not seen["tied"], seen


def test_insertions_run_no_dijkstra(monkeypatch):
    g = random_connected(16, seed=5)
    eager, lazy = IncrementalDso.build(g), IncrementalDso.build(g)
    calls = []

    def traced(*args, **kwargs):
        calls.append(args)
        return dijkstra(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("faultpath") and getattr(mod, "dijkstra", None) is dijkstra:
            monkeypatch.setattr(mod, "dijkstra", traced)
    rng = random.Random(16)
    done = 0
    while done < 8:
        u, v = rng.randrange(16), rng.randrange(16)
        if u == v or eager.graph.has_endpoints(u, v):
            continue
        w = rng.randint(1, 60)
        insert_edge(eager, u, v, w)
        insert_edge(lazy, u, v, w, demand=Demand())
        done += 1
    lazy.complete()
    assert calls == []
    assert lazy.table == eager.table
