import pytest

from faultpath.graph import (
    Graph, GraphFormatError, Overflow, dump_graph_text, parse_graph_text,
    perturb_and_verify,
)
from faultpath.reference import bellman_ford, tied
from faultpath.spt import dijkstra
from faultpath.weights import CompositeWeight as W


def test_composite_order_and_addition():
    a = W(3, 5)
    b = W(3, 9)
    assert a < b
    assert a + b == W(6, 14)
    assert W(2, 100) < W(3, 0)


def test_perturb_triangle_unique_paths():
    g = perturb_and_verify(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)], seed=7)
    ties = {e.w.tie for e in g.edges.values()}
    assert len(ties) == 3
    # every pairwise shortest path is strictly unique: re-run the verifier
    # over all single-edge removals, not just the sample
    for eid in list(g.edges) + [-1]:
        mask = 0 if eid < 0 else 1 << eid
        for s in range(3):
            assert not tied(g, s, blocked=mask)


def test_single_edge_unchanged_base():
    g = perturb_and_verify(2, [(0, 1, 5)], seed=1)
    t = dijkstra(g, 0)
    assert t.dist[1].base == 5


def test_path_graph_forced_sum():
    g = perturb_and_verify(3, [(0, 1, 2), (1, 2, 3)], seed=0)
    assert dijkstra(g, 0).dist[2].base == 5


def test_dijkstra_matches_bellman_ford(g_mid):
    for s in (0, 7, 13):
        t = dijkstra(g_mid, s)
        bf = bellman_ford(g_mid, s)
        assert t.dist == bf


def test_loader_round_trip_and_errors():
    text = dump_graph_text(4, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
    n, edges = parse_graph_text(text)
    assert n == 4 and len(edges) == 3
    with pytest.raises(GraphFormatError):
        parse_graph_text("p 2 1\ne 0 0 3\n")
    with pytest.raises(GraphFormatError):
        parse_graph_text("p 2 1\ne 0 5 3\n")
    with pytest.raises(GraphFormatError):
        parse_graph_text("e 0 1 1\n")
    with pytest.raises(GraphFormatError, match=r"line 3: parallel edge \(1, 0\)"):
        parse_graph_text("p 3 2\ne 0 1 1\ne 1 0 2\n")


def test_overflow_rejected():
    with pytest.raises(Overflow):
        perturb_and_verify(2, [(0, 1, 2**63)], seed=0)


def test_tie_unbreakable_on_degenerate_tie_channel(monkeypatch):
    # with a one-value tie channel a symmetric square cannot be broken
    import faultpath.graph as graphmod
    monkeypatch.setattr(graphmod, "TIE_RANGE", 2)
    from faultpath.graph import TieUnbreakable
    with pytest.raises(TieUnbreakable):
        perturb_and_verify(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)], seed=0)


def test_self_loop_rejected():
    g = Graph(3)
    with pytest.raises(GraphFormatError):
        g.add_edge(1, 1, W(1, 1))
