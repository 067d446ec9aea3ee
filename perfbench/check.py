"""Independent checks of the program's answers, written with networkx.

Nothing here imports ``faultpath``: its ``reference`` module shares code
with the solvers (``frp2.OffPathMatrix`` imports ``reference._dijkstra_all``).
Edges are named by their endpoints, ``(min, max)``, which is unambiguous
because the benchmark's inputs have no parallel edges.

Distances use base weights only and do not depend on tie-breaking.  The
*sets* of emitted tuples do: the program draws its own tie values inside
auxiliary graphs and restored timeline edges, so among several base-shortest
paths it may follow any one.  The set checks therefore accept any
base-shortest path and check the properties every correct output has.

Each ``check_*`` function returns a list of problems; an empty list means the
output passed.
"""
from __future__ import annotations

import json
from typing import Iterable, Optional

import networkx as nx

Edge = tuple[int, int]


def edge_key(pair) -> Edge:
    u, v = pair
    return (u, v) if u < v else (v, u)


def make_graph(n: int, edges: Iterable[tuple[int, int, int]]) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for u, v, w in edges:
        if g.has_edge(u, v) or u == v:
            raise ValueError(f"input is not simple at ({u}, {v})")
        g.add_edge(u, v, w=w)
    return g


def read_ndjson(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _without(g: nx.Graph, removed: Iterable[Edge]) -> nx.Graph:
    return nx.restricted_view(g, [], list(removed))


def dist(g: nx.Graph, s: int, t: int, removed: Iterable[Edge] = ()) -> Optional[int]:
    try:
        return nx.dijkstra_path_length(_without(g, removed), s, t, weight="w")
    except nx.NetworkXNoPath:
        return None


def _dist_field(x) -> Optional[int]:
    return None if x == "inf" else x


def st_bridges(g: nx.Graph, s: int, t: int, removed: Iterable[Edge] = ()) -> set[Edge]:
    """Edges of g - removed whose removal disconnects s from t.

    A bridge separates s from t exactly when some s-t path crosses it.
    """
    h = _without(g, removed)
    try:
        path = nx.shortest_path(h, s, t)
    except nx.NetworkXNoPath:
        return set()
    on_path = {edge_key(p) for p in zip(path, path[1:])}
    return {edge_key(b) for b in nx.bridges(h)} & on_path


def _weight(g: nx.Graph, e: Edge) -> int:
    return g.edges[e]["w"]


def shortest_path_problem(g: nx.Graph, s: int, t: int, removed: list[Edge],
                          edge_set: set[Edge]) -> Optional[str]:
    """Why ``edge_set`` is not one base-shortest s-t path of g - removed."""
    want = dist(g, s, t, removed)
    if want is None:
        return "s and t are disconnected, yet failures were named"
    gone = set(removed)
    for e in edge_set:
        if not g.has_edge(*e) or e in gone:
            return f"edge {list(e)} is not in the graph minus the failures"
    sub = nx.Graph(list(edge_set))
    is_st_path = (s in sub and t in sub and nx.is_connected(sub)
                  and sub.number_of_edges() == sub.number_of_nodes() - 1
                  and max(d for _, d in sub.degree()) <= 2)
    if not is_st_path or sub.degree(s) != 1 or sub.degree(t) != 1:
        return f"edges {sorted(map(list, edge_set))} do not form one s-t path"
    got = sum(_weight(g, e) for e in edge_set)
    if got != want:
        return f"path of length {got} is not shortest ({want})"
    return None


def _known_edge(g: nx.Graph, pair) -> Edge:
    e = edge_key(pair)
    if not g.has_edge(*e):
        raise KeyError(f"edge {list(e)} is not in the input graph")
    return e


def _completion_problems(g, s, t, failed: list[Edge], named: set[Edge], what: str,
                         cuts_unnamed: bool = False) -> list[str]:
    """``named`` must be one base-shortest s-t path of g - failed.  With
    ``cuts_unnamed``, the edges that cut s from t along with ``failed`` are
    not named (they leave no third failure to name) and complete it."""
    full = named | st_bridges(g, s, t, failed) if cuts_unnamed else named
    why = shortest_path_problem(g, s, t, failed, full)
    return [] if why is None else [f"{what} after failing {[list(e) for e in failed]}: {why}"]


def _check_d2_sets(g, s, t, by_d1: dict[Edge, set[Edge]], cuts_unnamed: bool) -> list[str]:
    """The d1s are the edges of pi(s, t) that do not cut s from t; for each,
    the d2s form one base-shortest s-t path of G - d1."""
    problems = []
    pi = nx.dijkstra_path(g, s, t, weight="w")
    cuts = st_bridges(g, s, t)
    expected_d1 = [e for e in map(edge_key, zip(pi, pi[1:])) if e not in cuts]
    for e in set(by_d1) - set(expected_d1):
        problems.append(f"d1 {list(e)} is not a non-bridge edge of pi(s, t)")
    for e in expected_d1:
        problems += _completion_problems(g, s, t, [e], by_d1.get(e, set()), "d2 set",
                                         cuts_unnamed)
    return problems


def _pi_edges(g: nx.Graph, s: int, t: int) -> set[Edge]:
    paths = nx.all_shortest_paths(g, s, t, weight="w")
    first = next(paths)
    if next(paths, None) is not None:
        raise ValueError("pi(s, t) is not unique in base weights")
    return {edge_key(p) for p in zip(first, first[1:])}


def check_frp3(g: nx.Graph, s: int, t: int, records: list[dict]) -> list[str]:
    problems = []
    on_pi = _pi_edges(g, s, t)
    seen = set()
    by_d1: dict[Edge, set[Edge]] = {}
    by_d12: dict[tuple[Edge, Edge], set[Edge]] = {}
    for rec in records:
        try:
            d1, d2, d3 = (_known_edge(g, rec[k]) for k in ("d1", "d2", "d3"))
        except KeyError as exc:
            problems.append(f"record {rec}: {exc}")
            continue
        key = (d1, d2, d3)
        if key in seen:
            problems.append(f"triple {rec} repeats")
        seen.add(key)
        by_d1.setdefault(d1, set()).add(d2)
        by_d12.setdefault((d1, d2), set()).add(d3)
        want = dist(g, s, t, key)
        if _dist_field(rec["dist"]) != want:
            problems.append(f"triple {rec}: dist should be {want}")
        ons = sum(e in on_pi for e in key)
        if rec["case"] != f"{ons}on":
            problems.append(f"triple {rec}: case should be {ons}on")
    problems += _check_d2_sets(g, s, t, by_d1, cuts_unnamed=True)
    for (d1, d2), d3s in by_d12.items():
        problems += _completion_problems(g, s, t, [d1, d2], d3s, "d3 set")
    return problems


def walk_problem(g: nx.Graph, s: int, t: int, failed: list[Edge], path,
                 length: Optional[int]) -> Optional[str]:
    """Why ``path`` (a list of [u, v] edges) is not an s-t walk avoiding
    ``failed`` whose base length equals ``length``."""
    cur = s
    total = 0
    for pair in path:
        e = edge_key(pair)
        if not g.has_edge(*e):
            return f"path edge {list(e)} is not in the graph"
        if e in failed:
            return f"path uses failed edge {list(e)}"
        if cur not in e:
            return f"path breaks at edge {list(e)}"
        cur = e[1] if cur == e[0] else e[0]
        total += _weight(g, e)
    if cur != t:
        return "path does not end at t"
    if total != length:
        return f"path length {total} differs from dist {length}"
    return None


def check_frp2(g: nx.Graph, s: int, t: int, records: list[dict]) -> list[str]:
    problems = []
    seen = set()
    by_d1: dict[Edge, set[Edge]] = {}
    for rec in records:
        try:
            d1, d2 = _known_edge(g, rec["d1"]), _known_edge(g, rec["d2"])
        except KeyError as exc:
            problems.append(f"record {rec}: {exc}")
            continue
        if (d1, d2) in seen:
            problems.append(f"pair {rec} repeats")
        seen.add((d1, d2))
        by_d1.setdefault(d1, set()).add(d2)
        want = dist(g, s, t, [d1, d2])
        got = _dist_field(rec["dist"])
        if got != want:
            problems.append(f"pair {rec}: dist should be {want}")
        if got is not None:
            if "path" not in rec:
                problems.append(f"pair {rec}: finite answer without a path")
            else:
                why = walk_problem(g, s, t, [d1, d2], rec["path"], got)
                if why:
                    problems.append(f"pair {rec}: {why}")
        elif "path" in rec:
            problems.append(f"pair {rec}: path given for an unreachable t")
    problems += _check_d2_sets(g, s, t, by_d1, cuts_unnamed=False)
    return problems


def _on_some_shortest(ds: dict, dt: dict, e: Edge, w: int, total: int) -> bool:
    a, b = e
    return any(x in ds and y in dt and ds[x] + w + dt[y] == total
               for x, y in ((a, b), (b, a)))


def check_ssrp2(g: nx.Graph, s: int, records: list[dict]) -> list[str]:
    """The required (d1, t) keys come from the graph: for every t reachable
    from s, each edge d1 of pi(s, t) that leaves s connected to t.  The
    program's d1s are its tree edges above t, and pi(s, t) is unique in base
    weights, so the tree path is pi(s, t)."""
    problems = []
    base_s = nx.single_source_dijkstra_path_length(g, s, weight="w")
    pi_of = {t: _pi_edges(g, s, t) for t in sorted(base_s) if t != s}
    required = {(d1, t): total for t, pi in pi_of.items() for d1 in sorted(pi)
                if (total := dist(g, s, t, [d1])) is not None}
    seen = set()
    named: dict[tuple[Edge, int], set[Edge]] = {}
    d2_of: dict[tuple[Edge, int], set[Edge]] = {}
    for rec in records:
        try:
            d1, d2 = _known_edge(g, rec["d1"]), _known_edge(g, rec["d2"])
        except KeyError as exc:
            problems.append(f"record {rec}: {exc}")
            continue
        t = rec["t"]
        if t not in pi_of:
            problems.append(f"tuple {rec}: t is s or not reachable from s")
            continue
        key = (min(d1, d2), max(d1, d2), t)
        if key in seen:
            problems.append(f"tuple {rec} repeats as an unordered key")
        seen.add(key)
        want = dist(g, s, t, [d1, d2])
        if _dist_field(rec["dist"]) != want:
            problems.append(f"tuple {rec}: dist should be {want}")
        if d1 not in pi_of[t]:
            problems.append(f"tuple {rec}: d1 is not on pi(s, t)")
        elif (d1, t) not in required:
            problems.append(f"tuple {rec}: d1 cuts s from t, yet it was named")
        d2_of.setdefault((d1, t), set()).add(d2)
        named.setdefault((d1, t), set()).add(d2)
        named.setdefault((d2, t), set()).add(d1)
    for d1, t in sorted(set(d2_of) & set(required)):
        total = required[(d1, t)]
        h = _without(g, [d1])
        hs = nx.single_source_dijkstra_path_length(h, s, weight="w")
        ht = nx.single_source_dijkstra_path_length(h, t, weight="w")
        for d2 in sorted(d2_of[(d1, t)]):
            if not _on_some_shortest(hs, ht, d2, _weight(g, d2), total):
                problems.append(f"d2 {list(d2)} with d1 {list(d1)}, t={t} "
                                "is on no shortest s-t path of G - d1")
    for (d1, t), total in sorted(required.items()):
        # a pair already emitted in the other order is not named again, so
        # the d2s named with d1 in either order hold a whole shortest path
        sub = nx.Graph()
        sub.add_nodes_from([s, t])
        sub.add_edges_from((a, b, {"w": _weight(g, (a, b))})
                           for a, b in named.get((d1, t), ()))
        if dist(sub, s, t) != total:
            problems.append(f"d2s with d1 {list(d1)}, t={t} hold no shortest s-t path of G - d1")
    return problems


def check_dso_session(n: int, edges, records: list[dict]) -> list[str]:
    """Replay inserts on a networkx graph; every query must match it."""
    g = make_graph(n, edges)
    problems = []
    for k, rec in enumerate(records):
        if rec["op"] == "insert":
            if g.has_edge(rec["u"], rec["v"]):
                problems.append(f"op {k}: insert of a present pair {rec}")
            g.add_edge(rec["u"], rec["v"], w=rec["w"])
        else:
            f = edge_key(rec["f"])
            if not g.has_edge(*f):
                problems.append(f"op {k}: failed edge {rec['f']} is not in the graph")
                continue
            want = dist(g, rec["u"], rec["v"], [f])
            if _dist_field(rec["dist"]) != want:
                problems.append(f"op {k}: query {rec}: dist should be {want}")
    return problems
