"""The checker accepts the program's real answers and rejects hand-made
wrong ones.  Run from the repository root: ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import copy
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import session  # noqa: E402
import workloads as wl  # noqa: E402
from faultpath import cli  # noqa: E402

SEED = 3


def _graph(tmp_path, n, edges):
    path = tmp_path / "g.graph"
    path.write_text(wl.dump_graph(n, edges))
    return str(path)


def _cli(tmp_path, argv):
    out = tmp_path / "out.ndjson"
    assert cli.main(argv + ["--seed", str(SEED), "--out", str(out)]) == 0
    return check.read_ndjson(out.read_text())


@pytest.fixture(scope="module")
def frp3_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("frp3")
    n, edges = 6, wl.detour(6, random.Random(SEED))
    recs = _cli(tmp, ["frp", "--faults", "3", "--graph", _graph(tmp, n, edges),
                      "--s", "0", "--t", str(n - 1)])
    return check.make_graph(n, edges), n - 1, recs


@pytest.fixture(scope="module")
def frp2_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("frp2")
    n, edges = 10, wl.detour(10, random.Random(SEED))
    recs = _cli(tmp, ["frp", "--faults", "2", "--emit-paths", "--graph",
                      _graph(tmp, n, edges), "--s", "0", "--t", str(n - 1)])
    return check.make_graph(n, edges), n - 1, recs


@pytest.fixture(scope="module")
def ssrp2_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ssrp2")
    n, edges = 10, wl.sparse_random(10, random.Random(SEED))
    recs = _cli(tmp, ["ssrp2", "--graph", _graph(tmp, n, edges), "--s", "0"])
    return check.make_graph(n, edges), recs


@pytest.fixture(scope="module")
def dso_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("dso")
    rng = random.Random(SEED)
    n, edges = 12, wl.detour(12, rng)
    ops = tmp / "ops.json"
    ops.write_text(json.dumps(wl.mixed_ops(n, edges, rng, inserts=3, queries=20)))
    out = tmp / "out.ndjson"
    session.run_session(_graph(tmp, n, edges), str(ops), SEED, str(out))
    return n, edges, check.read_ndjson(out.read_text())


def _edges_of(recs, key):
    return {check.edge_key(r[key]) for r in recs}


def test_accepts_program_output(frp3_case, frp2_case, ssrp2_case, dso_case):
    g, t, recs = frp3_case
    assert check.check_frp3(g, 0, t, recs) == []
    g, t, recs = frp2_case
    assert check.check_frp2(g, 0, t, recs) == []
    g, recs = ssrp2_case
    assert check.check_ssrp2(g, 0, recs) == []
    n, edges, recs = dso_case
    assert check.check_dso_session(n, edges, recs) == []


def test_frp3_rejects_dropped_triple(frp3_case):
    g, t, recs = frp3_case
    for k in range(len(recs)):
        problems = check.check_frp3(g, 0, t, recs[:k] + recs[k + 1:])
        assert any("set" in p for p in problems), recs[k]


def test_frp3_rejects_extra_triple(frp3_case):
    g, t, recs = frp3_case
    rec = dict(recs[0])
    named = {check.edge_key(r["d3"]) for r in recs
             if r["d1"] == rec["d1"] and r["d2"] == rec["d2"]}
    failed = {check.edge_key(rec["d1"]), check.edge_key(rec["d2"])}
    extra = next(e for e in g.edges if check.edge_key(e) not in named | failed)
    rec["d3"] = list(check.edge_key(extra))
    rec["dist"] = check.dist(g, 0, t, failed | {check.edge_key(extra)})
    on = sum(check.edge_key(rec[k]) in check._pi_edges(g, 0, t) for k in ("d1", "d2", "d3"))
    rec["case"] = f"{on}on"
    assert any("d3 set" in p for p in check.check_frp3(g, 0, t, recs + [rec]))


def test_frp3_rejects_distance_off_by_one(frp3_case):
    g, t, recs = frp3_case
    bad = copy.deepcopy(recs)
    k = next(i for i, r in enumerate(bad) if r["dist"] != "inf")
    bad[k]["dist"] += 1
    assert any("dist should be" in p for p in check.check_frp3(g, 0, t, bad))


def test_frp3_rejects_wrong_case_tag(frp3_case):
    g, t, recs = frp3_case
    bad = copy.deepcopy(recs)
    bad[0]["case"] = "3on" if bad[0]["case"] != "3on" else "1on"
    assert any("case should be" in p for p in check.check_frp3(g, 0, t, bad))


def test_frp2_rejects_path_through_failed_edge(frp2_case):
    g, t, recs = frp2_case
    bad = copy.deepcopy(recs)
    k = next(i for i, r in enumerate(bad) if "path" in r)
    # the original shortest path: a real s-t walk, but through d1
    pi = check.nx.dijkstra_path(g, 0, t, weight="w")
    bad[k]["path"] = [list(check.edge_key(p)) for p in zip(pi, pi[1:])]
    assert any("uses failed edge" in p for p in check.check_frp2(g, 0, t, bad))


def test_frp2_rejects_dropped_and_extra_pair_and_wrong_distance(frp2_case):
    g, t, recs = frp2_case
    assert any("d2 set" in p for p in check.check_frp2(g, 0, t, recs[1:]))
    extra = dict(recs[0])
    named = _edges_of([r for r in recs if r["d1"] == extra["d1"]], "d2")
    off = next(e for e in g.edges if check.edge_key(e) not in named | {check.edge_key(extra["d1"])})
    extra["d2"] = list(check.edge_key(off))
    extra["dist"] = check.dist(g, 0, t, [check.edge_key(extra["d1"]), check.edge_key(off)])
    extra.pop("path", None)
    assert any("d2 set" in p for p in check.check_frp2(g, 0, t, recs + [extra]))
    bad = copy.deepcopy(recs)
    k = next(i for i, r in enumerate(bad) if r["dist"] != "inf")
    bad[k]["dist"] -= 1
    problems = check.check_frp2(g, 0, t, bad)
    assert any("dist should be" in p for p in problems)
    assert any("differs from dist" in p for p in problems)


def test_ssrp2_rejects_dropped_extra_repeated_and_wrong(ssrp2_case):
    g, recs = ssrp2_case
    for k in range(len(recs)):
        problems = check.check_ssrp2(g, 0, recs[:k] + recs[k + 1:])
        assert any("hold no shortest" in p for p in problems), recs[k]
    flipped = dict(recs[0], d1=recs[0]["d2"], d2=recs[0]["d1"])
    assert any("repeats" in p for p in check.check_ssrp2(g, 0, recs + [flipped]))
    extra = dict(recs[0])
    used = _edges_of(recs, "d1") | _edges_of(recs, "d2")
    extra["d2"] = list(next(check.edge_key(e) for e in g.edges if check.edge_key(e) not in used))
    assert check.check_ssrp2(g, 0, recs + [extra])
    bad = copy.deepcopy(recs)
    k = next(i for i, r in enumerate(bad) if r["dist"] != "inf")
    bad[k]["dist"] += 1
    assert any("dist should be" in p for p in check.check_ssrp2(g, 0, bad))


def test_ssrp2_rejects_empty_output_and_a_missing_target(ssrp2_case):
    g, recs = ssrp2_case
    assert any("hold no shortest" in p for p in check.check_ssrp2(g, 0, []))
    for t in sorted({r["t"] for r in recs}):
        problems = check.check_ssrp2(g, 0, [r for r in recs if r["t"] != t])
        assert any(p.endswith("shortest s-t path of G - d1") and f"t={t} " in p
                   for p in problems), t


def test_ssrp2_rejects_d1_off_the_shortest_path(ssrp2_case):
    g, recs = ssrp2_case
    bad = dict(recs[0])
    t = bad["t"]
    on_pi = check._pi_edges(g, 0, t)
    off = next(check.edge_key(e) for e in g.edges
               if check.edge_key(e) not in on_pi and check.edge_key(e) != check.edge_key(bad["d2"]))
    bad["d1"] = list(off)
    bad["dist"] = check.dist(g, 0, t, [off, check.edge_key(bad["d2"])])
    assert any("d1 is not on pi(s, t)" in p for p in check.check_ssrp2(g, 0, recs + [bad]))


def test_dso_session_rejects_wrong_query(dso_case):
    n, edges, recs = dso_case
    bad = copy.deepcopy(recs)
    k = next(i for i, r in enumerate(bad) if r["op"] == "query" and r["dist"] != "inf")
    bad[k]["dist"] += 1
    assert any("dist should be" in p for p in check.check_dso_session(n, edges, bad))
