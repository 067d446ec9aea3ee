"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 10 launches
the full pipeline benchmark at sizes 64/128/256 under a wall-clock budget
per run (FAULTPATH_BENCH_BUDGET seconds, default 60; 0 means unlimited) and
checks that its report is complete and truthful; a control run at n=8 checks
the harness end to end against a brute-force triple count.
"""
import copy
import itertools
import json
import math
import os
import random
import statistics
import time

import pytest

from faultpath.bench import _fit_slope, bench_dso_incremental, bench_frp3
from faultpath.dso.incremental import insert_edge
from faultpath.dso.offline import Timeline, build_timeline
from faultpath.dso.static import IncrementalDso
from faultpath.families import detour_rich, fixed_c8_family, fixed_p12_family, \
    random_connected
from faultpath.frp2 import Frp2Solver, frp1_all, iter_required_pairs
from faultpath.frp3.solver import solve_3frp
from faultpath.hardness import extract_apsp, reduce_graph
from faultpath.pathform import pf_intersects_interval
from faultpath.reference import all_dists_avoiding, dist_avoiding, \
    path_avoiding, weak_classify
from faultpath.spt import SptForest
from faultpath.ssrp import SsrpResolver


def report(num, ok, detail):
    print(f"\nACCEPTANCE C{num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c01_static_dso_exactness():
    t0 = time.perf_counter()
    queries = 0
    violations = 0
    for seed in range(50):
        g = random_connected(25, seed=1000 + seed)
        dso = IncrementalDso.build(g, seed=seed)
        f = dso.forest
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if f.dist(u, v) is None:
                    continue
                for eid in f.path_edge_ids(u, v):
                    got, _ = dso.query_edge_failure(u, v, eid)
                    want = dist_avoiding(g, u, v, [eid])
                    queries += 1
                    if got != want:
                        violations += 1
    elapsed = time.perf_counter() - t0
    report(1, violations == 0 and elapsed < 120,
           f"50 seeds n=25, {queries} composite-exact queries, "
           f"{violations} violations, {elapsed:.1f}s (< 120s)")


def test_c02_weak_interval_exactness():
    violations = 0
    intervals = weak_hits = 0
    for seed in range(6):
        g = random_connected(15, seed=77 + seed)
        dso = IncrementalDso.build(g, seed=seed)
        f = dso.forest
        for (u, v), sub in dso.table.items():
            h = f.hops(u, v)
            eids = f.path_edge_ids(u, v)
            for (i, j), pf in sub.items():
                lo, hi = i, h - j
                intervals += 1
                cls = weak_classify(g, u, v, eids[lo:hi], lo, hi)
                if cls.is_weak:
                    weak_hits += 1
                    truth = dist_avoiding(g, u, v, eids[lo:hi])
                    if truth is None:
                        if pf is not None:
                            violations += 1
                    elif pf is None or pf.length != truth:
                        violations += 1
                elif pf is not None and pf_intersects_interval(pf, f, u, v, lo, hi):
                    violations += 1
    report(2, violations == 0,
           f"6 graphs n=15, {intervals} anchored intervals ({weak_hits} weak), "
           f"{violations} violations")


def test_c03_incremental_dso():
    violations = 0
    for seed in (5, 6):
        g = random_connected(20, seed=400 + seed)
        dso = IncrementalDso.build(g, seed=seed)
        rng = random.Random(f"c3:{seed}")
        done = 0
        while done < 20:
            u, v = rng.randrange(20), rng.randrange(20)
            if u == v or dso.graph.has_endpoints(u, v):
                continue
            insert_edge(dso, u, v, rng.randint(0, 60))
            done += 1
            g2 = dso.graph
            f = dso.forest
            for a in range(g2.n):
                for b in range(a + 1, g2.n):
                    if f.dist(a, b) is None:
                        continue
                    for eid in f.path_edge_ids(a, b):
                        got, _ = dso.query_edge_failure(a, b, eid)
                        want = dist_avoiding(g2, a, b, [eid])
                        if got != want:
                            violations += 1
    rep = bench_dso_incremental([32, 64, 128], seed=3, repeats=3)
    slope = rep["slope"]
    ok = violations == 0 and slope is not None and slope <= 2.5
    report(3, ok,
           f"2x20 insertions n=20 with {violations} violations; per-insertion "
           f"slope {slope:.2f} over n=32/64/128 (<= 2.5)")


def test_c04_offline_dynamic_dso():
    g = random_connected(20, seed=31)
    rng = random.Random("c4")
    specs = {eid: (e.u, e.v, e.w.base) for eid, e in g.edges.items()}
    present = set(specs)
    removed = []
    next_eid = max(specs) + 1
    tl = Timeline(g)
    for _ in range(40):
        if removed and (len(present) < g.n + 2 or rng.random() < 0.5):
            u, v, w = removed.pop(rng.randrange(len(removed)))
            tl.updates.append(("+", u, v, w))
            specs[next_eid] = (u, v, w)
            present.add(next_eid)
            next_eid += 1
        else:
            eid = rng.choice(sorted(present))
            tl.updates.append(("-", eid))
            present.discard(eid)
            removed.append(specs[eid][:3])
    got = {}

    def on_leaf(t, dso):
        f = dso.forest
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if f.dist(u, v) is None:
                    continue
                for eid in f.path_edge_ids(u, v):
                    ln, _ = dso.query_edge_failure(u, v, eid)
                    got[(t, u, v, eid)] = None if ln is None else ln.base

    off = build_timeline(tl, seed=4, on_leaf=on_leaf)
    violations = 0
    for (t, u, v, eid), val in got.items():
        want = dist_avoiding(off.graph_at(t), u, v, [eid])
        wb = None if want is None else want.base
        if val != wb:
            violations += 1
    peak_ok = off.peak_live <= math.ceil(math.log2(40)) + 1
    report(4, violations == 0 and peak_ok,
           f"timeline T=40 n=20, {len(got)} per-step queries, {violations} "
           f"violations; peak live oracles {off.peak_live} <= "
           f"{math.ceil(math.log2(40)) + 1}")


def test_c05_frp2_and_hardness_round_trip():
    violations = 0
    pairs = 0
    for seed in (11, 12, 13):
        g = random_connected(25, seed=500 + seed)
        sol = Frp2Solver(g, 0, 24, seed=seed)
        for d1, d2 in iter_required_pairs(sol):
            got = sol.answer_pair(d1, d2)
            want = dist_avoiding(g, 0, 24, [d1, d2])
            wb = None if want is None else want.base
            pairs += 1
            if got != wb:
                violations += 1
    g = random_connected(20, seed=71)
    inst = reduce_graph(g, seed=2)
    sol = Frp2Solver(inst.graph, inst.s, inst.t, seed=2)
    mat = extract_apsp(inst, sol.answer_pair)
    rt_bad = 0
    for u in range(g.n):
        row = all_dists_avoiding(g, u, [])
        for v in range(g.n):
            if mat[u][v] != row[v].base:
                rt_bad += 1
    report(5, violations == 0 and rt_bad == 0,
           f"2FRP: {pairs} required pairs over 3 seeds n=25, {violations} "
           f"violations; hardness round trip n=20 exact ({rt_bad} mismatches)")


def _run_3frp_checked(g, s, t, seed, loop_stats):
    emitted = []
    stats = solve_3frp(g, s, t, lambda *a: emitted.append(a), seed=seed)
    loop_stats.append(stats)
    bad = 0
    for d1, d2, d3, ans, _k in emitted:
        want = dist_avoiding(g, s, t, [d1, d2, d3])
        wb = None if want is None else want.base
        if ans != wb:
            bad += 1
    return len(emitted), bad


@pytest.fixture(scope="module")
def frp3_workload():
    """Criterion 6's solver runs, shared with criterion 7's loop traces."""
    triples = fam_triples = violations = 0
    loop_stats = []
    for seed in range(50):
        g = random_connected(16, seed=2000 + seed)
        n_t, bad = _run_3frp_checked(g, 0, 15, seed, loop_stats)
        triples += n_t
        violations += bad
    for k, g in enumerate(fixed_c8_family()):
        n_t, bad = _run_3frp_checked(g, 0, 4, k, loop_stats)
        fam_triples += n_t
        violations += bad
    # detour-rich instances drive the all-on-path machinery hard
    for seed in (3, 4):
        g = detour_rich(12, seed=seed)
        n_t, bad = _run_3frp_checked(g, 0, 11, seed, loop_stats)
        triples += n_t
        violations += bad
    return {"triples": triples + fam_triples, "violations": violations,
            "loop_stats": loop_stats}


def test_c06_frp3_exactness(frp3_workload):
    report(6, frp3_workload["violations"] == 0,
           f"50 seeds n=16 + exhaustive n=8 family + 2 detour instances: "
           f"{frp3_workload['triples']} required triples, "
           f"{frp3_workload['violations']} violations")


def test_c07_snake_loop_potentials(frp3_workload):
    loops = stages = 0
    decrease_bad = bound_bad = 0
    for stats in frp3_workload["loop_stats"]:
        for pots in stats.loop_potentials:
            loops += 1
            stages += len(pots)
            for a, b in zip(pots, pots[1:]):
                if 8 * b > 5 * a:
                    decrease_bad += 1
            if pots and pots[0] > 1:
                limit = math.ceil(math.log(pots[0], 8 / 5)) + 1
                if len(pots) > limit:
                    bound_bad += 1
    assert loops > 0, "criterion 6's workload ran no probe loops"
    report(7, decrease_bad == 0 and bound_bad == 0,
           f"{loops} probe loops, {stages} stages: potential always drops to "
           f"<= 5/8, stage counts within ceil(log_1.6 S1)+1 "
           f"({decrease_bad}/{bound_bad} violations)")


def test_c08_structural_lemmas():
    union_bad = 0
    for n, seed in ((16, 1), (20, 2), (30, 3)):
        g = random_connected(n, seed=seed)
        r = frp1_all(g, 0, n - 1)
        if len(r.union_edges) > 3 * n:
            union_bad += 1
    transfer_bad = 0
    for n, seed in ((12, 0), (20, 3)):
        g = random_connected(n, seed=seed)
        f = SptForest.build(g)
        from faultpath.reference import path_avoiding
        for u in range(n):
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
                    avoided = [i for i in range(h) if not hit[i]]
                    for a, b in itertools.combinations(avoided, 2):
                        if any(hit[a:b + 1]):
                            transfer_bad += 1
    # pytest's default import mode puts tests/ on sys.path, whatever the cwd
    from test_properties import classify_visits
    type_bad = 0
    patterns_seen = set()
    for g in fixed_p12_family():
        f = SptForest.build(g)
        eids = f.path_edge_ids(0, 11)
        from faultpath.reference import path_avoiding
        for l, m, r in itertools.combinations(range(len(eids)), 3):
            rp = path_avoiding(g, 0, 11, [eids[l], eids[m], eids[r]])
            if rp is None:
                continue
            try:
                pat = classify_visits(g, f, 0, 11, (l, m, r), rp)
            except AssertionError:
                type_bad += 1
                continue
            if pat not in ([], ["D2"], ["D3"], ["D2", "D3"], ["D3", "D2"]):
                type_bad += 1
            patterns_seen.add(tuple(pat))
    ok = union_bad == 0 and transfer_bad == 0 and type_bad == 0
    report(8, ok,
           f"union bound <= 3n on 3 sizes ({union_bad} bad); interval "
           f"avoidance transfer exhaustive n<=20 ({transfer_bad} bad); "
           f"five-type completeness exhaustive n=12 family ({type_bad} bad, "
           f"patterns {sorted(patterns_seen)})")


def test_c09_ssrp2():
    g = random_connected(14, seed=5)
    res = SsrpResolver(g, 0)
    violations = checked = 0
    eids = sorted(g.edges)
    for d1, d2 in itertools.combinations(eids, 2):
        oracle = all_dists_avoiding(g, 0, [d1, d2])
        for t in range(g.n):
            got = res.answer(d1, d2, t)
            want = None if oracle[t] is None else oracle[t].base
            checked += 1
            if got != want:
                violations += 1
    g2 = random_connected(25, seed=6)
    res2 = SsrpResolver(g2, 0)
    rng = random.Random("c9")
    eids2 = sorted(g2.edges)
    for _ in range(150):
        d1, d2 = rng.sample(eids2, 2)
        oracle = all_dists_avoiding(g2, 0, [d1, d2])
        for t in rng.sample(range(g2.n), 5):
            got = res2.answer(d1, d2, t)
            want = None if oracle[t] is None else oracle[t].base
            checked += 1
            if got != want:
                violations += 1
    report(9, violations == 0,
           f"n=14 exhaustive + n=25 sampled: {checked} tuples, "
           f"{violations} violations")


C10_SIZES = [64, 128, 256]
C10_CONTROL_N = 8
DECISIONS = "see notes/decisions.md for the feasibility analysis"


def brute_required_triples(g, s, t):
    """Count the required (d1, d2, d3) triples with the reference Dijkstra."""
    count = 0
    for d1 in path_avoiding(g, s, t, []):
        rp1 = path_avoiding(g, s, t, [d1])
        if rp1 is None:
            continue
        for d2 in rp1:
            rp2 = path_avoiding(g, s, t, [d1, d2])
            if rp2 is not None:
                count += len(rp2)
    return count


def frp3_report_problems(rep, sizes, budget):
    """Every way a ``bench_frp3`` report fails to be complete and truthful."""
    problems = []
    rows = rep["sizes"]
    if [r["n"] for r in rows] != sizes:
        problems.append(f"rows {[r['n'] for r in rows]} != sizes {sizes}")
    done = []
    for r in rows:
        n = r["n"]
        if r["timed_out"]:
            if (r["runs"] != [] or r["median"] is not None
                    or r["triples"] is not None):
                problems.append(f"n={n}: timed-out row carries results")
            continue
        runs = r["runs"]
        if not runs:
            problems.append(f"n={n}: completed row without runs")
            continue
        if budget is not None and max(runs) > budget:
            problems.append(f"n={n}: run {max(runs)}s over the {budget}s budget")
        if r["median"] != statistics.median(runs):
            problems.append(f"n={n}: median {r['median']} != median of runs")
        if type(r["triples"]) is not int:
            problems.append(f"n={n}: triples {r['triples']!r} is not an integer")
        done.append((n, r["median"]))
    want_slope = _fit_slope(done)
    if rep["slope"] != want_slope:
        problems.append(f"slope {rep['slope']} != {want_slope} fitted over "
                        f"completed sizes {[n for n, _ in done]}")
    if rep["budget_per_run_s"] != budget:
        problems.append(f"budget_per_run_s {rep['budget_per_run_s']} != {budget}")
    missing = {"platform", "python", "cpu_count"} - set(rep["machine"])
    if missing:
        problems.append(f"machine info lacks {sorted(missing)}")
    return problems


def control_problems(rep, budget, want_triples):
    """The small control run must complete with the brute-force triple count."""
    problems = frp3_report_problems(rep, [C10_CONTROL_N], budget)
    row = rep["sizes"][0] if rep["sizes"] else None
    if row is None or row["timed_out"]:
        problems.append(f"control n={C10_CONTROL_N} did not complete")
    elif row["triples"] != want_triples:
        problems.append(f"control n={C10_CONTROL_N}: {row['triples']} triples "
                        f"!= brute force {want_triples}")
    return problems


def test_c10_frp3_scaling_bench():
    budget = float(os.environ.get("FAULTPATH_BENCH_BUDGET", "60"))
    budget = budget if budget > 0 else None
    g = detour_rich(C10_CONTROL_N, seed=0)
    want = brute_required_triples(g, 0, C10_CONTROL_N - 1)
    control = bench_frp3([C10_CONTROL_N], seed=0, repeats=1, budget=budget)
    rep = bench_frp3(C10_SIZES, seed=0, repeats=1, budget=budget)
    print("\n" + json.dumps(control, indent=1, sort_keys=True))
    print("\n" + json.dumps(rep, indent=1, sort_keys=True))
    problems = (control_problems(control, budget, want)
                + frp3_report_problems(rep, C10_SIZES, budget))
    complete = [r["n"] for r in rep["sizes"] if not r["timed_out"]]
    timed_out = [r["n"] for r in rep["sizes"] if r["timed_out"]]
    slope = rep["slope"]
    got = control["sizes"][0]["triples"] if control["sizes"] else None
    detail = (
        f"machine {rep['machine']['platform']} / python "
        f"{rep['machine']['python']}; budget "
        f"{'unlimited' if budget is None else f'{budget}s'} per run; completed "
        f"sizes {complete}, timed out {timed_out} of {C10_SIZES}; "
        f"slope {'n/a' if slope is None else f'{slope:.2f}'} "
        f"(reported, not asserted); control n={C10_CONTROL_N} "
        f"{got} triples (brute force {want})"
    )
    if problems:
        detail += f" -- report check failed: {'; '.join(problems)}; {DECISIONS}"
    elif timed_out:
        detail += (" -- stated sizes did not finish within budget on this "
                   f"machine; {DECISIONS}")
    report(10, not problems, detail)


def _good_report(budget=60.0):
    rows = [
        {"n": 64, "runs": [30.5], "median": 30.5, "triples": 233974,
         "timed_out": False},
        {"n": 128, "runs": [50.25], "median": 50.25, "triples": 1981363,
         "timed_out": False},
        {"n": 256, "runs": [], "median": None, "triples": None,
         "timed_out": True},
    ]
    return {"suite": "frp3", "sizes": rows,
            "slope": _fit_slope([(64, 30.5), (128, 50.25)]),
            "budget_per_run_s": budget,
            "machine": {"platform": "p", "python": "3", "cpu_count": 2}}


def _good_control(budget=60.0):
    return {"suite": "frp3",
            "sizes": [{"n": 8, "runs": [3.5], "median": 3.5, "triples": 211,
                       "timed_out": False}],
            "slope": None, "budget_per_run_s": budget,
            "machine": {"platform": "p", "python": "3", "cpu_count": 2}}


def _mutate(rep, edit):
    rep = copy.deepcopy(rep)
    edit(rep)
    return rep


def test_c10_report_check_accepts_consistent_reports():
    assert frp3_report_problems(_good_report(), C10_SIZES, 60.0) == []
    assert control_problems(_good_control(), 60.0, 211) == []
    unlimited = _good_report(budget=None)
    unlimited["sizes"][0]["runs"] = [99.0]
    unlimited["sizes"][0]["median"] = 99.0
    unlimited["slope"] = _fit_slope([(64, 99.0), (128, 50.25)])
    assert frp3_report_problems(unlimited, C10_SIZES, None) == []


def _set_row(k, **fields):
    return lambda rep: rep["sizes"][k].update(fields)


def _time_out_128(rep):
    rep["sizes"][1].update(runs=[], median=None, triples=None, timed_out=True)
    rep["slope"] = 1.0


# each hand-made bad report, with the fragment its rejection must name
BAD_REPORTS = {
    "missing row": (lambda rep: rep["sizes"].pop(1), "rows"),
    "extra row": (lambda rep: rep["sizes"].append(dict(rep["sizes"][2], n=512)),
                  "rows"),
    "reordered rows": (lambda rep: rep["sizes"].reverse(), "rows"),
    "timed-out row with runs": (_set_row(2, runs=[61.0]), "carries results"),
    "timed-out row with median": (_set_row(2, median=61.0), "carries results"),
    "timed-out row with triples": (_set_row(2, triples=16386733),
                                   "carries results"),
    "run over budget": (_set_row(1, runs=[60.5], median=60.5), "over the"),
    "median not of runs": (_set_row(0, median=31.0), "median"),
    "completed row without runs": (_set_row(0, runs=[], median=None),
                                   "without runs"),
    "non-integer triples": (_set_row(0, triples=None), "not an integer"),
    "slope over timed-out rows": (lambda rep: rep.update(
        slope=_fit_slope([(64, 30.5), (128, 50.25), (256, 61.0)])), "slope"),
    "slope from one completed row": (_time_out_128, "slope"),
    "wrong budget": (lambda rep: rep.update(budget_per_run_s=120.0),
                     "budget_per_run_s"),
    "no cpu_count": (lambda rep: rep["machine"].pop("cpu_count"), "cpu_count"),
}


@pytest.mark.parametrize("name", sorted(BAD_REPORTS))
def test_c10_report_check_rejects(name):
    edit, fragment = BAD_REPORTS[name]
    problems = frp3_report_problems(_mutate(_good_report(), edit), C10_SIZES, 60.0)
    assert any(fragment in p for p in problems), problems


BAD_CONTROLS = {
    "control timed out": (_set_row(0, runs=[], median=None, triples=None,
                                   timed_out=True), "did not complete"),
    "control wrong triples": (_set_row(0, triples=210), "!= brute force 211"),
    "control missing": (lambda rep: rep["sizes"].clear(), "did not complete"),
}


@pytest.mark.parametrize("name", sorted(BAD_CONTROLS))
def test_c10_control_check_rejects(name):
    edit, fragment = BAD_CONTROLS[name]
    problems = control_problems(_mutate(_good_control(), edit), 60.0, 211)
    assert any(fragment in p for p in problems), problems
