"""Benchmark suites of ``faultpath bench``: scaling measurements per size.

Each suite returns one JSON-ready report with the machine it ran on and
the log-log slope of its medians over the sizes.  ``frp3`` times the full
pipeline as CLI subprocesses under an optional wall-clock budget; the
others time library calls in process, in CPU seconds.
"""
from __future__ import annotations

import gc
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from typing import Optional

from . import families
from .dso.incremental import insert_edge
from .dso.static import IncrementalDso
from .frp2 import Frp2Solver, iter_required_pairs
from .frp3.solver import Frp3Solver
from .graph import SizeError, dump_graph_text, load_graph
from .reference import dist_avoiding, path_avoiding


def machine_info() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def _fit_slope(points: list[tuple[int, float]]) -> Optional[float]:
    if len(points) < 2:
        return None
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    var = sum((x - mx) ** 2 for x in xs)
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return cov / var if var else None


def bench_frp3(sizes: list[int], seed: int, repeats: int,
               budget: Optional[float]) -> dict:
    """Time the full three-failure pipeline per size via CLI subprocesses.

    A size is either completed (every repeat finished within ``budget``) or
    timed out; a timed-out row carries no runs, median or triple count, and
    only completed rows enter the slope fit.  A completed row also counts
    the pairs the offline sweeps' lazy layers filled against the pairs they
    held, the padded path's length ``hops`` and the oracle A entries held
    after the solve, from one more solve in this process, outside the timing.
    """
    rows = []
    # every size is built before the first run, so one too small fails at once
    for n, g in [(n, families.detour_rich(n, seed=seed)) for n in sizes]:
        edges = [(e.u, e.v, e.w.base) for _, e in sorted(g.edges.items())]
        with tempfile.NamedTemporaryFile("w", suffix=".graph", delete=False) as fh:
            fh.write(dump_graph_text(g.n, edges))
            gpath = fh.name
        runs = []
        triples = None
        timed_out = False
        demand = {}
        try:
            for _ in range(repeats):
                with tempfile.NamedTemporaryFile(suffix=".ndjson", delete=False) as ofh:
                    opath = ofh.name
                cmd = [sys.executable, "-m", "faultpath", "frp", "--faults", "3",
                       "--graph", gpath, "--s", "0", "--t", str(n - 1),
                       "--seed", str(seed), "--out", opath]
                t0 = time.perf_counter()
                try:
                    subprocess.run(cmd, timeout=budget, check=True,
                                   stdout=subprocess.DEVNULL,
                                   stderr=subprocess.DEVNULL)
                    # the timeout clock starts after the spawn; the elapsed
                    # time includes it, so it is checked against the budget
                    elapsed = time.perf_counter() - t0
                    if triples is None:
                        with open(opath) as rfh:
                            triples = sum(1 for _ in rfh)
                except subprocess.TimeoutExpired:
                    elapsed = math.inf
                finally:
                    os.unlink(opath)
                if budget is not None and elapsed > budget:
                    timed_out = True
                    break
                runs.append(elapsed)
            if not timed_out:
                sol = Frp3Solver(load_graph(gpath, seed), 0, n - 1, seed=seed)
                stats = sol.solve(lambda *_: None)
                demand = {"pairs_filled": stats.pairs_filled,
                          "pairs_held": stats.pairs_held,
                          "hops": sol.inst.hops, "a_entries": stats.a_entries}
        finally:
            os.unlink(gpath)
        runs = [] if timed_out else [round(x, 4) for x in runs]
        rows.append({
            "n": n, "runs": runs,
            "median": statistics.median(runs) if runs else None,
            "triples": None if timed_out else triples, "timed_out": timed_out,
            **demand,
        })
    done = [(r["n"], r["median"]) for r in rows if not r["timed_out"]]
    return {"suite": "frp3", "sizes": rows, "slope": _fit_slope(done),
            "budget_per_run_s": budget, "machine": machine_info()}


def _cpu_seconds(fn) -> float:
    """CPU time (``process_time``) of one call of ``fn``.

    As in ``timeit``, the cyclic collector runs before and is paused during
    the call, so a collection of whatever else the process holds is not
    charged to it.
    """
    gc_was_on = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        fn()
        return time.process_time() - t0
    finally:
        if gc_was_on:
            gc.enable()


def _cpu_report(suite: str, timed: list[tuple[int, list[float]]]) -> dict:
    rows = [{"n": n, "runs": [round(x, 5) for x in times],
             "median": round(statistics.median(times), 5),
             "triples": None, "timed_out": False}
            for n, times in timed]
    done = [(r["n"], r["median"]) for r in rows]
    return {"suite": suite, "sizes": rows, "slope": _fit_slope(done),
            "machine": machine_info()}


def bench_dso_incremental(sizes: list[int], seed: int, repeats: int) -> dict:
    """Per-insertion CPU time of ``insert_edge`` at each size.

    CPU time of the single-threaded call keeps other processes on the
    machine from inflating the slope.  The sizes are timed round-robin, one
    insertion each per round, so a drift in machine speed during the run
    hits every size alike.  Each row also counts the trees, pairs and
    entries its insertions held and kept as the old object, by identity
    outside the timing (a null entry kept null counts).  A size whose
    graph is complete before its last insertion is a ``SizeError``.
    """
    import random as _r
    state = []
    for n in sizes:
        g = families.random_connected(n, seed=seed, extra=2 * n)
        state.append((n, IncrementalDso.build(g, seed=seed),
                      _r.Random(f"bench-inc:{seed}:{n}"), [], Counter()))
    for _ in range(repeats):
        for n, dso, rng, times, kept in state:
            if dso.graph.m == n * (n - 1) // 2:
                raise SizeError(f"the {n}-vertex graph is complete after {len(times)} "
                                "insertions: no vertex pair is left to insert")
            while True:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and not dso.graph.has_endpoints(u, v):
                    break
            w = rng.randint(1, 50)
            old, old_spts = dso.table, dso.forest.spts
            times.append(_cpu_seconds(lambda: insert_edge(dso, u, v, w)))
            kept.update(trees_held=n, trees_kept=sum(
                new is tree for new, tree in zip(dso.forest.spts, old_spts)))
            for pair, sub in dso.table.items():
                old_sub = old.get(pair, {})  # no entry is 0, a missing key's default
                kept.update(pairs_held=1, pairs_kept=sub is old_sub, entries_held=len(sub),
                            entries_kept=sum(old_sub.get(k, 0) is pf for k, pf in sub.items()))
    report = _cpu_report("dso-incremental", [(n, times) for n, _, _, times, _ in state])
    for row, (*_, kept) in zip(report["sizes"], state):
        row.update(kept)
    return report


def bench_dso_build(sizes: list[int], seed: int, repeats: int) -> dict:
    """Per-build CPU time of ``IncrementalDso.build`` at each size.

    Same graphs as ``bench_dso_incremental`` and the same discipline: CPU
    time, sizes timed round-robin, the collector paused during each call.
    """
    state = [(n, families.random_connected(n, seed=seed, extra=2 * n), [])
             for n in sizes]
    for _ in range(repeats):
        for _n, g, times in state:
            times.append(_cpu_seconds(lambda: IncrementalDso.build(g, seed=seed)))
    return _cpu_report("dso-build", [(n, times) for n, _, times in state])


def bench_frp2(sizes: list[int], seed: int, repeats: int) -> dict:
    """Per-run CPU time of ``frp --faults 2`` answering at each size.

    A run builds ``Frp2Solver`` on ``detour_rich(n, seed)`` with s = 0 and
    t = n - 1 and answers every required pair; the naive column is one
    reference Dijkstra per pair, and a mismatch is a pair whose answers
    differ.  The discipline is ``dso-build``'s: CPU time, sizes timed
    round-robin.  Each row also counts the pairs of H's DSO table that the
    answers filled against the connected pairs it would hold when full, and,
    outside the timing, the pairs whose ``rp2_path`` differs from the
    reference path (``path_mismatches``).
    """
    state = [(n, families.detour_rich(n, seed=seed), [], []) for n in sizes]
    sols: dict = {}
    got: dict = {}   # n -> [(pair, answer)] of the last run
    want: dict = {}  # n -> [naive answer] in the same order
    for _ in range(repeats):
        for n, g, times, naive in state:
            def answer_all():
                sols[n] = sol = Frp2Solver(g, 0, n - 1, seed=seed)
                got[n] = [(p, sol.answer_pair(*p)) for p in iter_required_pairs(sol)]

            def answer_naive():
                want[n] = [dist_avoiding(g, 0, n - 1, p) for p, _ in got[n]]

            times.append(_cpu_seconds(answer_all))
            naive.append(_cpu_seconds(answer_naive))
    report = _cpu_report("frp2", [(n, times) for n, _, times, _ in state])
    for row, (n, g, _, naive) in zip(report["sizes"], state):
        sol = sols[n]
        h_dso = sol.h_dso
        hn = h_dso.graph.n
        row.update({
            "pairs": len(got[n]),
            "mismatches": sum(1 for (_, d), w in zip(got[n], want[n])
                              if d != (None if w is None else w.base)),
            "naive_median": round(statistics.median(naive), 5),
            "h_pairs_filled": len(h_dso.table),
            "h_pairs_held": sum(1 for u in range(hn) for v in range(u + 1, hn)
                                if h_dso.forest.dist(u, v) is not None),
        })
        row["path_mismatches"] = sum(
            1 for p, _ in got[n]
            if sol.rp2_path(sol.pos_on_st(p[0]), p[1]) != path_avoiding(g, 0, n - 1, p))
    return report


def report(suite: str, sizes: list[int], seed: int, repeats: int,
           budget: Optional[float]) -> dict:
    """The report of one suite; ``budget`` applies to ``frp3`` only."""
    if suite == "frp3":
        return bench_frp3(sizes, seed, repeats, budget)
    if suite == "dso-build":
        return bench_dso_build(sizes, seed, repeats)
    if suite == "frp2":
        return bench_frp2(sizes, seed, repeats)
    return bench_dso_incremental(sizes, seed, repeats)
