"""Command line surface: solvers, generators, verification, benchmarks.

All randomised commands take a mandatory seed, and every subcommand except
``bench`` is byte-deterministic for a fixed (command, input, seed).  Exit
codes: 0 success, 1 verification mismatch, 2 usage (also a vertex out of
range, or s and t disconnected), 3 format error (malformed graph, timeline,
query or snapshot file, or one that is not UTF-8 text), 4 I/O error.  Every
error is one line on stderr.
"""
from __future__ import annotations

import argparse
import gc
import json
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
from .dso.offline import InvalidDelete, Timeline, build_timeline
from .dso.snapshot import SnapshotError, load_dso, save_dso
from .dso.static import IncrementalDso
from .dso.incremental import insert_edge
from .frp2 import Frp2Solver, iter_required_pairs
from .frp3.solver import solve_3frp
from .graph import Disconnected, Graph, GraphFormatError, Overflow, check_edge, \
    dump_graph_text, load_graph, parse_graph_text, parse_ints, perturb_and_verify
from .hardness import reduce_graph
from .reference import OracleReport, dist_avoiding
from .ssrp import SsrpResolver, ssrp2

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_IO = 4


class UsageError(Exception):
    """Arguments that do not fit the input, such as a vertex out of range."""


def _check_vertices(n: int, **named: int) -> None:
    for name, x in named.items():
        if not 0 <= x < n:
            raise UsageError(f"--{name} {x} is not a vertex of the {n}-vertex graph")


def _edge_pair(graph: Graph, eid: int) -> list[int]:
    e = graph.edges[eid]
    return [min(e.u, e.v), max(e.u, e.v)]


def _dist_field(x: Optional[int]):
    return "inf" if x is None else x


class _Out:
    def __init__(self, path: Optional[str]):
        self.path = path
        self.fh = open(path, "w", encoding="utf-8") if path else sys.stdout

    def line(self, obj) -> None:
        self.fh.write(json.dumps(obj, sort_keys=True) + "\n")

    def close(self) -> None:
        if self.path:
            self.fh.close()


# ---------------------------------------------------------------------------
# frp
# ---------------------------------------------------------------------------

def cmd_frp(args) -> int:
    g = load_graph(args.graph, args.seed)
    s, t = args.s, args.t
    _check_vertices(g.n, s=s, t=t)
    out = _Out(args.out)
    if args.faults == 1:
        from .frp2 import frp1_all
        r = frp1_all(g, s, t)
        for k, eid in enumerate(r.path_eids):
            rec = {"d1": _edge_pair(g, eid),
                   "dist": _dist_field(None if r.lengths[k] is None
                                       else r.lengths[k].base)}
            if args.emit_paths and r.paths[k] is not None:
                rec["path"] = [_edge_pair(g, e) for e in r.paths[k]]
            out.line(rec)
    elif args.faults == 2:
        sol = Frp2Solver(g, s, t, seed=args.seed)
        for d1, d2 in iter_required_pairs(sol):
            rec = {"d1": _edge_pair(g, d1), "d2": _edge_pair(g, d2),
                   "dist": _dist_field(sol.answer_pair(d1, d2))}
            if args.emit_paths:
                p = sol.rp2_path(sol.pos_on_st(d1), d2)
                if p is not None:
                    rec["path"] = [_edge_pair(g, e) for e in p]
            out.line(rec)
    else:
        def sink(d1, d2, d3, dist, kind):
            out.line({"d1": _edge_pair(g, d1), "d2": _edge_pair(g, d2),
                      "d3": _edge_pair(g, d3), "dist": _dist_field(dist),
                      "case": kind})
        solve_3frp(g, s, t, sink, seed=args.seed)
    out.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# dso
# ---------------------------------------------------------------------------

def cmd_dso(args) -> int:
    if args.action == "build":
        g = load_graph(args.graph, args.seed)
        dso = IncrementalDso.build(g, seed=args.seed)
        save_dso(dso, args.out)
        return EXIT_OK
    if args.action == "query":
        dso = load_dso(args.snapshot)
        _check_vertices(dso.graph.n, u=args.u, v=args.v)
        out = _Out(args.out)
        eid = _resolve_edge(dso.graph, args.fu, args.fv)
        ln, path = dso.query_edge_failure(args.u, args.v, eid,
                                          want_path=args.emit_paths)
        rec = {"u": args.u, "v": args.v, "f": [args.fu, args.fv],
               "dist": _dist_field(None if ln is None else ln.base)}
        if args.emit_paths and path is not None:
            rec["path"] = [_edge_pair(dso.graph, e) for e in path]
        out.line(rec)
        out.close()
        return EXIT_OK
    # offline
    tl, queries = _load_timeline(args.timeline, args.queries, args.seed)
    by_step: dict[int, list] = {}
    for lineno, q in queries:
        by_step.setdefault(q[0], []).append((lineno, q))
    answers = {}

    def on_leaf(t, dso):
        for lineno, (qt, u, v, fu, fv) in by_step.get(t, ()):
            try:
                eid = _resolve_edge(dso.graph, fu, fv)
            except GraphFormatError as exc:
                raise GraphFormatError(f"line {lineno}: {exc} at timestep {t}") from None
            ln, _ = dso.query_edge_failure(u, v, eid)
            answers[(qt, u, v, fu, fv)] = None if ln is None else ln.base

    build_timeline(tl, seed=args.seed, on_leaf=on_leaf)
    out = _Out(args.out)
    for _, (qt, u, v, fu, fv) in queries:
        out.line({"t": qt, "u": u, "v": v, "f": [fu, fv],
                  "dist": _dist_field(answers[(qt, u, v, fu, fv)])})
    out.close()
    return EXIT_OK


def _resolve_edge(graph: Graph, u: int, v: int) -> int:
    if 0 <= u < graph.n:
        for x, eid, _, _ in graph.adj[u]:
            if x == v:
                return eid
    raise GraphFormatError(f"no edge between {u} and {v}")


def _load_timeline(path: str, queries_path: Optional[str], seed: int):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    graph_lines = []
    update_lines = []
    for lineno, line in enumerate(lines, start=1):
        st = line.strip()
        if st.startswith(("+", "-")):
            update_lines.append((lineno, st.split()))
        else:
            graph_lines.append(line)
    n, edges = parse_graph_text("\n".join(graph_lines))
    g = perturb_and_verify(n, edges, seed)
    tl = Timeline(g)
    # edge id by endpoints at the current step; an insertion takes the next
    # fresh id, as Timeline.leaf_masks assigns them
    present = {frozenset((e.u, e.v)): eid for eid, e in g.edges.items()}
    next_eid = max(g.edges, default=-1) + 1
    for lineno, parts in update_lines:
        if len(parts) != (4 if parts[0] == "+" else 3):
            raise GraphFormatError(f"line {lineno}: expected '+ <u> <v> <w>' or '- <u> <v>'")
        fields = parse_ints(parts[1:], lineno)
        u, v = fields[:2]
        key = frozenset((u, v))
        if parts[0] == "+":
            check_edge(n, *fields, lineno)
            if key in present:
                raise GraphFormatError(f"line {lineno}: parallel edge ({u}, {v})")
            present[key] = next_eid
            next_eid += 1
            tl.updates.append(("+", *fields))
        else:
            if key not in present:
                raise InvalidDelete(f"line {lineno}: no edge between {u} and {v} at that step")
            tl.updates.append(("-", present.pop(key)))
    queries = []
    if queries_path:
        T = tl.steps
        with open(queries_path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                st = line.strip()
                if not st or st.startswith("c"):
                    continue
                parts = st.split()
                if parts[0] != "q" or len(parts) != 6:
                    raise GraphFormatError(f"line {lineno}: expected 'q <t> <u> <v> <fu> <fv>'")
                q = tuple(parse_ints(parts[1:], lineno))
                if not 0 <= q[0] <= T:
                    raise GraphFormatError(f"line {lineno}: timestep {q[0]} outside [0, {T}]")
                for x in q[1:]:
                    if not 0 <= x < n:
                        raise GraphFormatError(
                            f"line {lineno}: vertex {x} out of range for the {n}-vertex graph")
                queries.append((lineno, q))
    return tl, queries


# ---------------------------------------------------------------------------
# ssrp2 / gen
# ---------------------------------------------------------------------------

def cmd_ssrp2(args) -> int:
    g = load_graph(args.graph, args.seed)
    _check_vertices(g.n, s=args.s)
    out = _Out(args.out)

    def sink(d1, d2, t, dist):
        out.line({"d1": _edge_pair(g, d1), "d2": _edge_pair(g, d2),
                  "t": t, "dist": _dist_field(dist)})

    ssrp2(g, args.s, sink)
    out.close()
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.what == "hardness":
        g = load_graph(args.graph, args.seed)
        inst = reduce_graph(g, seed=args.seed)
        edges = [(e.u, e.v, e.w.base) for _, e in sorted(inst.graph.edges.items())]
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dump_graph_text(inst.graph.n, edges))
        mapping = {
            "s": inst.s, "t": inst.t, "n_orig": inst.n_orig,
            "n_big": inst.n_big,
            "s_edges": [
                _edge_pair(inst.graph, e) for e in inst.s_edges],
            "t_edges": [
                _edge_pair(inst.graph, e) for e in inst.t_edges],
        }
        with open(args.map, "w", encoding="utf-8") as fh:
            json.dump(mapping, fh, sort_keys=True, indent=1)
            fh.write("\n")
        return EXIT_OK
    # family
    maker = families.detour_rich if args.family == "detour" else families.random_connected
    g = maker(args.n, seed=args.seed)
    edges = [(e.u, e.v, e.w.base) for _, e in sorted(g.edges.items())]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dump_graph_text(g.n, edges))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    out = _Out(args.out)
    bad = 0
    checked = 0
    for seed in range(args.seeds):
        for report in _verify_one(args.suite, args.n, seed):
            checked += 1
            if not report.match:
                bad += 1
                out.fh.write(report.to_json() + "\n")
    out.line({"suite": args.suite, "n": args.n, "seeds": args.seeds,
              "checked": checked, "mismatches": bad})
    out.close()
    return EXIT_OK if bad == 0 else EXIT_MISMATCH


def _verify_one(suite: str, n: int, seed: int):
    g = families.random_connected(n, seed=seed)
    if suite == "dso":
        dso = IncrementalDso.build(g, seed=seed)
        f = dso.forest
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if f.dist(u, v) is None:
                    continue
                for eid in f.path_edge_ids(u, v):
                    got, _ = dso.query_edge_failure(u, v, eid)
                    want = dist_avoiding(g, u, v, [eid])
                    yield OracleReport(
                        {"suite": suite, "seed": seed, "u": u, "v": v, "f": eid},
                        None if want is None else want.base,
                        None if got is None else got.base)
    elif suite == "frp2":
        s, t = 0, g.n - 1
        sol = Frp2Solver(g, s, t, seed=seed)
        for d1, d2 in iter_required_pairs(sol):
            got = sol.answer_pair(d1, d2)
            want = dist_avoiding(g, s, t, [d1, d2])
            yield OracleReport(
                {"suite": suite, "seed": seed, "d1": d1, "d2": d2},
                None if want is None else want.base, got)
    elif suite == "frp3":
        s, t = 0, g.n - 1
        emitted = []
        solve_3frp(g, s, t, lambda *a: emitted.append(a), seed=seed)
        for d1, d2, d3, got, _kind in emitted:
            want = dist_avoiding(g, s, t, [d1, d2, d3])
            yield OracleReport(
                {"suite": suite, "seed": seed, "d1": d1, "d2": d2, "d3": d3},
                None if want is None else want.base, got)
    elif suite == "ssrp":
        res = SsrpResolver(g, 0)
        eids = sorted(g.edges)
        import random as _r
        rng = _r.Random(f"verify-ssrp:{seed}")
        for _ in range(80):
            d1, d2 = rng.sample(eids, 2)
            t = rng.randrange(1, g.n)
            got = res.answer(d1, d2, t)
            want = dist_avoiding(g, 0, t, [d1, d2])
            yield OracleReport(
                {"suite": suite, "seed": seed, "d1": d1, "d2": d2, "t": t},
                None if want is None else want.base, got)
    elif suite == "offline":
        import random as _r
        rng = _r.Random(f"verify-off:{seed}")
        specs = {eid: (e.u, e.v, e.w.base) for eid, e in g.edges.items()}
        present = set(specs)
        removed = []
        next_eid = max(specs) + 1
        tl = Timeline(g)
        for _ in range(min(40, 2 * g.n)):
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
        reports = []

        def on_leaf(t, dso):
            f = dso.forest
            for u in range(0, g.n, 4):
                for v in range(u + 1, g.n, 3):
                    if f.dist(u, v) is None:
                        continue
                    for eid in f.path_edge_ids(u, v):
                        got, _ = dso.query_edge_failure(u, v, eid)
                        reports.append((t, u, v, eid,
                                        None if got is None else got.base))

        off = build_timeline(tl, seed=seed, on_leaf=on_leaf)
        for (t, u, v, eid, got) in reports:
            g_t = off.graph_at(t)
            want = dist_avoiding(g_t, u, v, [eid])
            yield OracleReport(
                {"suite": suite, "seed": seed, "t": t, "u": u, "v": v, "f": eid},
                None if want is None else want.base, got)
    else:
        raise ValueError(f"unknown suite {suite}")


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

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
    held, from one more solve in this process, outside the timing.
    """
    rows = []
    for n in sizes:
        g = families.detour_rich(n, seed=seed)
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
                stats = solve_3frp(load_graph(gpath, seed), 0, n - 1,
                                   lambda *_: None, seed=seed)
                demand = {"pairs_filled": stats.pairs_filled,
                          "pairs_held": stats.pairs_held}
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
    hits every size alike.  Each row also counts the pairs and entries its
    insertions held and kept as the old object, by identity outside the
    timing (a null entry kept null counts).
    """
    import random as _r
    state = []
    for n in sizes:
        g = families.random_connected(n, seed=seed, extra=2 * n)
        state.append((n, IncrementalDso.build(g, seed=seed),
                      _r.Random(f"bench-inc:{seed}:{n}"), [], Counter()))
    for _ in range(repeats):
        for n, dso, rng, times, kept in state:
            while True:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and not dso.graph.has_endpoints(u, v):
                    break
            w = rng.randint(1, 50)
            old = dso.table
            times.append(_cpu_seconds(lambda: insert_edge(dso, u, v, w)))
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
    answers filled against the connected pairs it would hold when full.
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
    for row, (n, _, _, naive) in zip(report["sizes"], state):
        h_dso = sols[n].h_dso
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
    return report


def cmd_bench(args) -> int:
    try:
        sizes = [int(x) for x in args.sizes.split(",")]
    except ValueError:
        raise UsageError(f"--sizes {args.sizes} is not a comma-separated list of integers")
    if args.repeats < 1:
        raise UsageError(f"--repeats {args.repeats} must be at least 1")
    if args.suite == "frp3":
        report = bench_frp3(sizes, args.seed, args.repeats, args.budget)
    elif args.suite == "dso-build":
        report = bench_dso_build(sizes, args.seed, args.repeats)
    elif args.suite == "frp2":
        report = bench_frp2(sizes, args.seed, args.repeats)
    else:
        report = bench_dso_incremental(sizes, args.seed, args.repeats)
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="faultpath")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("frp", help="replacement paths for one s-t pair")
    p.add_argument("--faults", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-paths", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_frp)

    p = sub.add_parser("dso", help="build, query, or run an offline oracle")
    ds = p.add_subparsers(dest="action", required=True)
    b = ds.add_parser("build")
    b.add_argument("--graph", required=True)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True)
    q = ds.add_parser("query")
    q.add_argument("--snapshot", required=True)
    q.add_argument("--u", type=int, required=True)
    q.add_argument("--v", type=int, required=True)
    q.add_argument("--fu", type=int, required=True)
    q.add_argument("--fv", type=int, required=True)
    q.add_argument("--emit-paths", action="store_true")
    q.add_argument("--out")
    o = ds.add_parser("offline")
    o.add_argument("--timeline", required=True)
    o.add_argument("--queries")
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--out")
    p.set_defaults(fn=cmd_dso)

    p = sub.add_parser("ssrp2", help="two-failure single-source distances")
    p.add_argument("--graph", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ssrp2)

    p = sub.add_parser("gen", help="instance generators")
    gs = p.add_subparsers(dest="what", required=True)
    h = gs.add_parser("hardness")
    h.add_argument("--graph", required=True)
    h.add_argument("--seed", type=int, default=0)
    h.add_argument("--out", required=True)
    h.add_argument("--map", required=True)
    f = gs.add_parser("family")
    f.add_argument("--family", choices=("random", "detour"), required=True)
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("verify", help="subject-vs-oracle sweeps")
    p.add_argument("--suite", choices=("dso", "frp2", "frp3", "ssrp", "offline"),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seeds", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="runtime scaling measurements")
    p.add_argument("--suite", choices=("frp3", "frp2", "dso-incremental", "dso-build"),
                   required=True)
    p.add_argument("--sizes", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--budget", type=float, default=None,
                   help="wall-clock limit per run in seconds (frp3 only)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, Disconnected) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphFormatError, Overflow, SnapshotError, InvalidDelete,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
