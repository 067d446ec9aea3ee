"""The faultpath benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported and run from its
``src``.  A run generates its inputs from the seed, then repeats whole
rounds until ``--seconds`` have passed.  A round is one child process: the
CLI command of the workload (``python3 -m faultpath ...``, with ``--out`` to
a file) or the dso-mixed session.  Between rounds the run times the
workload's set-up in its own process.  A probe process samples the
machine's speed all along (see ``SpeedProbe``); ``wall_s`` and ``setup_s``
are scaled by it to a fixed reference speed, so that the machine's
drifting speed cancels out.  After the timed loop, and outside it, the
first round's answers are checked against networkx and every other round's
output must be byte-identical to it.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds alternate
and it carries the per-layer metrics instead.  ``--workload all`` runs the
workloads in turn and ends with one object keyed by workload.  See
README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

# a run must end within 180 s: this many seconds after its start, no round
# starts and a running one is killed
ROUND_DEADLINE_S = 150.0
# in a --trace 0 run, the set-up is timed before a round while the set-up
# time so far is at most this share of the time elapsed, and then repeated
# for at least SETUP_BUDGET_S
SETUP_SHARE = 0.2
SETUP_BUDGET_S = 0.1
# the probe loop's time at the reference speed (see SpeedProbe)
PROBE_REF_S = 0.0007
# a timing is scaled by the probe samples of a window at least this long
PROBE_WINDOW_S = 0.5


class RoundFailed(Exception):
    pass


class Launcher:
    """Starts rounds from a small helper process (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")

    def run(self, argv: list[str], workdir: str, deadline: float) -> tuple[float, float, str]:
        """Run ``python3 argv`` to completion; return (wall s, peak RSS MB, stdout)."""
        out, err = os.path.join(workdir, "child.stdout"), os.path.join(workdir, "child.stderr")
        req = {"argv": [sys.executable, *argv], "env": self.env, "stdout": out,
               "stderr": err, "timeout": max(1.0, deadline - time.monotonic())}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        rep = json.loads(self.proc.stdout.readline())
        if rep["code"] != 0:
            with open(err, encoding="utf-8", errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-1:]
            raise RoundFailed(f"exit {rep['code']}: {' '.join(tail)}")
        with open(out, encoding="utf-8") as fh:
            return rep["wall_s"], rep["maxrss_mb"], fh.read()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class SpeedProbe:
    """Scales timings to the reference speed.

    The machine's speed drifts with load from outside the process, by up to
    half within seconds.  ``probe.py`` samples it all along the run, beside
    the rounds; a timing taken from ``start`` to ``end`` is multiplied by
    ``PROBE_REF_S`` over the mean probe loop time in that window."""

    def __init__(self, workdir: str):
        self.path = os.path.join(workdir, "probe.txt")
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"),
                                      self.path], stdin=subprocess.PIPE)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def scaled(self, timings: list[tuple[float, float, list[float]]]) -> list[float]:
        """Scale each value of ``(start, end, values)``; call after close()."""
        with open(self.path, encoding="utf-8") as fh:
            samples = [tuple(map(float, line.split())) for line in fh if line.endswith("\n")]
        out = []
        for start, end, values in timings:
            pad = max(0.0, (PROBE_WINDOW_S - (end - start)) / 2)
            during = [dt for t, dt in samples if start - pad <= t <= end + pad]
            if not during:
                raise RuntimeError(f"no probe sample from {start:.3f} to {end:.3f}")
            out += [x * PROBE_REF_S / statistics.mean(during) for x in values]
        return out


def setup_callable(w: wl.Workload, inp: wl.Inputs, seed: int):
    """The public calls made before the first answer, from loading on."""
    from faultpath.graph import load_graph
    if w.kind == "frp3":
        from faultpath.frp3.solver import Frp3Solver
        return lambda: Frp3Solver(load_graph(inp.graph, seed), 0, inp.n - 1, seed=seed)
    if w.kind == "frp2":
        from faultpath.frp2 import Frp2Solver
        return lambda: Frp2Solver(load_graph(inp.graph, seed), 0, inp.n - 1, seed=seed).h_dso
    if w.kind == "ssrp2":
        from faultpath.spt import dijkstra
        return lambda: dijkstra(load_graph(inp.graph, seed), 0, with_lca=True)
    from faultpath.dso.static import IncrementalDso
    return lambda: IncrementalDso.build(load_graph(inp.graph, seed), seed=seed)


def time_setups(fn, budget: float) -> list[float]:
    """Time ``fn`` repeatedly until ``budget`` seconds are spent, at least once.

    The cyclic collector runs before each call, outside the timing, and
    stays on during it, as it does when the program runs."""
    times = []
    while not times or sum(times) < budget:
        gc.collect()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def check_output(w: wl.Workload, inp: wl.Inputs, text: str) -> list[str]:
    import check
    g = check.make_graph(inp.n, inp.edges)
    records = check.read_ndjson(text)
    if w.kind == "frp3":
        return check.check_frp3(g, 0, inp.n - 1, records)
    if w.kind == "frp2":
        return check.check_frp2(g, 0, inp.n - 1, records)
    if w.kind == "ssrp2":
        return check.check_ssrp2(g, 0, records)
    inserts = [[r["u"], r["v"], r["w"]] for r in records if r["op"] == "insert"]
    problems = []
    if inserts != [b["insert"] for b in inp.batches if "insert" in b]:
        problems.append("the session's insertions differ from the ops file")
    if len(records) != wl.ops_per_round(w, 0):
        problems.append(f"{len(records)} ops answered, {wl.ops_per_round(w, 0)} given")
    return problems + check.check_dso_session(inp.n, inp.edges, records)


def naive(w: wl.Workload, inp: wl.Inputs, seed: int, text: str) -> tuple[float, int]:
    """One ``reference.dist_avoiding`` per answered tuple or query."""
    from faultpath.graph import load_graph
    from faultpath.reference import dist_avoiding
    from faultpath.weights import CompositeWeight
    from check import read_ndjson
    g = load_graph(inp.graph, seed)
    eid_of = {(min(e.u, e.v), max(e.u, e.v)): eid for eid, e in g.edges.items()}
    jobs = []
    for rec in read_ndjson(text):
        if w.kind == "dso":
            if rec["op"] == "insert":
                g, eid = g.plus_edge(rec["u"], rec["v"], CompositeWeight(rec["w"], 0))
                eid_of[(rec["u"], rec["v"])] = eid
            else:
                jobs.append((g, rec["u"], rec["v"], [eid_of[tuple(rec["f"])]]))
            continue
        fails = [eid_of[tuple(rec[k])] for k in ("d1", "d2", "d3") if k in rec]
        jobs.append((g, 0, rec.get("t", inp.n - 1), fails))
    t0 = time.perf_counter()
    for graph, u, v, fails in jobs:
        dist_avoiding(graph, u, v, fails)
    return time.perf_counter() - t0, len(jobs)


# layers with a time (``.s``); those a workload does not run read 0 s
LAYERS = ["graph.load", "spt.dijkstra", "spt.forest_build", "pathform.to_proper_form",
          "dso.build", "dso.query", "dso.insert", "offline", "frp2.answer_pair",
          "frp2.rp2_path", "frp2.matrix", "frp3.setup", "frp3.pass_1on",
          "frp3.pass_2on", "frp3.pass_3on", "ssrp"]
SELF_LAYERS = ["dso.build", "dso.insert"]
CALL_METRICS = ["graph.load", "spt.dijkstra", "spt.forest_build",
                "pathform.to_proper_form", "dso.build", "dso.query", "dso.insert",
                "offline", "frp2.answer_pair", "frp2.rp2_path", "frp2.matrix"]
# work and memory the program could cut
WORK_COUNTS = ["dso.table_entries", "offline.insertions", "offline.peak_live"]
# fixed by the input: printed and checked, not metrics, since a change in
# them means missing or extra answers rather than a gain
OUTPUT_COUNTS = ["frp3.triples_1on", "frp3.triples_2on", "frp3.triples_3on",
                 "ssrp.emitted", "ssrp.timeline_steps", "offline.nodes"]


def layer_metrics(tr: dict) -> dict:
    """Per-layer metrics of one traced round: (value, unit) by name."""
    total, self_s, calls, counts = tr["total"], tr["self_s"], tr["calls"], tr["counts"]
    m = {}
    for name in LAYERS:
        m[f"{name}.s"] = (total.get(name, 0.0), "s")
    for name in SELF_LAYERS:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    # parsing and the NDJSON writer: cli.main minus its child spans, plus _Out.line
    m["cli.self_s"] = (self_s.get("cli", 0.0) + total.get("cli.write", 0.0), "s")
    for name in CALL_METRICS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in WORK_COUNTS:
        m[name] = (counts.get(name, 0), "count")
    return m


def output_count_problems(w: wl.Workload, counts: dict, answers: int) -> list[str]:
    """The traced output counts must agree with the answers written."""
    if w.kind == "frp3":
        got = sum(counts.get(f"frp3.triples_{c}on", 0) for c in (1, 2, 3))
    elif w.kind == "ssrp2":
        got = counts.get("ssrp.emitted", 0)
    else:
        return []
    return [] if got == answers else [f"traced stats count {got} answers, output has {answers}"]


def median_metrics(rounds: list[dict]) -> dict:
    return {name: (statistics.median(r[name][0] for r in rounds), unit)
            for name, (_, unit) in rounds[0].items()}


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "faultpath", "__init__.py")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    code = 0
    for name in names:
        w_code, results[name] = run_workload(wl.WORKLOADS[name], args.seed, args.seconds,
                                             args.trace)
        code = max(code, w_code)
        if results[name] is None:
            return code
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return code


def run_workload(w: wl.Workload, seed: int, seconds: float, trace: int):
    """Run one workload in its own work directory; return (exit code, result)."""
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = os.path.join(work_root, f"{w.name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    launcher = Launcher()
    probe = SpeedProbe(workdir) if trace == 0 else None
    try:
        return run(w, seed, seconds, trace, workdir, launcher, probe)
    finally:
        launcher.close()
        if probe is not None:
            probe.close()
        shutil.rmtree(workdir, ignore_errors=True)


def run(w: wl.Workload, seed: int, seconds: float, trace: int, workdir: str,
        launcher: Launcher, probe: SpeedProbe | None) -> tuple[int, dict | None]:
    t_start = time.monotonic()
    deadline = t_start + ROUND_DEADLINE_S
    inp = wl.make_inputs(w, seed, workdir)
    out = os.path.join(workdir, "answers.ndjson")
    plain = wl.program_args(w, inp, wl.PROGRAM_SEED, out)
    trace_out = os.path.join(workdir, "trace.json")
    traced = [os.path.join(HERE, "trace.py"), "--trace-out", trace_out, "--"] + plain
    setup = setup_callable(w, inp, wl.PROGRAM_SEED)

    walls, rss, setups, traced_walls, traces, timings = [], [], [], [], [], []
    # with --trace 0, (start, end, timings) of each round and set-up burst,
    # for the probe to scale
    wall_windows, setup_windows = [], []
    reference = None
    problems: list[str] = []
    attempted = failed = 0
    per_round = None
    while True:
        if trace == 0 and sum(setups) <= SETUP_SHARE * (time.monotonic() - t_start):
            t0 = time.monotonic()
            burst = time_setups(setup, SETUP_BUDGET_S)
            setups += burst
            setup_windows.append((t0, time.monotonic(), burst))
        kinds = ["plain", "traced"] if trace else ["plain"]
        for kind in kinds:
            t0 = time.monotonic()
            try:
                wall, mb, stdout = launcher.run(plain if kind == "plain" else traced,
                                             workdir, deadline)
            except RoundFailed as exc:
                print(f"{kind} round failed: {exc}")
                n_ops = per_round or 1
                attempted += n_ops
                failed += n_ops
                continue
            with open(out, "rb") as fh:
                data = fh.read()
            os.unlink(out)
            if reference is None:
                reference = data
                per_round = wl.ops_per_round(w, data.count(b"\n"))
            elif data != reference:
                problems.append(f"a {kind} round's output differs from the first round's")
            attempted += per_round
            if kind == "plain":
                walls.append(wall)
                wall_windows.append((t0, time.monotonic(), [wall]))
                rss.append(mb)
                if w.kind == "dso":
                    timings.append(json.loads(stdout.strip().splitlines()[-1]))
            else:
                traced_walls.append(wall)
                with open(trace_out, encoding="utf-8") as fh:
                    traces.append(json.load(fh))
        elapsed = time.monotonic() - t_start
        if elapsed >= seconds or time.monotonic() >= deadline:
            break
    if reference is None or not walls or (trace and not traces):
        print(f"error: no {w.name} round completed", file=sys.stderr)
        return 1, None

    problems += check_output(w, inp, reference.decode())
    print(f"workload {w.name} seed {seed}: {len(walls)} plain and {len(traces)} traced "
          f"rounds, {per_round} ops per round")
    if trace == 0:
        probe.close()
        walls_ref, setups_ref = probe.scaled(wall_windows), probe.scaled(setup_windows)
        metrics = {"wall_s": (statistics.median(walls_ref), "s"),
                   "setup_s": (statistics.median(setups_ref), "s"),
                   "peak_rss_mb": (statistics.median(rss), "MB")}
        print("round walls (s): " + " ".join(f"{x:.3f}" for x in walls))
        print("scaled round walls (s): " + " ".join(f"{x:.3f}" for x in walls_ref))
        print(f"unscaled medians: wall {statistics.median(walls):.4f} s, "
              f"setup {statistics.median(setups):.4f} s over {len(setups)} set-ups")
        if timings:
            upd = [x * 1e3 for t in timings for x in t["update_s"]]
            qry = [x for t in timings for x in t["query_us"]]
            print(f"dso-mixed: update ms p50 {statistics.median(upd):.2f} "
                  f"p90 {quantile(upd, 90):.2f} over {len(upd)} updates; "
                  f"query us p50 {statistics.median(qry):.2f} p90 {quantile(qry, 90):.2f} "
                  f"over {len(qry)} batches of {wl.QUERIES}")
    else:
        per_layer = [layer_metrics(tr) for tr in traces]
        for tr in traces[1:]:
            changed = sorted(k for part in ("calls", "counts")
                             for k in tr[part].keys() | traces[0][part].keys()
                             if tr[part].get(k) != traces[0][part].get(k))
            if changed:
                problems.append(f"traced counts differ between rounds: {changed}")
        counts = traces[0]["counts"]
        if counts.get("dso.insert.in_offline", 0) != counts.get("offline.insertions", 0):
            problems.append(f"{counts.get('dso.insert.in_offline', 0)} insert_edge calls "
                            f"under offline timelines, node_stats count "
                            f"{counts.get('offline.insertions', 0)}")
        answers = reference.count(b"\n")
        problems += output_count_problems(w, counts, answers)
        metrics = median_metrics(per_layer)
        naive_s, naive_n = naive(w, inp, wl.PROGRAM_SEED, reference.decode())
        queries = answers - (wl.INSERTS if w.kind == "dso" else 0)
        if naive_n != queries:
            problems.append(f"naive ran {naive_n} tuples for {queries} answered queries")
        metrics["naive.s"] = (naive_s, "s")
        metrics["trace.wall_s"] = (statistics.median(traced_walls), "s")
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls), "s")
        print("output counts: " + " ".join(
            f"{name} {counts.get(name, 0)}" for name in OUTPUT_COUNTS)
            + f" naive.tuples {naive_n} cli.out_bytes {len(reference) if w.kind != 'dso' else 0}")
        print(f"tracing overhead: {metrics['trace.overhead_s'][0]:.3f} s on "
              f"{statistics.median(walls):.3f} s untraced")
    for p in problems[:20]:
        print("problem: " + p)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return (0 if not problems else 1), result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
