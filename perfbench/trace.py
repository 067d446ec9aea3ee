"""Traced run: time the program's layers from outside by wrapping them.

Run as ``PYTHONPATH=src python3 perfbench/trace.py --trace-out T.json --
<program args>``, where the program args are either ``-m faultpath ...`` (a
CLI command, run in-process through ``faultpath.cli.main``) or
``perfbench/session.py ...`` (the dso-mixed session).  The answers are
written exactly as in an untraced run; the spans go to ``--trace-out``.

Each wrapper is installed wherever callers look the name up: a function is
replaced in every module global that holds it (``insert_edge`` is imported
by name into ``dso.offline``, ``build_timeline`` into ``frp3.solver``,
``ssrp`` and ``cli``), a method on its class.  A span's inclusive time is
counted once even when the same name nests; its self time is the part no
child span covers.  A group (a frp3 pass) sums the outermost spans of its
members.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


class Tracer:
    def __init__(self):
        self.child_s: list[float] = []     # per open span: time of its children
        self.active: Counter = Counter()   # open spans per name and per group
        self.total: dict = defaultdict(float)
        self.self_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.frp3 = None                   # the Frp3Solver being traced

    def wrap(self, name, fn, group=None, after=None):
        """``group(args)`` names the span's group or None; ``after(result,
        args)`` records counts from the returned value."""
        tracer = self

        def traced(*args, **kwargs):
            g = group(args) if group else None
            tracer.child_s.append(0.0)
            tracer.active[name] += 1
            if g:
                tracer.active[g] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = tracer.child_s.pop()
                tracer.active[name] -= 1
                tracer.calls[name] += 1
                if not tracer.active[name]:
                    tracer.total[name] += dt
                tracer.self_s[name] += dt - children
                if g:
                    tracer.active[g] -= 1
                    if not tracer.active[g]:
                        tracer.total[g] += dt
                if tracer.child_s:
                    tracer.child_s[-1] += dt
            if after:
                after(result, args)
            return result

        return traced

    def report(self) -> dict:
        return {"total": dict(self.total), "self_s": dict(self.self_s),
                "calls": dict(self.calls), "counts": dict(self.counts)}


def _replace_everywhere(original, replacement) -> int:
    """Point every module global holding ``original`` at ``replacement``."""
    hits = 0
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if not (name == "faultpath" or name.startswith("faultpath.") or name == "session"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    import faultpath.cli  # noqa: F401  (loads every module the CLI uses)
    import session  # noqa: F401
    from faultpath import frp2, graph, pathform, spt, ssrp
    from faultpath.dso import incremental, offline
    from faultpath.dso.static import IncrementalDso
    from faultpath.frp3 import oracles, snake, solver

    def function(name, fn, **kw):
        if not _replace_everywhere(fn, tracer.wrap(name, fn, **kw)):
            raise RuntimeError(f"no caller of {name} found")

    def method(name, cls, attr, **kw):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, **kw)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw, **kw))

    def count_entries(dso, _args):
        tracer.counts["dso.table_entries"] += sum(len(sub) for sub in dso.table.values())

    def offline_group(args):
        sol = tracer.frp3
        g0 = args[0].graph0
        if sol is not None and g0 is sol.aux.graph:
            return "frp3.pass_1on"
        if sol is not None and any(g0 is g for g in sol.levels.values()):
            return "frp3.pass_2on"
        return None

    def offline_stats(off, _args):
        tracer.counts["offline.nodes"] += len(off.node_stats)
        tracer.counts["offline.insertions"] += sum(c for _, _, c in off.node_stats)
        tracer.counts["offline.peak_live"] = max(tracer.counts["offline.peak_live"],
                                                 off.peak_live)

    def insert_count(_eid, _args):
        if tracer.active["offline"]:
            tracer.counts["dso.insert.in_offline"] += 1

    def frp3_solver(_none, args):
        tracer.frp3 = args[0]

    def frp3_stats(stats, _args):
        for case, k in stats.by_case.items():
            tracer.counts[f"frp3.triples_{case}"] += k

    def ssrp_stats(stats, _args):
        tracer.counts["ssrp.timeline_steps"] += stats.timeline_steps
        tracer.counts["ssrp.emitted"] += stats.emitted

    pass_3on = lambda _args: "frp3.pass_3on"  # noqa: E731

    function("graph.load", graph.load_graph)
    function("spt.dijkstra", spt.dijkstra)
    method("spt.forest_build", spt.SptForest, "build")
    function("pathform.to_proper_form", pathform.to_proper_form)
    method("dso.build", IncrementalDso, "build", after=count_entries)
    method("dso.query", IncrementalDso, "query_edge_failure")
    function("dso.insert", incremental.insert_edge, after=insert_count)
    function("offline", offline.build_timeline, group=offline_group, after=offline_stats)
    # not reported; its span keeps solver work out of cli.self_s
    function("frp2.frp1", frp2.frp1_all)
    method("frp2.answer_pair", frp2.Frp2Solver, "answer_pair")
    method("frp2.rp2_path", frp2.Frp2Solver, "rp2_path")
    method("frp2.matrix", frp2.OffPathMatrix, "__init__")
    method("frp3.setup", solver.Frp3Solver, "__init__", after=frp3_solver)
    method("frp3.solve", solver.Frp3Solver, "solve", after=frp3_stats)
    method("frp3.oracle_a", oracles.OracleA, "query", group=pass_3on)
    method("frp3.oracle_b", oracles.OracleB, "query", group=pass_3on)
    method("frp3.probe_loop", snake.PairProbeLoop, "__init__", group=pass_3on)
    method("frp3.probe_answer", snake.PairProbeLoop, "answer", group=pass_3on)
    function("ssrp", ssrp.ssrp2, after=ssrp_stats)
    method("cli.write", faultpath.cli._Out, "line")
    function("cli", faultpath.cli.main)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="trace.py")
    ap.add_argument("--trace-out", required=True)
    ap.add_argument("program", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    program = args.program[1:] if args.program[:1] == ["--"] else args.program
    sys.path.insert(0, HERE)
    tracer = Tracer()
    install(tracer)
    if program[:2] == ["-m", "faultpath"]:
        import faultpath.cli
        code = faultpath.cli.main(program[2:])
    else:
        import session
        code = session.main(program[1:])
    with open(args.trace_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
