"""Command line surface: solvers, generators, verification, benchmarks.

All randomised commands take a mandatory seed, and every subcommand except
``bench`` is byte-deterministic for a fixed (command, input, seed).  Exit
codes: 0 success, 1 verification mismatch, 2 usage (also a vertex out of
range, s and t disconnected, a size below what a family, a verify suite
or a reduction can build, or a verify sweep with nothing to check), 3 format
error (malformed graph, timeline, query or snapshot file, or one that is not
UTF-8 text), 4 I/O error.  Every error is one line on stderr.

Only the graph module is imported at start-up: each command imports the
solver it runs, so ``frp --faults 2`` loads no three-failure or offline
code, and the benchmark suites live in ``faultpath.bench``.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .graph import Disconnected, Graph, GraphFormatError, Overflow, SizeError, check_edge, \
    dump_graph_text, load_graph, parse_graph_text, parse_ints, perturb_and_verify

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
        from .frp2 import Frp2Solver, iter_required_pairs
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
        from .frp3.solver import solve_3frp

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
        from .dso.snapshot import save_dso
        from .dso.static import IncrementalDso
        g = load_graph(args.graph, args.seed)
        dso = IncrementalDso.build(g, seed=args.seed)
        save_dso(dso, args.out)
        return EXIT_OK
    if args.action == "query":
        from .dso.snapshot import load_dso
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
    from .dso.offline import build_timeline
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
    from .dso.offline import InvalidDelete, Timeline
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
    from .ssrp import ssrp2
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
        from .hardness import reduce_graph
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
    from . import families
    maker = families.detour_rich if args.family == "detour" else families.random_connected
    g = maker(args.n, seed=args.seed)
    edges = [(e.u, e.v, e.w.base) for _, e in sorted(g.edges.items())]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dump_graph_text(g.n, edges))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# smallest n per verify suite; 0 is the random family's own minimum
VERIFY_MIN_N = {"dso": 0, "frp2": 0, "frp3": 0, "ssrp": 3, "offline": 2}


def cmd_verify(args) -> int:
    need = VERIFY_MIN_N[args.suite]
    if args.n < need:
        raise UsageError(f"--n {args.n} is below the {args.suite} suite's minimum of {need}")
    out = _Out(args.out)
    bad = 0
    checked = 0
    for seed in range(args.seeds):
        for report in _verify_one(args.suite, args.n, seed):
            checked += 1
            if not report.match:
                bad += 1
                out.fh.write(report.to_json() + "\n")
    if checked == 0:
        out.close()
        raise UsageError(f"--suite {args.suite} --n {args.n} --seeds {args.seeds} "
                         "has nothing to check")
    out.line({"suite": args.suite, "n": args.n, "seeds": args.seeds,
              "checked": checked, "mismatches": bad})
    out.close()
    return EXIT_OK if bad == 0 else EXIT_MISMATCH


def _verify_one(suite: str, n: int, seed: int):
    from . import families
    from .reference import OracleReport, dist_avoiding
    g = families.random_connected(n, seed=seed)
    if suite == "dso":
        from .dso.static import IncrementalDso
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
        from .frp2 import Frp2Solver, iter_required_pairs
        s, t = 0, g.n - 1
        sol = Frp2Solver(g, s, t, seed=seed)
        for d1, d2 in iter_required_pairs(sol):
            got = sol.answer_pair(d1, d2)
            want = dist_avoiding(g, s, t, [d1, d2])
            yield OracleReport(
                {"suite": suite, "seed": seed, "d1": d1, "d2": d2},
                None if want is None else want.base, got)
    elif suite == "frp3":
        from .frp3.solver import solve_3frp
        s, t = 0, g.n - 1
        emitted = []
        solve_3frp(g, s, t, lambda *a: emitted.append(a), seed=seed)
        for d1, d2, d3, got, _kind in emitted:
            want = dist_avoiding(g, s, t, [d1, d2, d3])
            yield OracleReport(
                {"suite": suite, "seed": seed, "d1": d1, "d2": d2, "d3": d3},
                None if want is None else want.base, got)
    elif suite == "ssrp":
        from .ssrp import SsrpResolver
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
        from .dso.offline import Timeline, build_timeline
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

def cmd_bench(args) -> int:
    from .bench import report
    try:
        sizes = [int(x) for x in args.sizes.split(",")]
    except ValueError:
        raise UsageError(f"--sizes {args.sizes} is not a comma-separated list of integers")
    if args.repeats < 1:
        raise UsageError(f"--repeats {args.repeats} must be at least 1")
    text = json.dumps(report(args.suite, sizes, args.seed, args.repeats, args.budget),
                      indent=1, sort_keys=True)
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
    p.add_argument("--suite", choices=tuple(VERIFY_MIN_N), required=True)
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
    except (UsageError, Disconnected, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphFormatError, Overflow, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
