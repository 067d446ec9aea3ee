"""The dso-mixed session: the incremental DSO used as a library.

Builds the oracle on the input graph, then runs the op batches from the ops
file: each batch optionally inserts one edge (a write) and then answers a
batch of ``query_edge_failure`` calls on edges of the current u-v path
(reads).  Answers go to ``--out`` as NDJSON, in op order, byte-deterministic
for a fixed input and seed.  The timings go to stdout as one JSON object:
``build_s``, one ``update_s`` per insertion and, per query batch, the batch
time divided by its size (``query_us``).

Run: ``PYTHONPATH=src python3 perfbench/session.py --graph G --ops OPS
--seed N --out OUT``.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from faultpath.dso.incremental import insert_edge
from faultpath.dso.static import IncrementalDso
from faultpath.graph import load_graph


def run_session(graph_path: str, ops_path: str, seed: int, out_path: str) -> dict:
    with open(ops_path, encoding="utf-8") as fh:
        batches = json.load(fh)
    t0 = time.perf_counter()
    dso = IncrementalDso.build(load_graph(graph_path, seed), seed=seed)
    timings = {"build_s": time.perf_counter() - t0, "update_s": [], "query_us": []}
    lines = []
    for batch in batches:
        if "insert" in batch:
            u, v, w = batch["insert"]
            t0 = time.perf_counter()
            insert_edge(dso, u, v, w)
            timings["update_s"].append(time.perf_counter() - t0)
            lines.append({"op": "insert", "u": u, "v": v, "w": w})
        queries = []
        for a, b, r in batch["queries"]:
            path = dso.forest.path_edge_ids(a, b)
            queries.append((a, b, path[r % len(path)]))
        t0 = time.perf_counter()
        answers = [dso.query_edge_failure(a, b, eid)[0] for a, b, eid in queries]
        timings["query_us"].append((time.perf_counter() - t0) / len(queries) * 1e6)
        for (a, b, eid), ln in zip(queries, answers):
            e = dso.graph.edges[eid]
            lines.append({"op": "query", "u": a, "v": b, "f": sorted((e.u, e.v)),
                          "dist": "inf" if ln is None else ln.base})
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in lines)
    return timings


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="session.py")
    ap.add_argument("--graph", required=True)
    ap.add_argument("--ops", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    print(json.dumps(run_session(args.graph, args.ops, args.seed, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
