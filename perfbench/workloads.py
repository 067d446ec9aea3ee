"""Workload table and seeded input generation.

The generators are the benchmark's own, so a change to the program's
``families`` module does not change what is measured.  Every graph is
simple (no parallel edges, no self-loops): the program's NDJSON output names
an edge by its endpoints, which is ambiguous for parallel edges, and an
offline timeline cannot restore a deleted edge that has a parallel twin.

Runs made with different seeds are compared with each other, so the work
of a run must not depend on the seed.  Each input's shape and weights are
fixed by its size; the seed adds 0..9 to every weight, far less than any
gap between competing paths, and draws the dso-mixed queries.  So every
seed has its own distances and the same shortest paths.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
# the detour weights are multiples of this plus a seeded 0..9: the seed
# moves every distance and no comparison between competing paths
SCALE = 1000


def _shape_rng(family: str, n: int) -> random.Random:
    return random.Random(f"perfbench-shape:{family}:{n}")


def detour(n: int, rng: random.Random) -> list[tuple[int, int, int]]:
    """Path 0..n-1 of weight-100 edges, the unique shortest s-t path.

    Each (i, i+2) chord costs 205, 212 or 219 (by i mod 3), more than the two
    path edges it skips, so every path edge has a cheap detour.
    ``max(2, n // 8)`` longer chords, evenly spaced, skip 3..6 edges and cost
    41..47 more than the stretch they skip.  These weights are fixed by n and
    scaled by ``SCALE``; ``rng`` adds 0..9 to each, as in ``sparse_random``.
    """
    shape = _shape_rng("detour", n)
    edges = [(i, i + 1, 100) for i in range(n - 1)]
    edges += [(i, i + 2, 205 + 7 * (i % 3)) for i in range(n - 2)]
    count = max(2, n // 8)
    for k in range(count):
        i = k * (n - 4) // count
        j = min(n - 1, i + 3 + k % 4)
        edges.append((i, j, 100 * (j - i) + shape.randint(41, 47)))
    return [(u, v, w * SCALE + rng.randint(0, 9)) for u, v, w in edges]


def sparse_random(n: int, rng: random.Random) -> list[tuple[int, int, int]]:
    """Random recursive spanning tree plus n - 1 random chords.

    The tree, the chords and the weights (1,000,000..4,000,000) are fixed by
    n; ``rng`` adds 0..9 to each weight.  Competing paths differ by far more
    than 9 per hop, so every seed's graph has the same shortest paths, and
    so the same work, but its own distances.
    """
    shape = _shape_rng("sparse", n)
    pairs = [(shape.randrange(v), v) for v in range(1, n)]
    present = set(pairs)
    while len(pairs) < 2 * (n - 1):
        u, v = sorted(shape.sample(range(n), 2))
        if (u, v) not in present:
            present.add((u, v))
            pairs.append((u, v))
    return [(u, v, shape.randint(1_000_000, 4_000_000) + rng.randint(0, 9))
            for u, v in pairs]


def mixed_ops(n: int, edges, rng: random.Random, inserts: int, queries: int) -> list[dict]:
    """A query batch, then ``inserts`` times an insertion and a query batch.

    The inserted pairs and their weights are fixed by n, up to the seeded
    0..9 that ``rng`` adds, and the pairs are absent at that point.  On the
    detour family an inserted (u, v) costs 100 per hop it spans, minus
    10..60 on even insertions (a shortcut) and plus 10..120 on odd ones,
    scaled by ``SCALE``.  A query names (u, v, r); the session fails the
    r-th edge (mod length) of the current u-v path.
    """
    shape = _shape_rng("inserts", n)
    present = {(min(u, v), max(u, v)) for u, v, _ in edges}

    def query_batch():
        return [rng.sample(range(n), 2) + [rng.randrange(1 << 20)] for _ in range(queries)]

    batches = [{"queries": query_batch()}]
    for k in range(inserts):
        while True:
            u, v = sorted(shape.sample(range(n), 2))
            if (u, v) not in present:
                break
        present.add((u, v))
        delta = -shape.randint(10, 60) if k % 2 == 0 else shape.randint(10, 120)
        w = (100 * (v - u) + delta) * SCALE + rng.randint(0, 9)
        batches.append({"insert": [u, v, w], "queries": query_batch()})
    return batches


def dump_graph(n: int, edges) -> str:
    """The program's graph file format: ``p n m`` then ``e u v w`` lines."""
    return "".join([f"p {n} {len(edges)}\n"] + [f"e {u} {v} {w}\n" for u, v, w in edges])


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # frp3 | frp2 | ssrp2 | dso
    n: int
    why: str


WORKLOADS = {w.name: w for w in [
    Workload("frp3-detour", "frp3", 8,
             "faultpath frp --faults 3, the paper's headline algorithm; "
             "offline-timeline insertions in the 2on pass dominate"),
    Workload("frp2-detour", "frp2", 22,
             "faultpath frp --faults 2 --emit-paths; static DSO build on the "
             "auxiliary graph dominates and no edge is ever inserted"),
    Workload("ssrp2-random", "ssrp2", 20,
             "faultpath ssrp2 on a sparse random graph: one offline timeline, "
             "many pairs with few anchors each; insertions dominate"),
    Workload("dso-mixed", "dso", 32,
             "incremental DSO as a library: build, then insertions alternating "
             "with query batches; the only workload whose queries do real work"),
]}

INSERTS = 16
QUERIES = 250
# the program's own --seed, which draws its tie values; fixed, because the
# work of frp3-detour moves by a few per cent with it
PROGRAM_SEED = 0


@dataclass
class Inputs:
    n: int
    edges: list
    graph: str            # path of the graph file
    ops: str | None       # path of the dso-mixed ops file
    batches: list | None  # the dso-mixed ops


def make_inputs(w: Workload, seed: int, workdir: str) -> Inputs:
    rng = random.Random(f"perfbench:{w.name}:{seed}")
    edges = sparse_random(w.n, rng) if w.kind == "ssrp2" else detour(w.n, rng)
    graph = os.path.join(workdir, "input.graph")
    with open(graph, "w", encoding="utf-8") as fh:
        fh.write(dump_graph(w.n, edges))
    ops = batches = None
    if w.kind == "dso":
        batches = mixed_ops(w.n, edges, rng, INSERTS, QUERIES)
        ops = os.path.join(workdir, "ops.json")
        with open(ops, "w", encoding="utf-8") as fh:
            json.dump(batches, fh)
    return Inputs(w.n, edges, graph, ops, batches)


def program_args(w: Workload, inp: Inputs, seed: int, out: str) -> list[str]:
    """Arguments after the interpreter: ``-m faultpath ...`` or the session."""
    if w.kind == "dso":
        return [os.path.join(HERE, "session.py"), "--graph", inp.graph,
                "--ops", inp.ops, "--seed", str(seed), "--out", out]
    common = ["--graph", inp.graph, "--s", "0"]
    if w.kind == "ssrp2":
        return ["-m", "faultpath", "ssrp2", *common, "--seed", str(seed), "--out", out]
    faults = ["--faults", "3"] if w.kind == "frp3" else ["--faults", "2", "--emit-paths"]
    return ["-m", "faultpath", "frp", *faults, *common, "--t", str(inp.n - 1),
            "--seed", str(seed), "--out", out]


def ops_per_round(w: Workload, answers: int) -> int:
    """Operations one round attempts: answers, or updates plus queries."""
    if w.kind == "dso":
        return INSERTS + (INSERTS + 1) * QUERIES
    return answers
