"""All-pairs-shortest-paths to 2FRP instance generator and answer extractor.

The construction sandwiches the input graph between two zero-weight paths
joined by matchings of weight i*N; failing the i-th edge of one path and the
j-th of the other forces the s-t route through vertices i and j, so each
two-failure answer encodes one pairwise distance.  Used as a correctness
cross-check and as a benchmark-instance factory.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .graph import Graph, SizeError, perturb_and_verify
from .spt import dijkstra


class InconsistentAnswer(ValueError):
    """Extracted matrix entry negative or asymmetric."""


@dataclass
class ReductionInstance:
    graph: Graph
    s: int
    t: int
    n_orig: int
    n_big: int
    s_nodes: list[int]   # s_0 .. s_{n+1}
    t_nodes: list[int]
    s_edges: list[int]   # eid of (s_{i-1}, s_i), index i-1, i in 1..n+1
    t_edges: list[int]

    def failure_set(self, i: int, j: int) -> tuple[int, int]:
        """Designated failures for matrix entry (i, j), 1-based."""
        return self.s_edges[i - 1], self.t_edges[j - 1]


def reduce_graph(g: Graph, seed: int = 0) -> ReductionInstance:
    """Build the 2FRP instance whose designated answers encode APSP on g."""
    n = g.n
    if n < 2:
        raise SizeError(f"the hardness reduction needs a graph of at least 2 vertices, got {n}")
    n_big = g.base_weight_sum() + 1
    # vertex layout: originals 0..n-1, then s_0..s_{n+1}, then t_0..t_{n+1}
    s0 = n
    t0 = n + (n + 2)
    total = n + 2 * (n + 2)
    raw: list[tuple[int, int, int]] = []
    order: list[str] = []
    for eid in sorted(g.edges):
        e = g.edges[eid]
        raw.append((e.u, e.v, e.w.base))
        order.append("g")
    for i in range(n + 1):
        raw.append((s0 + i, s0 + i + 1, 0))
        order.append("s")
    for i in range(n + 1):
        raw.append((t0 + i, t0 + i + 1, 0))
        order.append("t")
    for i in range(1, n + 1):
        raw.append((s0 + i, i - 1, i * n_big))
        order.append("e1")
    for i in range(1, n + 1):
        raw.append((i - 1, t0 + i, i * n_big))
        order.append("e2")
    h = perturb_and_verify(total, raw, seed=seed)

    s_edges = [eid for eid, kind in zip(sorted(h.edges), order) if kind == "s"]
    t_edges = [eid for eid, kind in zip(sorted(h.edges), order) if kind == "t"]
    inst = ReductionInstance(
        graph=h,
        s=s0 + n + 1,
        t=t0 + n + 1,
        n_orig=n,
        n_big=n_big,
        s_nodes=list(range(s0, s0 + n + 2)),
        t_nodes=list(range(t0, t0 + n + 2)),
        s_edges=s_edges,
        t_edges=t_edges,
    )
    # the designed route: s .. s_1, v_1, t_1 .. t
    spt = dijkstra(h, inst.s)
    assert spt.dist[inst.t].base == 2 * n_big
    pv = spt.path_vertices(inst.t)
    assert pv[0] == inst.s and pv[-1] == inst.t and 0 in pv
    return inst


def extract_apsp(inst: ReductionInstance,
                 frp2_answer: Callable[[int, int], Optional[int]]) -> list[list[int]]:
    """Recover the n x n distance matrix from designated two-failure answers."""
    n = inst.n_orig
    mat = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            f1, f2 = inst.failure_set(i, j)
            ans = frp2_answer(f1, f2)
            if ans is None:
                raise InconsistentAnswer(f"no finite answer for ({i}, {j})")
            val = ans - (i + j) * inst.n_big
            if val < 0:
                raise InconsistentAnswer(f"negative distance at ({i}, {j}): {val}")
            mat[i - 1][j - 1] = val
    for i in range(n):
        for j in range(n):
            if mat[i][j] != mat[j][i]:
                raise InconsistentAnswer(f"asymmetry at ({i}, {j})")
    return mat
