"""Path padding to a power-of-two edge count and the dyadic partition.

A zero-weight chain of artificial vertices is prepended ahead of the source,
so every position argument below lives on the padded path.  The partition
fixes markers m[i][j] and ranges Q[i][j] per level; the level graphs add the
even or odd ranges back onto the auxiliary graph H.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from ..graph import Disconnected, Graph, TIE_RANGE
from ..frp2 import AuxGraphH
from ..spt import ShortestPathTree, dijkstra
from ..weights import CompositeWeight as W


@dataclass
class PaddedInstance:
    graph: Graph
    s: int              # padded source (chain head), the input source when pad == 0
    t: int
    path_verts: list[int]
    path_eids: list[int]
    pad: int            # artificial leading edges; real path edges start here
    k: int              # path has 2^k edges
    spt: ShortestPathTree  # tree of s in graph

    @property
    def hops(self) -> int:
        return len(self.path_eids)


def pad_to_power_of_two(graph: Graph, s: int, t: int, seed: int = 0) -> PaddedInstance:
    spt = dijkstra(graph, s)
    if spt.dist[t] is None:
        raise Disconnected(f"{s} and {t} are disconnected")
    pv = spt.path_vertices(t)
    pe = spt.path_edges(t)
    h = len(pe)
    k = max(1, (h - 1).bit_length())
    pad = (1 << k) - h
    rng = random.Random(f"faultpath-pad:{seed}")
    g = graph.copy()
    chain = list(range(graph.n, graph.n + pad))
    g.n += pad
    g.adj.extend([] for _ in range(pad))
    pad_eids = []
    prev = s
    for v in chain:
        pad_eids.append(g.add_edge(v, prev, W(0, rng.randrange(1, TIE_RANGE))))
        prev = v
    new_s = chain[-1] if pad else s
    path_verts = list(reversed(chain)) + pv
    path_eids = list(reversed(pad_eids)) + pe
    if pad:
        spt = _chain_head_tree(g, spt, path_verts[:pad + 1], path_eids[:pad])
    return PaddedInstance(g, new_s, t, path_verts, path_eids, pad, k, spt)


def _chain_head_tree(g: Graph, spt: ShortestPathTree, chain: list[int],
                     chain_eids: list[int]) -> ShortestPathTree:
    """The tree of the chain head in the padded graph ``g``, read off the
    tree ``spt`` of s; ``chain`` runs from the head to s.

    The chain hangs off s alone, so every route from the head runs down it
    to s and then as in ``spt``: each vertex of the input keeps its parent
    and its offers arrive in the same order, shifted by the chain's length.
    The result is the tree Dijkstra builds from the head, ``tied`` included.
    """
    pad = len(chain_eids)
    dist = spt.dist + [None] * pad
    parent = spt.parent + [-1] * pad
    parent_edge = spt.parent_edge + [None] * pad
    depth = spt.depth + [0] * pad
    dist[chain[0]] = W(0, 0)
    for k, eid in enumerate(chain_eids):
        v = chain[k + 1]
        dist[v] = dist[chain[k]] + g.edges[eid].w
        parent[v], parent_edge[v], depth[v] = chain[k], eid, k + 1
    s, off = chain[-1], dist[chain[-1]]
    for v, d in enumerate(spt.dist):
        if d is not None and v != s:
            dist[v] = off + d
            depth[v] += pad
    return ShortestPathTree(chain[0], dist, parent, parent_edge, depth, spt.tied)


class BinaryPartition:
    """Markers and dyadic ranges over a 2^k-edge path."""

    def __init__(self, inst: PaddedInstance):
        self.k = inst.k

    def ranges(self, i: int) -> list[tuple[int, int]]:
        """Level-i ranges as (lo, hi) edge-position spans, j ascending."""
        width = 1 << (self.k - i)
        return [(j * width, (j + 1) * width - 1) for j in range(1 << i)]

    def separator(self, l_edge: int, r_edge: int) -> tuple[int, int, int]:
        """Minimal level where the two edges fall in adjacent ranges.

        Returns (level i, odd index j, marker vertex position); the left edge
        lies in Q[i][j-1] and the right in Q[i][j].
        """
        assert l_edge < r_edge
        for i in range(1, self.k + 1):
            shift = self.k - i
            if (l_edge >> shift) != (r_edge >> shift):
                j = r_edge >> shift
                assert j % 2 == 1 and (l_edge >> shift) == j - 1
                return i, j, j << shift
        raise AssertionError("unreachable")

    def level_edge_positions(self, i: int, parity: int) -> list[int]:
        """Edge positions included in the level graph (even or odd ranges)."""
        out = []
        for j, (lo, hi) in enumerate(self.ranges(i)):
            if j % 2 == parity:
                out.extend(range(lo, hi + 1))
        return out


def level_graph(aux: AuxGraphH, partition: BinaryPartition, i: int, parity: int) -> Graph:
    """H plus the path edges of the level's even (parity 0) or odd ranges."""
    g = aux.graph.copy()
    base = aux.base
    for pos in partition.level_edge_positions(i, parity):
        e = base.edges[aux.path_eids[pos]]
        g.add_edge(e.u, e.v, e.w, eid=e.eid)
    return g
