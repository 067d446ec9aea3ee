"""Undirected weighted graphs, the text file format, and weight perturbation.

Edges are identified by stable integer ids and never reindexed.  Edges are
removed in two ways only: the offline range tree builds its graphs from
edge-id masks, and ``spt.without_tree_edge`` searches G - e without building
it.  Auxiliary constructions (the graph H, its level graphs, the padded
path) keep the base graph's id on every base edge and number their own
edges above them.
"""
from __future__ import annotations

import random
from typing import NamedTuple, Optional, Sequence

from .weights import MAX_BASE_SUM, CompositeWeight as W


class Edge(NamedTuple):
    u: int
    v: int
    w: W
    eid: int

    def other(self, x: int) -> int:
        return self.v if x == self.u else self.u


class GraphFormatError(ValueError):
    """Raised for malformed input files: graphs, timelines, queries, and (as
    the subclasses ``SnapshotError`` and ``InvalidDelete``) snapshots and
    deletions of absent edges."""


class Disconnected(ValueError):
    """The requested endpoints lie in different components."""


class TieUnbreakable(RuntimeError):
    """Perturbation failed to produce unique shortest paths."""


class Overflow(ValueError):
    """Weight sums would leave the supported integer range."""


class SizeError(ValueError):
    """A size below the smallest that a generator or reduction can build."""


class Graph:
    """Undirected graph with composite weights and a sparse edge-id space.

    ``adj[u]`` holds ``(v, eid, wbase, wtie)`` tuples; the flat ints keep the
    Dijkstra inner loop cheap.  Instances are treated as immutable once built;
    ``plus_edge`` returns an extended copy.
    """

    __slots__ = ("n", "edges", "adj", "_next_eid")

    def __init__(self, n: int):
        self.n = n
        self.edges: dict[int, Edge] = {}
        self.adj: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
        self._next_eid = 0

    @property
    def m(self) -> int:
        return len(self.edges)

    def add_edge(self, u: int, v: int, w: W, eid: Optional[int] = None) -> int:
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphFormatError(f"vertex id out of range: ({u}, {v})")
        if eid is None:
            eid = self._next_eid
        if eid in self.edges:
            raise GraphFormatError(f"duplicate edge id {eid}")
        self._next_eid = max(self._next_eid, eid + 1)
        self.edges[eid] = Edge(u, v, w, eid)
        self.adj[u].append((v, eid, w.base, w.tie))
        self.adj[v].append((u, eid, w.base, w.tie))
        return eid

    def has_endpoints(self, u: int, v: int) -> bool:
        """True if some edge joins u and v."""
        if len(self.adj[u]) > len(self.adj[v]):
            u, v = v, u
        return any(x == v for x, _, _, _ in self.adj[u])

    def copy(self) -> "Graph":
        g = Graph(self.n)
        g.edges = dict(self.edges)
        g.adj = [list(a) for a in self.adj]
        g._next_eid = self._next_eid
        return g

    def plus_edge(self, u: int, v: int, w: W, eid: Optional[int] = None) -> tuple["Graph", int]:
        g = self.copy()
        new_id = g.add_edge(u, v, w, eid)
        return g, new_id

    def base_weight_sum(self) -> int:
        return sum(e.w.base for e in self.edges.values())

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


TIE_RANGE = 2**28


class TieSource:
    """Deterministic stream of fresh positive tie values."""

    def __init__(self, seed: int):
        self._rng = random.Random(f"faultpath-tie:{seed}")

    def next(self) -> int:
        return self._rng.randrange(1, TIE_RANGE)


def perturb_and_verify(n: int, raw_edges: Sequence[tuple[int, int, int]], seed: int) -> Graph:
    """Install composite weights with verified-unique shortest paths.

    Tie values are drawn from ``seed``; the graph is accepted only if every
    single-source run settles each vertex through a strictly unique best
    relaxation, both on the full graph and on the graph minus each edge of a
    deterministic sample.  On a detected tie the whole channel is redrawn
    from ``seed + 1``, up to 8 attempts.
    """
    from .spt import unique_paths_ok

    total = 0
    for u, v, w in raw_edges:
        if w < 0:
            raise GraphFormatError(f"negative weight on edge ({u}, {v})")
        total += w
    if total >= MAX_BASE_SUM // max(n, 1):
        raise Overflow("edge weights too large for exact 64-bit sums")

    for attempt in range(8):
        rng = random.Random(f"faultpath-perturb:{seed + attempt}")
        g = Graph(n)
        for u, v, w in raw_edges:
            g.add_edge(u, v, W(w, rng.randrange(1, TIE_RANGE)))
        sample = _removal_sample(g, seed + attempt)
        if unique_paths_ok(g, sample):
            return g
    raise TieUnbreakable(f"no tie-free perturbation found after 8 attempts (seed={seed})")


def _removal_sample(g: Graph, seed: int, k: int = 8) -> list[int]:
    ids = sorted(g.edges)
    if len(ids) <= k:
        return ids
    rng = random.Random(f"faultpath-sample:{seed}")
    return sorted(rng.sample(ids, k))


# ---------------------------------------------------------------------------
# text format: `p <n> <m>`, then `e <u> <v> <w>` lines, `c` comments; the
# graph must be simple (no self-loops, no two edges between the same pair)
# ---------------------------------------------------------------------------

def parse_graph_text(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    n = None
    declared_m = 0
    edges: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: repeated header")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'p <n> <m>'")
            n, declared_m = parse_ints(parts[1:], lineno)
            if n < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex count {n}")
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before header")
            if len(parts) != 4:
                raise GraphFormatError(f"line {lineno}: expected 'e <u> <v> <w>'")
            u, v, w = parse_ints(parts[1:], lineno)
            check_edge(n, u, v, w, lineno)
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphFormatError(f"line {lineno}: parallel edge ({u}, {v})")
            seen.add(key)
            edges.append((u, v, w))
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphFormatError("missing 'p' header")
    if declared_m != len(edges):
        raise GraphFormatError(f"header declares {declared_m} edges, found {len(edges)}")
    return n, edges


def check_edge(n: int, u: int, v: int, w: int, lineno: int) -> None:
    """Reject a self-loop, an endpoint out of range or a negative weight."""
    if u == v:
        raise GraphFormatError(f"line {lineno}: self-loop at {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise GraphFormatError(f"line {lineno}: vertex out of range")
    if w < 0:
        raise GraphFormatError(f"line {lineno}: negative weight")


def parse_ints(fields: list[str], lineno: int) -> list[int]:
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise GraphFormatError(f"line {lineno}: expected integers, got {' '.join(fields)!r}") from None


def load_graph(path: str, seed: int) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        n, edges = parse_graph_text(fh.read())
    return perturb_and_verify(n, edges, seed)


def dump_graph_text(n: int, edges: Sequence[tuple[int, int, int]]) -> str:
    lines = [f"p {n} {len(edges)}"]
    lines.extend(f"e {u} {v} {w}" for u, v, w in edges)
    return "\n".join(lines) + "\n"
