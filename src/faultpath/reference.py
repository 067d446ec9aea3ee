"""Naive reference oracles: the ground truth for every equivalence test.

Deliberately separate from the production code paths: a plain binary-heap
Dijkstra and a Bellman-Ford cross-check, plus exhaustive classifiers.  Shares
only Graph and CompositeWeight with the subjects under test.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Optional

from .graph import Graph
from .weights import CompositeWeight as W


def _dijkstra_all(graph: Graph, source: int, blocked: int):
    n = graph.n
    dist: list[Optional[W]] = [None] * n
    parent = [-1] * n
    parent_edge: list[Optional[int]] = [None] * n
    heap = [(0, 0, source)]
    done = [False] * n
    best: list[Optional[tuple[int, int]]] = [None] * n
    best[source] = (0, 0)
    while heap:
        db, dt, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        dist[u] = W(db, dt)
        for v, eid, wb, wt in graph.adj[u]:
            if done[v] or (blocked >> eid) & 1:
                continue
            cand = (db + wb, dt + wt)
            if best[v] is None or cand < best[v]:
                best[v] = cand
                parent[v] = u
                parent_edge[v] = eid
                heappush(heap, (cand[0], cand[1], v))
    return dist, parent, parent_edge


def tied(graph: Graph, source: int, blocked: int = 0) -> bool:
    """Does some vertex reachable from ``source`` have two shortest paths?

    Counts, for each reached vertex other than the source, the unblocked
    edges that end a shortest path into it; a tie is a count above one.
    """
    dist, _, _ = _dijkstra_all(graph, source, blocked)
    for v, dv in enumerate(dist):
        if dv is None or v == source:
            continue
        hits = 0
        for u, eid, wb, wt in graph.adj[v]:
            du = dist[u]
            if not (blocked >> eid) & 1 and du is not None and du + W(wb, wt) == dv:
                hits += 1
        if hits > 1:
            return True
    return False


def dist_avoiding(graph: Graph, u: int, v: int, fails: Iterable[int]) -> Optional[W]:
    """Exact distance u -> v with the given edges removed; None if cut off."""
    blocked = 0
    for eid in fails:
        blocked |= 1 << eid
    dist, _, _ = _dijkstra_all(graph, u, blocked)
    return dist[v]


def path_avoiding(graph: Graph, u: int, v: int, fails: Iterable[int]) -> Optional[list[int]]:
    """Edge ids of the shortest path avoiding ``fails``, or None."""
    blocked = 0
    for eid in fails:
        blocked |= 1 << eid
    dist, parent, parent_edge = _dijkstra_all(graph, u, blocked)
    if dist[v] is None:
        return None
    out = []
    while v != u:
        out.append(parent_edge[v])
        v = parent[v]
    out.reverse()
    return out


def required_ssrp2(graph: Graph, source: int) -> set[tuple[int, int, int]]:
    """Every unordered (d1, d2, t) that two-failure SSRP must answer: d1 on
    the shortest path to t (t in d1's subtree), d2 on the shortest path to
    t avoiding d1."""
    out = set()
    for t in range(graph.n):
        for d1 in path_avoiding(graph, source, t, ()) or ():
            for d2 in path_avoiding(graph, source, t, (d1,)) or ():
                out.add((min(d1, d2), max(d1, d2), t))
    return out


def all_dists_avoiding(graph: Graph, source: int, fails: Iterable[int]) -> list[Optional[W]]:
    """Distances from ``source`` to every vertex with ``fails`` removed."""
    blocked = 0
    for eid in fails:
        blocked |= 1 << eid
    dist, _, _ = _dijkstra_all(graph, source, blocked)
    return dist


def bellman_ford(graph: Graph, source: int, fails: Iterable[int] = ()) -> list[Optional[W]]:
    """Independent second algorithm for cross-checking Dijkstra."""
    blocked = 0
    for eid in fails:
        blocked |= 1 << eid
    dist: list[Optional[W]] = [None] * graph.n
    dist[source] = W(0, 0)
    edges = [e for e in graph.edges.values() if not (blocked >> e.eid) & 1]
    for _ in range(graph.n - 1):
        changed = False
        for e in edges:
            for a, b in ((e.u, e.v), (e.v, e.u)):
                da = dist[a]
                if da is None:
                    continue
                cand = da + e.w
                if dist[b] is None or cand < dist[b]:
                    dist[b] = cand
                    changed = True
        if not changed:
            break
    return dist


# ---------------------------------------------------------------------------
# weak intervals
# ---------------------------------------------------------------------------

@dataclass
class WeakInterval:
    """Classification of one interval of pi(u, v) by exhaustive removal."""

    u: int
    v: int
    a: int
    b: int
    weak_points: set[int]

    @property
    def is_weak(self) -> bool:
        return bool(self.weak_points)


def weak_classify(graph: Graph, u: int, v: int, interval_eids: list[int],
                  a: int, b: int) -> WeakInterval:
    """Find every edge of the interval whose removal path avoids all of it.

    ``interval_eids`` are the path edges of the subpath a..b of pi(u, v).
    """
    iv = set(interval_eids)
    weak = set()
    for f in interval_eids:
        p = path_avoiding(graph, u, v, [f])
        if p is None:
            # no replacement at all: it vacuously avoids the interval
            weak.add(f)
            continue
        if not iv.intersection(p):
            weak.add(f)
    return WeakInterval(u, v, a, b, weak)


# ---------------------------------------------------------------------------
# snake paths by exhaustive enumeration
# ---------------------------------------------------------------------------

def snake_oracle(graph: Graph, path_vertices: list[int], path_eids: list[int],
                 cut_positions: list[int], through=None) -> Optional[int]:
    """Shortest path making exactly two middle-interval visits, by brute force.

    ``cut_positions`` are removed edge positions on the s-t path (sorted);
    they split the path into intervals.  The two visited segments may lie in
    the same middle interval if vertex-disjoint, and may be single vertices.
    The returned length is base-channel.  ``through`` optionally constrains
    one visit to cover a vertex ('v', pos) or an edge ('e', pos).
    """
    h = len(path_eids)
    full_block = 0
    for eid in path_eids:
        full_block |= 1 << eid
    n_pv = h + 1
    offd: list[list[Optional[W]]] = []
    for i in range(n_pv):
        dist, _, _ = _dijkstra_all(graph, path_vertices[i], full_block)
        offd.append([dist[path_vertices[j]] for j in range(n_pv)])

    prefix = [0]
    for eid in path_eids:
        prefix.append(prefix[-1] + graph.edges[eid].w.base)

    cuts = sorted(cut_positions)
    bounds = []
    lo = 0
    for c in cuts:
        bounds.append((lo, c))
        lo = c + 1
    bounds.append((lo, h))
    first, last = bounds[0], bounds[-1]
    middles = bounds[1:-1]

    # best divergence into a vertex, and best convergence out of one
    head: list[Optional[int]] = [None] * n_pv
    tail: list[Optional[int]] = [None] * n_pv
    for v in range(n_pv):
        head[v] = min((prefix[w] + offd[w][v].base
                       for w in range(first[0], first[1] + 1)
                       if offd[w][v] is not None), default=None)
        tail[v] = min((offd[v][z].base + prefix[last[1]] - prefix[z]
                       for z in range(last[0], last[1] + 1)
                       if offd[v][z] is not None), default=None)

    def covers(seg: tuple[int, int]) -> bool:
        kind, pos = through
        if kind == "v":
            return seg[0] <= pos <= seg[1]
        return seg[0] <= pos and pos + 1 <= seg[1]

    segs = [(i, a, b)
            for i, (mlo, mhi) in enumerate(middles)
            for a in range(mlo, mhi + 1)
            for b in range(a, mhi + 1)]

    best: Optional[int] = None
    for i1, a1, b1 in segs:
        for i2, a2, b2 in segs:
            if i1 == i2 and not (b1 < a2 or b2 < a1):
                continue
            if through is not None and not (covers((a1, b1)) or covers((a2, b2))):
                continue
            w1 = prefix[b1] - prefix[a1]
            w2 = prefix[b2] - prefix[a2]
            for in1, out1 in ((a1, b1), (b1, a1)):
                hd = head[in1]
                if hd is None:
                    continue
                for in2, out2 in ((a2, b2), (b2, a2)):
                    mid = offd[out1][in2]
                    tl = tail[out2]
                    if mid is None or tl is None:
                        continue
                    total = hd + w1 + mid.base + w2 + tl
                    if best is None or total < best:
                        best = total
    return best


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

@dataclass
class OracleReport:
    """One subject-vs-oracle comparison."""

    query: dict
    oracle: Optional[int]
    subject: Optional[int]

    @property
    def match(self) -> bool:
        return self.oracle == self.subject

    def to_json(self) -> str:
        return json.dumps(
            {"query": self.query, "oracle": self.oracle,
             "subject": self.subject, "match": self.match},
            sort_keys=True,
        )
