"""Two-failure single-source replacement paths.

Walk the source's shortest path tree, delete each tree edge in turn on an
offline deletion sweep, and at every leaf answer one more failure for the
vertices in the deleted edge's subtree.  Failure pairs not covered by the
stream resolve to single-failure or unaffected answers; ``SsrpResolver``
implements that bookkeeping for arbitrary pairs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .dso.offline import DeletionSweep, build_timeline
from .dso.static import IncrementalDso, TieDetected
from .graph import Graph
from .spt import ShortestPathTree, dijkstra, without_tree_edge


Sink = Callable[[int, int, int, Optional[int]], None]


@dataclass
class SsrpStats:
    timeline_steps: int = 0    # leaves of the sweep: one per tree edge
    emitted: int = 0
    pairs_filled: int = 0      # pairs the sweep's lazy layers filled ...
    pairs_held: int = 0        # ... against the connected pairs they held


def ssrp2(graph: Graph, s: int, sink: Sink,
          spt: Optional[ShortestPathTree] = None) -> SsrpStats:
    """Emit (d1, d2, t, distance) for every required triple from source s.

    Required triples have d1 on the tree, t in d1's subtree, and d2 on the
    replacement path pi(G - d1)(s, t); each unordered failure pair is emitted
    once.  Distances are base-channel; None marks disconnection.  ``spt`` is
    the tree of s in ``graph``, when the caller has it.
    """
    if spt is None:
        spt = dijkstra(graph, s)
    tree_edges = sorted(
        spt.parent_edge[v] for v in range(graph.n)
        if v != s and spt.dist[v] is not None
    )
    # the vertices under tree edge e are the subtree of its lower endpoint
    lower_of = {eid: spt.lower_end(graph.edges[eid]) for eid in tree_edges}

    stats = SsrpStats(timeline_steps=len(tree_edges))
    if not tree_edges:
        return stats
    seen: set[tuple[int, int, int]] = set()

    def on_leaf(k: int, dso: IncrementalDso) -> None:
        d1 = tree_edges[k]
        f = dso.forest
        for t in sorted(spt.subtree(lower_of[d1])):
            if f.dist(s, t) is None:
                continue
            for d2 in f.path_edge_ids(s, t):
                key = (min(d1, d2), max(d1, d2), t)
                if key in seen:
                    continue
                seen.add(key)
                ln, _ = dso.query_edge_failure(s, t, d2)
                sink(d1, d2, t, None if ln is None else ln.base)
                stats.emitted += 1

    off = build_timeline(DeletionSweep(graph, tree_edges), on_leaf=on_leaf)
    stats.pairs_filled, stats.pairs_held = off.demand.filled, off.demand.held
    return stats


class SsrpResolver:
    """Answer any (d1, d2, t) from the streamed triples plus 1-fault data."""

    def __init__(self, graph: Graph, s: int):
        self.graph = graph
        self.s = s
        self.spt = dijkstra(graph, s, with_lca=True)
        self.table: dict[tuple[int, int, int], Optional[int]] = {}
        self.stats = ssrp2(graph, s, self._store, self.spt)
        self._one_fault: dict[int, list] = {}

    def _store(self, d1: int, d2: int, t: int, length: Optional[int]) -> None:
        self.table[(min(d1, d2), max(d1, d2), t)] = length

    def _affects(self, eid: int, t: int) -> bool:
        """Does removing ``eid`` change pi(s, t)?  True iff it is the tree
        edge above some ancestor of t."""
        low = self.spt.lower_end(self.graph.edges[eid])
        return low is not None and self.spt.on_root_path(t, low)

    def one_fault(self, eid: int, t: int) -> Optional[int]:
        row = self._one_fault.get(eid)
        if row is None:
            tree = without_tree_edge(self.graph, self.spt, eid)
            if tree.tied:
                raise TieDetected("G - e has two shortest paths from s")
            row = self._one_fault[eid] = tree.dist
        d = row[t]
        return None if d is None else d.base

    def answer(self, d1: int, d2: int, t: int) -> Optional[int]:
        if t == self.s:
            return 0
        if self.spt.dist[t] is None:
            return None
        a1 = self._affects(d1, t)
        a2 = self._affects(d2, t)
        if not a1 and not a2:
            return self.spt.dist[t].base
        key = (min(d1, d2), max(d1, d2), t)
        if key in self.table:
            return self.table[key]
        # the streamed table misses the pair only when the second failure
        # also misses the first's replacement path
        if a1:
            return self.one_fault(d1, t)
        return self.one_fault(d2, t)