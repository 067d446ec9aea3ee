"""Offline fully-dynamic oracle over a known update timeline.

A binary range tree over timesteps holds, at each node, the intersection of
all graphs in its interval; the root oracle is built from scratch and every
child derives from its parent by edge insertions only.  Leaves answer the
per-timestep queries.  Traversal is depth-first with one working clone per
level, so at most a root-to-leaf chain of oracles is ever alive in batched
mode.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..graph import Graph, TieSource
from ..weights import CompositeWeight as W
from .incremental import insert_edge
from .static import IncrementalDso


class InvalidDelete(ValueError):
    """Deletion of an edge that is not present at that timestep."""


class TimeOutOfRange(ValueError):
    """Query timestep outside [0, T]."""


@dataclass
class Timeline:
    """Initial graph plus an ordered update list.

    Updates are ``("+", u, v, w_base)`` insertions or ``("-", eid)``
    deletions; reinserted endpoints get a fresh edge id and tie value.
    """

    graph0: Graph
    updates: list = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.updates)


class OfflineDso:
    """Per-timestep oracles produced by the range-tree build."""

    def __init__(self, timeline: Timeline, edge_specs, masks, leaves,
                 peak_live: int, node_stats):
        self.timeline = timeline
        self.edge_specs = edge_specs
        self.masks = masks
        self.leaves = leaves
        self.peak_live = peak_live
        self.node_stats = node_stats

    @property
    def steps(self) -> int:
        return len(self.masks) - 1

    def graph_at(self, t: int) -> Graph:
        return _graph_for_mask(self.timeline.graph0.n, self.edge_specs, self.masks[t])

    def query_at(self, t: int, u: int, v: int, eid: int, want_path: bool = False):
        """Distance u -> v at timestep t avoiding edge ``eid``."""
        if not (0 <= t < len(self.masks)):
            raise TimeOutOfRange(f"t={t} outside [0, {len(self.masks) - 1}]")
        if self.leaves is None or self.leaves[t] is None:
            raise RuntimeError("leaf oracles were not kept; use batched mode")
        return self.leaves[t].query_edge_failure(u, v, eid, want_path=want_path)


def _graph_for_mask(n: int, edge_specs, mask: int) -> Graph:
    g = Graph(n)
    for eid in sorted(edge_specs):
        if (mask >> eid) & 1:
            u, v, w = edge_specs[eid]
            g.add_edge(u, v, w, eid=eid)
    return g


def build_timeline(timeline: Timeline, seed: int = 0,
                   on_leaf: Optional[Callable[[int, IncrementalDso], None]] = None,
                   keep_leaves: Optional[bool] = None) -> OfflineDso:
    """Materialise the range tree and visit every timestep's oracle.

    ``on_leaf(t, dso)`` is called per timestep in order (batched mode); when
    ``keep_leaves`` the per-step oracles are retained for ``query_at``.  By
    default leaves are kept only when no callback is given.
    """
    if keep_leaves is None:
        keep_leaves = on_leaf is None
    g0 = timeline.graph0
    ties = TieSource(seed + 4242)

    edge_specs: dict[int, tuple[int, int, W]] = {
        eid: (e.u, e.v, e.w) for eid, e in g0.edges.items()
    }
    next_eid = max(edge_specs, default=-1) + 1
    mask = 0
    for eid in edge_specs:
        mask |= 1 << eid
    masks = [mask]
    for t, upd in enumerate(timeline.updates):
        if upd[0] == "+":
            _, u, v, w_base = upd
            eid = next_eid
            next_eid += 1
            edge_specs[eid] = (u, v, W(w_base, ties.next()))
            mask |= 1 << eid
        elif upd[0] == "-":
            _, eid = upd
            if not (mask >> eid) & 1:
                raise InvalidDelete(f"step {t}: edge {eid} not present")
            mask &= ~(1 << eid)
        else:
            raise ValueError(f"unknown update {upd!r}")
        masks.append(mask)

    T = len(masks) - 1
    leaves: Optional[list] = [None] * (T + 1) if keep_leaves else None
    live = 1
    peak = 1
    node_stats: list[tuple[int, int, int]] = []

    def interval_mask(lo: int, hi: int) -> int:
        m = masks[lo]
        for t in range(lo + 1, hi + 1):
            m &= masks[t]
        return m

    root_mask = interval_mask(0, T)
    root = IncrementalDso.build(_graph_for_mask(g0.n, edge_specs, root_mask), seed)

    def grow(dso: IncrementalDso, from_mask: int, to_mask: int) -> int:
        added = to_mask & ~from_mask
        count = 0
        eid = 0
        while added:
            if added & 1:
                u, v, w = edge_specs[eid]
                insert_edge(dso, u, v, w.base, tie=w.tie, eid=eid)
                count += 1
            added >>= 1
            eid += 1
        return count

    def descend(dso: IncrementalDso, node_mask: int, lo: int, hi: int) -> None:
        nonlocal live, peak
        if lo == hi:
            if on_leaf is not None:
                on_leaf(lo, dso)
            if keep_leaves:
                leaves[lo] = dso
            return
        mid = (lo + hi) // 2
        left_mask = interval_mask(lo, mid)
        right_mask = interval_mask(mid + 1, hi)
        # left child works on a clone so the parent survives for the right
        clone = _clone(dso)
        live += 1
        peak = max(peak, live)
        node_stats.append((lo, mid, grow(clone, node_mask, left_mask)))
        descend(clone, left_mask, lo, mid)
        live -= 1
        node_stats.append((mid + 1, hi, grow(dso, node_mask, right_mask)))
        descend(dso, right_mask, mid + 1, hi)

    descend(root, root_mask, 0, T)
    return OfflineDso(timeline, edge_specs, masks, leaves, peak, node_stats)


def _clone(dso: IncrementalDso) -> IncrementalDso:
    # shallow: the clone shares trees and sub-tables with its parent, which
    # is safe because insert_edge never mutates either; it replaces the
    # forest and the table, reusing unchanged trees and sub-tables as they are
    return IncrementalDso(dso.graph, dso.forest, dso.table, dso.ties)


class CycleTimeline:
    """Delete-then-restore schedule over a list of edges.

    Each listed edge is removed for exactly one timestep; restoring assigns a
    fresh id, so ``current_id`` translates an original edge id to the id it
    carries at a given leaf.
    """

    def __init__(self, graph: Graph, eids: list[int]):
        self.eids = list(eids)
        self.index = {eid: k for k, eid in enumerate(self.eids)}
        self.base_next = max(graph.edges) + 1 if graph.edges else 0
        self.timeline = Timeline(graph)
        for eid in self.eids:
            e = graph.edges[eid]
            self.timeline.updates.append(("-", eid))
            self.timeline.updates.append(("+", e.u, e.v, e.w.base))

    def leaf_step(self, k: int) -> int:
        return 2 * k + 1

    def deleted_at(self, t: int) -> Optional[int]:
        """Original id of the edge missing at odd timestep t."""
        if t <= 0 or t % 2 == 0:
            return None
        return self.eids[(t - 1) // 2]

    def current_id(self, eid: int, k: int) -> int:
        """Id of ``eid`` at the leaf where the k-th listed edge is deleted."""
        j = self.index.get(eid)
        if j is not None and j < k:
            return self.base_next + j
        return eid
