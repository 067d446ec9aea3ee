"""Offline fully-dynamic oracle over a known sequence of graphs.

A binary range tree over the leaves holds, at each node, the intersection of
all leaf graphs in its interval; the root oracle is a static one and every
child derives from its parent by edge insertions only.  Each leaf's oracle
is handed to a callback in leaf order and then dropped.  Traversal is
depth-first with one working clone per level, so at most a root-to-leaf
chain of oracles is ever alive.

The reduction knows every query before it builds anything, and a node's
table serves only the leaves below it.  So the root's static table fills
each pair on its first read (``IncrementalDso.on_demand``; its forest is
built and tie-checked at once), and the insertions that make a node
spanning at most two leaves are lazy layers (``insert_edge`` with this
build's ``Demand`` counter): trees are updated at once, but each pair's
sub-table is filled on its first read, from the layer below it.  Larger
nodes, whose pairs the leaves mostly read anyway, are filled at insertion,
and an insertion into the root's table completes it first.  The left clone
and the parent share that table, and completion stores its pairs there, so
no root pair is filled twice.  A sweep of at most four leaves has no larger
node, and its root fills only the pairs its leaves read.  A leaf's lowest
ancestor that is no lazy layer (an eager node, or the root) spans at most
five leaves and each lazy layer above the leaf restores one edge that
ancestor lacks, so at most four lazy layers are alive above a leaf: a
two-leaf right child of a five-leaf node takes three insertions, and its
leaves one more.  ``OfflineDso.demand`` counts the pairs the lazy layers
filled against the pairs they held.

The one range-tree routine, ``build_timeline``, takes the leaves as edge-id
masks over one table of edge specs, and two schedules produce them:

- a ``Timeline`` (``dso offline``): one leaf per timestep 0..T of an update
  list, where an insertion gets a fresh edge id and a fresh tie value;
- a ``DeletionSweep`` (the ssrp2 and frp3 solvers): leaf k is the graph
  minus its k-th listed edge, with every other edge's own id and tie, so
  node [lo, hi] holds the graph minus edges lo..hi and no tie is drawn.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..graph import Edge, Graph, GraphFormatError, TieSource
from ..weights import CompositeWeight as W
from .incremental import insert_edge
from .static import Demand, IncrementalDso


class InvalidDelete(GraphFormatError):
    """Deletion of an edge that is not present at that timestep."""


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

    def leaf_masks(self, seed: int):
        """Edges by id and one mask per timestep; insertions draw their ties
        from the seed."""
        ties = TieSource(seed + 4242)
        edge_specs = dict(self.graph0.edges)
        next_eid = max(edge_specs, default=-1) + 1
        mask = sum(1 << eid for eid in edge_specs)
        masks = [mask]
        for t, upd in enumerate(self.updates):
            if upd[0] == "+":
                _, u, v, w_base = upd
                eid = next_eid
                next_eid += 1
                edge_specs[eid] = Edge(u, v, W(w_base, ties.next()), eid)
                mask |= 1 << eid
            elif upd[0] == "-":
                _, eid = upd
                if not (mask >> eid) & 1:
                    raise InvalidDelete(f"step {t}: edge {eid} not present")
                mask &= ~(1 << eid)
            else:
                raise ValueError(f"unknown update {upd!r}")
            masks.append(mask)
        return edge_specs, masks


@dataclass
class DeletionSweep:
    """Leaf k is ``graph0`` minus ``eids[k]``; every other edge keeps its id
    and tie."""

    graph0: Graph
    eids: list

    def leaf_masks(self, seed: int = 0):
        """Edges by id and one mask per listed edge; ``seed`` is unused, since
        a sweep draws no ties."""
        edges = self.graph0.edges
        full = sum(1 << eid for eid in edges)
        for eid in self.eids:
            if eid not in edges:
                raise InvalidDelete(f"edge {eid} not present")
        return edges, [full & ~(1 << eid) for eid in self.eids]


class OfflineDso:
    """What the range-tree build leaves behind: the leaf graphs as masks,
    the per-node insertion counts, the peak number of live oracles and the
    pairs its lazy layers filled against the pairs they held."""

    def __init__(self, timeline: Timeline | DeletionSweep, edge_specs, masks,
                 peak_live: int, node_stats, demand: Demand):
        self.timeline = timeline
        self.edge_specs = edge_specs
        self.masks = masks
        self.peak_live = peak_live
        self.node_stats = node_stats
        self.demand = demand

    @property
    def steps(self) -> int:
        return len(self.masks) - 1

    def graph_at(self, t: int) -> Graph:
        return _graph_for_mask(self.timeline.graph0.n, self.edge_specs, self.masks[t])


def _graph_for_mask(n: int, edge_specs, mask: int) -> Graph:
    g = Graph(n)
    for eid in sorted(edge_specs):
        if (mask >> eid) & 1:
            e = edge_specs[eid]
            g.add_edge(e.u, e.v, e.w, eid=eid)
    return g


def build_timeline(timeline: Timeline | DeletionSweep, seed: int = 0, *,
                   on_leaf: Callable[[int, IncrementalDso], None]) -> OfflineDso:
    """Materialise the range tree over the leaves of ``timeline`` and call
    ``on_leaf(t, dso)`` for every leaf t in order."""
    g0 = timeline.graph0
    edge_specs, masks = timeline.leaf_masks(seed)

    T = len(masks) - 1
    live = 1
    peak = 1
    node_stats: list[tuple[int, int, int]] = []
    demand = Demand()

    def interval_mask(lo: int, hi: int) -> int:
        m = masks[lo]
        for t in range(lo + 1, hi + 1):
            m &= masks[t]
        return m

    root_mask = interval_mask(0, T)
    root = IncrementalDso.on_demand(_graph_for_mask(g0.n, edge_specs, root_mask), seed)

    def grow(dso: IncrementalDso, from_mask: int, to_mask: int, lo: int, hi: int) -> int:
        added = to_mask & ~from_mask
        # a node spanning at most two leaves gets lazy layers
        lazy = demand if hi - lo < 2 else None
        count = 0
        eid = 0
        while added:
            if added & 1:
                e = edge_specs[eid]
                insert_edge(dso, e.u, e.v, e.w.base, tie=e.w.tie, eid=eid, demand=lazy)
                count += 1
            added >>= 1
            eid += 1
        return count

    def descend(dso: IncrementalDso, node_mask: int, lo: int, hi: int) -> None:
        nonlocal live, peak
        if lo == hi:
            on_leaf(lo, dso)
            return
        mid = (lo + hi) // 2
        left_mask = interval_mask(lo, mid)
        right_mask = interval_mask(mid + 1, hi)
        # left child works on a clone so the parent survives for the right
        clone = _clone(dso)
        live += 1
        peak = max(peak, live)
        node_stats.append((lo, mid, grow(clone, node_mask, left_mask, lo, mid)))
        descend(clone, left_mask, lo, mid)
        live -= 1
        node_stats.append((mid + 1, hi, grow(dso, node_mask, right_mask, mid + 1, hi)))
        descend(dso, right_mask, mid + 1, hi)

    descend(root, root_mask, 0, T)
    return OfflineDso(timeline, edge_specs, masks, peak, node_stats, demand)


def _clone(dso: IncrementalDso) -> IncrementalDso:
    # shallow: the clone shares trees and sub-tables with its parent, which
    # is safe because insert_edge never mutates either; it replaces the
    # forest and the table, reusing unchanged trees and sub-tables as they are.
    # Lazy fills do write into shared tables, which is safe too: each fill is
    # a pure function of the frozen old structure, so every reader of a
    # table gets the same sub-table whoever filled it first
    return IncrementalDso(dso.graph, dso.forest, dso.table, dso.ties)

