"""Dijkstra, shortest path trees, and their ancestor index.

Every tree is rooted at its Dijkstra source and covers exactly the reachable
component.  One binary-lifting table answers level ancestors and LCA, each
in O(log n); it is optional because plain distance runs do not need it.
Every tree-edge question (is e a tree edge, which end hangs below it, which
vertices sit below it) is read off ``lower_end`` and ``subtree``.

``without_tree_edge`` gives the tree of the same source in G - e for one
edge e.  Removing a tree edge can only change the vertices below it, so it
copies the tree and reruns Dijkstra on that subtree alone, seeded from the
unchanged vertices around it (the single-failure idea of Malik, Mittal and
Gupta, 1989).  Under verified unique ties the result equals a full run.

Both searches run the one settle loop ``_settle``, which also flags a tie
as it settles: every tree's ``tied`` says whether some vertex it reaches has
two shortest paths.  Uniqueness is checked by reading that flag, never by a
second pass over the edges.
"""
from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from .graph import Edge, Graph
from .weights import CompositeWeight as W


def _children_of(parent: list[int]) -> list[tuple[int, ...]]:
    """Tree children of every vertex in increasing id order.

    Tuples, so that the many leaves share the one empty tuple.
    """
    children: list[list[int]] = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p >= 0:
            children[p].append(v)
    return [tuple(c) for c in children]


class ShortestPathTree:
    """Single-source tree under the composite order.

    ``dist[v] is None`` marks unreachable vertices.  ``parent_edge[v]`` is the
    id of the tree edge into ``v``; ``depth[v]`` counts tree hops from the
    source.  ``tied`` is True when some reachable vertex has two shortest
    paths from the source, so the tree is not the unique one.
    """

    __slots__ = (
        "source", "dist", "parent", "parent_edge", "depth", "tied",
        "_children", "_lift",
    )

    def __init__(self, source: int, dist, parent, parent_edge, depth, tied: bool):
        self.source = source
        self.dist: list[Optional[W]] = dist
        self.parent: list[int] = parent
        self.parent_edge: list[Optional[int]] = parent_edge
        self.depth: list[int] = depth
        self.tied = tied
        self._children = None
        self._lift = None

    # -- structure -----------------------------------------------------

    def reachable(self, v: int) -> bool:
        return self.dist[v] is not None

    def path_vertices(self, v: int) -> list[int]:
        """Vertices of the tree path source -> v."""
        out = [v]
        while v != self.source:
            v = self.parent[v]
            out.append(v)
        out.reverse()
        return out

    def path_edges(self, v: int) -> list[int]:
        """Edge ids of the tree path source -> v, in path order."""
        out = []
        while v != self.source:
            out.append(self.parent_edge[v])
            v = self.parent[v]
        out.reverse()
        return out

    def children(self) -> list[tuple[int, ...]]:
        """``_children_of`` this tree, built on first use and kept."""
        if self._children is None:
            self._children = _children_of(self.parent)
        return self._children

    def lower_end(self, e: Edge) -> Optional[int]:
        """The endpoint of edge ``e`` that hangs below it, None when ``e`` is
        not a tree edge."""
        if self.parent_edge[e.v] == e.eid:
            return e.v
        if self.parent_edge[e.u] == e.eid:
            return e.u
        return None

    def subtree(self, v: int) -> list[int]:
        """The vertices below v, v included, in breadth-first order."""
        children = self.children()
        sub = [v]
        for z in sub:
            sub.extend(children[z])
        return sub

    # -- LCA / level ancestor -------------------------------------------

    def build_lca(self) -> None:
        """Binary lifting: row k maps each vertex to its 2^k-th ancestor;
        roots (and unreachable vertices) lift to themselves."""
        if self._lift is not None:
            return
        n = len(self.dist)
        base = [self.parent[v] if self.parent[v] >= 0 else v for v in range(n)]
        lift = [base]
        for _ in range(1, max(1, max(self.depth).bit_length())):
            prev = lift[-1]
            lift.append([prev[prev[v]] for v in range(n)])
        self._lift = lift

    def lca(self, a: int, b: int) -> int:
        """Deepest common ancestor of a and b (both reachable)."""
        depth = self.depth
        if depth[a] > depth[b]:
            a = self.ancestor_at_depth(a, depth[b])
        else:
            b = self.ancestor_at_depth(b, depth[a])
        if a == b:
            return a
        for row in reversed(self._lift):
            if row[a] != row[b]:
                a, b = row[a], row[b]
        return self._lift[0][a]

    def ancestor_at_depth(self, v: int, d: int) -> int:
        """Ancestor of v whose depth is d (d <= depth[v])."""
        steps = self.depth[v] - d
        k = 0
        while steps:
            if steps & 1:
                v = self._lift[k][v]
            steps >>= 1
            k += 1
        return v

    def on_root_path(self, v: int, z: int) -> bool:
        """True if z lies on the tree path source -> v."""
        return self.depth[z] <= self.depth[v] and self.ancestor_at_depth(v, self.depth[z]) == z

    def root_paths_share_edge(self, a: int, c_near: int, c_far: int) -> bool:
        """Edge intersection of root->a with the segment [c_near, c_far].

        ``c_near`` must be an ancestor of ``c_far``.  The segment's edges are
        shared with root->a exactly when their deepest common vertex lies
        strictly below ``c_near``.
        """
        g = self.lca(a, c_far)
        return self.depth[g] > self.depth[c_near]


def _settle(adj, heap, best, equal, dist, parent, parent_edge, depth) -> bool:
    """The one Dijkstra loop: settle everything the seeded ``heap`` reaches.

    ``dist[v] is None`` marks a vertex not settled yet; ``best[v]`` is the
    least (base, tie) key offered to it so far, and ``heap`` holds an entry
    per improving offer.  Relaxation is strict, so among equal offers the
    first wins.  ``equal`` collects each offer (v, key) that matched
    ``best[v]``; the result is whether one of them still equals the key v
    settled with.  Composite weights are positive, so that holds exactly
    when some vertex has two shortest paths: where their common end begins,
    they arrive by two edges, two offers equal to that vertex's key.
    """
    while heap:
        db, dt, u = heappop(heap)
        if dist[u] is not None:
            continue
        dist[u] = W(db, dt)
        du = depth[u] + 1
        for v, eid, wb, wt in adj[u]:
            if dist[v] is not None:
                continue
            nb = db + wb
            nt = dt + wt
            key = (nb, nt)
            cur = best[v]
            if cur is None or key < cur:
                best[v] = key
                parent[v] = u
                parent_edge[v] = eid
                depth[v] = du
                heappush(heap, (nb, nt, v))
            elif key == cur:
                equal.append((v, key))
    return any(best[v] == key for v, key in equal)


def dijkstra(graph: Graph, source: int, with_lca: bool = False) -> ShortestPathTree:
    """Exact single-source run over every edge of ``graph``."""
    n = graph.n
    dist: list[Optional[W]] = [None] * n
    parent = [-1] * n
    parent_edge: list[Optional[int]] = [None] * n
    depth = [0] * n
    best: list[Optional[tuple[int, int]]] = [None] * n
    best[source] = (0, 0)
    tied = _settle(graph.adj, [(0, 0, source)], best, [], dist, parent,
                   parent_edge, depth)
    tree = ShortestPathTree(source, dist, parent, parent_edge, depth, tied)
    if with_lca:
        tree.build_lca()
    return tree


def without_tree_edge(graph: Graph, tree: ShortestPathTree, eid: int) -> ShortestPathTree:
    """The tree of ``tree.source`` in G minus edge ``eid``.

    Equal, under unique ties, to a full ``dijkstra`` from the source on the
    graph rebuilt without ``eid`` (every other id kept), and ``tree``
    itself when ``eid`` is not one of its edges.  Only the subtree S below
    ``eid`` is searched: every vertex outside S keeps its path, each vertex
    of S is seeded with its best edge from outside S, and ``_settle`` then
    runs inside S.  Vertices of S that G - e cuts off end unreachable.
    Outside S, G - e has only paths that G has, at the same lengths, so
    ``tied`` is exact whenever ``tree`` is not tied; a tied ``tree`` gives a
    tied result.
    """
    e = graph.edges.get(eid)
    low = None if e is None else tree.lower_end(e)
    if low is None:
        return tree
    sub = tree.subtree(low)

    dist = list(tree.dist)
    parent = list(tree.parent)
    parent_edge = list(tree.parent_edge)
    depth = list(tree.depth)
    adj = graph.adj
    heap: list[tuple[int, int, int]] = []
    best: list[Optional[tuple[int, int]]] = [None] * graph.n
    equal: list[tuple[int, tuple[int, int]]] = []
    # clear S first: afterwards a None distance next to S marks a vertex of
    # S, since every neighbour of S was reachable in G
    for z in sub:
        dist[z] = None
        parent[z] = -1
        parent_edge[z] = None
        depth[z] = 0
    for z in sub:
        cur = None
        for x, xe, wb, wt in adj[z]:
            dx = dist[x]
            if dx is None or xe == eid:
                continue
            key = (dx.base + wb, dx.tie + wt)
            if cur is None or key < cur:
                cur = key
                parent[z] = x
                parent_edge[z] = xe
                depth[z] = depth[x] + 1
            elif key == cur:
                equal.append((z, key))
        if cur is not None:
            best[z] = cur
            heappush(heap, (cur[0], cur[1], z))
    tied = _settle(adj, heap, best, equal, dist, parent, parent_edge, depth)
    return ShortestPathTree(tree.source, dist, parent, parent_edge, depth,
                            tree.tied or tied)


def unique_paths_ok(graph: Graph, removal_sample: list[int]) -> bool:
    """Verify unique shortest paths on G and on G minus each sampled edge."""
    for s in range(graph.n):
        tree = dijkstra(graph, s)
        if tree.tied or any(without_tree_edge(graph, tree, eid).tied
                            for eid in removal_sample):
            return False
    return True


class SptForest:
    """All-sources shortest path trees plus pair-path helpers.

    This is the shared substrate for proper-form tests: membership of a
    vertex on pi(u, v), positions along it, and vertices at given positions.
    Each reads u's tree alone, in O(log n) time at most.
    """

    __slots__ = ("graph", "spts")

    def __init__(self, graph: Graph, spts: list[ShortestPathTree]):
        self.graph = graph
        self.spts = spts

    @classmethod
    def build(cls, graph: Graph) -> "SptForest":
        return cls(graph, [dijkstra(graph, s, with_lca=True) for s in range(graph.n)])

    def dist(self, u: int, v: int) -> Optional[W]:
        return self.spts[u].dist[v]

    def hops(self, u: int, v: int) -> Optional[int]:
        """Edge count of pi(u, v), or None if disconnected."""
        if self.spts[u].dist[v] is None:
            return None
        return self.spts[u].depth[v]

    def on_path(self, u: int, v: int, z: int) -> bool:
        """Is z a vertex of pi(u, v), the path of u's tree?"""
        tree = self.spts[u]
        return tree.dist[v] is not None and tree.on_root_path(v, z)

    def path_pos(self, u: int, v: int, z: int) -> int:
        """Position (hops from u) of z on pi(u, v); z must be on the path."""
        return self.spts[u].depth[z]

    def edge_pos(self, u: int, v: int, eid: int) -> Optional[int]:
        """Position of edge ``eid`` on pi(u, v), or None if off the path."""
        tree = self.spts[u]
        low = tree.lower_end(self.graph.edges[eid])
        if low is None or not tree.on_root_path(v, low):
            return None
        return tree.depth[low] - 1

    def path_vertices(self, u: int, v: int) -> list[int]:
        return self.spts[u].path_vertices(v)

    def path_edge_ids(self, u: int, v: int) -> list[int]:
        return self.spts[u].path_edges(v)
