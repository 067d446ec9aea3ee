"""Dijkstra, shortest path trees, and constant-time LCA machinery.

Every tree is rooted at its Dijkstra source and covers exactly the reachable
component.  LCA uses an Euler tour plus sparse table (O(1) query); level
ancestors use binary lifting (O(log n) query).  Both are optional because
plain distance runs do not need them.

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

from .graph import Graph
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
        "_children", "_euler", "_first", "_edepth", "_sparse", "_log", "_lift",
    )

    def __init__(self, source: int, dist, parent, parent_edge, depth, tied: bool):
        self.source = source
        self.dist: list[Optional[W]] = dist
        self.parent: list[int] = parent
        self.parent_edge: list[Optional[int]] = parent_edge
        self.depth: list[int] = depth
        self.tied = tied
        self._children = None
        self._euler = None
        self._first = None
        self._edepth = None
        self._sparse = None
        self._log = None
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

    # -- LCA / level ancestor -------------------------------------------

    def build_lca(self) -> None:
        if self._euler is not None:
            return
        n = len(self.dist)
        children = self.children()

        euler: list[int] = []
        edepth: list[int] = []
        first = [-1] * n
        # iterative DFS keeping the Euler tour
        stack: list[tuple[int, int]] = [(self.source, 0)]
        while stack:
            v, ci = stack.pop()
            if ci == 0:
                first[v] = len(euler)
            euler.append(v)
            edepth.append(self.depth[v])
            if ci < len(children[v]):
                stack.append((v, ci + 1))
                stack.append((children[v][ci], 0))

        m = len(euler)
        log = [0] * (m + 1)
        for i in range(2, m + 1):
            log[i] = log[i >> 1] + 1
        sparse = [list(range(m))]
        k = 1
        while (1 << k) <= m:
            prev = sparse[k - 1]
            half = 1 << (k - 1)
            row = [0] * (m - (1 << k) + 1)
            for i in range(len(row)):
                a, b = prev[i], prev[i + half]
                row[i] = a if edepth[a] <= edepth[b] else b
            sparse.append(row)
            k += 1

        self._euler, self._first, self._edepth = euler, first, edepth
        self._sparse, self._log = sparse, log

        # binary lifting for level ancestors; roots lift to themselves
        maxk = max(1, max(edepth).bit_length())
        base = [self.parent[v] if self.parent[v] >= 0 else v for v in range(n)]
        lift = [base]
        for k in range(1, maxk):
            prev = lift[k - 1]
            lift.append([prev[prev[v]] for v in range(n)])
        self._lift = lift

    def lca(self, a: int, b: int) -> int:
        l, r = self._first[a], self._first[b]
        if l > r:
            l, r = r, l
        k = self._log[r - l + 1]
        x = self._sparse[k][l]
        y = self._sparse[k][r - (1 << k) + 1]
        return self._euler[x] if self._edepth[x] <= self._edepth[y] else self._euler[y]

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
    if e is None:
        return tree
    parent_edge = tree.parent_edge
    if parent_edge[e.v] == eid:
        low = e.v
    elif parent_edge[e.u] == eid:
        low = e.u
    else:
        return tree
    children = tree.children()
    sub = [low]
    for z in sub:
        sub.extend(children[z])

    dist = list(tree.dist)
    parent = list(tree.parent)
    parent_edge = list(parent_edge)
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
    vertex on pi(u, v), positions along it, and vertices at given positions,
    all in O(1)-ish time.
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
        """Is z a vertex of pi(u, v)?  Exact under unique shortest paths."""
        du = self.spts[u].dist
        if du[v] is None or du[z] is None:
            return False
        dz = self.spts[z].dist[v]
        if dz is None:
            return False
        s = du[z] + dz
        return s == du[v]

    def path_pos(self, u: int, v: int, z: int) -> int:
        """Position (hops from u) of z on pi(u, v); z must be on the path."""
        return self.spts[u].depth[z]

    def vertex_at(self, u: int, v: int, pos: int) -> int:
        """The vertex at ``pos`` hops from u along pi(u, v)."""
        return self.spts[u].ancestor_at_depth(v, pos)

    def edge_at(self, u: int, v: int, pos: int) -> int:
        """Edge id at position ``pos`` (between pos and pos+1) on pi(u, v)."""
        child = self.spts[u].ancestor_at_depth(v, pos + 1)
        return self.spts[u].parent_edge[child]  # type: ignore[return-value]

    def edge_pos(self, u: int, v: int, eid: int) -> Optional[int]:
        """Position of edge ``eid`` on pi(u, v), or None if off the path."""
        e = self.graph.edges[eid]
        if not (self.on_path(u, v, e.u) and self.on_path(u, v, e.v)):
            return None
        lo, hi = sorted((self.path_pos(u, v, e.u), self.path_pos(u, v, e.v)))
        if hi - lo != 1 or self.edge_at(u, v, lo) != eid:
            return None
        return lo

    def path_vertices(self, u: int, v: int) -> list[int]:
        return self.spts[u].path_vertices(v)

    def path_edge_ids(self, u: int, v: int) -> list[int]:
        return self.spts[u].path_edges(v)
