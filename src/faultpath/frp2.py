"""Replacement paths between a fixed pair under one or two edge failures.

The auxiliary graph H drops every edge of pi(s, t) and adds, per failed path
edge d, two terminals wired to the path prefix and suffix with weights
shifted by a large constant N.  A single-failure query between d's terminals
then reads off two-failure distances with one failure on the path.  Pairs
with both failures on the path are answered by a dynamic program over the
interval between them, swept in both traversal orders, from two hookup
tables alone: U (leave the path before the first failure, re-enter it at a)
and U' (leave the path at b, re-enter it after the second failure).  The
graph is undirected, so U' is U on the mirrored path, read from t back to s.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .dso.static import IncrementalDso, TieDetected
from .graph import Disconnected, Graph, TIE_RANGE
from .spt import ShortestPathTree, SptForest, dijkstra, without_tree_edge
from .weights import CompositeWeight as W


@dataclass
class Frp1Result:
    """Single-failure answers for every edge of pi(s, t)."""

    path_eids: list[int]
    lengths: list[Optional[W]]          # per path position
    paths: list[Optional[list[int]]]    # edge id lists
    union_edges: set[int]               # edges of all replacement paths


def frp1_all(graph: Graph, s: int, t: int,
             spt: Optional[ShortestPathTree] = None) -> Frp1Result:
    """Delete each edge of pi(s, t) in turn and search again below it.

    ``spt`` is the tree of s in ``graph`` when the caller already has it.
    A tied G - e tree raises TieDetected, since its path would not be unique.
    """
    if spt is None:
        spt = dijkstra(graph, s)
    if spt.dist[t] is None:
        raise Disconnected(f"{s} and {t} are disconnected")
    pe = spt.path_edges(t)
    lengths: list[Optional[W]] = []
    paths: list[Optional[list[int]]] = []
    union: set[int] = set()
    for eid in pe:
        tree = without_tree_edge(graph, spt, eid)
        if tree.tied:
            raise TieDetected("G - e has two shortest paths from s")
        if tree.dist[t] is None:
            lengths.append(None)
            paths.append(None)
            continue
        lengths.append(tree.dist[t])
        p = tree.path_edges(t)
        paths.append(p)
        union.update(p)
    return Frp1Result(pe, lengths, paths, union)


def path_prefix(graph: Graph, path_eids: list[int]) -> list[W]:
    """pre[i]: length of the path's first i edges."""
    pre = [W(0, 0)]
    for eid in path_eids:
        pre.append(pre[-1] + graph.edges[eid].w)
    return pre


class PathCoords:
    """Prefix sums and off-path distances over a path's positions.

    ``pre[i]`` is the length of the path's first i edges and ``dist[i][j]``
    the distance between positions i and j in G - pi(s, t) (None when it
    disconnects them).
    """

    def __init__(self, pre: list[W], dist: list[list[Optional[W]]]):
        self.pre = pre
        self.dist = dist
        self.L = len(pre) - 1

    def walk(self, i: int, j: int) -> W:
        a, b = (i, j) if i <= j else (j, i)
        return self.pre[b] - self.pre[a]

    def off(self, i: int, j: int) -> Optional[W]:
        return self.dist[i][j]


def mirror_coords(coords: PathCoords) -> PathCoords:
    """The same path read from t back to s: position i becomes L - i."""
    L = coords.L
    top = coords.pre[L]
    return PathCoords([top - coords.pre[L - i] for i in range(L + 1)],
                      [row[::-1] for row in reversed(coords.dist)])


def hookups(c: PathCoords) -> list[list[Optional[tuple[W, int]]]]:
    """Row l, column a > l: the best (pre[w] + off(w, a), w) over w <= l.

    This is U: leave the path at w <= l and rejoin it at a, the first w
    winning ties; one running minimum over w builds every row.  U' is U on
    the mirrored path: U'[r][b] is row L - 1 - r, column L - b, witness
    z = L - w, the best off(b, z) + pre[L] - pre[z] over z > r (the largest
    z on ties).
    """
    run: list[Optional[tuple[W, int]]] = [None] * (c.L + 1)
    rows = []
    for w in range(c.L):
        for a in range(w + 1, c.L + 1):
            d = c.off(w, a)
            if d is not None:
                cand = c.pre[w] + d
                if run[a] is None or cand < run[a][0]:
                    run[a] = (cand, w)
        rows.append(run[:])
    return rows


# ---------------------------------------------------------------------------
# the auxiliary graph H
# ---------------------------------------------------------------------------

@dataclass
class AuxGraphH:
    """G minus pi(s, t) plus per-failure terminals with prefix/suffix stars.

    Base edges keep their ids inside H; path-edge ids are reserved (absent
    from H itself, used by the level graphs that re-add path ranges).  Star
    edge ids start above every base id.  ``forest`` holds H's all-sources
    trees, none of them tied.
    """

    base: Graph
    path_verts: list[int]
    path_eids: list[int]
    graph: Graph
    n_big: int
    term_minus: list[int]
    term_plus: list[int]
    star_info: dict[int, tuple[str, int]]  # star eid -> (side, path pos of x')
    forest: SptForest

    def two_term_value(self, length: Optional[W]) -> Optional[int]:
        """Base answer of a terminal-to-terminal H distance.

        A genuine answer uses exactly two star edges and is < 3N; anything
        >= 3N chains through further terminals and means "no real path".
        """
        if length is None or length.base >= 3 * self.n_big:
            return None
        return length.base - 2 * self.n_big

    def one_term_value(self, length: Optional[W]) -> Optional[int]:
        """Base answer of a terminal-to-base-vertex H distance (one star)."""
        if length is None or length.base >= 2 * self.n_big:
            return None
        return length.base - self.n_big

    def expand_h_edges(self, h_eids: list[int]) -> list[int]:
        """Base-graph edge ids of an H path: stars become path prefixes/suffixes."""
        out: list[int] = []
        for eid in h_eids:
            info = self.star_info.get(eid)
            if info is None:
                out.append(eid)
                continue
            side, ppos = info
            if side == "-":
                out.extend(self.path_eids[:ppos])
            else:
                out.extend(self.path_eids[ppos:])
        return out


def build_H(graph: Graph, path_verts: list[int], path_eids: list[int],
            seed: int = 0) -> AuxGraphH:
    """Construct H with verified-unique shortest paths (star ties redrawn on demand)."""
    n = graph.n
    h_edges = len(path_eids)
    n_big = graph.base_weight_sum() + 1
    path_set = set(path_eids)
    pre = path_prefix(graph, path_eids)
    total = pre[-1]

    for attempt in range(8):
        rng = random.Random(f"faultpath-H:{seed + attempt}")
        h = Graph(n + 2 * h_edges)
        for eid in sorted(graph.edges):
            if eid in path_set:
                continue
            e = graph.edges[eid]
            h.add_edge(e.u, e.v, e.w, eid=eid)
        star_start = (max(graph.edges) + 1) if graph.edges else 0
        h._next_eid = max(h._next_eid, star_start)
        term_minus = []
        term_plus = []
        star_info: dict[int, tuple[str, int]] = {}
        for k in range(h_edges):
            dm = n + 2 * k
            dp = n + 2 * k + 1
            term_minus.append(dm)
            term_plus.append(dp)
            for ppos in range(k + 1):
                w = W(pre[ppos].base + n_big, rng.randrange(1, TIE_RANGE))
                star_info[h.add_edge(dm, path_verts[ppos], w)] = ("-", ppos)
            for ppos in range(k + 1, h_edges + 1):
                wsuf = W(total.base - pre[ppos].base + n_big, rng.randrange(1, TIE_RANGE))
                star_info[h.add_edge(dp, path_verts[ppos], wsuf)] = ("+", ppos)
        forest = SptForest.build(h)
        if not any(tree.tied for tree in forest.spts):
            return AuxGraphH(graph, path_verts, path_eids, h, n_big,
                             term_minus, term_plus, star_info, forest)
    raise RuntimeError("could not draw tie-free star weights for H")


def frp2_one_on_path(h_dso: IncrementalDso, aux: AuxGraphH, d1_pos: int,
                     d2_eid: int, want_path: bool = False):
    """|pi(s,t)| avoiding {path edge d1, off-path edge d2}, via H terminals."""
    dm = aux.term_minus[d1_pos]
    dp = aux.term_plus[d1_pos]
    length, path = h_dso.query_edge_failure(dm, dp, d2_eid, want_path=want_path)
    base = aux.two_term_value(length)
    if base is None or not want_path:
        return base, None
    return base, aux.expand_h_edges(path)


# ---------------------------------------------------------------------------
# both failures on the path: the two-order interval sweep
# ---------------------------------------------------------------------------

class OffPathMatrix:
    """Distances (and paths) between path vertices in G minus pi(s, t).

    Read off H's trees: every star edge costs at least N, more than any
    simple path of G, so an H distance below N between base vertices is the
    G - pi(s, t) distance, over the same edges.  Anything else crosses a
    terminal and stands for a pair that G - pi(s, t) disconnects (None).
    """

    def __init__(self, aux: AuxGraphH):
        self.path_verts = aux.path_verts
        self._trees = [aux.forest.spts[v] for v in aux.path_verts]
        self.dist: list[list[Optional[W]]] = []
        for tree in self._trees:
            row = [tree.dist[w] for w in aux.path_verts]
            self.dist.append([d if d is not None and d.base < aux.n_big else None
                              for d in row])

    def d(self, i: int, j: int) -> Optional[W]:
        return self.dist[i][j]

    def path(self, i: int, j: int) -> list[int]:
        """Edge ids of the off-path route from position i to position j."""
        return self._trees[i].path_edges(self.path_verts[j])


@dataclass
class BothOnAnswer:
    base: Optional[int]
    winner: Optional[tuple[int, int, int, int]] = None  # (w, a, b, z)


class Frp2Solver:
    """All two-failure s-t answers for one graph, built lazily per part."""

    def __init__(self, graph: Graph, s: int, t: int, seed: int = 0,
                 spt: Optional[ShortestPathTree] = None):
        """``spt`` is the tree of s in ``graph`` when the caller already has it."""
        self.graph = graph
        self.s = s
        self.t = t
        self.seed = seed
        if spt is None:
            spt = dijkstra(graph, s)
        if spt.dist[t] is None:
            raise Disconnected(f"{s} and {t} are disconnected")
        self.path_verts = spt.path_vertices(t)
        self.path_eids = spt.path_edges(t)
        self._spt = spt
        self.dist_st: W = spt.dist[t]
        self.pos_of_eid = {eid: k for k, eid in enumerate(self.path_eids)}
        self.pre = path_prefix(graph, self.path_eids)
        self._rp_sets: dict[int, frozenset] = {}
        self._both: dict[tuple[int, int], BothOnAnswer] = {}

    # -- cached parts ------------------------------------------------------

    @cached_property
    def frp1(self) -> Frp1Result:
        return frp1_all(self.graph, self.s, self.t, self._spt)

    @cached_property
    def aux(self) -> AuxGraphH:
        return build_H(self.graph, self.path_verts, self.path_eids, seed=self.seed)

    @cached_property
    def h_dso(self) -> IncrementalDso:
        # the answers read a few of H's pairs; each is filled on its first read
        return IncrementalDso.on_demand(self.aux.graph, seed=self.seed,
                                        forest=self.aux.forest)

    @cached_property
    def matrix(self) -> OffPathMatrix:
        return OffPathMatrix(self.aux)

    @cached_property
    def coords(self) -> tuple[PathCoords, PathCoords]:
        """The path's coordinates, and the same path read from t back to s."""
        c = PathCoords(self.pre, self.matrix.dist)
        return c, mirror_coords(c)

    # -- both failures on the path -------------------------------------------

    @cached_property
    def hookup_tables(self) -> tuple[list, list]:
        """``hookups`` on the path (U) and on the mirrored path (U')."""
        c, mirror = self.coords
        return hookups(c), hookups(mirror)

    def both_on_path(self, l: int, r: int) -> BothOnAnswer:
        """Exact answer for failures at path positions l < r, swept once.

        The route leaves at w <= l, rejoins the middle at a, walks to b and
        leaves at b for z > r; a = b = z when it skips the middle.  Its
        length is read off U and U' and compared in full, so base-equal
        routes are decided by the graph's own ties.  The winner is (w, a, b, z).
        """
        ans = self._both.get((l, r))
        if ans is not None:
            return ans
        assert l < r
        L, pre = len(self.path_eids), self.pre
        # U row for l: diverge at w <= l, re-enter at a; U' row for r, read
        # mirrored: leave at b, re-enter at z = L - w > r
        u, u_mirror = self.hookup_tables
        u_row, up_row = u[l], u_mirror[L - 1 - r]
        best: Optional[W] = None
        winner = None
        for z in range(r + 1, L + 1):
            hook = u_row[z]
            if hook is not None:
                tot = hook[0] + (pre[L] - pre[z])
                if best is None or tot < best:
                    best, winner = tot, (hook[1], z, z, z)
        # converge at a >= b and walk down to b, then at a <= b and walk up
        for order in (range(r, l, -1), range(l + 1, r + 1)):
            prev: Optional[tuple[W, int, int]] = None  # best (leg, w, a) at b_prev
            for b in order:
                cand = None
                if u_row[b] is not None:
                    cand = (u_row[b][0], u_row[b][1], b)
                if prev is not None:
                    lo = min(b, b_prev)
                    stepped = (prev[0] + (pre[lo + 1] - pre[lo]), prev[1], prev[2])
                    if cand is None or stepped[0] < cand[0]:
                        cand = stepped
                prev, b_prev = cand, b
                up = up_row[L - b]
                if cand is not None and up is not None:
                    tot = cand[0] + up[0]
                    if best is None or tot < best:
                        best, winner = tot, (cand[1], cand[2], b, L - up[1])
        ans = self._both[(l, r)] = BothOnAnswer(None if best is None else best.base, winner)
        return ans

    # -- public answers ------------------------------------------------------

    def pos_on_st(self, eid: int) -> Optional[int]:
        return self.pos_of_eid.get(eid)

    def answer_pair(self, f1: int, f2: int) -> Optional[int]:
        """|pi(s,t)| in the graph minus {f1, f2}, base channel."""
        p1 = self.pos_on_st(f1)
        p2 = self.pos_on_st(f2)
        if p1 is None and p2 is None:
            return self.dist_st.base
        if p1 is not None and p2 is not None:
            if p1 == p2:
                ln = self.frp1.lengths[p1]
                return None if ln is None else ln.base
            l, r = min(p1, p2), max(p1, p2)
            return self.both_on_path(l, r).base
        pos, off = (p1, f2) if p1 is not None else (p2, f1)
        rp = self.frp1.paths[pos]
        if rp is None:
            return None
        rps = self._rp_sets.get(pos)
        if rps is None:
            rps = frozenset(rp)
            self._rp_sets[pos] = rps
        if off not in rps:
            return self.frp1.lengths[pos].base
        base, _ = frp2_one_on_path(self.h_dso, self.aux, pos, off)
        return base

    def rp2_path(self, d1_pos: int, d2_eid: int) -> Optional[list[int]]:
        """Edge ids of pi(s,t) avoiding {path edge at d1_pos, d2_eid}."""
        p2 = self.pos_on_st(d2_eid)
        if p2 is None:
            rp = self.frp1.paths[d1_pos]
            if rp is None or d2_eid not in rp:
                return rp
            _, path = frp2_one_on_path(self.h_dso, self.aux, d1_pos, d2_eid,
                                       want_path=True)
            return path
        if p2 == d1_pos:
            return self.frp1.paths[d1_pos]
        ans = self.both_on_path(min(d1_pos, p2), max(d1_pos, p2))
        if ans.base is None:
            return None
        w, a, b, z = ans.winner
        m = self.matrix
        return (self.path_eids[:w] + m.path(w, a) + self.path_eids[min(a, b):max(a, b)]
                + m.path(b, z) + self.path_eids[z:])


def iter_required_pairs(solver: Frp2Solver) -> Iterator[tuple[int, int]]:
    for d1_pos in range(len(solver.path_eids)):
        rp = solver.frp1.paths[d1_pos]
        if rp is None:
            continue
        for d2 in rp:
            yield solver.path_eids[d1_pos], d2

