"""Replacement paths between a fixed pair under one or two edge failures.

The auxiliary graph H drops every edge of pi(s, t) and adds, per failed path
edge d, two terminals wired to the path prefix and suffix with weights
shifted by a large constant N.  A single-failure query between d's terminals
then reads off two-failure distances in the base graph.  Pairs with both
failures on the path are handled by a dynamic program over the interval
between them, swept in both traversal orders.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from .dso.static import IncrementalDso
from .graph import Disconnected, Graph, TIE_RANGE
from .spt import ShortestPathTree, SptForest, dijkstra, without_tree_edge
from .weights import CompositeWeight as W


@dataclass
class Frp1Result:
    """Single-failure answers for every edge of pi(s, t)."""

    path_verts: list[int]
    path_eids: list[int]
    lengths: list[Optional[W]]          # per path position
    paths: list[Optional[list[int]]]    # edge id lists
    union_edges: set[int]               # edges of all replacement paths

    @property
    def hops(self) -> int:
        return len(self.path_eids)


def frp1_all(graph: Graph, s: int, t: int,
             spt: Optional[ShortestPathTree] = None) -> Frp1Result:
    """Delete each edge of pi(s, t) in turn and search again below it.

    ``spt`` is the tree of s in ``graph`` when the caller already has it.
    """
    if spt is None:
        spt = dijkstra(graph, s)
    if spt.dist[t] is None:
        raise Disconnected(f"{s} and {t} are disconnected")
    pv = spt.path_vertices(t)
    pe = spt.path_edges(t)
    lengths: list[Optional[W]] = []
    paths: list[Optional[list[int]]] = []
    union: set[int] = set()
    for eid in pe:
        tree = without_tree_edge(graph, spt, eid)
        if tree.dist[t] is None:
            lengths.append(None)
            paths.append(None)
            continue
        lengths.append(tree.dist[t])
        p = tree.path_edges(t)
        paths.append(p)
        union.update(p)
    return Frp1Result(pv, pe, lengths, paths, union)


def path_prefix(graph: Graph, path_eids: list[int]) -> list[W]:
    """pre[i]: length of the path's first i edges."""
    pre = [W(0, 0)]
    for eid in path_eids:
        pre.append(pre[-1] + graph.edges[eid].w)
    return pre


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
    star_info: dict[int, tuple[str, int, int]]  # star eid -> (side, pos k, path pos of x')
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
            side, _, ppos = info
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
        star_info: dict[int, tuple[str, int, int]] = {}
        for k in range(h_edges):
            dm = n + 2 * k
            dp = n + 2 * k + 1
            term_minus.append(dm)
            term_plus.append(dp)
            for ppos in range(k + 1):
                w = W(pre[ppos].base + n_big, rng.randrange(1, TIE_RANGE))
                star_info[h.add_edge(dm, path_verts[ppos], w)] = ("-", k, ppos)
            for ppos in range(k + 1, h_edges + 1):
                wsuf = W(total.base - pre[ppos].base + n_big, rng.randrange(1, TIE_RANGE))
                star_info[h.add_edge(dp, path_verts[ppos], wsuf)] = ("+", k, ppos)
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
    winner: Optional[tuple] = None  # reconstruction witness


class Frp2Solver:
    """All two-failure s-t answers for one graph, built lazily per part."""

    def __init__(self, graph: Graph, s: int, t: int, seed: int = 0,
                 aux: Optional[AuxGraphH] = None):
        self.graph = graph
        self.s = s
        self.t = t
        self.seed = seed
        spt = dijkstra(graph, s)
        if spt.dist[t] is None:
            raise Disconnected(f"{s} and {t} are disconnected")
        self.path_verts = spt.path_vertices(t)
        self.path_eids = spt.path_edges(t)
        self._aux = aux
        self._spt = spt
        self.dist_st: W = spt.dist[t]
        self.pos_of_eid = {eid: k for k, eid in enumerate(self.path_eids)}
        self.pre = path_prefix(graph, self.path_eids)
        self._frp1: Optional[Frp1Result] = None
        self._h_dso: Optional[IncrementalDso] = None
        self._matrix: Optional[OffPathMatrix] = None
        self._uprime: Optional[list] = None
        self._u_rows: dict[int, list] = {}
        self._rp_sets: dict[int, frozenset] = {}

    # -- cached parts ------------------------------------------------------

    @property
    def frp1(self) -> Frp1Result:
        if self._frp1 is None:
            self._frp1 = frp1_all(self.graph, self.s, self.t, self._spt)
        return self._frp1

    @property
    def aux(self) -> AuxGraphH:
        if self._aux is None:
            self._aux = build_H(self.graph, self.path_verts, self.path_eids,
                                seed=self.seed)
        return self._aux

    @property
    def h_dso(self) -> IncrementalDso:
        if self._h_dso is None:
            self._h_dso = IncrementalDso.build(self.aux.graph, seed=self.seed,
                                               forest=self.aux.forest)
        return self._h_dso

    @property
    def matrix(self) -> OffPathMatrix:
        if self._matrix is None:
            self._matrix = OffPathMatrix(self.aux)
        return self._matrix

    def _term_dist(self, d1_pos: int) -> list[Optional[W]]:
        """H distances from d1's minus-terminal to everything."""
        return self.aux.forest.spts[self.aux.term_minus[d1_pos]].dist

    # -- the U / U' / W machinery -------------------------------------------

    def _u_prime(self) -> list:
        """U'[r][b]: best suffix hookup for d2 at r, leaving the path at b <= r."""
        if self._uprime is not None:
            return self._uprime
        h = len(self.path_eids)
        m = self.matrix
        total = self.pre[h]
        run: list[Optional[tuple[W, int]]] = [None] * (h + 1)
        rows: list[Optional[list]] = [None] * h
        for r in range(h - 1, -1, -1):
            z = r + 1
            tail = total - self.pre[z]
            for b in range(0, r + 1):
                mz = m.d(b, z)
                if mz is not None:
                    cand = (mz + tail, z)
                    if run[b] is None or cand[0] < run[b][0]:
                        run[b] = cand
            rows[r] = [run[b] for b in range(0, r + 1)]
        self._uprime = rows
        return rows

    def both_on_path(self, l: int, r: int) -> BothOnAnswer:
        """Exact answer for failures at path positions l < r."""
        assert l < r
        h = len(self.path_eids)
        m = self.matrix
        # direct H value: avoid the whole middle interval
        td = self._term_dist(l)
        hv = self.aux.two_term_value(td[self.aux.term_plus[r]])
        best: Optional[int] = None
        winner: Optional[tuple] = None
        if hv is not None:
            best = hv
            winner = ("H", l, r)
        # U row for this l: diverge at w <= l, re-enter at a
        u_row = self._u_rows.get(l)
        if u_row is None:
            u_row = [None] * (h + 1)
            for a in range(l + 1, h + 1):
                bw: Optional[tuple[W, int]] = None
                for w in range(0, l + 1):
                    mwa = m.d(w, a)
                    if mwa is None:
                        continue
                    cand = self.pre[w] + mwa
                    if bw is None or cand < bw[0]:
                        bw = (cand, w)
                u_row[a] = bw
            self._u_rows[l] = u_row
        up = self._u_prime()[r]

        def edge_w(pos: int) -> W:
            return self.graph.edges[self.path_eids[pos]].w

        # backward order: converge at a >= b, walk down to b, leave at b;
        # forward order: converge at a <= b, walk up to b, leave at b
        for kind, order in (("rev", range(r, l, -1)), ("fwd", range(l + 1, r + 1))):
            prev: Optional[tuple[W, int, int]] = None  # best (leg, w, a) at b_prev
            for b in order:
                cand = None
                if u_row[b] is not None:
                    cand = (u_row[b][0], u_row[b][1], b)
                if prev is not None:
                    stepped = (prev[0] + edge_w(min(b, b_prev)), prev[1], prev[2])
                    if cand is None or stepped[0] < cand[0]:
                        cand = stepped
                prev, b_prev = cand, b
                if cand is not None and up[b] is not None:
                    tot = (cand[0] + up[b][0]).base
                    if best is None or tot < best:
                        best = tot
                        winner = (kind, l, r, cand[1], cand[2], b, up[b][1])
        return BothOnAnswer(best, winner)

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
        l, r = min(d1_pos, p2), max(d1_pos, p2)
        ans = self.both_on_path(l, r)
        if ans.base is None:
            return None
        return self._expand_both_winner(ans.winner)

    def _expand_both_winner(self, winner: tuple) -> list[int]:
        kind = winner[0]
        m = self.matrix
        if kind == "H":
            l, r = winner[1], winner[2]
            td_tree = self.aux.forest.spts[self.aux.term_minus[l]]
            hpath = td_tree.path_edges(self.aux.term_plus[r])
            return self.aux.expand_h_edges(hpath)
        _, l, r, w, a, b, z = winner
        out = list(self.path_eids[:w])
        out.extend(m.path(w, a))
        lo, hi = min(a, b), max(a, b)
        out.extend(self.path_eids[lo:hi])
        out.extend(m.path(b, z))
        out.extend(self.path_eids[z:])
        return out


def iter_required_pairs(solver: Frp2Solver) -> Iterator[tuple[int, int]]:
    for d1_pos in range(len(solver.path_eids)):
        rp = solver.frp1.paths[d1_pos]
        if rp is None:
            continue
        for d2 in rp:
            yield solver.path_eids[d1_pos], d2

