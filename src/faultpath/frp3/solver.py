"""Exact three-failure replacement distances for one s-t pair.

The driver enumerates exactly the required triples: the first failure on
pi(s, t), the second on the resulting replacement path, the third on the
two-failure replacement path.  Triples split by how many failures lie on the
original path:

- one: a query between the failure's terminals in the auxiliary graph with
  the second failure deleted (offline deletion sweep) and the third avoided;
- two: queries against the offline deletion sweeps of the two level graphs
  at the partition level separating them: terminal to terminal (full), and
  through the level's marker m (s -> m, m -> t); the answer is the smaller
  of the best full value and the best s -> m plus the best m -> t.  H's own
  oracle is not queried: the even sweep's leaf for the left failure is its
  level graph minus that edge, which holds all of H, so the full answer
  there is never above H's;
- three: interval-oracle candidates plus the probe-loop snake answers.

The auxiliary graph H, its oracle and its off-path matrix are the
two-failure solver's, built once.  Ties are checked on each tree where it
is built: H's in ``build_H``, each sweep's in its root build (forest and
G - e trees) and in its insertions.  A level graph itself is never searched,
since every sweep node lacks at least one of its edges.

All answers are exact base-channel lengths; None means unreachable.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..dso.offline import DeletionSweep, build_timeline
from ..dso.static import IncrementalDso
from ..frp2 import Frp2Solver
from ..graph import Graph
from .partition import BinaryPartition, level_graph, pad_to_power_of_two
from .snake import PairProbeLoop, SnakeOracles


Sink = Callable[[int, int, int, Optional[int], str], None]


@dataclass
class Frp3Stats:
    triples: int = 0
    by_case: dict = field(default_factory=lambda: {"1on": 0, "2on": 0, "3on": 0})
    loop_potentials: list = field(default_factory=list)
    loop_bounds_ok: bool = True
    pairs_filled: int = 0  # pairs the sweeps' lazy layers filled ...
    pairs_held: int = 0    # ... against the connected pairs they held


def _omin(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _oadd(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return a + b


class Frp3Solver:
    """Shared structures for one (graph, s, t) instance."""

    def __init__(self, graph: Graph, s: int, t: int, seed: int = 0):
        self.inst = pad_to_power_of_two(graph, s, t, seed)
        P = self.inst
        self.partition = BinaryPartition(P)
        self.frp2 = Frp2Solver(P.graph, P.s, P.t, seed=seed, spt=P.spt)
        self.aux = self.frp2.aux
        self.levels = {(i, parity): level_graph(self.aux, self.partition, i, parity)
                       for i in range(1, P.k + 1) for parity in (0, 1)}
        self.snakes = SnakeOracles(self.frp2.coords, P.k)
        self.stats = Frp3Stats()
        self._pad_eids = set(P.path_eids[:P.pad])

    # -- enumeration -------------------------------------------------------

    def solve(self, sink: Sink) -> Frp3Stats:
        P = self.inst
        frp1 = self.frp2.frp1
        eid_at = P.path_eids
        pos_of = self.frp2.pos_on_st

        one_on: dict[int, list] = {}
        two_on: dict[tuple, None] = {}
        three_on: dict[tuple[int, int], set] = {}
        triples: list[tuple[int, int, int, tuple, str]] = []

        for d1_pos in range(P.pad, P.hops):
            rp1 = frp1.paths[d1_pos]
            if rp1 is None:
                continue
            d1_eid = eid_at[d1_pos]
            for d2 in rp1:
                if d2 in self._pad_eids:
                    continue
                rp2 = self.frp2.rp2_path(d1_pos, d2)
                if rp2 is None:
                    continue
                d2_pos = pos_of(d2)
                for d3 in rp2:
                    if d3 in self._pad_eids:
                        continue
                    d3_pos = pos_of(d3)
                    ons = sorted(p for p in (d1_pos, d2_pos, d3_pos) if p is not None)
                    offs = [e for e, p in ((d2, d2_pos), (d3, d3_pos)) if p is None]
                    if len(ons) == 1:
                        key = ("1on", d1_pos, frozenset(offs))
                        one_on.setdefault(d2, []).append((d1_pos, d3, key))
                    elif len(ons) == 2:
                        key = ("2on", ons[0], ons[1], offs[0])
                        two_on[key] = None
                    else:
                        key = ("3on", ons[0], ons[1], ons[2])
                        three_on.setdefault((ons[0], ons[2]), set()).add(ons[1])
                    triples.append((d1_eid, d2, d3, key, key[0]))

        answers: dict = {}
        self._solve_one_on(one_on, answers)
        self._solve_two_on(list(two_on), answers)
        self._solve_three_on(three_on, answers)

        for d1_eid, d2, d3, key, kind in triples:
            self.stats.triples += 1
            self.stats.by_case[kind] += 1
            sink(d1_eid, d2, d3, answers[key], kind)
        return self.stats

    # -- pass 1: one failure on the path ------------------------------------

    def _solve_one_on(self, batches: dict[int, list], answers: dict) -> None:
        if not batches:
            return
        aux = self.aux
        deleted = sorted(batches)

        def on_leaf(k: int, dso: IncrementalDso) -> None:
            for d1_pos, d3, key in batches[deleted[k]]:
                if key in answers:
                    continue
                ln, _ = dso.query_edge_failure(
                    aux.term_minus[d1_pos], aux.term_plus[d1_pos], d3)
                answers[key] = aux.two_term_value(ln)

        self._count_demand(build_timeline(DeletionSweep(aux.graph, deleted), on_leaf=on_leaf))

    def _count_demand(self, off) -> None:
        self.stats.pairs_filled += off.demand.filled
        self.stats.pairs_held += off.demand.held

    # -- pass 2: two failures on the path ------------------------------------

    def _solve_two_on(self, keys: list[tuple], answers: dict) -> None:
        if not keys:
            return
        aux = self.aux
        P = self.inst
        runs: dict = {}      # key -> (separator vertex, [full, s->m, m->t] minima)
        level_batch: dict = {}
        for key in keys:
            _, le, re, f = key
            i, j, m_pos = self.partition.separator(le, re)
            runs[key] = (P.path_verts[m_pos], [None, None, None])
            level_batch.setdefault((i, 0), {}).setdefault(le, []).append(key)
            level_batch.setdefault((i, 1), {}).setdefault(re, []).append(key)

        for (i, parity), by_del in sorted(level_batch.items()):
            del_positions = sorted(by_del)

            def on_leaf(k: int, dso: IncrementalDso,
                        del_positions=del_positions, by_del=by_del) -> None:
                for key in by_del[del_positions[k]]:
                    _, le, re, f = key
                    m_vtx, run = runs[key]
                    dm = aux.term_minus[le]
                    dp = aux.term_plus[re]
                    full, _ = dso.query_edge_failure(dm, dp, f)
                    sm, _ = dso.query_edge_failure(dm, m_vtx, f)
                    mt, _ = dso.query_edge_failure(m_vtx, dp, f)
                    run[0] = _omin(run[0], aux.two_term_value(full))
                    run[1] = _omin(run[1], aux.one_term_value(sm))
                    run[2] = _omin(run[2], aux.one_term_value(mt))

            sweep = DeletionSweep(self.levels[(i, parity)],
                                  [P.path_eids[p] for p in del_positions])
            self._count_demand(build_timeline(sweep, on_leaf=on_leaf))

        for key in keys:
            full, sm, mt = runs[key][1]
            answers[key] = _omin(full, _oadd(sm, mt))

    # -- pass 3: all three on the path ---------------------------------------

    def _solve_three_on(self, groups: dict[tuple[int, int], set], answers: dict) -> None:
        P = self.inst
        L = P.hops
        for (le, re), mids in sorted(groups.items()):
            t1 = self.snakes.a.query("l", "r", (0, le), (re + 1, L))
            loop = PairProbeLoop(self.snakes, le, re)
            self.stats.loop_potentials.append(loop.potentials())
            if not loop.stage_bound_ok():
                self.stats.loop_bounds_ok = False
            for mid in sorted(mids):
                t2 = self.snakes.b.query("r", le, (le + 1, mid), (re + 1, L))
                t3 = self.snakes.b.query("r", le, (mid + 1, re), (re + 1, L))
                snake = loop.answer(mid)
                ans = None if t1 is None else t1[0].base
                ans = _omin(ans, None if t2 is None else t2[0].base)
                ans = _omin(ans, None if t3 is None else t3[0].base)
                ans = _omin(ans, snake)
                answers[("3on", le, mid, re)] = ans


def solve_3frp(graph: Graph, s: int, t: int, sink: Sink, seed: int = 0) -> Frp3Stats:
    """Stream every required (d1, d2, d3) answer for the pair (s, t)."""
    return Frp3Solver(graph, s, t, seed=seed).solve(sink)
