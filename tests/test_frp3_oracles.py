import random

import pytest

from faultpath.families import detour_rich, random_connected
from faultpath.frp2 import Frp2Solver
from faultpath.frp3.oracles import DisjointnessViolated, decompose
from faultpath.frp3.partition import pad_to_power_of_two
from faultpath.frp3.snake import SnakeOracles


def make(n=18, seed=3, family=random_connected):
    g = family(n, seed=seed)
    inst = pad_to_power_of_two(g, 0, n - 1, seed=seed)
    sol = Frp2Solver(inst.graph, inst.s, inst.t, spt=inst.spt)
    snakes = SnakeOracles(sol.coords, inst.k)
    return g, inst, sol.matrix, snakes.a.c, snakes.a, snakes.b, snakes.mirror.b


def brute_a(coords, sig, tau, iv1, iv2):
    lo1, hi1 = iv1
    lo2, hi2 = iv2
    anchor1 = lo1 if sig == "l" else hi1
    anchor2 = lo2 if tau == "l" else hi2
    best = None
    for x in range(lo1, hi1 + 1):
        for y in range(lo2, hi2 + 1):
            d = coords.off(x, y)
            if d is None:
                continue
            tot = coords.walk(anchor1, x) + d + coords.walk(y, anchor2)
            if best is None or tot < best:
                best = tot
    return best


def brute_b(coords, sig, d1, iv1, iv2):
    lo1, hi1 = iv1
    lo2, hi2 = iv2
    anchor2 = lo2 if sig == "l" else hi2
    best = None
    for x in range(0, d1 + 1):
        for y1 in range(lo1, hi1 + 1):
            d_in = coords.off(x, y1)
            if d_in is None:
                continue
            for y2 in range(lo1, hi1 + 1):
                for z in range(lo2, hi2 + 1):
                    d_out = coords.off(y2, z)
                    if d_out is None:
                        continue
                    tot = (coords.walk(0, x) + d_in + coords.walk(y1, y2)
                           + d_out + coords.walk(z, anchor2))
                    if best is None or tot < best:
                        best = tot
    return best


def brute_b_mirror(coords, sig, d3, ivj, ivend):
    L = coords.L
    loj, hij = ivj
    loe, hie = ivend
    anchor = loe if sig == "l" else hie
    best = None
    for y in range(loe, hie + 1):
        d_first = None
        for z1 in range(loj, hij + 1):
            d1v = coords.off(y, z1)
            if d1v is None:
                continue
            for z2 in range(loj, hij + 1):
                for q in range(d3 + 1, L + 1):
                    d2v = coords.off(z2, q)
                    if d2v is None:
                        continue
                    tot = (coords.walk(anchor, y) + d1v + coords.walk(z1, z2)
                           + d2v + coords.walk(q, L))
                    if best is None or tot < best:
                        best = tot
    return best


def test_decompose_covers_exactly():
    k = 4
    for lo in range(0, 17):
        for hi in range(lo, 17):
            items = decompose(lo, hi, k)
            verts = set()
            for it in items:
                if it[0] == "v":
                    verts.add(it[1])
                else:
                    verts.update(range(it[1], it[2] + 2))
            assert verts == set(range(lo, hi + 1))
            # edge coverage is disjoint
            edges = []
            for it in items:
                if it[0] == "r":
                    edges.extend(range(it[1], it[2] + 1))
            assert sorted(edges) == list(range(lo, hi)) if lo < hi else edges == []


def test_oracle_a_single_vertices():
    g, inst, matrix, coords, oa, ob, obm = make()
    L = inst.hops
    for x in range(0, L + 1, 3):
        for y in range(0, L + 1, 3):
            if x == y:
                continue
            got = oa.query("l", "l", (x, x), (y, y))
            want = coords.off(x, y)
            if want is None:
                assert got is None
            else:
                assert got[0] == want and got[1] == (x, y)


def test_oracle_a_random_intervals_vs_brute():
    for family, seed in ((random_connected, 3), (detour_rich, 1)):
        g, inst, matrix, coords, oa, ob, obm = make(14, seed, family)
        L = inst.hops
        rng = random.Random(7)
        checked = 0
        for _ in range(250):
            lo1 = rng.randrange(L + 1)
            hi1 = rng.randrange(lo1, L + 1)
            lo2 = rng.randrange(L + 1)
            hi2 = rng.randrange(lo2, L + 1)
            if max(lo1, lo2) <= min(hi1, hi2):
                continue
            sig = rng.choice("lr")
            tau = rng.choice("lr")
            got = oa.query(sig, tau, (lo1, hi1), (lo2, hi2))
            want = brute_a(coords, sig, tau, (lo1, hi1), (lo2, hi2))
            if want is None:
                assert got is None
            else:
                assert got is not None and got[0] == want
                # witness re-derives the value
                x, y = got[1]
                a1 = lo1 if sig == "l" else hi1
                a2 = lo2 if tau == "l" else hi2
                assert (coords.walk(a1, x) + coords.off(x, y)
                        + coords.walk(y, a2)) == want
            checked += 1
        assert checked > 60


def test_oracle_a_rejects_overlap():
    g, inst, matrix, coords, oa, ob, obm = make()
    with pytest.raises(DisjointnessViolated):
        oa.query("l", "l", (0, 4), (4, 6))


def test_oracle_b_base_case_two_a_queries():
    g, inst, matrix, coords, oa, ob, obm = make(16, seed=5, family=detour_rich)
    L = inst.hops
    rng = random.Random(1)
    for _ in range(60):
        d1 = rng.randrange(0, L - 2)
        w = rng.randrange(d1 + 1, L)
        lo2 = rng.randrange(d1 + 1, L + 1)
        hi2 = rng.randrange(lo2, L + 1)
        if lo2 <= w <= hi2:
            continue
        got = ob.query("l", d1, (w, w), (lo2, hi2))
        want = brute_b(coords, "l", d1, (w, w), (lo2, hi2))
        if want is None:
            assert got is None
        else:
            assert got is not None and got[0] == want


def test_oracle_b_random_vs_brute():
    g, inst, matrix, coords, oa, ob, obm = make(14, seed=9, family=detour_rich)
    L = inst.hops
    rng = random.Random(4)
    checked = 0
    for _ in range(150):
        d1 = rng.randrange(0, L - 2)
        lo1 = rng.randrange(d1 + 1, L + 1)
        hi1 = rng.randrange(lo1, min(lo1 + 6, L + 1))
        lo2 = rng.randrange(d1 + 1, L + 1)
        hi2 = rng.randrange(lo2, min(lo2 + 6, L + 1))
        if max(lo1, lo2) <= min(hi1, hi2):
            continue
        sig = rng.choice("lr")
        got = ob.query(sig, d1, (lo1, hi1), (lo2, hi2))
        want = brute_b(coords, sig, d1, (lo1, hi1), (lo2, hi2))
        if want is None:
            assert got is None
        else:
            assert got is not None and got[0] == want
            x, y1, y2, z = got[1]
            assert 0 <= x <= d1 and lo1 <= y1 <= hi1 and lo1 <= y2 <= hi1
            assert lo2 <= z <= hi2
            # witness re-derives the value
            anchor = lo2 if sig == "l" else hi2
            assert (coords.walk(0, x) + coords.off(x, y1) + coords.walk(y1, y2)
                    + coords.off(y2, z) + coords.walk(z, anchor)) == want
        checked += 1
    assert checked > 60


def test_mirror_b_vs_brute():
    g, inst, matrix, coords, oa, ob, obm = make(14, seed=11, family=detour_rich)
    L = inst.hops
    rng = random.Random(6)
    checked = 0
    for _ in range(120):
        d3 = rng.randrange(2, L)
        hij = rng.randrange(0, d3)
        loj = rng.randrange(0, hij + 1)
        hie = rng.randrange(0, d3)
        loe = rng.randrange(0, hie + 1)
        if max(loj, loe) <= min(hij, hie):
            continue
        sig = rng.choice("lr")
        # oracle B on the mirrored path: position i is L - i there
        got = obm.query("r" if sig == "l" else "l", L - 1 - d3,
                        (L - hij, L - loj), (L - hie, L - loe))
        want = brute_b_mirror(coords, sig, d3, (loj, hij), (loe, hie))
        if want is None:
            assert got is None
        else:
            assert got is not None and got[0].base == want.base
        checked += 1
    assert checked > 30
