"""Seeded graph families used by tests, the verify suites, and benchmarks."""
from __future__ import annotations

import random

from .graph import Graph, SizeError, perturb_and_verify


def random_connected(n: int, seed: int, extra: int | None = None,
                     wmax: int = 40) -> Graph:
    """Random spanning tree plus ``extra`` chords, weights in [1, wmax]."""
    if n < 0:
        raise SizeError(f"the random family needs n >= 0, got {n}")
    rng = random.Random(f"family-random:{n}:{seed}")
    edges: list[tuple[int, int, int]] = []
    present: set[tuple[int, int]] = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, rng.randint(1, wmax)))
        present.add((u, v))
    if extra is None:
        extra = n
    tries = 0
    while extra > 0 and tries < 40 * n:
        tries += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in present:
            continue
        present.add(key)
        edges.append((key[0], key[1], rng.randint(1, wmax)))
        extra -= 1
    return perturb_and_verify(n, edges, seed)


def detour_rich(n: int, seed: int) -> Graph:
    """Path 0..n-1 strictly shortest, with chords giving cheap detours.

    Every path edge has a finite replacement, the s-t path has n-1 edges, and
    most replacement paths reuse long stretches of the original path, so the
    required (d1, d2, d3) triple count grows cubically.
    """
    if n < 5:
        raise SizeError(f"the detour family needs n >= 5, got {n}")
    rng = random.Random(f"family-detour:{n}:{seed}")
    edges = [(i, i + 1, 100) for i in range(n - 1)]
    for i in range(n - 2):
        edges.append((i, i + 2, 205 + rng.randint(0, 20)))
    chords: set[tuple[int, int]] = set()
    for _ in range(max(2, n // 8)):
        i = rng.randrange(n - 4)
        j = min(n - 1, i + rng.randint(3, 6))
        w = 100 * (j - i) + rng.randint(8, 60)
        if (i, j) not in chords:  # graph files allow no parallel edges
            chords.add((i, j))
            edges.append((i, j, w))
    return perturb_and_verify(n, edges, seed)


def cycle(n: int, seed: int = 0, w: int = 1) -> Graph:
    edges = [(i, (i + 1) % n, w) for i in range(n)]
    return perturb_and_verify(n, edges, seed)


def path(n: int, weights=None, seed: int = 0) -> Graph:
    if weights is None:
        weights = [1] * (n - 1)
    edges = [(i, i + 1, weights[i]) for i in range(n - 1)]
    return perturb_and_verify(n, edges, seed)


CHORDS_C8 = [(0, 3, 2), (1, 5, 3), (2, 6, 2), (4, 7, 3)]


def fixed_c8_family() -> list[Graph]:
    """All 16 members of the fixed n=8 family: C8 plus chord subsets."""
    out = []
    for mask in range(1 << len(CHORDS_C8)):
        edges = [(i, (i + 1) % 8, 3) for i in range(8)]
        for k, chord in enumerate(CHORDS_C8):
            if (mask >> k) & 1:
                edges.append(chord)
        out.append(perturb_and_verify(8, edges, seed=mask))
    return out


CHORDS_P12 = [(0, 2, 3), (1, 4, 5), (3, 7, 6), (6, 9, 4), (8, 11, 5)]


def fixed_p12_family() -> list[Graph]:
    """Path on 12 vertices plus chord subsets; used for exhaustive structure checks."""
    out = []
    for mask in range(1 << len(CHORDS_P12)):
        edges = [(i, i + 1, 2) for i in range(11)]
        for k, (a, b, w) in enumerate(CHORDS_P12):
            if (mask >> k) & 1:
                edges.append((a, b, 2 * (b - a) + w))
        out.append(perturb_and_verify(12, edges, seed=100 + mask))
    return out
