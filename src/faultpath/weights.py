"""Exact composite edge weights with a tie-breaking channel.

A weight is a pair (base, tie) of non-negative integers.  Addition and
subtraction are componentwise, comparison lexicographic, so the base
channel always wins and the tie channel only decides between paths of
equal base length.
Tie values are drawn pseudo-randomly so that no two distinct paths ever
compare equal; this is verified per graph, not assumed (see
``faultpath.graph.perturb_and_verify``).

``None`` stands for "no path" (+infinity) throughout the package.
"""
from __future__ import annotations

from typing import NamedTuple


class CompositeWeight(NamedTuple):
    """Lexicographically ordered (base, tie) weight."""

    base: int
    tie: int

    def __add__(self, other: "CompositeWeight") -> "CompositeWeight":  # type: ignore[override]
        return CompositeWeight(self.base + other.base, self.tie + other.tie)

    def __sub__(self, other: "CompositeWeight") -> "CompositeWeight":
        return CompositeWeight(self.base - other.base, self.tie - other.tie)


W = CompositeWeight

ZERO = W(0, 0)

# Sums must stay representable in the 64-bit snapshot format.
MAX_BASE_SUM = 2**62
