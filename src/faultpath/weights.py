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

# Sums are built straight from a tuple: the namedtuple constructor's keyword
# handling costs more than the two integer additions, and the sums run in
# every inner loop.
_new = tuple.__new__


class CompositeWeight(NamedTuple):
    """Lexicographically ordered (base, tie) weight."""

    base: int
    tie: int

    def __add__(self, other: "CompositeWeight") -> "CompositeWeight":  # type: ignore[override]
        return _new(CompositeWeight, (self[0] + other[0], self[1] + other[1]))

    def __sub__(self, other: "CompositeWeight") -> "CompositeWeight":
        return _new(CompositeWeight, (self[0] - other[0], self[1] - other[1]))


W = CompositeWeight

ZERO = W(0, 0)

# Sums must stay representable in the 64-bit snapshot format.
MAX_BASE_SUM = 2**62
