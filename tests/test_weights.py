import random

from faultpath.weights import CompositeWeight, ZERO


def test_sums_and_differences_are_composite_weights():
    a, b = CompositeWeight(7, 3), CompositeWeight(2, 11)
    for got, base, tie in ((a + b, 9, 14), (a - b, 5, -8), (b - a, -5, 8)):
        assert type(got) is CompositeWeight
        assert (got.base, got.tie) == (base, tie)
        assert got == CompositeWeight(base, tie)
        assert hash(got) == hash(CompositeWeight(base, tie)) == hash((base, tie))
        assert got._asdict() == {"base": base, "tie": tie}
    assert ZERO + a == a and a + ZERO == a and a - a == ZERO
    assert type(ZERO + a) is CompositeWeight


def test_order_stays_lexicographic():
    rng = random.Random(2)
    ws = [CompositeWeight(rng.randrange(4), rng.randrange(4)) for _ in range(40)]
    sums = [a + b for a, b in zip(ws, reversed(ws))]
    assert sorted(sums) == sorted(sums, key=lambda w: (w.base, w.tie))
    for a, b in zip(ws, sums):
        assert (a < b) == ((a.base, a.tie) < (b.base, b.tie))
        assert (a == b) == ((a.base, a.tie) == (b.base, b.tie))
    assert len({a + b for a, b in zip(ws, ws)}) == len({(2 * w.base, 2 * w.tie) for w in ws})
