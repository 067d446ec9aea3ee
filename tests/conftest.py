import pytest

from faultpath.families import random_connected
from faultpath.pathform import seg_edge


def edge_walk(g, start, eids):
    """The segment list of the walk from ``start`` along ``eids``, one edge
    segment per edge."""
    segs = []
    for eid in eids:
        e = g.edges[eid]
        segs.append(seg_edge(eid, start, e.other(start), e.w))
        start = e.other(start)
    return segs


@pytest.fixture
def g_small():
    return random_connected(12, seed=3)


@pytest.fixture
def g_mid():
    return random_connected(20, seed=11)
