import struct
import tracemalloc

import pytest

from faultpath.dso.incremental import insert_edge
from faultpath.dso.snapshot import FORMAT, MAGIC, SnapshotError, load_dso, save_dso
from faultpath.dso.static import IncrementalDso
from faultpath.families import random_connected
from faultpath.pathform import ProperForm
from faultpath.reference import dist_avoiding


@pytest.mark.parametrize("inserts", [[], [(0, 9, 3), (2, 11, 5)]],
                         ids=["built", "grown"])
def test_round_trip_preserves_answers(tmp_path, inserts):
    g = random_connected(14, seed=4)
    dso = IncrementalDso.build(g, seed=1)
    for x, y, w in inserts:
        insert_edge(dso, x, y, w)
    g = dso.graph
    p = tmp_path / "d.dso"
    save_dso(dso, str(p))
    loaded = load_dso(str(p))
    assert loaded.table == dso.table
    f = loaded.forest
    for u in range(0, g.n, 2):
        for v in range(u + 1, g.n):
            if f.dist(u, v) is None:
                continue
            for eid in f.path_edge_ids(u, v):
                a, _ = loaded.query_edge_failure(u, v, eid)
                assert a == dist_avoiding(g, u, v, [eid])


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "x.dso"
    p.write_bytes(b"NOTADSO")
    with pytest.raises(SnapshotError):
        load_dso(str(p))


def test_corrupt_length_detected(tmp_path):
    g = random_connected(10, seed=2)
    dso = IncrementalDso.build(g, seed=1)
    p = tmp_path / "d.dso"
    save_dso(dso, str(p))
    blob = bytearray(p.read_bytes())
    # flip a byte near the end (inside some entry's stored length)
    blob[-3] ^= 0xFF
    p.write_bytes(bytes(blob))
    with pytest.raises(SnapshotError):
        load_dso(str(p))


@pytest.mark.parametrize("tail", [b"", struct.pack("<I", 10**6)],
                         ids=["header-only", "pairs-missing"])
def test_truncated_snapshot_rejected_before_building_trees(tmp_path, tail):
    # a 2000-vertex graph whose pair table is absent or far shorter than its
    # count: building its trees first would take seconds and hundreds of MB
    p = tmp_path / "d.dso"
    p.write_bytes(MAGIC + struct.pack("<HIiI", FORMAT, 2000, 0, 0) + tail)
    tracemalloc.start()
    try:
        with pytest.raises(SnapshotError, match="truncated snapshot"):
            load_dso(str(p))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_entry_crossing_its_interval_rejected(tmp_path):
    g = random_connected(12, seed=3)
    dso = IncrementalDso.build(g, seed=1)
    # the whole-path entry of (0, 1) replaced by pi(0, 1) itself: the length
    # re-derives, but the walk uses every edge of the interval it must avoid
    f = dso.forest
    dso.table[(0, 1)][(0, 0)] = ProperForm(0, 1, None, 1, 1, f.dist(0, 1))
    p = tmp_path / "d.dso"
    save_dso(dso, str(p))
    with pytest.raises(SnapshotError, match="crosses its interval"):
        load_dso(str(p))


class _Rows(list):
    """A table or sub-table that ``save_dso`` writes with repeated keys."""

    def items(self):
        return iter(self)


def _saved(tmp_path, dso):
    p = tmp_path / "d.dso"
    save_dso(dso, str(p))
    return str(p)


def test_missing_anchor_rejected(tmp_path):
    g = random_connected(12, seed=3)
    dso = IncrementalDso.build(g, seed=1)
    # without the check this loads and answers None where the truth is 55
    del dso.table[(0, 1)][(0, 0)]
    with pytest.raises(SnapshotError, match=r"pair \(0, 1\) misses an anchor"):
        load_dso(_saved(tmp_path, dso))


def test_missing_pair_rejected(tmp_path):
    g = random_connected(12, seed=3)
    dso = IncrementalDso.build(g, seed=1)
    del dso.table[(0, 1)]
    with pytest.raises(SnapshotError, match=r"misses pair \(0, 1\)"):
        load_dso(_saved(tmp_path, dso))


def test_repeated_pair_rejected(tmp_path):
    g = random_connected(12, seed=3)
    dso = IncrementalDso.build(g, seed=1)
    rows = list(dso.table.items())
    dso.table = _Rows(rows + rows[:1])
    with pytest.raises(SnapshotError, match="repeated"):
        load_dso(_saved(tmp_path, dso))


def test_repeated_anchor_rejected(tmp_path):
    g = random_connected(12, seed=3)
    dso = IncrementalDso.build(g, seed=1)
    entries = list(dso.table[(0, 1)].items())
    dso.table[(0, 1)] = _Rows(entries + entries[:1])
    with pytest.raises(SnapshotError, match=r"anchor \(0, 0\) of pair \(0, 1\) repeated"):
        load_dso(_saved(tmp_path, dso))
