"""Output bytes pinned by sha256.

The digests were recorded before the path-assembly code of ``pathform`` and
the DSO was rewritten, so any change to these bytes shows up here.  A change
that means to alter them must say so and record the new digests.
"""
import hashlib
import itertools

import pytest

from faultpath.cli import main
from faultpath.families import detour_rich, random_connected
from faultpath.graph import dump_graph_text
from faultpath.spt import SptForest

DIGESTS = {
    "frp1": "3753fb9e9f499fb5483c93ceac27f756e7c84f3f32d4c82003e68fdc9f5ed07c",
    "frp2": "9486c0694db0d68b802c5230c035777107e0d0c638cbd07fdbfd14e13c55155a",
    "frp3": "6d77578d9348da3130cfc77d0e85acb68f30e1d4b97a38d941a72b3daebd2bf0",
    "ssrp2": "618d1b5c32fe1ab483d2abffde2280f1abf009cd684ef20cccb4d5058885e2c5",
    "dso-build": "93d44ef82a625387d215266fbdf86ed8dda4616468c5a3c3ed840ddb4c0dfdc3",
    "dso-query": "597e3ec84c00da3fe84706b10f88285879f957faddd93f6d904c5f1a5d7a35c0",
}


def _graph_file(tmp_path, g):
    p = tmp_path / "g.graph"
    p.write_text(dump_graph_text(g.n, [(e.u, e.v, e.w.base)
                                       for _, e in sorted(g.edges.items())]))
    return str(p)


def _run(tmp_path, args):
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 0
    return out.read_bytes()


def outputs(tmp_path, name):
    """The bytes that ``name`` pins."""
    if name == "ssrp2":
        gpath = _graph_file(tmp_path, random_connected(12, seed=1))
        return _run(tmp_path, ["ssrp2", "--graph", gpath, "--s", "0"])
    g = detour_rich(8, seed=0)
    gpath = _graph_file(tmp_path, g)
    st = ["--graph", gpath, "--s", "0", "--t", str(g.n - 1)]
    if name in ("frp1", "frp2"):
        return _run(tmp_path, ["frp", "--faults", name[-1], *st, "--emit-paths"])
    if name == "frp3":
        return _run(tmp_path, ["frp", "--faults", "3", *st])
    snap = tmp_path / "g.dso"
    assert main(["dso", "build", "--graph", gpath, "--out", str(snap)]) == 0
    if name == "dso-build":
        return snap.read_bytes()
    # every pair, every failed edge of its path, both orientations
    f = SptForest.build(g)
    blob = b""
    for u, v in itertools.combinations(range(g.n), 2):
        for eid in f.path_edge_ids(u, v):
            e = g.edges[eid]
            for a, b in ((u, v), (v, u)):
                blob += _run(tmp_path, ["dso", "query", "--snapshot", str(snap),
                                        "--u", str(a), "--v", str(b), "--fu", str(e.u),
                                        "--fv", str(e.v), "--emit-paths"])
    return blob


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_bytes_unchanged(tmp_path, name):
    assert hashlib.sha256(outputs(tmp_path, name)).hexdigest() == DIGESTS[name]
