"""The traced benchmark run must work on the CLI workloads.

``perfbench/trace.py`` wraps the program's layers by name and runs a CLI
command in-process.  These tests run it as the benchmark does, on a small
input, and check the three things its traced round relies on: exit 0, the
same output bytes as an untraced run, and every range-tree insertion seen
as an ``insert_edge`` call (the benchmark compares that count with the sum
of ``OfflineDso.node_stats``).  On frp3 it also checks that each of the
three passes is timed: the trace tells the sweeps apart by identity, so
``Frp3Solver.aux.graph`` and ``Frp3Solver.levels`` must be the very graphs
the sweeps start from.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from faultpath.families import detour_rich
from faultpath.graph import dump_graph_text

ROOT = Path(__file__).resolve().parent.parent
TRACE = ROOT / "perfbench" / "trace.py"


@pytest.mark.parametrize("cmd", [["frp", "--faults", "3", "--s", "0", "--t", "7"],
                                 ["ssrp2", "--s", "0"]], ids=["frp3", "ssrp2"])
def test_traced_run_counts_every_range_tree_insertion(tmp_path, cmd):
    g = detour_rich(8, 0)
    gpath = tmp_path / "g.graph"
    gpath.write_text(dump_graph_text(g.n, [(e.u, e.v, e.w.base)
                                           for _, e in sorted(g.edges.items())]))
    args = ["-m", "faultpath", *cmd, "--graph", str(gpath), "--seed", "0"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    plain = subprocess.run([sys.executable, *args, "--out", str(tmp_path / "plain")],
                           env=env, capture_output=True, text=True)
    assert plain.returncode == 0, plain.stderr
    traced = subprocess.run([sys.executable, str(TRACE), "--trace-out", str(tmp_path / "t.json"),
                             "--", *args, "--out", str(tmp_path / "traced")],
                            env=env, capture_output=True, text=True)
    assert traced.returncode == 0, traced.stderr
    assert (tmp_path / "traced").read_bytes() == (tmp_path / "plain").read_bytes()
    report = json.loads((tmp_path / "t.json").read_text())
    assert report["calls"].get("dso.insert", 0) > 0 and report["calls"].get("offline", 0) > 0
    counts = report["counts"]
    assert counts["dso.insert.in_offline"] == counts["offline.insertions"] > 0
    if cmd[0] == "frp":
        for group in ("frp3.pass_1on", "frp3.pass_2on", "frp3.pass_3on"):
            assert report["total"].get(group, 0) > 0, group
