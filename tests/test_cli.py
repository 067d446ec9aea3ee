import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile

import pytest

import faultpath
from faultpath.bench import bench_frp3
from faultpath.cli import main
from faultpath.dso.snapshot import load_dso
from faultpath.dso.static import IncrementalDso
from faultpath.families import detour_rich, path, random_connected
from faultpath.graph import dump_graph_text, parse_graph_text


def write_graph(tmp_path, g, name="g.graph"):
    edges = [(e.u, e.v, e.w.base) for _, e in sorted(g.edges.items())]
    p = tmp_path / name
    p.write_text(dump_graph_text(g.n, edges))
    return str(p)


def test_frp1_path_graph_all_inf(tmp_path, capsys):
    gpath = write_graph(tmp_path, path(5))
    rc = main(["frp", "--faults", "1", "--graph", gpath, "--s", "0", "--t", "4"])
    assert rc == 0
    lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert len(lines) == 4
    assert all(rec["dist"] == "inf" for rec in lines)


def test_frp2_and_determinism(tmp_path):
    g = random_connected(12, seed=2)
    gpath = write_graph(tmp_path, g)
    o1 = tmp_path / "a.ndjson"
    o2 = tmp_path / "b.ndjson"
    for o in (o1, o2):
        rc = main(["frp", "--faults", "2", "--graph", gpath, "--s", "0",
                   "--t", "11", "--seed", "5", "--out", str(o)])
        assert rc == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_frp3_cli_runs(tmp_path):
    g = random_connected(10, seed=4)
    gpath = write_graph(tmp_path, g)
    out = tmp_path / "t.ndjson"
    rc = main(["frp", "--faults", "3", "--graph", gpath, "--s", "0",
               "--t", "9", "--out", str(out)])
    assert rc == 0
    for line in out.read_text().splitlines():
        rec = json.loads(line)
        assert rec["case"] in ("1on", "2on", "3on")


TRACE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "trace.py")


@pytest.mark.parametrize("cmd", [["frp", "--faults", "3", "--t", "5"], ["ssrp2"]],
                         ids=["frp3", "ssrp2"])
def test_benchmark_tracer_finds_its_hooks(tmp_path, cmd):
    # the benchmark's tracer wraps program functions by name and fails on
    # one it cannot find; this runs it on a small input
    gpath = write_graph(tmp_path, detour_rich(6, seed=0))
    trace = tmp_path / "trace.json"
    src = os.path.join(os.path.dirname(faultpath.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, TRACE, "--trace-out", str(trace), "--", "-m", "faultpath",
         *cmd, "--graph", gpath, "--s", "0", "--out", str(tmp_path / "out.ndjson")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(trace.read_text())["calls"]
    assert calls["offline"] >= 1 and calls["dso.insert"] >= 1


IMPORT_PROBE = """
import json, sys
import faultpath.cli
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "faultpath")
at_start = loaded()
code = faultpath.cli.main(sys.argv[1:])
print(json.dumps([at_start, loaded(), code]))
"""


def test_cli_imports_only_the_modules_its_command_runs(tmp_path):
    gpath = write_graph(tmp_path, detour_rich(8, seed=0))
    src = os.path.join(os.path.dirname(faultpath.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, "frp", "--faults", "2", "--graph", gpath,
         "--s", "0", "--t", "7", "--out", str(tmp_path / "out.ndjson")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    at_start, after, code = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert at_start == ["faultpath", "faultpath.cli", "faultpath.graph", "faultpath.weights"]
    assert "faultpath.frp2" in after
    unused = ("faultpath.frp3", "faultpath.dso.offline", "faultpath.dso.incremental",
              "faultpath.dso.snapshot", "faultpath.reference", "faultpath.hardness",
              "faultpath.families", "faultpath.bench")
    assert [m for m in after if m.startswith(unused)] == []


def test_dso_build_query_snapshot_round_trip(tmp_path, capsys):
    g = random_connected(12, seed=6)
    gpath = write_graph(tmp_path, g)
    snap = tmp_path / "d.dso"
    assert main(["dso", "build", "--graph", gpath, "--out", str(snap)]) == 0
    dso = load_dso(str(snap))
    ref = IncrementalDso.build(load_graph_like(gpath))
    assert dso.table == ref.table
    f = ref.forest
    eid = f.path_edge_ids(0, 11)[0]
    e = ref.graph.edges[eid]
    rc = main(["dso", "query", "--snapshot", str(snap), "--u", "0", "--v", "11",
               "--fu", str(e.u), "--fv", str(e.v)])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    want = ref.query_edge_failure(0, 11, eid)[0]
    assert rec["dist"] == ("inf" if want is None else want.base)


def load_graph_like(path):
    from faultpath.graph import load_graph
    return load_graph(path, 0)


def test_dso_offline_cli(tmp_path, capsys):
    g = random_connected(8, seed=1)
    edges = [(e.u, e.v, e.w.base) for _, e in sorted(g.edges.items())]
    e0 = edges[0]
    text = dump_graph_text(g.n, edges)
    text += f"- {e0[0]} {e0[1]}\n"
    text += f"+ {e0[0]} {e0[1]} {e0[2]}\n"
    tl = tmp_path / "t.timeline"
    tl.write_text(text)
    q = tmp_path / "q.txt"
    q.write_text(f"q 1 0 7 {edges[1][0]} {edges[1][1]}\n")
    rc = main(["dso", "offline", "--timeline", str(tl), "--queries", str(q)])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rec["t"] == 1


def test_gen_hardness_and_family(tmp_path):
    g = random_connected(6, seed=3)
    gpath = write_graph(tmp_path, g)
    h = tmp_path / "h.graph"
    m = tmp_path / "h.map"
    assert main(["gen", "hardness", "--graph", gpath, "--out", str(h),
                 "--map", str(m)]) == 0
    mapping = json.loads(m.read_text())
    assert mapping["n_orig"] == 6
    fam = tmp_path / "f.graph"
    assert main(["gen", "family", "--family", "detour", "--n", "10",
                 "--seed", "1", "--out", str(fam)]) == 0
    assert fam.read_text().startswith("p 10")
    # this size and seed draw one chord twice; the repeat is dropped
    _, edges = parse_graph_text(fam.read_text())
    assert len({frozenset(e[:2]) for e in edges}) == len(edges)


def test_verify_suite_exits_zero(tmp_path):
    out = tmp_path / "r.ndjson"
    rc = main(["verify", "--suite", "dso", "--n", "10", "--seeds", "2",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads(out.read_text().splitlines()[-1])
    assert summary["mismatches"] == 0


def test_bench_dso_incremental_report(tmp_path):
    out = tmp_path / "b.json"
    rc = main(["bench", "--suite", "dso-incremental", "--sizes", "12,16",
               "--repeats", "2", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["suite"] == "dso-incremental"
    assert {row["n"] for row in rep["sizes"]} == {12, 16}
    assert "machine" in rep and rep["slope"] is not None
    for row in rep["sizes"]:
        assert 0 <= row["trees_kept"] <= row["trees_held"] == 2 * row["n"]
        assert 0 <= row["pairs_kept"] <= row["pairs_held"]
        assert 0 <= row["entries_kept"] <= row["entries_held"]
        assert row["pairs_held"] == 2 * row["n"] * (row["n"] - 1) // 2  # two insertions


def test_bench_dso_build_report(tmp_path):
    out = tmp_path / "b.json"
    rc = main(["bench", "--suite", "dso-build", "--sizes", "8,12", "--repeats", "2",
               "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["suite"] == "dso-build"
    assert [row["n"] for row in rep["sizes"]] == [8, 12]
    assert all(len(row["runs"]) == 2 and not row["timed_out"] for row in rep["sizes"])
    assert "machine" in rep and rep["slope"] is not None


def test_bench_frp2_report(tmp_path):
    out = tmp_path / "b.json"
    rc = main(["bench", "--suite", "frp2", "--sizes", "8,12", "--repeats", "2",
               "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["suite"] == "frp2"
    assert [row["n"] for row in rep["sizes"]] == [8, 12]
    for row in rep["sizes"]:
        assert len(row["runs"]) == 2 and not row["timed_out"]
        assert row["pairs"] > 0 and row["mismatches"] == 0
        assert row["path_mismatches"] == 0
        assert row["naive_median"] >= 0
        assert 0 < row["h_pairs_filled"] < row["h_pairs_held"]
    assert "machine" in rep and rep["slope"] is not None


def test_bench_frp3_timed_out_row_is_empty(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    rep = bench_frp3([8], seed=0, repeats=2, budget=0.05)
    assert rep["sizes"] == [{"n": 8, "runs": [], "median": None,
                             "triples": None, "timed_out": True}]
    assert rep["slope"] is None and rep["budget_per_run_s"] == 0.05
    assert list(tmp_path.iterdir()) == []


def test_bench_frp3_row_counts_lazy_pairs(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    row, = bench_frp3([8], seed=0, repeats=1, budget=None)["sizes"]
    assert row["triples"] == 211 and len(row["runs"]) == 1
    assert 0 < row["pairs_filled"] < row["pairs_held"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(shutil.which("false") is None,
                    reason="needs a 'false' executable")
def test_bench_frp3_removes_temp_files_when_pipeline_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(sys, "executable", shutil.which("false"))
    with pytest.raises(subprocess.CalledProcessError):
        bench_frp3([8], seed=0, repeats=1, budget=None)
    assert list(tmp_path.iterdir()) == []


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["frp", "--faults", "9", "--graph", "x", "--s", "0", "--t", "1"])
    assert e.value.code == 2


def test_format_error_exit_code(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("p 2 1\ne 0 5 3\n")
    rc = main(["frp", "--faults", "1", "--graph", str(bad), "--s", "0", "--t", "1"])
    assert rc == 3


@pytest.mark.parametrize("cmd", [["ssrp2", "--s", "0"],
                                 ["frp", "--faults", "3", "--s", "0", "--t", "2"]],
                         ids=["ssrp2", "frp3"])
def test_parallel_edge_is_a_format_error(tmp_path, cmd):
    gpath = tmp_path / "par.graph"
    gpath.write_text("p 4 5\ne 0 1 1\ne 0 1 2\ne 1 2 1\ne 2 3 1\ne 3 0 5\n")
    proc = subprocess.run([sys.executable, "-m", "faultpath", *cmd, "--graph", str(gpath)],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == "error: line 3: parallel edge (0, 1)\n"
    assert proc.stdout == ""


def test_io_error_exit_code(tmp_path):
    rc = main(["frp", "--faults", "1", "--graph", str(tmp_path / "nope"),
               "--s", "0", "--t", "1"])
    assert rc == 4


MALFORMED_FILES = {
    "disc": "p 4 2\ne 0 1 3\ne 2 3 4\n",
    "tri": "p 3 2\ne 0 1 3\ne 1 2 4\n",
    "frac": "p 3 2\ne 0 1 1.5\ne 1 2 4\n",
    "huge": "p 2 1\ne 0 1 9999999999999999999999\n",
    "tri_plus": "p 3 2\ne 0 1 3\ne 1 2 4\n+ 0 1 5\n",
    "tri_minus": "p 3 2\ne 0 1 3\ne 1 2 4\n- 0 1\n",
    "cyc4": "p 4 4\ne 0 1 3\ne 1 2 4\ne 2 3 5\ne 3 0 20\n",
    "neg_n": "p -1 0\n",
    "single": "p 1 0\n",
}
QUERY = ["dso", "query", "--u", "0", "--fu", "0", "--fv", "1"]
OFFLINE = ["dso", "offline", "--timeline"]
# the tri graph as a timeline has no updates, so only t = 0 exists
QUERY_FILES = {"q_vertex": "q 0 0 9 0 1\n", "q_step": "q 5 0 2 0 1\n",
               "q_ok": "q 0 0 2 0 1\n", "q_gone": "q 1 0 2 0 1\n"}
# one byte that is not UTF-8 in a graph, a timeline and a queries file
NOT_UTF8_FILES = {"graph_ff": b"p 2 1\ne 0 1 \xff\n",
                  "tri_plus_ff": b"p 3 2\ne 0 1 3\ne 1 2 4\n+ 0 2 \xff\n",
                  "q_ff": b"q 0 0 2 0 \xff\n"}


def corrupt_snapshots(data: bytes) -> dict[str, bytes]:
    """Copies of a snapshot with one field of the table overwritten: the
    first pair's v, and the x and bridge id of the first non-null entry."""
    n_edges = struct.unpack_from("<I", data, 15)[0]
    pair = 19 + 28 * n_edges + 4
    off = pair + 12
    while data[off + 8] == 0:
        off += 9
    entry = off + 9

    def put(at, value):
        return data[:at] + struct.pack("<I", value) + data[at + 4:]
    return {"bad_v": put(pair + 4, 9), "bad_x": put(entry, 77),
            "bad_bridge": put(entry + 4, 12345)}


def without_pairs(data: bytes) -> bytes:
    """A snapshot's graph with a table of zero pairs."""
    n_edges = struct.unpack_from("<I", data, 15)[0]
    return data[:19 + 28 * n_edges] + struct.pack("<I", 0)


@pytest.mark.parametrize("code,args", [
    pytest.param(2, ["frp", "--faults", "1", "--graph", "{disc}", "--s", "0", "--t", "3"],
                 id="frp1-disconnected"),
    pytest.param(2, ["frp", "--faults", "2", "--graph", "{disc}", "--s", "0", "--t", "3"],
                 id="frp2-disconnected"),
    pytest.param(2, ["frp", "--faults", "3", "--graph", "{disc}", "--s", "0", "--t", "3"],
                 id="frp3-disconnected"),
    pytest.param(2, ["frp", "--faults", "1", "--graph", "{tri}", "--s", "0", "--t", "9"],
                 id="t-out-of-range"),
    pytest.param(3, ["frp", "--faults", "1", "--graph", "{frac}", "--s", "0", "--t", "2"],
                 id="fractional-weight"),
    pytest.param(3, ["frp", "--faults", "1", "--graph", "{huge}", "--s", "0", "--t", "1"],
                 id="overflowing-weight"),
    pytest.param(3, [*QUERY, "--snapshot", "{trunc}", "--v", "2"], id="truncated-snapshot"),
    pytest.param(2, [*QUERY, "--snapshot", "{snap}", "--v", "99"], id="query-v-out-of-range"),
    pytest.param(3, [*OFFLINE, "{tri}", "--queries", "{q_vertex}"],
                 id="offline-query-vertex-out-of-range"),
    pytest.param(3, [*OFFLINE, "{tri}", "--queries", "{q_step}"],
                 id="offline-query-t-out-of-range"),
    pytest.param(3, [*OFFLINE, "{tri_plus}", "--queries", "{q_ok}"],
                 id="offline-update-parallel-edge"),
    pytest.param(3, [*OFFLINE, "{tri_minus}", "--queries", "{q_gone}"],
                 id="offline-query-absent-edge"),
    pytest.param(3, [*QUERY, "--snapshot", "{bad_v}", "--v", "2"], id="snapshot-pair-v"),
    pytest.param(3, [*QUERY, "--snapshot", "{bad_x}", "--v", "2"], id="snapshot-entry-x"),
    pytest.param(3, [*QUERY, "--snapshot", "{bad_bridge}", "--v", "2"],
                 id="snapshot-entry-bridge"),
    pytest.param(3, [*QUERY, "--snapshot", "{no_pairs}", "--v", "2"],
                 id="snapshot-without-pairs"),
    pytest.param(3, ["frp", "--faults", "1", "--graph", "{graph_ff}", "--s", "0", "--t", "1"],
                 id="graph-not-utf8"),
    pytest.param(3, [*OFFLINE, "{tri_plus_ff}", "--queries", "{q_ok}"],
                 id="timeline-not-utf8"),
    pytest.param(3, [*OFFLINE, "{tri}", "--queries", "{q_ff}"], id="queries-not-utf8"),
    pytest.param(2, ["bench", "--suite", "dso-build", "--sizes", "12,x"],
                 id="bench-size-not-integer"),
    pytest.param(2, ["bench", "--suite", "dso-build", "--sizes", "8", "--repeats", "0"],
                 id="bench-repeats-zero"),
    pytest.param(3, ["dso", "build", "--graph", "{neg_n}", "--out", "{neg_n}.dso"],
                 id="graph-negative-n"),
    pytest.param(2, ["bench", "--suite", "dso-incremental", "--sizes", "3", "--repeats", "1"],
                 id="bench-no-pair-left"),
    # sizes a generator cannot build
    pytest.param(2, ["gen", "family", "--family", "detour", "--n", "4", "--out", "{tri}.out"],
                 id="gen-detour-too-small"),
    pytest.param(2, ["gen", "family", "--family", "random", "--n", "-1", "--out", "{tri}.out"],
                 id="gen-random-negative"),
    pytest.param(2, ["bench", "--suite", "frp2", "--sizes", "4", "--repeats", "1"],
                 id="bench-frp2-too-small"),
    pytest.param(2, ["bench", "--suite", "frp3", "--sizes", "4", "--repeats", "1"],
                 id="bench-frp3-too-small"),
    pytest.param(2, ["verify", "--suite", "ssrp", "--n", "2", "--seeds", "1"],
                 id="verify-ssrp-too-small"),
    pytest.param(2, ["verify", "--suite", "offline", "--n", "1", "--seeds", "1"],
                 id="verify-offline-too-small"),
    # sweeps whose graphs hold no required pair or triple
    pytest.param(2, ["verify", "--suite", "frp2", "--n", "2", "--seeds", "1"],
                 id="verify-frp2-nothing-checked"),
    pytest.param(2, ["verify", "--suite", "frp3", "--n", "3", "--seeds", "1"],
                 id="verify-frp3-nothing-checked"),
    pytest.param(2, ["verify", "--suite", "dso", "--n", "1", "--seeds", "1"],
                 id="verify-dso-nothing-checked"),
    pytest.param(2, ["gen", "hardness", "--graph", "{single}", "--out", "{single}.out",
                     "--map", "{single}.map"], id="gen-hardness-one-vertex"),
])
def test_malformed_input_exits_with_one_line(tmp_path, code, args):
    paths = {}
    for name, text in MALFORMED_FILES.items():
        paths[name] = str(tmp_path / f"{name}.graph")
        (tmp_path / f"{name}.graph").write_text(text)
    for name, text in QUERY_FILES.items():
        paths[name] = str(tmp_path / f"{name}.txt")
        (tmp_path / f"{name}.txt").write_text(text)
    for name, data in NOT_UTF8_FILES.items():
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_bytes(data)
    snap = tmp_path / "tri.dso"
    assert main(["dso", "build", "--graph", paths["tri"], "--out", str(snap)]) == 0
    trunc = tmp_path / "trunc.dso"
    trunc.write_bytes(snap.read_bytes()[:20])
    no_pairs = tmp_path / "no_pairs.dso"
    no_pairs.write_bytes(without_pairs(snap.read_bytes()))
    paths.update(snap=str(snap), trunc=str(trunc), no_pairs=str(no_pairs))
    cyc = tmp_path / "cyc4.dso"
    assert main(["dso", "build", "--graph", paths["cyc4"], "--out", str(cyc)]) == 0
    for name, data in corrupt_snapshots(cyc.read_bytes()).items():
        (tmp_path / f"{name}.dso").write_bytes(data)
        paths[name] = str(tmp_path / f"{name}.dso")
    proc = subprocess.run([sys.executable, "-m", "faultpath",
                           *(a.format(**paths) for a in args)],
                          capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_offline_absent_edge_names_line_and_timestep(tmp_path, capsys):
    tl = tmp_path / "t.timeline"
    tl.write_text(MALFORMED_FILES["tri_minus"])
    q = tmp_path / "q.txt"
    q.write_text("c the edge 0-1 is gone after the deletion\n" + QUERY_FILES["q_gone"])
    rc = main([*OFFLINE, str(tl), "--queries", str(q)])
    assert rc == 3
    assert capsys.readouterr().err == "error: line 2: no edge between 0 and 1 at timestep 1\n"
