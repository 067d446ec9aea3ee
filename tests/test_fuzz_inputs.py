"""Mutated input files must end in a documented exit code, never a traceback.

Each example takes one valid input (a graph, a timeline, a queries file or
a snapshot, all on a 7-vertex graph), replaces or deletes a few of its bytes
and runs one command on it in-process.  The command must return 0, 2, 3 or
4, and a nonzero exit must print exactly one line on stderr.
"""
import contextlib
import functools
import io
import os
import tempfile

from hypothesis import given, settings, strategies as st

from faultpath.cli import main
from faultpath.dso.snapshot import save_dso
from faultpath.dso.static import IncrementalDso
from faultpath.families import detour_rich
from faultpath.graph import dump_graph_text

GRAPH = detour_rich(7, seed=0)
GRAPH_TEXT = dump_graph_text(
    GRAPH.n, [(e.u, e.v, e.w.base) for _, e in sorted(GRAPH.edges.items())])
TEXT_FILES = {
    "graph": GRAPH_TEXT.encode(),
    "timeline": (GRAPH_TEXT + "+ 1 4 150\n- 2 3\n+ 0 5 300\n").encode(),
    # each failed edge is present at its timestep
    "queries": b"q 0 0 6 0 1\nq 1 1 5 1 2\nq 2 0 6 1 4\nq 3 2 6 0 5\n",
}
# the snapshot's vertex count: the loader sizes the graph by it before any
# check, so a byte written there could ask for billions of vertices (a
# deletion only pulls in the zero bytes that follow it)
SNAPSHOT_N_BYTES = range(7, 11)

GRAPH_CASES = [("graph", cmd) for cmd in (
    ["frp", "--faults", "1", "--graph", "{f}", "--s", "0", "--t", "6"],
    ["frp", "--faults", "2", "--emit-paths", "--graph", "{f}", "--s", "0", "--t", "6"],
    ["frp", "--faults", "3", "--graph", "{f}", "--s", "0", "--t", "6"],
    ["ssrp2", "--graph", "{f}", "--s", "0"],
    ["dso", "build", "--graph", "{f}"],
)]
CASES = GRAPH_CASES + [
    ("timeline", ["dso", "offline", "--timeline", "{f}", "--queries", "{queries}"]),
    ("queries", ["dso", "offline", "--timeline", "{timeline}", "--queries", "{f}"]),
    ("snapshot", ["dso", "query", "--snapshot", "{f}", "--u", "0", "--v", "6",
                  "--fu", "0", "--fv", "1"]),
]
DIGITS = b"0123456789"
# bytes of the text formats, so that many mutants still split into fields
TEXT_BYTES = DIGITS + b" \n+-cepq"


@functools.lru_cache(maxsize=1)
def snapshot_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "g.dso")
        save_dso(IncrementalDso.build(GRAPH), path)
        with open(path, "rb") as fh:
            return fh.read()


def mutate(data: bytes, rnd, edits: int, fixed=range(0)) -> bytes:
    """Make ``edits`` random edits, none of them a write into ``fixed``.

    An edit writes a digit over a digit (so a text line keeps its fields and
    tests the values), deletes a byte, or writes any byte.
    """
    out = bytearray(data)
    for _ in range(edits):
        how = rnd.randrange(3)
        if how == 0:
            pos = rnd.choice([i for i, b in enumerate(out) if b in DIGITS])
            byte = rnd.choice(DIGITS)
        else:
            pos = rnd.randrange(len(out))
            if how == 1:
                del out[pos]
                continue
            byte = rnd.choice(TEXT_BYTES) if rnd.random() < 0.8 else rnd.randrange(256)
        if pos not in fixed:
            out[pos] = byte
    return bytes(out)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.sampled_from(CASES), rnd=st.randoms(use_true_random=False),
       edits=st.integers(1, 4))
def test_mutated_input_exits_with_a_documented_code(case, rnd, edits):
    kind, command = case
    with tempfile.TemporaryDirectory() as d:
        paths = {}
        for name in ("timeline", "queries"):
            paths[name] = os.path.join(d, name)
            with open(paths[name], "wb") as fh:
                fh.write(TEXT_FILES[name])
        if kind == "snapshot":
            data = mutate(snapshot_bytes(), rnd, edits, SNAPSHOT_N_BYTES)
        else:
            data = mutate(TEXT_FILES[kind], rnd, edits)
        paths["f"] = os.path.join(d, "mutated")
        with open(paths["f"], "wb") as fh:
            fh.write(data)
        args = [a.format(**paths) for a in command] + ["--out", os.path.join(d, "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
