"""Binary snapshot of a built oracle: build once, query many times.

Layout (little endian): magic, format version, vertex count, a reserved
int32 (written as 0, ignored on load), edge count, graph section (edge ids
kept sparse), then the interval table.  Trees and their ancestor indexes
are rebuilt on load.  The table must hold every connected pair u < v < n
once and no other pair, and each pair's anchors once each and no other key.
Every entry's vertices must lie in range and its bridge must be an edge of
the loaded graph joining them; the entry's length is then re-derived and
checked against the dump, and the entry must avoid its own interval.  The
format is documented here and versioned; stability across package versions
is not guaranteed.
"""
from __future__ import annotations

import struct

from ..graph import Graph, GraphFormatError, TieSource
from ..pathform import ProperForm, pf_intersects_interval
from ..spt import SptForest
from ..weights import CompositeWeight as W
from .static import IncrementalDso, anchors

MAGIC = b"FPDSO"
FORMAT = 2


class SnapshotError(GraphFormatError):
    """A snapshot file that is malformed, truncated or of another format."""


def save_dso(dso: IncrementalDso, path: str) -> None:
    """Write ``dso``, first filling every pair of an on-demand table."""
    dso.complete()
    out = [MAGIC, struct.pack("<HIiI", FORMAT, dso.graph.n, 0, len(dso.graph.edges))]
    for eid in sorted(dso.graph.edges):
        e = dso.graph.edges[eid]
        out.append(struct.pack("<IIIqq", eid, e.u, e.v, e.w.base, e.w.tie))
    out.append(struct.pack("<I", len(dso.table)))
    for (u, v), sub in dso.table.items():
        out.append(struct.pack("<III", u, v, len(sub)))
        for (i, j), pf in sub.items():
            if pf is None:
                out.append(struct.pack("<IIB", i, j, 0))
            else:
                bridge = 0xFFFFFFFF if pf.bridge is None else pf.bridge
                out.append(struct.pack("<IIBIIIqq", i, j, 1, pf.x, bridge,
                                       pf.y, pf.length.base, pf.length.tie))
    with open(path, "wb") as fh:
        fh.write(b"".join(out))


def load_dso(path: str, seed: int = 0) -> IncrementalDso:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _parse(data, seed)
    except struct.error:
        raise SnapshotError("truncated snapshot") from None


def _parse(data: bytes, seed: int) -> IncrementalDso:
    if data[:5] != MAGIC:
        raise SnapshotError("not a snapshot file")
    off = 5
    fmt, n, _reserved, m = struct.unpack_from("<HIiI", data, off)
    off += struct.calcsize("<HIiI")
    if fmt != FORMAT:
        raise SnapshotError(f"unsupported snapshot format {fmt}")
    g = Graph(n)
    for _ in range(m):
        eid, u, v, base, tie = struct.unpack_from("<IIIqq", data, off)
        off += struct.calcsize("<IIIqq")
        g.add_edge(u, v, W(base, tie), eid=eid)
    (npairs,) = struct.unpack_from("<I", data, off)
    off += 4
    if len(data) - off < 12 * npairs:  # each pair record is at least 12 bytes
        raise SnapshotError("truncated snapshot")
    forest = SptForest.build(g)
    table: dict = {}
    for _ in range(npairs):
        u, v, cnt = struct.unpack_from("<III", data, off)
        off += 12
        if not u < v < n or forest.dist(u, v) is None:
            raise SnapshotError(f"invalid pair ({u}, {v})")
        if (u, v) in table:
            raise SnapshotError(f"pair ({u}, {v}) repeated")
        h = forest.hops(u, v)
        keys = set(anchors(h))
        sub = {}
        for _ in range(cnt):
            i, j, kind = struct.unpack_from("<IIB", data, off)
            off += 9
            if (i, j) not in keys:
                raise SnapshotError(f"offsets ({i}, {j}) are no anchor of pair ({u}, {v})")
            if (i, j) in sub:
                raise SnapshotError(f"anchor ({i}, {j}) of pair ({u}, {v}) repeated")
            if kind == 0:
                sub[(i, j)] = None
                continue
            x, bridge, y, lb, lt = struct.unpack_from("<IIIqq", data, off)
            off += struct.calcsize("<IIIqq")
            b = None if bridge == 0xFFFFFFFF else bridge
            if not (x < n and y < n):
                raise SnapshotError(f"entry vertex out of range for pair ({u}, {v})")
            if b is None:
                joined = x == y
            else:
                e = g.edges.get(b)
                joined = e is not None and {e.u, e.v} == {x, y}
            prefix, suffix = forest.dist(u, x), forest.dist(y, v)
            if not joined or prefix is None or suffix is None:
                raise SnapshotError(f"corrupt entry for pair ({u}, {v})")
            length = prefix if b is None else prefix + g.edges[b].w
            length = length + suffix
            if (length.base, length.tie) != (lb, lt):
                raise SnapshotError(f"corrupt entry for pair ({u}, {v})")
            pf = ProperForm(u, x, b, y, v, length)
            if pf_intersects_interval(pf, forest, u, v, i, h - j):
                raise SnapshotError(f"entry ({i}, {j}) of pair ({u}, {v}) crosses its interval")
            sub[(i, j)] = pf
        if len(sub) < len(keys):
            raise SnapshotError(f"pair ({u}, {v}) misses an anchor")
        table[(u, v)] = sub
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in table and forest.dist(u, v) is not None:
                raise SnapshotError(f"snapshot misses pair ({u}, {v})")
    return IncrementalDso(g, forest, table, TieSource(seed + 7919))
