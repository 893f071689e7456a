"""Row-by-row reference for graph construction, to test the vectorized core.

This is the scalar canonicalizer that ``steklov.graph`` used before its
construction became column-wise: one Python check per row and value, in row
order.  The tests compare the library with it, on valid documents (same
canonical graph) and on invalid ones (same first offending row, same
message).  Integers too large for binary64 are the one difference from the
old loop, which crashed on them; here they fail like in the library.
"""

from __future__ import annotations

import json

import numpy as np

from steklov import GraphError

VERTEX_KEYS = {"id", "m", "boundary"}
EDGE_KEYS = {"u", "v", "w"}


def check_positive(value, what: str, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphError(f"{where}: {what} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise GraphError(f"{where}: {what} is too large for binary64") from None
    if not np.isfinite(value) or value <= 0.0:
        raise GraphError(f"{where}: non-positive {what} {value!r}")
    return value


def reference_make_graph(vertices, edges):
    """(labels, measures, boundary, edges) of the canonical graph."""
    vlist = list(vertices)
    if not vlist:
        raise GraphError("vertices: empty vertex list")
    seen: dict[str, int] = {}
    for i, (lab, _, _) in enumerate(vlist):
        if not isinstance(lab, str):
            raise GraphError(f"vertices[{i}]: id must be a string, got {lab!r}")
        if lab in seen:
            raise GraphError(f"vertices[{i}]: duplicate vertex id {lab!r}")
        seen[lab] = i

    order = sorted(seen)
    label_to_id = {lab: i for i, lab in enumerate(order)}
    measures = np.empty(len(order))
    boundary: list[int] = []
    for i, (lab, m, is_b) in enumerate(vlist):
        vid = label_to_id[lab]
        measures[vid] = check_positive(m, "measure", f"vertices[{i}]")
        if is_b:
            boundary.append(vid)

    canon_edges: dict[tuple[int, int], float] = {}
    for j, (lu, lv, w) in enumerate(edges):
        if lu not in label_to_id:
            raise GraphError(f"edges[{j}]: unknown vertex reference {lu!r}")
        if lv not in label_to_id:
            raise GraphError(f"edges[{j}]: unknown vertex reference {lv!r}")
        u, v = label_to_id[lu], label_to_id[lv]
        if u == v:
            raise GraphError(f"edges[{j}]: loop at vertex {lu!r}")
        key = (min(u, v), max(u, v))
        if key in canon_edges:
            raise GraphError(f"edges[{j}]: duplicate edge {lu!r}-{lv!r}")
        canon_edges[key] = check_positive(w, "weight", f"edges[{j}]")

    return (
        tuple(order),
        measures,
        tuple(sorted(boundary)),
        tuple((u, v, w) for (u, v), w in sorted(canon_edges.items())),
    )


def _checked_row(row, keys: set[str], where: str) -> dict:
    if not isinstance(row, dict):
        raise GraphError(f"{where}: must be an object")
    extra = set(row) - keys
    if extra:
        raise GraphError(f"{where}: unknown field {sorted(extra)[0]!r}")
    missing = keys - set(row)
    if missing:
        raise GraphError(f"{where}: missing field {sorted(missing)[0]!r}")
    return row


def reference_parse_graph(text: str):
    """(labels, measures, boundary, edges) of the document's canonical graph."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise GraphError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphError("malformed JSON: top level must be an object")
    extra = set(doc) - {"vertices", "edges"}
    if extra:
        raise GraphError(f"unknown field {sorted(extra)[0]!r} at top level")
    for key in ("vertices", "edges"):
        if key not in doc:
            raise GraphError(f"missing field {key!r} at top level")
        if not isinstance(doc[key], list):
            raise GraphError(f"{key}: must be an array")

    vertices = []
    for i, row in enumerate(doc["vertices"]):
        row = _checked_row(row, VERTEX_KEYS, f"vertices[{i}]")
        if not isinstance(row["boundary"], bool):
            raise GraphError(f"vertices[{i}]: boundary must be true or false")
        vertices.append((row["id"], row["m"], row["boundary"]))

    edges = []
    for j, row in enumerate(doc["edges"]):
        row = _checked_row(row, EDGE_KEYS, f"edges[{j}]")
        for key in ("u", "v"):
            if not isinstance(row[key], str):
                raise GraphError(f"edges[{j}]: {key} must be a string")
        edges.append((row["u"], row["v"], row["w"]))

    return reference_make_graph(vertices, edges)
