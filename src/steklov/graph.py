"""Weighted graphs with boundary: data model, JSON interchange, distances, geodesics.

A graph here is a finite simple graph with a strictly positive measure on
vertices, a strictly positive weight on edges, and a distinguished (possibly
empty) set of boundary vertices.  Instances are immutable and canonicalized:
vertex ids are 0..n-1 in lexicographic order of the external string labels.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

DEFAULT_GEODESIC_LIMIT = 10**6


class GraphError(ValueError):
    """Invalid graph data or invalid input to a graph operation."""


class DisconnectedGraphError(GraphError):
    """Operation requires a connected graph."""


class EmptyBoundaryError(GraphError):
    """Operation requires at least one boundary vertex."""


class GeodesicLimitError(GraphError):
    """Geodesic enumeration exceeded the configured path limit."""


@dataclass(frozen=True, eq=False)
class WeightedBoundaryGraph:
    """Immutable weighted graph with boundary.

    Fields are already canonical: ``labels`` is lexicographically sorted,
    vertex ids index into it, ``boundary`` is a sorted id tuple and ``edges``
    holds ``(u, v, w)`` with ``u < v``, sorted.  Build instances through
    :func:`make_graph`, :func:`graph_from_arrays` or :func:`parse_graph`
    rather than calling the constructor directly.
    """

    labels: tuple[str, ...]
    measures: np.ndarray
    boundary: tuple[int, ...]
    edges: tuple[tuple[int, int, float], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def boundary_set(self) -> frozenset[int]:
        return frozenset(self.boundary)

    @cached_property
    def interior(self) -> tuple[int, ...]:
        """Interior vertex ids (complement of the boundary), ascending."""
        b = self.boundary_set
        return tuple(v for v in range(self.n) if v not in b)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per-vertex tuple of (neighbor, weight), neighbors ascending."""
        nbrs: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            nbrs[u].append((v, w))
            nbrs[v].append((u, w))
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge tails u, heads v (u < v) and weights as arrays, in edge order."""
        table = np.array(self.edges, dtype=float).reshape(-1, 3)
        return table[:, 0].astype(np.intp), table[:, 1].astype(np.intp), table[:, 2]

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Neighbour lists in compressed sparse row form: (indptr, indices)."""
        u, v, _ = self.edge_arrays
        rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
        order = np.argsort(rows, kind="stable")
        return np.searchsorted(rows[order], np.arange(self.n + 1)), cols[order]

    @cached_property
    def analysis(self):
        """This graph's :class:`~steklov.spectral.GraphAnalysis`, built once."""
        from .spectral import GraphAnalysis  # spectral imports this module

        return GraphAnalysis(self)

    @cached_property
    def label_to_id(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def edge_rank(self) -> dict[tuple[int, int], int]:
        """Position of each canonical edge (u, v), u < v, in the edge tuple."""
        return {(u, v): k for k, (u, v, _) in enumerate(self.edges)}

    def is_unit_weighted(self) -> bool:
        """True iff every vertex measure and every edge weight equals 1."""
        return bool(np.all(self.measures == 1.0)) and all(
            w == 1.0 for _, _, w in self.edges
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedBoundaryGraph):
            return NotImplemented
        return (
            self.labels == other.labels
            and np.array_equal(self.measures, other.measures)
            and self.boundary == other.boundary
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return (
            f"WeightedBoundaryGraph(n={self.n}, |B|={len(self.boundary)}, "
            f"|E|={len(self.edges)})"
        )


def _check_positive(value, what: str, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphError(f"{where}: {what} must be a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise GraphError(f"{where}: non-positive {what} {value!r}")
    return value


def make_graph(
    vertices: Iterable[tuple[str, float, bool]],
    edges: Iterable[tuple[str, str, float]],
) -> WeightedBoundaryGraph:
    """Build a canonicalized graph from labelled vertex and edge data.

    ``vertices`` yields ``(label, measure, is_boundary)`` and ``edges`` yields
    ``(label_u, label_v, weight)``.  Labels are sorted lexicographically to
    fix vertex ids.  Raises :class:`GraphError` on any invariant violation.
    """
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
        measures[vid] = _check_positive(m, "measure", f"vertices[{i}]")
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
        canon_edges[key] = _check_positive(w, "weight", f"edges[{j}]")

    measures.setflags(write=False)
    return WeightedBoundaryGraph(
        labels=tuple(order),
        measures=measures,
        boundary=tuple(sorted(boundary)),
        edges=tuple((u, v, w) for (u, v), w in sorted(canon_edges.items())),
    )


def graph_from_arrays(
    measures: Sequence[float],
    boundary: Iterable[int],
    edges: Iterable[tuple[int, int, float]],
    labels: Sequence[str] | None = None,
) -> WeightedBoundaryGraph:
    """Build a graph from 0-based vertex ids.

    Default labels are zero-padded (``v00``, ``v01``, ...) so canonical label
    order preserves the given id order.
    """
    n = len(measures)
    if labels is None:
        width = max(1, len(str(n - 1))) if n else 1
        labels = [f"v{i:0{width}d}" for i in range(n)]
    if len(labels) != n:
        raise GraphError(f"expected {n} labels, got {len(labels)}")
    bset = set()
    for b in boundary:
        if not 0 <= b < n:
            raise GraphError(f"boundary: unknown vertex reference {b}")
        bset.add(b)
    vertices = [(labels[i], measures[i], i in bset) for i in range(n)]
    edge_rows = []
    for u, v, w in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edges: unknown vertex reference in ({u}, {v})")
        edge_rows.append((labels[u], labels[v], w))
    return make_graph(vertices, edge_rows)


# --- JSON interchange -------------------------------------------------------

_VERTEX_KEYS = {"id", "m", "boundary"}
_EDGE_KEYS = {"u", "v", "w"}


def _checked_row(row, keys: set[str], where: str) -> dict:
    """``row`` itself, once it is an object with exactly the fields ``keys``."""
    if not isinstance(row, dict):
        raise GraphError(f"{where}: must be an object")
    extra = set(row) - keys
    if extra:
        raise GraphError(f"{where}: unknown field {sorted(extra)[0]!r}")
    missing = keys - set(row)
    if missing:
        raise GraphError(f"{where}: missing field {sorted(missing)[0]!r}")
    return row


def parse_graph(text: str) -> WeightedBoundaryGraph:
    """Parse the JSON graph document format.

    Schema: ``{"vertices": [{"id", "m", "boundary"}], "edges": [{"u", "v",
    "w"}]}``.  Unknown fields are rejected; all numbers are binary64.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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
        row = _checked_row(row, _VERTEX_KEYS, f"vertices[{i}]")
        if not isinstance(row["boundary"], bool):
            raise GraphError(f"vertices[{i}]: boundary must be true or false")
        vertices.append((row["id"], row["m"], row["boundary"]))

    edges = []
    for j, row in enumerate(doc["edges"]):
        row = _checked_row(row, _EDGE_KEYS, f"edges[{j}]")
        for key in ("u", "v"):
            if not isinstance(row[key], str):
                raise GraphError(f"edges[{j}]: {key} must be a string")
        edges.append((row["u"], row["v"], row["w"]))

    return make_graph(vertices, edges)


def format_number(x: float) -> str:
    """Canonical decimal form with 17 significant digits (round-trip exact)."""
    return f"{float(x):.17g}"


def json_number(x: float) -> float | str:
    """JSON-safe scalar: finite floats pass through, non-finite become strings.

    Strict JSON has no Infinity/NaN tokens; reports encode them as "inf",
    "-inf" and "nan".
    """
    x = float(x)
    if np.isfinite(x):
        return x
    if np.isnan(x):
        return "nan"
    return "inf" if x > 0 else "-inf"


def graph_to_json(g: WeightedBoundaryGraph) -> str:
    """Serialize to the canonical JSON document (single line, sorted order)."""
    vparts = []
    for i, lab in enumerate(g.labels):
        flag = "true" if i in g.boundary_set else "false"
        vparts.append(
            f'{{"id":{json.dumps(lab)},"m":{format_number(g.measures[i])},'
            f'"boundary":{flag}}}'
        )
    eparts = []
    for u, v, w in g.edges:
        eparts.append(
            f'{{"u":{json.dumps(g.labels[u])},"v":{json.dumps(g.labels[v])},'
            f'"w":{format_number(w)}}}'
        )
    return f'{{"vertices":[{",".join(vparts)}],"edges":[{",".join(eparts)}]}}'


def graph_to_json_dict(g: WeightedBoundaryGraph) -> dict:
    """Graph as a plain JSON-compatible dict (same values as the document)."""
    return json.loads(graph_to_json(g))


# --- connectivity and distances ---------------------------------------------


def is_connected(g: WeightedBoundaryGraph) -> bool:
    """True iff every vertex is reachable from vertex 0."""
    return g.n > 0 and min(bfs_distances(g, 0)) >= 0


def component_labels(n: int, edges: Iterable[Sequence]) -> list[int]:
    """A representative vertex of each vertex's connected component.

    Union-find over the ``(u, v, ...)`` rows of ``edges`` on vertices 0..n-1;
    two vertices share a component iff their labels are equal.
    """
    root = list(range(n))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for a, b, *_ in edges:
        root[find(a)] = find(b)
    return [find(a) for a in range(n)]


def require_connected(g: WeightedBoundaryGraph) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError("graph is not connected")


def _reach_levels(g: WeightedBoundaryGraph, sources) -> Iterator[np.ndarray]:
    """Packed multi-source BFS in the style of MS-BFS (Then et al., PVLDB 2014).

    Yields an ``(n, ceil(len(sources) / 64))`` uint64 array after 0, 1, 2, ...
    hops: bit ``k % 64`` of word ``k // 64`` in row v is set once v lies
    within that many hops of ``sources[k]``.  Stops when nothing changes.  One
    ``bitwise_or.reduceat`` over the CSR rows advances every source at once.
    """
    indptr, indices = g.csr
    if g.n > 1 and not np.diff(indptr).all():
        # reduceat would read a neighbour's bits into an empty CSR row
        raise DisconnectedGraphError("graph is not connected")
    k = np.arange(len(sources), dtype=np.uint64)
    visited = np.zeros((g.n, -(-len(sources) // 64)), dtype=np.uint64)
    visited[np.asarray(sources, dtype=np.intp), k // 64] = np.uint64(1) << k % 64
    frontier = visited
    yield visited
    while len(indices):
        reached = np.take(frontier, indices, axis=0)
        frontier = np.bitwise_or.reduceat(reached, indptr[:-1]) & ~visited
        if not frontier.any():
            return
        visited = visited | frontier
        yield visited


def boundary_diameter(g: WeightedBoundaryGraph) -> int:
    """Largest hop distance between two boundary vertices (0 when |B| < 2).

    Runs the packed BFS from the boundary only and stops at the first hop
    count at which every boundary vertex has been reached from every
    boundary source: O(|E| d_B ceil(|B| / 64)) word operations.
    """
    bidx = np.asarray(g.boundary, dtype=np.intp)
    for hops, visited in enumerate(_reach_levels(g, bidx)):
        rows = visited[bidx]
        if (rows == rows[:1]).all():  # rows hold their own bits: equal means full
            return hops
    raise DisconnectedGraphError("graph is not connected")


def hop_distance_matrix(g: WeightedBoundaryGraph) -> np.ndarray:
    """All-pairs unweighted hop distances as an (n, n) integer matrix.

    Edge weights are ignored.  The packed BFS runs from every vertex, and a
    distance is the number of hop counts at which the pair is still apart.
    Raises :class:`DisconnectedGraphError` on disconnected input.
    """
    dist = np.zeros((g.n, g.n), dtype=np.int64)
    for visited in _reach_levels(g, range(g.n)):
        bits = visited.astype("<u8", copy=False).view(np.uint8)
        apart = np.unpackbits(bits, axis=1, count=g.n, bitorder="little") == 0
        dist += apart
    if apart.any():
        raise DisconnectedGraphError("graph is not connected")
    dist.setflags(write=False)
    return dist


def bfs_distances(g: WeightedBoundaryGraph, source: int) -> list[int]:
    """Hop distances from one vertex; -1 marks unreachable vertices."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v, _ in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                queue.append(v)
    return dist


def all_geodesics(
    g: WeightedBoundaryGraph,
    x: int,
    y: int,
    max_paths: int = DEFAULT_GEODESIC_LIMIT,
) -> list[tuple[int, ...]]:
    """Every shortest path from x to y, in lexicographic vertex-id order.

    Raises :class:`GeodesicLimitError` as soon as more than ``max_paths``
    geodesics exist, so callers that only need "one vs. several" can pass a
    small cap without paying for the full enumeration.
    """
    require_connected(g)
    dist_x = bfs_distances(g, x)
    dist_y = bfs_distances(g, y)
    d = dist_x[y]
    if x == y:
        return [(x,)]

    def steps(u: int) -> Iterator[int]:
        return (v for v, _ in g.adjacency[u]
                if dist_x[v] == dist_x[u] + 1 and dist_x[v] + dist_y[v] == d)

    # Depth-first over the geodesic DAG, which has no dead ends, so the work
    # is proportional to the paths emitted; the stack replaces recursion.
    out: list[tuple[int, ...]] = []
    path = [x]
    stack = [steps(x)]
    while stack:
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            path.pop()
        elif v == y:
            if len(out) >= max_paths:
                raise GeodesicLimitError(
                    f"more than {max_paths} geodesics between {x} and {y}"
                )
            out.append((*path, y))
        else:
            path.append(v)
            stack.append(steps(v))
    return out


# --- boundary / vertex function coercion -------------------------------------


def boundary_vector(g: WeightedBoundaryGraph, f) -> np.ndarray:
    """Coerce a boundary function to a float vector aligned with g.boundary.

    Accepts a mapping from boundary vertex id to value (domain must equal the
    boundary exactly) or a sequence of length ``|B|`` in boundary-id order.
    """
    if len(g.boundary) == 0:
        raise EmptyBoundaryError("graph has an empty boundary")
    if isinstance(f, Mapping):
        if set(f) != g.boundary_set:
            raise GraphError("boundary function domain must equal the boundary")
        return np.array([float(f[b]) for b in g.boundary])
    vec = np.asarray(f, dtype=float)
    if vec.shape != (len(g.boundary),):
        raise GraphError(
            f"boundary function must have length {len(g.boundary)}, "
            f"got shape {vec.shape}"
        )
    return vec.copy()


def vertex_vector(g: WeightedBoundaryGraph, u) -> np.ndarray:
    """Coerce a vertex function to a float vector over all of V."""
    if isinstance(u, Mapping):
        if set(u) != set(range(g.n)):
            raise GraphError("vertex function domain must equal the vertex set")
        return np.array([float(u[v]) for v in range(g.n)])
    vec = np.asarray(u, dtype=float)
    if vec.shape != (g.n,):
        raise GraphError(f"vertex function must have length {g.n}")
    return vec.copy()
