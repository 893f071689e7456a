"""Weighted graphs with boundary: data model, JSON interchange, distances, geodesics.

A graph here is a finite simple graph with a strictly positive measure on
vertices, a strictly positive weight on edges, and a distinguished (possibly
empty) set of boundary vertices.  Instances are immutable and canonicalized:
vertex ids are 0..n-1 in lexicographic order of the external string labels,
and the edges are stored as arrays of tails u < heads v, sorted by (u, v),
with their weights.  Tuple forms (``edges``, ``edge_rank``) and the sorted
neighbour lists (``csr``) that every traversal reads are derived on first use.

Construction validates whole columns at once: the value types of a column in
one pass over its distinct types, then positivity, finiteness, loops and
repeated edges as array masks.  When some row is invalid, the error names the
first offending row, exactly as a row-by-row check would.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from math import log10
from numbers import Integral, Real
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
    vertex ids index into it, ``boundary`` is a sorted id tuple and
    ``edge_arrays`` holds read-only arrays of tails u, heads v (u < v) and
    weights, sorted by (u, v).  Build instances through :func:`make_graph`,
    :func:`graph_from_arrays` or :func:`parse_graph` rather than calling the
    constructor directly.
    """

    labels: tuple[str, ...]
    measures: np.ndarray
    boundary: tuple[int, ...]
    edge_arrays: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        """Boolean vertex mask of the boundary."""
        mask = np.zeros(self.n, dtype=bool)
        mask[np.asarray(self.boundary, dtype=np.intp)] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """``(u, v, w)`` per edge in edge order: a view of ``edge_arrays``."""
        return tuple(zip(*(a.tolist() for a in self.edge_arrays)))

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Neighbour lists in compressed sparse row form: (indptr, indices),
        each row's neighbours ascending."""
        u, v, _ = self.edge_arrays
        rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
        order = np.lexsort((cols, rows))
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
        """Position of each canonical edge (u, v), u < v, in the edge arrays."""
        u, v, _ = self.edge_arrays
        return {key: k for k, key in enumerate(zip(u.tolist(), v.tolist()))}

    def is_unit_weighted(self) -> bool:
        """True iff every vertex measure and every edge weight equals 1."""
        return bool((self.measures == 1.0).all() and (self.edge_arrays[2] == 1.0).all())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedBoundaryGraph):
            return NotImplemented
        return (
            self.labels == other.labels
            and np.array_equal(self.measures, other.measures)
            and self.boundary == other.boundary
            and all(map(np.array_equal, self.edge_arrays, other.edge_arrays))
        )

    def __repr__(self) -> str:
        return (
            f"WeightedBoundaryGraph(n={self.n}, |B|={len(self.boundary)}, "
            f"|E|={len(self.edge_arrays[0])})"
        )


def seeded_rng(seed) -> np.random.Generator:
    """``seed`` itself if it is a Generator, else a new one seeded with it;
    a bool, a float, a string or a negative integer, alone or as an entry of
    a sequence seed, is a :class:`GraphError`, and so is any other seed but
    None, a numpy BitGenerator or a SeedSequence."""
    if isinstance(seed, (Real, np.bool_, str, bytes)):
        require_integer("seed", seed, lo=0)
    elif isinstance(seed, (Sequence, np.ndarray)):
        for entry in seed.ravel().tolist() if isinstance(seed, np.ndarray) else seed:
            if isinstance(entry, bool) or not isinstance(entry, Integral) or entry < 0:
                raise GraphError(f"seed entries must be nonnegative integers, got {entry!r}")
    elif seed is not None and not isinstance(seed, (np.random.Generator, np.random.BitGenerator,
                                                     np.random.SeedSequence)):
        raise GraphError("seed must be an integer, a sequence of them or a numpy Generator, "
                         f"got {seed!r}")
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def require_integer(name: str, value, lo=None, hi=None) -> None:
    """Counts are integers, numpy's included, in ``lo..hi`` where given; a
    bool or a float is refused."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise GraphError(f"{name} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise GraphError(f"{name} must be {'nonnegative' if lo == 0 else f'>= {lo}'}, "
                         f"got {_integer_text(value)}")
    if hi is not None and value > hi:
        raise GraphError(f"{name} must be <= {hi}, got {_integer_text(value)}")


def _integer_text(value) -> str:
    """``str(value)``, or past 1,000 digits its order of magnitude, read off
    its bit length: ``str`` refuses integers of more than 4,300 digits."""
    bits = int(value).bit_length()
    if bits <= 3321:  # 10**1000 < 2**3322
        return str(value)
    return f"about {'-' if value < 0 else ''}10**{int(bits * log10(2))}"


def listed(name: str, value, what: str) -> list:
    """``value`` read once into a list; what is not iterable is refused with
    one line naming ``name``, a list of ``what``."""
    if not isinstance(value, Iterable):
        raise GraphError(f"{name} must be a list of {what}, got {value!r}")
    return list(value)


def is_real(value) -> bool:
    """A real number that converts to a float, numpy's included; a bool is
    not one, nor an integer beyond binary64."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def check_ranges(**ranges) -> None:
    """Each range is two numbers, finite, > 0 and in order, so that every
    value drawn from it is finite and > 0: drawn values skip validation."""
    for name, ends in ranges.items():
        try:
            lo, hi = ends
        except (TypeError, ValueError):
            lo = hi = None
        if not all(map(is_real, (lo, hi))):
            raise GraphError(f"{name} must be two numbers, got {ends!r}")
        if not all(0 < end < np.inf for end in (lo, hi)):
            raise GraphError(f"{name} ends must be finite and > 0, got {(lo, hi)}")
        if lo > hi:
            raise GraphError(f"{name} ends must be in order, got {(lo, hi)}")


# --- construction: whole-column validation ---------------------------------------

Check = tuple[np.ndarray, Callable[[int], str]]


def _first_fault(checks: Sequence[Check]) -> None:
    """Raise :class:`GraphError` for the earliest row that fails a check.

    ``checks`` holds ``(mask, message)`` pairs in the order one row is
    checked, and ``message(i)`` describes the fault of row i.  The earliest
    failing row wins and, within it, the first check it fails.
    """
    hits = [(int(mask.argmax()), k) for k, (mask, _) in enumerate(checks) if mask.any()]
    if hits:
        row, k = min(hits)
        raise GraphError(checks[k][1](row))


def _all_types(column, ok: Callable[[type], bool]) -> bool:
    """True iff ``ok`` holds for the type of every entry of ``column``."""
    return all(map(ok, set(map(type, column))))


def _is_number_type(t: type) -> bool:
    """Python and numpy integers and floats; bools (``np.bool_`` too) are not."""
    return issubclass(t, (int, float, np.integer, np.floating)) and not issubclass(t, bool)


def _is_float(x) -> bool:
    """True iff x is a number (not a bool) that converts to binary64."""
    return _is_number_type(type(x)) and _binary64(x) is not None


def _binary64(values) -> np.ndarray | None:
    """``values`` as a binary64 array, or None if one is beyond its range: a
    Python int raises, a numpy long double overflows in the cast."""
    try:
        with np.errstate(over="raise"):
            return np.array(values, dtype=float)
    except (OverflowError, FloatingPointError):
        return None


def _number_column(column, what: str, where: str) -> tuple[np.ndarray, list[Check]]:
    """``column`` as a float array, with the checks that make every entry a
    positive, finite binary64 number.

    Entries that are not numbers (bools included) or are integers too large
    for binary64 read as 1.0 in the array and fail their own check.
    """
    if isinstance(column, np.ndarray):
        column = column.tolist()
    values = _binary64(column) if _all_types(column, _is_number_type) else None
    not_number = too_large = np.zeros(len(column), dtype=bool)
    if values is None:  # find the entries that stopped the conversion
        not_number = ~np.fromiter(map(_is_number_type, map(type, column)), bool,
                                  len(column))
        too_large = ~not_number & ~np.fromiter(map(_is_float, column), bool,
                                                len(column))
        values = np.array([1.0 if bad else float(x) for x, bad
                           in zip(column, not_number | too_large)], dtype=float)
    return values, [
        (not_number,
         lambda i: f"{where}[{i}]: {what} must be a number, got {column[i]!r}"),
        (too_large, lambda i: f"{where}[{i}]: {what} is too large for binary64"),
        (~((values > 0.0) & (values < np.inf)),
         lambda i: f"{where}[{i}]: non-positive {what} {float(values[i])!r}"),
    ]


def _measures(ids: np.ndarray | None, column) -> np.ndarray:
    """Validated measures in canonical order; ``ids[i]`` is row i's vertex
    id (None: rows are already in id order)."""
    if not len(column):
        raise GraphError("vertices: empty vertex list")
    values, checks = _number_column(column, "measure", "vertices")
    _first_fault(checks)
    if ids is not None:
        values[ids] = values.copy()
    values.setflags(write=False)
    return values


def _canonical_labels(labels: Sequence) -> tuple[tuple[str, ...], dict[str, int]]:
    """Sorted labels and each label's vertex id.

    Raises for the first row whose label is not a string or repeats an
    earlier one.
    """
    if not (_all_types(labels, lambda t: issubclass(t, str)) and len(set(labels)) == len(labels)):
        seen: set[str] = set()
        for i, label in enumerate(labels):
            if not isinstance(label, str):
                raise GraphError(f"vertices[{i}]: id must be a string, got {label!r}")
            if label in seen:
                raise GraphError(f"vertices[{i}]: duplicate vertex id {label!r}")
            seen.add(label)
    order = tuple(sorted(labels))
    return order, dict(zip(order, range(len(order))))


def _ids(column, n: int) -> np.ndarray:
    """Vertex ids as an intp array; entries that are not integers in
    0..n-1 read as -1."""
    if _all_types(column, lambda t: issubclass(t, (int, np.integer))):
        try:
            return np.fromiter(column, np.intp, len(column))
        except OverflowError:
            pass
    return np.fromiter(
        (x if isinstance(x, (int, np.integer)) and 0 <= x < n else -1 for x in column),
        np.intp, len(column),
    )


def _edge_arrays(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    weights,
    names: Callable[[int], tuple],
    unknown: Sequence[np.ndarray] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical edge arrays from vertex ids ``u``, ``v`` and weights, per row.

    ``names(j)`` gives the endpoint labels of row j for messages and
    ``unknown`` the masks of rows whose tail, then head, names no vertex.
    Loops and repeats (in either orientation) are found from the keys
    ``min * n + max`` with one stable argsort.
    """
    w, weight_checks = _number_column(weights, "weight", "edges")
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(len(key), dtype=bool)
    repeat[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    _first_fault([
        *((mask, lambda j, end=end: f"edges[{j}]: unknown vertex reference "
                                    f"{names(j)[end]!r}")
          for end, mask in enumerate(unknown)),
        (u == v, lambda j: f"edges[{j}]: loop at vertex {names(j)[0]!r}"),
        (repeat, lambda j: "edges[{}]: duplicate edge {!r}-{!r}".format(j, *names(j))),
        *weight_checks,
    ])
    arrays = lo[order], hi[order], w[order]
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _columns(rows: Sequence, width: int) -> tuple[Sequence, ...]:
    """The ``width`` columns of a sequence of rows."""
    return tuple(zip(*rows)) or ((),) * width


def make_graph(
    vertices: Iterable[tuple[str, float, bool]],
    edges: Iterable[tuple[str, str, float]],
) -> WeightedBoundaryGraph:
    """Build a canonicalized graph from labelled vertex and edge data.

    ``vertices`` yields ``(label, measure, is_boundary)`` and ``edges`` yields
    ``(label_u, label_v, weight)``.  Labels are sorted lexicographically to
    fix vertex ids.  Raises :class:`GraphError` on any invariant violation,
    naming the first offending row.
    """
    return _graph_from_columns(*_columns(list(vertices), 3), *_columns(list(edges), 3))


def _graph_from_columns(labels, measures, flags, tails, heads, weights):
    order, rank = _canonical_labels(labels)
    n = len(order)
    ids = np.fromiter(map(rank.__getitem__, labels), np.intp, n)
    measure_values = _measures(ids, measures)
    ends, unknown = [], []
    for column in (tails, heads):
        try:
            end = np.fromiter(map(rank.__getitem__, column), np.intp, len(column))
        except (KeyError, TypeError):  # some label names no vertex
            end = np.fromiter((rank.get(x, -1) if isinstance(x, str) else -1
                               for x in column), np.intp, len(column))
        ends.append(end)
        unknown.append(end < 0)
    return WeightedBoundaryGraph(
        labels=order,
        measures=measure_values,
        boundary=tuple(sorted(compress(ids.tolist(), flags))),
        edge_arrays=_edge_arrays(n, *ends, weights,
                                 lambda j: (tails[j], heads[j]), unknown),
    )


def index_labels(n: int) -> tuple[str, ...]:
    """The labels ``v0``..``v{n-1}``, zero-padded so that label order is id order."""
    width = max(1, len(str(n - 1))) if n else 1
    return tuple(f"v{i:0{width}d}" for i in range(n))


def graph_from_arrays(
    measures: Sequence[float],
    boundary: Iterable[int],
    edges: Iterable[tuple[int, int, float]],
) -> WeightedBoundaryGraph:
    """Build a graph from 0-based vertex ids.

    The labels are zero-padded (``v00``, ``v01``, ...) so canonical label
    order preserves the given id order, and the ids need no relabelling.
    """
    measures = listed("measures", measures, "numbers")
    n = len(measures)
    labels = index_labels(n)
    bcol = listed("boundary", boundary, "vertex ids")
    bids = _ids(bcol, n)
    _first_fault([((bids < 0) | (bids >= n),
                   lambda i: f"boundary: unknown vertex reference {bcol[i]}")])
    tails, heads, weights = _columns(listed("edges", edges, "(u, v, weight) rows"), 3)
    u, v = _ids(tails, n), _ids(heads, n)
    _first_fault([((u < 0) | (u >= n) | (v < 0) | (v >= n),
                   lambda j: f"edges: unknown vertex reference in "
                             f"({tails[j]}, {heads[j]})")])
    return WeightedBoundaryGraph(
        labels=labels,
        measures=_measures(None, measures),
        boundary=tuple(np.unique(bids).tolist()),
        edge_arrays=_edge_arrays(
            n, u, v, weights, lambda j: (labels[tails[j]], labels[heads[j]]),
        ),
    )


# --- JSON interchange -------------------------------------------------------

_VERTEX_KEYS = ("id", "m", "boundary")
_EDGE_KEYS = ("u", "v", "w")


def load_json(text: str, what: str = ""):
    """``json.loads`` with every failure as a one-line :class:`GraphError`.

    That covers malformed documents, integers too long to read and nesting
    too deep to parse.  ``what`` prefixes the message.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise GraphError(f"{what}malformed JSON: {exc}") from exc


def _row_fault(row, keys: tuple[str, ...], kinds: dict[str, type], where: str) -> str | None:
    """What is wrong with one JSON row, or None when nothing is."""
    if not isinstance(row, dict):
        return f"{where}: must be an object"
    extra = set(row) - set(keys)
    if extra:
        return f"{where}: unknown field {sorted(extra)[0]!r}"
    missing = set(keys) - set(row)
    if missing:
        return f"{where}: missing field {sorted(missing)[0]!r}"
    for key, kind in kinds.items():
        if not isinstance(row[key], kind):
            return f"{where}: {key} {_KIND_NAMES[kind]}"
    return None


_KIND_NAMES = {bool: "must be true or false", str: "must be a string"}


def _json_columns(rows: list, keys: tuple[str, ...], kinds: dict[str, type],
                  where: str) -> tuple[tuple, ...]:
    """The ``keys`` columns of a list of JSON objects.

    Every row must be an object with exactly the fields ``keys``, and the
    columns named in ``kinds`` must hold values of that type.  Each test is
    one pass over a column; only a failed test looks at single rows, to
    report the first offending one.
    """
    columns = None
    if _all_types(rows, lambda t: issubclass(t, dict)) and set(map(len, rows)) <= {len(keys)}:
        try:
            columns = _columns(list(map(itemgetter(*keys), rows)), len(keys))
        except KeyError:
            pass
    if columns is not None and all(
        _all_types(columns[keys.index(key)], lambda t, kind=kind: issubclass(t, kind))
        for key, kind in kinds.items()
    ):
        return columns
    raise GraphError(next(
        fault for i, row in enumerate(rows)
        if (fault := _row_fault(row, keys, kinds, f"{where}[{i}]")) is not None
    ))


def parse_graph(text: str) -> WeightedBoundaryGraph:
    """Parse the JSON graph document format.

    Schema: ``{"vertices": [{"id", "m", "boundary"}], "edges": [{"u", "v",
    "w"}]}``.  Unknown fields are rejected; all numbers are binary64.  An
    invalid document is reported at its first offending row.
    """
    doc = load_json(text)
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
    vertex_columns = _json_columns(doc["vertices"], _VERTEX_KEYS, {"boundary": bool},
                                   "vertices")
    edge_columns = _json_columns(doc["edges"], _EDGE_KEYS, {"u": str, "v": str}, "edges")
    return _graph_from_columns(*vertex_columns, *edge_columns)


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
    return arrays_to_json(g.labels, g.measures, g.boundary_mask, *g.edge_arrays)


def arrays_to_json(labels: Sequence[str], measures: np.ndarray, boundary_mask: np.ndarray,
                   u: np.ndarray, v: np.ndarray, w: np.ndarray) -> str:
    """The document of :func:`graph_to_json` from a graph's arrays: vertex i
    is ``labels[i]``, and edge k joins ``u[k]`` and ``v[k]`` with weight ``w[k]``."""
    labels = list(map(json.dumps, labels))
    flags = ("true" if b else "false" for b in boundary_mask.tolist())
    vparts = [
        f'{{"id":{lab},"m":{format_number(m)},"boundary":{flag}}}'
        for lab, m, flag in zip(labels, measures.tolist(), flags)
    ]
    eparts = [
        f'{{"u":{labels[a]},"v":{labels[b]},"w":{format_number(x)}}}'
        for a, b, x in zip(u.tolist(), v.tolist(), w.tolist())
    ]
    return f'{{"vertices":[{",".join(vparts)}],"edges":[{",".join(eparts)}]}}'


def graph_to_json_dict(g: WeightedBoundaryGraph) -> dict:
    """Graph as a plain JSON-compatible dict (same values as the document)."""
    return json.loads(graph_to_json(g))


# --- connectivity and distances ---------------------------------------------


def component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The smallest vertex of each vertex's connected component.

    Components of the graph on 0..n-1 with edges ``(u[k], v[k])``, by
    hooking and pointer jumping (Shiloach & Vishkin 1982): every round hooks
    the larger of the two roots of each edge under the smaller one and then
    jumps every pointer to its root, so a round is a few array operations
    over the edges and few rounds are needed.
    """
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        apart = ru != rv
        if not apart.any():
            return root
        np.minimum.at(root, np.maximum(ru, rv)[apart], np.minimum(ru, rv)[apart])
        while True:
            jumped = root[root]
            if (jumped == root).all():
                break
            root = jumped


def shared_components(n: int, u: np.ndarray, v: np.ndarray, marked: np.ndarray):
    """The :func:`component_labels` of the graph on 0..n-1 with edges
    ``(u[k], v[k])``, and whether each of the distinct vertices ``marked``
    shares its component with another: the comb test, since G is a comb over
    a path iff no path vertex does once the path's edges are removed."""
    labels = component_labels(n, u, v)
    at = labels[marked]
    return labels, np.bincount(at, minlength=n)[at] > 1


def is_connected(g: WeightedBoundaryGraph) -> bool:
    """True iff every vertex is reachable from vertex 0; ``g`` must be a graph."""
    if not isinstance(g, WeightedBoundaryGraph):
        raise GraphError(f"g must be a WeightedBoundaryGraph, got {g!r}")
    u, v, _ = g.edge_arrays
    return g.n > 0 and not component_labels(g.n, u, v).any()


def require_connected(g: WeightedBoundaryGraph) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError("graph is not connected")


def boundary_diameter(g: WeightedBoundaryGraph) -> int:
    """Largest hop distance between two boundary vertices (0 when |B| < 2).

    A packed multi-source BFS from the boundary only, in the style of MS-BFS
    (Then et al., PVLDB 2014): bit ``k % 64`` of word ``k // 64`` in row v is
    set once v lies within the current hop count of boundary vertex k, and
    one ``bitwise_or.reduceat`` over the CSR rows advances every source at
    once.  It stops at the first hop count at which every boundary vertex
    has been reached from every boundary source: O(|E| d_B ceil(|B| / 64))
    word operations.
    """
    indptr, indices = g.csr
    if g.n > 1 and not np.diff(indptr).all():
        # reduceat would read a neighbour's bits into an empty CSR row
        raise DisconnectedGraphError("graph is not connected")
    bidx = np.asarray(g.boundary, dtype=np.intp)
    k = np.arange(len(bidx), dtype=np.uint64)
    visited = np.zeros((g.n, -(-len(bidx) // 64)), dtype=np.uint64)
    visited[bidx, k // 64] = np.uint64(1) << k % 64
    frontier = visited
    for hops in count():
        rows = visited[bidx]
        if (rows == rows[:1]).all():  # rows hold their own bits: equal means full
            return hops
        reached = np.take(frontier, indices, axis=0)
        frontier = np.bitwise_or.reduceat(reached, indptr[:-1]) & ~visited
        if not frontier.any():
            raise DisconnectedGraphError("graph is not connected")
        visited = visited | frontier


def hop_distances(g: WeightedBoundaryGraph, sources=None) -> np.ndarray:
    """Unweighted hop distances from each of ``sources`` (default: every
    vertex) to every vertex, as a read-only (len(sources), n) integer array:
    one ``scipy.sparse.csgraph`` BFS per source over the CSR lists.  Raises
    :class:`DisconnectedGraphError` when some vertex is out of reach.
    """
    # imported here, not at module load: the corpus routes never need scipy.sparse
    from scipy.sparse import csgraph, csr_array

    if sources is not None:  # read once: a generator is consumed by the range check
        sources = listed("sources", sources, "vertex ids")
    for s in () if sources is None else sources:
        require_integer("source", s)
        if not 0 <= s < g.n:
            raise GraphError(f"unknown vertex {s}")
    indptr, indices = g.csr
    adj = csr_array((np.ones(len(indices)), indices, indptr), shape=(g.n, g.n))
    dist = csgraph.shortest_path(adj, unweighted=True, indices=sources)
    if np.isinf(dist).any():
        raise DisconnectedGraphError("graph is not connected")
    dist = dist.astype(np.int64)
    dist.setflags(write=False)
    return dist


def hop_distance_matrix(g: WeightedBoundaryGraph) -> np.ndarray:
    """All-pairs :func:`hop_distances`, an (n, n) integer matrix."""
    return hop_distances(g)


def geodesic_layers(from_x: np.ndarray, from_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vertices on some x-y geodesic, and whether that geodesic is unique,
    from the hop distances d(x, .) and d(., y) over any leading axes.

    v lies on an x-y geodesic iff d(x, v) + d(v, y) = d(x, y), the least
    such sum.  Every geodesic meets each layer d(x, .) = 0, ..., d(x, y) of
    that set exactly once, so the geodesic is unique iff the set has
    d(x, y) + 1 vertices; it is then the set ordered by d(x, .).
    """
    through = from_x + from_y
    length = through.min(axis=-1, keepdims=True)
    on = through == length
    return on, on.sum(axis=-1) == length[..., 0] + 1


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
    require_integer("max_paths", max_paths, lo=1)
    dist = hop_distances(g, [y, x])[0].tolist()  # x too: its range is checked
    if x == y:
        return [(x,)]
    indptr, indices = (a.tolist() for a in g.csr)

    def steps(u: int) -> Iterator[int]:
        return (v for v in indices[indptr[u]:indptr[u + 1]] if dist[v] == dist[u] - 1)

    # Depth-first from x over the steps one hop closer to y: that DAG has no
    # dead ends, so the work is proportional to the paths emitted; the stack
    # replaces recursion.
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


# --- boundary function coercion ---------------------------------------------


def boundary_vector(g: WeightedBoundaryGraph, f) -> np.ndarray:
    """Coerce a boundary function to a float vector aligned with g.boundary.

    Accepts a mapping from boundary vertex id to value (domain must equal the
    boundary exactly) or a sequence of length ``|B|`` in boundary-id order.
    Every value must be a finite number; a bool is not one.
    """
    if len(g.boundary) == 0:
        raise EmptyBoundaryError("graph has an empty boundary")
    if isinstance(f, Mapping):
        if set(f) != set(g.boundary):
            raise GraphError("boundary function domain must equal the boundary")
        f = [f[b] for b in g.boundary]
    values = np.asarray(f, dtype=object)
    if values.shape != (len(g.boundary),):
        raise GraphError(
            f"boundary function must have length {len(g.boundary)}, "
            f"got shape {values.shape}"
        )
    values = values.tolist()
    vec = _binary64(values) if _all_types(values, _is_number_type) else None
    if vec is None or not np.isfinite(vec).all():
        bad = next(x for x in values if not (_is_float(x) and np.isfinite(float(x))))
        raise GraphError(f"boundary values must be finite numbers, got {bad!r}")
    return vec
