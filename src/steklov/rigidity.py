"""Equality certification for the extended sigma_2 lower bound.

Equality forces a very rigid structure: exactly two boundary vertices of
equal measure, a unique geodesic between them whose edges all carry the
global minimum weight, and the whole graph a comb over that geodesic (after
removing the geodesic's edges, no two of its vertices stay connected).
Conversely every graph of that shape attains equality, which is what
:func:`comb_graph` constructs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Real
from typing import Sequence

import numpy as np

from .graph import (
    GraphError,
    WeightedBoundaryGraph,
    check_ranges,
    geodesic_layers,
    graph_from_arrays,
    hop_distances,
    is_connected,
    is_real,
    listed,
    require_connected,
    require_integer,
    seeded_rng,
    shared_components,
)

EQUALITY_TOL = 1e-8

# Most vertices of a generated comb: random_comb(50000, 1.0, 2.0, seed=0,
# max_tooth_vertices=8) makes 275,091 vertices in 2.7 s and 320 MB (2-vCPU
# Xeon), so a comb at the cap takes about 10 s and 1.2 GB.
COMB_N_MAX = 10**6


@dataclass(frozen=True)
class PathWitness:
    """A boundary-to-boundary geodesic given as vertex ids plus edge weights."""

    vertices: tuple[int, ...]
    edge_weights: tuple[float, ...]


@dataclass(frozen=True)
class CombDecomposition:
    """Components of G minus the path's edges, one entry per path vertex.

    ``components[i]`` is the vertex set of the connected component containing
    ``path_vertices[i]``; the graph is a comb over the path iff these sets
    are pairwise disjoint (equivalently pairwise distinct).
    """

    path_vertices: tuple[int, ...]
    components: tuple[frozenset[int], ...]
    is_comb: bool


@dataclass(frozen=True)
class RigidityReport:
    """Numeric equality verdict plus the structural certificate.

    ``equality`` is a floating-point nearness check of sigma_2 against the
    extended bound; ``certified_equality`` is the exact structural
    characterization.  The two must agree on every graph (that is the
    theorem), but only the certificate is immune to numerical noise.
    """

    equality: bool
    cond_boundary: bool
    cond_path: bool
    cond_comb: bool
    certified_equality: bool
    sigma2: float
    bound_extended: float
    witness: PathWitness | None = None
    comb: CombDecomposition | None = None


def is_comb_over(
    g: WeightedBoundaryGraph, path: Sequence[int]
) -> CombDecomposition:
    """Decompose G minus the path's edges and test the comb property.

    ``path`` must be a simple path in g (consecutive vertices adjacent, no
    repeats).  Only the path's edges are removed; all vertices remain.
    """
    path = listed("path", path, "vertex ids")
    for v in path:
        require_integer("invalid path: vertex", v)
        if not 0 <= v < g.n:
            raise GraphError(f"invalid path: unknown vertex {v}")
    path = tuple(map(int, path))
    if len(path) == 0:
        raise GraphError("invalid path: empty")
    if len(set(path)) != len(path):
        raise GraphError("invalid path: repeated vertex")
    removed = []
    for a, b in zip(path, path[1:]):
        key = (min(a, b), max(a, b))
        if key not in g.edge_rank:
            raise GraphError(f"invalid path: {a} and {b} are not adjacent")
        removed.append(g.edge_rank[key])

    tails, heads, _ = g.edge_arrays
    kept = np.ones(len(tails), dtype=bool)
    kept[removed] = False
    labels, shared = shared_components(g.n, tails[kept], heads[kept], np.array(path))
    labels = labels.tolist()
    members: dict[int, set[int]] = {}
    for x, label in enumerate(labels):
        members.setdefault(label, set()).add(x)
    components = tuple(frozenset(members[labels[v]]) for v in path)
    return CombDecomposition(path_vertices=path, components=components, is_comb=not shared.any())


def bound_attained(sigma2, bound, tol: float = EQUALITY_TOL):
    """Numeric equality of sigma_2 with the extended bound.

    ``|sigma2 - bound| <= tol * bound``: relative to the bound, so the
    verdict does not change when weights or measures are scaled.  Works
    elementwise on arrays.
    """
    return abs(sigma2 - bound) <= tol * bound


def _values_equal(a: float, b: float, rel_tol: float) -> bool:
    # rel_tol 0 means bitwise input equality of the finite inputs, the
    # default policy for stored weights and measures.
    return abs(a - b) <= rel_tol * max(abs(a), abs(b))


def _unique_geodesic(g: WeightedBoundaryGraph, x: int, y: int) -> PathWitness | None:
    """The shortest x-y path if it is the only one, else None, read off the
    distance layers of x and y: for B = {x, y}, the rows of the boundary BFS."""
    dist = g.analysis.boundary_hops[1] if (x, y) == g.boundary else hop_distances(g, [x, y])
    on, unique = geodesic_layers(*dist)
    if not unique:
        return None
    path = np.flatnonzero(on)[np.argsort(dist[0][on])].tolist()
    ranks = [g.edge_rank[min(a, b), max(a, b)] for a, b in zip(path, path[1:])]
    return PathWitness(vertices=tuple(path),
                       edge_weights=tuple(g.edge_arrays[2][ranks].tolist()))


def check_rigidity(
    g: WeightedBoundaryGraph,
    tol: float = EQUALITY_TOL,
    weight_tol: float = 0.0,
) -> RigidityReport:
    """Evaluate the equality characterization on a connected graph, |B| >= 2.

    ``tol`` is the tolerance for the numeric equality of sigma_2 with the
    extended bound, relative to the bound (see :func:`bound_attained`);
    ``weight_tol`` relaxes the stored-value comparisons (path weights against
    w0, boundary measures against m0) from bitwise equality to a relative
    tolerance.  Both must be finite and nonnegative.
    """
    for name, value in (("tol", tol), ("weight_tol", weight_tol)):
        if not (is_real(value) and 0.0 <= value < np.inf):
            raise GraphError(f"{name} must be finite and nonnegative, got {value!r}")
    require_connected(g)
    report = g.analysis.bound_report
    if len(g.boundary) < 2:
        raise GraphError("rigidity needs at least 2 boundary vertices")
    sigma2, bound = report.sigma2, report.bound_extended
    equality = bound_attained(sigma2, bound, tol)

    cond_boundary = len(g.boundary) == 2 and all(
        _values_equal(float(g.measures[b]), report.m0, weight_tol)
        for b in g.boundary
    )

    comb = None
    cond_path = False
    cond_comb = False
    witness = _unique_geodesic(g, *g.boundary) if len(g.boundary) == 2 else None
    if witness is not None:
        cond_path = all(
            _values_equal(w, report.w0, weight_tol) for w in witness.edge_weights
        )
        comb = is_comb_over(g, witness.vertices)
        cond_comb = comb.is_comb

    certified = cond_boundary and cond_path and cond_comb
    return RigidityReport(
        equality=equality,
        cond_boundary=cond_boundary,
        cond_path=cond_path,
        cond_comb=cond_comb,
        certified_equality=certified,
        sigma2=sigma2,
        bound_extended=bound,
        witness=witness,
        comb=comb,
    )


def report_json(g: WeightedBoundaryGraph, report: RigidityReport) -> dict:
    """RigidityReport as a JSON-compatible dict with label-based witnesses."""
    doc = {f.name: getattr(report, f.name) for f in fields(report)}
    if report.witness is not None:
        doc["witness"] = {
            "vertices": [g.labels[v] for v in report.witness.vertices],
            "edge_weights": list(report.witness.edge_weights),
        }
    if report.comb is not None:
        doc["comb"] = {
            "is_comb": report.comb.is_comb,
            "components": [
                sorted(g.labels[v] for v in component)
                for component in report.comb.components
            ],
        }
    return doc


# --- comb construction --------------------------------------------------------


@dataclass(frozen=True)
class ToothSet:
    """Extra structure hung on path vertices of a comb.

    Tooth vertices are new interior vertices indexed 0..k-1 with their own
    measures; ``edges`` connect tooth vertices among themselves and
    ``attachments`` are edges ``(tooth_vertex, path_index, weight)`` joining
    a tooth vertex to a path vertex.  Every connected group of tooth vertices
    must attach to exactly one path index, otherwise it would either
    disconnect or create a second boundary-to-boundary path.
    """

    measures: tuple[float, ...]
    edges: tuple[tuple[int, int, float], ...] = ()
    attachments: tuple[tuple[int, int, float], ...] = ()


def _require_positive_finite(*named: tuple[str, float]) -> None:
    """Raise :class:`GraphError` for the first (name, value) that is not a
    real number in (0, inf); a bool is not one."""
    for name, value in named:
        if not (is_real(value) and 0.0 < value < np.inf):
            raise GraphError(f"{name} must be positive and finite, got {value!r}")


def comb_graph(
    path_len: int,
    path_weight: float,
    endpoint_mass: float,
    teeth: ToothSet | None = None,
    interior_masses: float | Sequence[float] = 1.0,
) -> WeightedBoundaryGraph:
    """Build a certified equality instance: a comb over a minimum-weight path.

    The base path has ``path_len`` edges of weight ``path_weight``; its two
    endpoints form the boundary, both with measure ``endpoint_mass``.  All
    tooth weights must be >= ``path_weight`` so the path stays minimal, and
    each tooth may touch only one path vertex so the geodesic stays unique.
    The resulting sigma_2 equals ``2 path_weight / (endpoint_mass path_len)``;
    ``path_len`` is at most ``COMB_N_MAX``.
    """
    require_integer("path_len", path_len, hi=COMB_N_MAX)
    if path_len < 1:
        raise GraphError("path length must be at least 1")
    _require_positive_finite(("path weight", path_weight), ("endpoint mass", endpoint_mass))
    n_path = path_len + 1
    # not is_real: a scalar beyond binary64 is reported by graph_from_arrays
    if isinstance(interior_masses, Real) and not isinstance(interior_masses, bool):
        interior_masses = [interior_masses] * max(0, path_len - 1)
    try:  # entries are validated with the graph
        inner = list(interior_masses)
    except TypeError:
        raise GraphError("interior_masses must be a number or a sequence, "
                         f"got {interior_masses!r}") from None
    if len(inner) != path_len - 1:
        raise GraphError(f"expected {path_len - 1} interior masses, got {len(inner)}")
    measures = [endpoint_mass, *inner, endpoint_mass]
    edges: list[tuple[int, int, float]] = [
        (i, i + 1, path_weight) for i in range(path_len)
    ]

    if teeth is not None:
        k = len(teeth.measures)
        rows = [(f"tooth edge {i}", ("tooth vertex",) * 2, e) for i, e in enumerate(teeth.edges)]
        rows += [(f"attachment {i}", ("tooth vertex", "path index"), e)
                 for i, e in enumerate(teeth.attachments)]
        for row, names, (a, b, w) in rows:  # ids are integers, weights numbers, bools neither
            for name, value in zip(names, (a, b)):
                require_integer(f"{row}: {name}", value)
            if not is_real(w):
                raise GraphError(f"{row}: weight must be a real number, got {w!r}")
        for a, b, w in teeth.edges:
            if not (0 <= a < k and 0 <= b < k):
                raise GraphError(f"tooth edge ({a}, {b}) out of range")
            if w < path_weight:
                raise GraphError(f"tooth edge weight {w!r} below path weight {path_weight!r}")
        for t, p, w in teeth.attachments:
            if not 0 <= t < k:
                raise GraphError(f"attachment tooth vertex {t} out of range")
            if not 0 <= p <= path_len:
                raise GraphError(f"attachment path index {p} out of range")
            if w < path_weight:
                raise GraphError(f"tooth edge weight {w!r} below path weight {path_weight!r}")
        measures.extend(teeth.measures)
        edges.extend((n_path + a, n_path + b, w) for a, b, w in teeth.edges)
        edges.extend((n_path + t, p, w) for t, p, w in teeth.attachments)

    g = graph_from_arrays(measures=measures, boundary=(0, path_len), edges=edges)
    # a tooth attached nowhere disconnects g; one attached twice joins two path vertices
    if not is_connected(g):
        raise GraphError("tooth is not attached to any path vertex")
    if not is_comb_over(g, range(path_len + 1)).is_comb:
        raise GraphError("tooth touches two path vertices")
    return g


def random_comb(
    path_len: int,
    path_weight: float,
    endpoint_mass: float,
    seed,
    max_tooth_vertices: int = 6,
    weight_factor: float = 10.0,
    measure_range: tuple[float, float] = (0.1, 10.0),
) -> WeightedBoundaryGraph:
    """Comb with a random tree tooth at every interior path vertex.

    Tooth and attachment weights are uniform in ``[w, weight_factor * w]``
    for path weight w, tooth and interior-path measures uniform in
    ``measure_range``.  Deterministic for a given seed.  Its most vertices,
    ``path_len + 1 + (path_len - 1) * max_tooth_vertices``, are at most
    ``COMB_N_MAX``.
    """
    rng = seeded_rng(seed)
    require_integer("path_len", path_len)
    require_integer("max_tooth_vertices", max_tooth_vertices, lo=1)
    # in Python integers: numpy's would wrap past 2^63
    require_integer("the vertex bound path_len + 1 + (path_len - 1) * max_tooth_vertices",
                    int(path_len) + 1 + (int(path_len) - 1) * int(max_tooth_vertices),
                    hi=COMB_N_MAX)
    _require_positive_finite(("path weight", path_weight), ("endpoint mass", endpoint_mass))
    if not (is_real(weight_factor) and 1.0 <= weight_factor < np.inf):
        raise GraphError(f"weight_factor must be finite and >= 1, got {weight_factor!r}")
    _require_positive_finite(("weight_factor * path weight", weight_factor * path_weight))
    check_ranges(measure_range=measure_range)
    lo, hi = measure_range
    interior = [float(rng.uniform(lo, hi)) for _ in range(max(0, path_len - 1))]

    measures: list[float] = []
    tooth_edges: list[tuple[int, int, float]] = []
    attachments: list[tuple[int, int, float]] = []

    def rand_weight() -> float:
        return float(rng.uniform(path_weight, weight_factor * path_weight))

    for index in range(1, path_len):
        size = int(rng.integers(1, max_tooth_vertices + 1))
        offset = len(measures)
        measures.extend(float(rng.uniform(lo, hi)) for _ in range(size))
        # random recursive tree on the tooth vertices
        for v in range(1, size):
            parent = int(rng.integers(0, v))
            tooth_edges.append((offset + parent, offset + v, rand_weight()))
        root = offset + int(rng.integers(0, size))
        attachments.append((root, index, rand_weight()))

    teeth = ToothSet(tuple(measures), tuple(tooth_edges), tuple(attachments)) if measures else None
    return comb_graph(path_len, path_weight, endpoint_mass, teeth, interior_masses=interior)
