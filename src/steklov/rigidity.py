"""Equality certification for the extended sigma_2 lower bound.

Equality forces a very rigid structure: exactly two boundary vertices of
equal measure, a unique geodesic between them whose edges all carry the
global minimum weight, and the whole graph a comb over that geodesic (after
removing the geodesic's edges, no two of its vertices stay connected).
Conversely every graph of that shape attains equality, which is what
:func:`comb_graph` constructs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .graph import (
    GraphError,
    WeightedBoundaryGraph,
    component_labels,
    graph_from_arrays,
)

EQUALITY_TOL = 1e-8


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
    path = tuple(int(v) for v in path)
    if len(path) == 0:
        raise GraphError("invalid path: empty")
    if len(set(path)) != len(path):
        raise GraphError("invalid path: repeated vertex")
    for v in path:
        if not 0 <= v < g.n:
            raise GraphError(f"invalid path: unknown vertex {v}")
    removed = []
    for a, b in zip(path, path[1:]):
        key = (min(a, b), max(a, b))
        if key not in g.edge_rank:
            raise GraphError(f"invalid path: {a} and {b} are not adjacent")
        removed.append(g.edge_rank[key])

    tails, heads, _ = g.edge_arrays
    kept = np.ones(len(tails), dtype=bool)
    kept[removed] = False
    comp = component_labels(g.n, tails[kept], heads[kept]).tolist()
    members: dict[int, set[int]] = {}
    for x in range(g.n):
        members.setdefault(comp[x], set()).add(x)
    components = tuple(frozenset(members[comp[v]]) for v in path)
    is_comb = len({comp[v] for v in path}) == len(path)
    return CombDecomposition(
        path_vertices=path, components=components, is_comb=is_comb
    )


def bound_attained(sigma2, bound, tol: float = EQUALITY_TOL):
    """Numeric equality of sigma_2 with the extended bound.

    ``|sigma2 - bound| <= tol * bound``: relative to the bound, so the
    verdict does not change when weights or measures are scaled.  Works
    elementwise on arrays.
    """
    return abs(sigma2 - bound) <= tol * bound


def _values_equal(a: float, b: float, rel_tol: float) -> bool:
    # rel_tol 0 means bitwise input equality, the default policy for stored
    # weights and measures.
    if rel_tol <= 0.0:
        return a == b
    return abs(a - b) <= rel_tol * max(abs(a), abs(b))


def _unique_geodesic(g: WeightedBoundaryGraph, x: int, y: int) -> PathWitness | None:
    """The shortest x-y path if it is the only one, else None.

    Geodesic counts capped at 2 are summed layer by layer during a BFS from
    x; when y's count is 1, walking back through the one counted
    predecessor of each vertex rebuilds the path.
    """
    dist = [-1] * g.n
    count = [0] * g.n
    dist[x], count[x] = 0, 1
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for v, _ in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
            if dist[v] == dist[u] + 1:
                count[v] = min(2, count[v] + count[u])
    if count[y] != 1:
        return None
    path, weights = [y], []
    while path[-1] != x:
        v = path[-1]
        u, w = next(
            (u, w) for u, w in g.adjacency[v] if dist[u] == dist[v] - 1 and count[u]
        )
        path.append(u)
        weights.append(w)
    return PathWitness(vertices=tuple(path[::-1]), edge_weights=tuple(weights[::-1]))


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
    tolerance.
    """
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
    The resulting sigma_2 equals ``2 path_weight / (endpoint_mass path_len)``.
    """
    if path_len < 1:
        raise GraphError("path length must be at least 1")
    if path_weight <= 0 or endpoint_mass <= 0:
        raise GraphError("path weight and endpoint mass must be positive")
    n_path = path_len + 1
    if isinstance(interior_masses, (int, float)):
        inner = [float(interior_masses)] * max(0, path_len - 1)
    else:
        inner = [float(m) for m in interior_masses]
        if len(inner) != path_len - 1:
            raise GraphError(
                f"expected {path_len - 1} interior masses, got {len(inner)}"
            )
    measures = [endpoint_mass, *inner, endpoint_mass]
    edges: list[tuple[int, int, float]] = [
        (i, i + 1, path_weight) for i in range(path_len)
    ]

    if teeth is not None:
        k = len(teeth.measures)
        for a, b, w in teeth.edges:
            if not (0 <= a < k and 0 <= b < k):
                raise GraphError(f"tooth edge ({a}, {b}) out of range")
            if w < path_weight:
                raise GraphError(
                    f"tooth edge weight {w!r} below path weight {path_weight!r}"
                )
        tails, heads = (np.array([e[i] for e in teeth.edges], dtype=np.intp)
                        for i in (0, 1))
        comp = component_labels(k, tails, heads).tolist()
        comp_targets: dict[int, set[int]] = {}
        for t, p, w in teeth.attachments:
            if not 0 <= t < k:
                raise GraphError(f"attachment tooth vertex {t} out of range")
            if not 0 <= p <= path_len:
                raise GraphError(f"attachment path index {p} out of range")
            if w < path_weight:
                raise GraphError(
                    f"tooth edge weight {w!r} below path weight {path_weight!r}"
                )
            comp_targets.setdefault(comp[t], set()).add(p)
        for c in set(comp):
            targets = comp_targets.get(c, set())
            if len(targets) == 0:
                raise GraphError("tooth is not attached to any path vertex")
            if len(targets) > 1:
                raise GraphError("tooth touches two path vertices")
        measures.extend(teeth.measures)
        edges.extend((n_path + a, n_path + b, w) for a, b, w in teeth.edges)
        edges.extend((n_path + t, p, w) for t, p, w in teeth.attachments)

    return graph_from_arrays(
        measures=measures, boundary=(0, path_len), edges=edges
    )


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
    ``measure_range``.  Deterministic for a given seed.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
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

    teeth = None
    if measures:
        teeth = ToothSet(
            measures=tuple(measures),
            edges=tuple(tooth_edges),
            attachments=tuple(attachments),
        )
    return comb_graph(
        path_len=path_len,
        path_weight=path_weight,
        endpoint_mass=endpoint_mass,
        teeth=teeth,
        interior_masses=interior,
    )
