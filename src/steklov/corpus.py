"""Random and exhaustive graph corpora with brute-force theorem verification.

``verify_corpus`` asserts, for every instance, that sigma_2 respects the
extended lower bound, that numeric equality coincides with the structural
certificate, and that the spectral invariants hold (PSD, kernel, Green
symmetry, bound dominance and the unit-weight specialization).  Violations
come back as data, never as exceptions.

Each assertion is written once, as a row of the check table ``_CHECKS``: a
predicate over named quantities that holds its tolerance, plus the
quantities a violation reports.  Two routes compute those quantities and
hand them to the same evaluator.  ``check_instance`` is a batch of one: it
reads Python scalars off the public per-graph operations, and random mode
and the weighted exhaustive mode go through it.  The unit-weight exhaustive
mode is the stacked case: because the n <= 6 corpus has about 1.5 million
instances, it builds stacked Laplacians, batched Schur complements and
eigensolves, walk counts and comb tests, and hands the table arrays.  The
test suite cross-checks the two routes record by record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bounds import bound_formulas, bound_report
from .graph import (
    GraphError,
    WeightedBoundaryGraph,
    component_labels,
    graph_from_arrays,
    graph_to_json_dict,
    json_number,
)
from .rigidity import bound_attained, check_rigidity
from .spectral import (
    KERNEL_TOL,
    PSD_TOL,
    SIGMA1_TOL,
    NumericsError,
    differential,
    dirichlet_energy,
    harmonic_extension,
    steklov_spectrum,
    steklov_system,
)

# The bound tolerances are relative to the bound, so their verdicts do not
# change when weights or measures are scaled.
BOUND_SLACK = 1e-9
DOMINANCE_SLACK = 1e-15
UNIT_SPECIALIZATION_TOL = 1e-15
GREEN_TOL = 1e-9
EIGVEC_ALIGN_TOL = 1e-8

# Deliberate corruptions for mutation-sentinel tests: each must make the
# verifier report violations, proving the assertions are not vacuous.
MUTATION_BOUND_DB = "bound_db_plus_one"
MUTATION_COMB_SKIP = "comb_skip_disjointness"
KNOWN_MUTATIONS = frozenset({MUTATION_BOUND_DB, MUTATION_COMB_SKIP})

# The check table: (check, predicate over the named quantities, quantities a
# violation reports).  A row runs only when every quantity it reports is
# present: sigma_2, the bounds and the certificate are absent when |B| < 2,
# unit_formula when the graph is not unit-weighted, and misalignment in the
# batched engine, which computes no eigenvectors.  Each predicate works on
# Python scalars and elementwise on arrays.
_CHECKS = (
    ("psd", lambda q: q["sigma1"] >= -PSD_TOL * q["eig_scale"], ("sigma1",)),
    ("sigma1_zero", lambda q: abs(q["sigma1"]) <= SIGMA1_TOL * q["eig_scale"],
     ("sigma1",)),
    ("sigma1_constant_vector", lambda q: q["misalignment"] <= EIGVEC_ALIGN_TOL,
     ("misalignment",)),
    ("kernel_constants", lambda q: q["residual"] <= KERNEL_TOL * q["schur_scale"],
     ("residual",)),
    ("green_symmetry",
     lambda q: abs(q["schur_form"] - q["energy"]) <= GREEN_TOL * np.maximum(
         1.0, np.maximum(abs(q["schur_form"]), abs(q["energy"]))),
     ("schur_form", "energy")),
    ("bound_extended_holds",
     lambda q: q["sigma2"] >= q["bound_extended"] * (1.0 - BOUND_SLACK),
     ("sigma2", "bound_extended")),
    ("dominance",
     lambda q: q["bound_extended"] >= q["bound_general"] * (1.0 - DOMINANCE_SLACK),
     ("bound_extended", "bound_general")),
    ("unit_specialization",
     lambda q: abs(q["bound_extended"] - q["unit_formula"])
     <= UNIT_SPECIALIZATION_TOL * q["unit_formula"],
     ("bound_extended", "unit_formula")),
    ("equality_iff_certified", lambda q: q["equality"] == q["certified_equality"],
     ("sigma2", "bound_extended", "equality", "certified_equality",
      "cond_boundary", "cond_path", "cond_comb")),
)
_CHECK_ORDER = ("numerics_failure", *(check for check, _, _ in _CHECKS))
_CHECK_RANK = {name: i for i, name in enumerate(_CHECK_ORDER)}


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters of a verification corpus run."""

    mode: str
    n_max: int = 6
    samples: int = 10_000
    weight_range: tuple[float, float] = (0.5, 2.0)
    measure_range: tuple[float, float] = (0.5, 2.0)
    seed: int = 0
    unit_only: bool = False

    def __post_init__(self):
        if self.mode not in ("random", "exhaustive"):
            raise GraphError(f"unknown corpus mode {self.mode!r}")
        if self.mode == "exhaustive" and not 2 <= self.n_max <= 7:
            raise GraphError("exhaustive mode requires 2 <= n_max <= 7")
        if self.mode == "random" and self.n_max < 2:
            raise GraphError("random mode requires n_max >= 2")
        if self.samples < 0:
            raise GraphError("samples must be nonnegative")


@dataclass(frozen=True)
class ViolationRecord:
    """One failed assertion, with the offending graph for reproduction."""

    index: int
    check: str
    graph: dict
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "check": self.check,
            "details": {k: json_number(v) if isinstance(v, float) else v
                        for k, v in self.details.items()},
            "graph": self.graph,
        }


# --- random graphs ------------------------------------------------------------


def random_graph(
    n: int,
    edge_prob: float,
    weight_range: tuple[float, float],
    measure_range: tuple[float, float],
    boundary_size: int,
    seed,
    unit: bool = False,
    max_retries: int = 1000,
) -> WeightedBoundaryGraph:
    """Uniform G(n, p) conditioned on connectivity, by rejection sampling.

    Weights and measures are uniform in the given ranges (or all 1 with
    ``unit=True``), the boundary is a uniform subset of the requested size.
    Deterministic for a given seed; raises after ``max_retries`` failed
    connectivity draws.
    """
    if n < 2:
        raise GraphError("random graphs need n >= 2")
    if not 1 <= boundary_size <= n:
        raise GraphError("boundary size must be between 1 and n")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    tails, heads = _pair_arrays(n)
    for _ in range(max_retries):
        keep = rng.random(len(tails)) < edge_prob
        u, v = tails[keep], heads[keep]
        if not component_labels(n, u, v).any():
            break
    else:
        raise GraphError(
            f"no connected draw in {max_retries} tries (n={n}, p={edge_prob})"
        )
    if unit:
        weights = np.ones(len(u))
        measures = np.ones(n)
    else:
        weights = rng.uniform(*weight_range, size=len(u))
        measures = rng.uniform(*measure_range, size=n)
    boundary = sorted(int(b) for b in rng.choice(n, size=boundary_size, replace=False))
    return graph_from_arrays(
        measures=measures,
        boundary=boundary,
        edges=list(zip(u.tolist(), v.tolist(), weights.tolist())),
    )


@lru_cache(maxsize=64)
def _pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of the vertex pairs u < v, in lexicographic order."""
    return np.triu_indices(n, 1)


# --- exhaustive enumeration -----------------------------------------------------


# Graphs per chunk, both when deciding connectivity and in the batched engine.
_CHUNK = 4096


@lru_cache(maxsize=8)
def _connected_edge_masks(n: int) -> tuple[int, ...]:
    """Edge bitmasks of all connected labeled simple graphs on n vertices.

    Bit k of a mask is the k-th pair of ``_pair_arrays(n)``.  Ascending
    order.  Each chunk of masks is decided by one :func:`component_labels`
    call over the disjoint union of its graphs, graph i on the vertices
    i*n .. i*n + n-1.
    """
    tails, heads = _pair_arrays(n)
    total = 1 << len(tails)
    out: list[int] = []
    for start in range(0, total, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, total))
        graph, pair = np.nonzero(_bits(masks, len(tails)))
        offset = graph * n
        root = component_labels(len(masks) * n, offset + tails[pair], offset + heads[pair])
        root = root.reshape(-1, n)
        out.extend(masks[(root == root[:, :1]).all(axis=1)].tolist())
    return tuple(out)


@lru_cache(maxsize=8)
def _boundary_masks(n: int) -> tuple[int, ...]:
    """Vertex bitmasks of all boundary subsets of size >= 2, ascending."""
    return tuple(m for m in range(1 << n) if bin(m).count("1") >= 2)


def _bits(masks, width: int) -> np.ndarray:
    """Bit k of each mask as entry k of a new last axis of length ``width``."""
    return (np.asarray(masks, dtype=np.int64)[..., None] >> np.arange(width)) & 1


def _instance_graph(
    n: int,
    edge_mask: int,
    boundary_mask: int,
    weights: Sequence[float] | None = None,
    measures: Sequence[float] | None = None,
) -> WeightedBoundaryGraph:
    tails, heads = _pair_arrays(n)
    on = np.flatnonzero(_bits(edge_mask, len(tails)))
    if weights is None:
        weights = [1.0] * len(on)
    if measures is None:
        measures = [1.0] * n
    edges = zip(tails[on].tolist(), heads[on].tolist(), map(float, weights))
    boundary = np.flatnonzero(_bits(boundary_mask, n)).tolist()
    return graph_from_arrays(measures=measures, boundary=boundary, edges=edges)


def enumerate_small(
    n_max: int,
    unit_only: bool = True,
    rng=None,
    weight_range: tuple[float, float] = (0.5, 2.0),
    measure_range: tuple[float, float] = (0.5, 2.0),
) -> Iterator[WeightedBoundaryGraph]:
    """Every connected labeled graph on 2..n_max vertices, crossed with every
    boundary subset of size >= 2.

    Order is deterministic: n ascending, then edge bitmask, then boundary
    bitmask.  With ``unit_only`` all weights and measures are 1; otherwise
    they are drawn per instance from ``rng`` (seeded 0 when omitted) in the
    given ranges.
    """
    if not 2 <= n_max <= 7:
        raise GraphError("exhaustive enumeration requires 2 <= n_max <= 7")
    if not unit_only and rng is None:
        rng = np.random.default_rng(0)
    for n in range(2, n_max + 1):
        for edge_mask in _connected_edge_masks(n):
            n_edges = bin(edge_mask).count("1")
            for boundary_mask in _boundary_masks(n):
                if unit_only:
                    yield _instance_graph(n, edge_mask, boundary_mask)
                else:
                    weights = rng.uniform(*weight_range, size=n_edges)
                    measures = rng.uniform(*measure_range, size=n)
                    yield _instance_graph(
                        n, edge_mask, boundary_mask, weights, measures
                    )


def count_exhaustive_instances(n_max: int) -> int:
    """Number of (graph, boundary) instances enumerate_small would yield."""
    if not 2 <= n_max <= 7:
        raise GraphError("exhaustive enumeration requires 2 <= n_max <= 7")
    total = 0
    for n in range(2, n_max + 1):
        total += len(_connected_edge_masks(n)) * len(_boundary_masks(n))
    return total


# --- the check table's evaluator and its shared quantities ---------------------


def _evaluate(q: dict) -> Iterator[tuple[str, tuple[str, ...], object]]:
    """(check, reported quantities, verdict) for every table row whose inputs
    are present.

    The verdict is a bool for one instance's scalars and a bool array over
    the cells of stacked arrays.
    """
    for check, holds, keys in _CHECKS:
        if all(key in q for key in keys):
            yield check, keys, holds(q)


def _details(q: dict, keys: tuple[str, ...], at: tuple = ()) -> dict:
    """The reported quantities of one instance (cell ``at`` of a stack)."""
    return {key: np.asarray(q[key])[at].item() for key in keys}


def _operator_quantities(eig: np.ndarray, schur: np.ndarray) -> dict:
    """sigma_1, the kernel residual and their scales, over any leading axes."""
    return {
        "sigma1": eig[..., 0],
        "eig_scale": np.abs(eig).max(axis=-1, initial=1.0),
        "residual": np.abs(schur.sum(axis=-1)).max(axis=-1),
        "schur_scale": np.abs(schur).max(axis=(-1, -2), initial=1.0),
    }


def _bound_quantities(sigma2, w0, m0, v_b, d_b, nb: int, mutations) -> dict:
    """sigma_2, the three bounds and the numeric equality verdict.

    The ``bound_db_plus_one`` sentinel shifts d_B in the extended bound only.
    """
    unit, general, extended = bound_formulas(w0, m0, v_b, d_b, nb)
    if MUTATION_BOUND_DB in mutations:
        extended = bound_formulas(w0, m0, v_b, d_b + 1, nb)[2]
    return {
        "sigma2": sigma2,
        "bound_extended": extended,
        "bound_general": general,
        "unit_formula": unit,
        "equality": bound_attained(sigma2, extended),
    }


def _certificate(cond_boundary, cond_path, cond_comb, mutations) -> dict:
    """The certificate conditions; ``comb_skip_disjointness`` ignores the comb."""
    certified = cond_boundary & cond_path
    if MUTATION_COMB_SKIP not in mutations:
        certified = certified & cond_comb
    return {
        "certified_equality": certified,
        "cond_boundary": cond_boundary,
        "cond_path": cond_path,
        "cond_comb": cond_comb,
    }


# --- reference per-instance verification ---------------------------------------


def check_instance(
    g: WeightedBoundaryGraph,
    rng=None,
    mutations: frozenset = frozenset(),
) -> list[tuple[str, dict]]:
    """Run every corpus assertion on one graph; returns (check, details) failures.

    The quantities come from the public per-graph operations; the batched
    exhaustive engine must agree with this on every instance.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    try:
        system = steklov_system(g)
        spectrum = steklov_spectrum(g, with_vectors=True)
    except NumericsError as exc:
        return [("numerics_failure", {"error": str(exc)})]
    q = _operator_quantities(spectrum.eigenvalues, system.schur)

    # lowest eigenvector must be constant: residual after projecting onto 1
    # in the m-inner product (v1 is m-normalized already)
    v1 = spectrum.eigenvectors[:, 0]
    mass = system.boundary_mass
    resid = v1 - float(np.dot(v1, mass)) / float(mass.sum())
    q["misalignment"] = float(np.sqrt(np.dot(resid * resid, mass)))

    # Green symmetry: <Lambda f, h>_B (Schur route) against <du_f, du_h>
    # (harmonic extension route)
    nb = len(g.boundary)
    f = rng.standard_normal(nb)
    h = rng.standard_normal(nb)
    q["schur_form"] = float(h @ (system.schur @ f))
    du_f = differential(g, harmonic_extension(g, f))
    du_h = differential(g, harmonic_extension(g, h))
    q["energy"] = dirichlet_energy(g, du_f, du_h)

    if nb >= 2:
        r = bound_report(g)
        q.update(_bound_quantities(r.sigma2, r.w0, r.m0, r.VB, r.dB, nb, mutations))
        if not g.is_unit_weighted():
            del q["unit_formula"]
        rigidity = check_rigidity(g)
        q.update(_certificate(
            rigidity.cond_boundary, rigidity.cond_path, rigidity.cond_comb, mutations
        ))
    return [(check, _details(q, keys)) for check, keys, ok in _evaluate(q) if not ok]


# --- batched exhaustive engine ---------------------------------------------------


def _adjacency_stack(n: int, edge_masks: Sequence[int]) -> np.ndarray:
    """Adjacency matrices (as floats) of graphs given by edge bitmasks."""
    u, v = _pair_arrays(n)
    bits = _bits(edge_masks, len(u)).astype(np.float64)
    adj = np.zeros((len(edge_masks), n, n))
    adj[:, u, v] = bits
    adj[:, v, u] = bits
    return adj


def _geodesic_tables(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walk counts and hop distances for a stack of connected adjacencies.

    ``counts[:, k - 1]`` is A^k for k = 1..n-1.  No walk is shorter than a
    geodesic and every length-d(x, y) walk from x to y is one, so d(x, y) is
    the first k with A^k[x, y] > 0 and that entry counts the geodesics.
    """
    n = adj.shape[-1]
    powers = [adj]
    for _ in range(n - 2):
        powers.append(powers[-1] @ adj)
    counts = np.stack(powers, axis=1)
    dist = np.argmax(counts > 0, axis=1) + 1
    dist[:, np.arange(n), np.arange(n)] = 0
    return counts, dist


def _comb_verdicts(
    edge: np.ndarray, dist: np.ndarray, graph: np.ndarray, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Comb test of ``edge[graph[i]]`` over its unique x[i]-y[i] geodesic.

    The geodesic's vertices are those with d(x, v) + d(v, y) = d(x, y), and
    its edges are the adjacent pairs among them (a unique geodesic has no
    chord).  The graph is a comb when no two of those vertices are joined in
    the graph without those edges, whose reachability is the transitive
    closure by repeated boolean squaring.
    """
    n = edge.shape[-1]
    d_x = dist[graph, x]
    on = d_x + dist[graph, :, y] == d_x[np.arange(len(graph)), y][:, None]
    on_pairs = on[:, :, None] & on[:, None, :]
    eye = np.eye(n, dtype=bool)
    reach = (edge[graph] & ~on_pairs) | eye
    for _ in range((n - 2).bit_length()):
        reach = reach @ reach
    return ~(reach & on_pairs & ~eye).any(axis=(1, 2))


def _verify_exhaustive_batch(
    spec: CorpusSpec, mutations: frozenset, max_violations: int | None
) -> list[ViolationRecord]:
    """Vectorized unit-weight exhaustive verification (n grouped in chunks)."""
    records: list[ViolationRecord] = []
    index_base = 0

    for n in range(2, spec.n_max + 1):
        masks = _connected_edge_masks(n)
        bmasks = _boundary_masks(n)
        subsets_per_graph = len(bmasks)
        bits = _bits(bmasks, n)
        by_size: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for size in range(2, n + 1):
            ranks = np.flatnonzero(bits.sum(axis=1) == size)
            bidx = np.nonzero(bits[ranks])[1].reshape(len(ranks), size)
            iidx = np.nonzero(1 - bits[ranks])[1].reshape(len(ranks), n - size)
            by_size[size] = (ranks, bidx, iidx)

        for start in range(0, len(masks), _CHUNK):
            sub = masks[start : start + _CHUNK]
            count = len(sub)
            adj = _adjacency_stack(n, sub)
            lap = -adj
            diag = np.arange(n)
            lap[:, diag, diag] = adj.sum(axis=2)
            counts, dist = _geodesic_tables(adj)
            rng = np.random.default_rng([spec.seed, n, start])

            for size in range(2, n + 1):
                ranks, bidx, iidx = by_size[size]
                n_subsets = len(ranks)
                n_int = n - size
                l_bb = lap[:, bidx[:, :, None], bidx[:, None, :]]
                if n_int:
                    l_oo = lap[:, iidx[:, :, None], iidx[:, None, :]]
                    l_ob = lap[:, iidx[:, :, None], bidx[:, None, :]]
                    interior_map = np.linalg.solve(l_oo, l_ob)
                    schur = l_bb - np.swapaxes(l_ob, -1, -2) @ interior_map
                else:
                    interior_map = None
                    schur = l_bb
                schur = 0.5 * (schur + np.swapaxes(schur, -1, -2))
                eig = np.linalg.eigvalsh(schur)
                q = _operator_quantities(eig, schur)

                f = rng.standard_normal((count, n_subsets, size))
                h = rng.standard_normal((count, n_subsets, size))
                q["schur_form"] = np.einsum("gci,gcij,gcj->gc", h, schur, f)
                u_f = np.zeros((count, n_subsets, n))
                u_h = np.zeros((count, n_subsets, n))
                c_rows = np.arange(n_subsets)[:, None]
                u_f[:, c_rows, bidx] = f
                u_h[:, c_rows, bidx] = h
                if interior_map is not None:
                    u_f[:, c_rows, iidx] = -np.einsum(
                        "gcoj,gcj->gco", interior_map, f
                    )
                    u_h[:, c_rows, iidx] = -np.einsum(
                        "gcoj,gcj->gco", interior_map, h
                    )
                q["energy"] = np.einsum("gci,gij,gcj->gc", u_f, lap, u_h)

                d_b = dist[:, bidx[:, :, None], bidx[:, None, :]].max(axis=(-1, -2))
                q.update(_bound_quantities(
                    eig[..., 1], 1.0, 1.0, float(size), d_b, size, mutations
                ))

                # Unit weights and measures: the boundary condition is |B| = 2
                # and the path condition is a unique geodesic.
                cond_boundary = np.full((count, n_subsets), size == 2)
                cond_path = np.zeros((count, n_subsets), dtype=bool)
                cond_comb = np.zeros((count, n_subsets), dtype=bool)
                if size == 2:
                    x, y = bidx[:, 0], bidx[:, 1]
                    g_rows = np.arange(count)[:, None]
                    cond_path = counts[g_rows, d_b - 1, x, y] == 1
                    gi, ci = np.nonzero(cond_path)
                    cond_comb[gi, ci] = _comb_verdicts(adj > 0, dist, gi, x[ci], y[ci])
                q.update(_certificate(cond_boundary, cond_path, cond_comb, mutations))

                for check, keys, ok in _evaluate(q):
                    for gi, ci in np.argwhere(~ok):
                        rank = int(ranks[ci])
                        records.append(
                            ViolationRecord(
                                index=index_base
                                + (start + int(gi)) * subsets_per_graph
                                + rank,
                                check=check,
                                graph=graph_to_json_dict(
                                    _instance_graph(n, sub[gi], bmasks[rank])
                                ),
                                details=_details(q, keys, (gi, ci)),
                            )
                        )
                # Free this size's stacks before the next size allocates its own.
                del l_bb, schur, eig, interior_map, q, f, h, u_f, u_h
            if max_violations is not None and len(records) >= max_violations:
                records.sort(key=lambda r: (r.index, _CHECK_RANK[r.check]))
                return records
        index_base += len(masks) * subsets_per_graph

    records.sort(key=lambda r: (r.index, _CHECK_RANK[r.check]))
    return records


# --- top-level verification ------------------------------------------------------


def _random_graphs(spec: CorpusSpec) -> Iterator[WeightedBoundaryGraph]:
    rng = np.random.default_rng([spec.seed, 0])
    for _ in range(spec.samples):
        n = int(rng.integers(2, spec.n_max + 1))
        edge_prob = float(rng.uniform(0.2, 0.9))
        boundary_size = int(rng.integers(2, n + 1))
        yield random_graph(
            n,
            edge_prob,
            spec.weight_range,
            spec.measure_range,
            boundary_size,
            rng,
            unit=spec.unit_only,
        )


def _check_stream(
    graphs: Iterable[WeightedBoundaryGraph],
    spec: CorpusSpec,
    mutations: frozenset,
    max_violations: int | None,
) -> list[ViolationRecord]:
    """check_instance on every graph, Green-check vectors drawn from one stream."""
    rng_green = np.random.default_rng([spec.seed, 1])
    records: list[ViolationRecord] = []
    for index, g in enumerate(graphs):
        failures = check_instance(g, rng=rng_green, mutations=mutations)
        if failures:
            doc = graph_to_json_dict(g)
            records.extend(
                ViolationRecord(index=index, check=check, graph=doc, details=details)
                for check, details in failures
            )
            if max_violations is not None and len(records) >= max_violations:
                break
    return records


def _verify_exhaustive_reference(
    spec: CorpusSpec, mutations: frozenset, max_violations: int | None
) -> list[ViolationRecord]:
    stream = enumerate_small(
        spec.n_max,
        unit_only=spec.unit_only,
        rng=np.random.default_rng([spec.seed, 0]),
        weight_range=spec.weight_range,
        measure_range=spec.measure_range,
    )
    return _check_stream(stream, spec, mutations, max_violations)


def verify_corpus(
    spec: CorpusSpec,
    max_violations: int | None = None,
    mutations: frozenset = frozenset(),
) -> list[ViolationRecord]:
    """Verify the bound, the rigidity biconditional and the spectral
    invariants over the whole corpus; returns violations as data.

    An empty list is a full pass.  Identical specs give identical results;
    ``max_violations`` allows early exit once that many are found.  The
    ``mutations`` argument deliberately corrupts the checks (see
    ``KNOWN_MUTATIONS``) so tests can prove the suite is not vacuous.
    """
    unknown = set(mutations) - set(KNOWN_MUTATIONS)
    if unknown:
        raise GraphError(f"unknown mutation {sorted(unknown)[0]!r}")
    if spec.mode == "random":
        return _check_stream(_random_graphs(spec), spec, mutations, max_violations)
    if spec.unit_only:
        return _verify_exhaustive_batch(spec, mutations, max_violations)
    return _verify_exhaustive_reference(spec, mutations, max_violations)
