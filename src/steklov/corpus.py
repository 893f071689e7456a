"""Random and exhaustive graph corpora with brute-force theorem verification.

``verify_corpus`` asserts, for every instance, the extended lower bound,
that numeric equality coincides with the structural certificate, and the
spectral invariants.  Violations come back as data, never as exceptions.
Each assertion is written once, as a row of the check table ``_CHECKS``.

One kernel, ``_quantities``, computes every quantity the table reads for a
stack of graphs crossed with shared boundary index tables.  Unit-weight
exhaustive mode feeds it chunks of edge masks; every other stream (random
mode, weighted exhaustive mode and ``check_instance``, a stream of one) is a
stream of array instances, relabelled boundary-first and stacked by (n, |B|,
unit weights).  A validated graph is built only for a violation record.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .bounds import bound_formulas
from .graph import (
    EmptyBoundaryError,
    GraphError,
    WeightedBoundaryGraph,
    all_unit,
    component_labels,
    geodesic_layers,
    graph_from_arrays,
    graph_to_json_dict,
    json_number,
    require_connected,
    seeded_rng,
)
from .rigidity import bound_attained
from .spectral import OPERATOR_CHECKS, steklov_operator

# The bound tolerances are relative to the bound, so their verdicts do not
# change when weights or measures are scaled.
BOUND_SLACK = 1e-9
DOMINANCE_SLACK = 1e-15
UNIT_SPECIALIZATION_TOL = 1e-15
GREEN_TOL = 1e-9
EIGVEC_ALIGN_TOL = 1e-8

# Largest n of random mode: one instance at n = 1000 takes 0.4-0.9 s with its
# generation and about 200 MB (2-core VM, one BLAS thread).
RANDOM_N_MAX = 1000

# Connectivity draws of one random instance before it gives up.
RANDOM_RETRIES = 1000

# Deliberate corruptions for mutation-sentinel tests: each must make the
# verifier report violations, proving the assertions are not vacuous.
MUTATION_BOUND_DB = "bound_db_plus_one"
MUTATION_COMB_SKIP = "comb_skip_disjointness"
KNOWN_MUTATIONS = frozenset({MUTATION_BOUND_DB, MUTATION_COMB_SKIP})

# The check table: (check, predicate over the named quantities, quantities a
# violation reports); the Steklov matrix's own rows are ``OPERATOR_CHECKS``.
# A row runs only when every quantity it reports is present: sigma_2, the
# bounds and the certificate need |B| >= 2, unit_formula unit weights,
# misalignment eigenvectors, and a failed solve or eigensolve leaves only its
# error.  Predicates also work elementwise.
_CHECKS = (
    ("numerics_failure", lambda q: q["error"] == "", ("error",)),
    *OPERATOR_CHECKS,
    ("sigma1_constant_vector", lambda q: q["misalignment"] <= EIGVEC_ALIGN_TOL,
     ("misalignment",)),
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
_CHECK_RANK = {check: rank for rank, (check, _, _) in enumerate(_CHECKS)}


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
        if self.mode == "random" and not 2 <= self.n_max <= RANDOM_N_MAX:
            raise GraphError(f"random mode requires 2 <= n_max <= {RANDOM_N_MAX}")
        if self.samples < 0:
            raise GraphError("samples must be nonnegative")
        if self.seed < 0:
            raise GraphError(f"seed must be nonnegative, got {self.seed}")
        _check_ranges(self.weight_range, self.measure_range)


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


# --- instances -------------------------------------------------------------------


class _Instance(namedtuple("_Instance", "n u v w m boundary unit")):
    """A corpus instance as the kernel reads it: the edges u < v, sorted by
    (u, v), with weights w, the measures m, the sorted boundary ids and
    whether every weight and measure is 1 (:func:`all_unit`)."""

    __slots__ = ()

    @classmethod
    def of(cls, g: WeightedBoundaryGraph) -> _Instance:
        return cls(g.n, *g.edge_arrays, g.measures, np.asarray(g.boundary), g.is_unit_weighted())

    def graph(self) -> WeightedBoundaryGraph:
        """The validated graph, built only for a violation record."""
        return graph_from_arrays(self.m, self.boundary.tolist(),
                                 zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))


def _check_ranges(weight_range, measure_range) -> None:
    """Ends finite and > 0 make every drawn value so: drawn instances skip validation."""
    for name, ends in (("weight_range", weight_range), ("measure_range", measure_range)):
        if len(ends) != 2 or not all(0 < end < np.inf for end in ends):
            raise GraphError(f"{name} ends must be finite and > 0, got {tuple(ends)}")


def random_graph(n: int, edge_prob: float, weight_range: tuple[float, float],
                 measure_range: tuple[float, float], boundary_size: int, seed,
                 unit: bool = False) -> WeightedBoundaryGraph:
    """Uniform G(n, p) conditioned on connectivity, by rejection sampling.

    Weights and measures are uniform in the given ranges (or all 1 with
    ``unit=True``), the boundary is a uniform subset of the requested size.
    Deterministic for a given seed; raises after ``RANDOM_RETRIES`` failed
    connectivity draws.
    """
    if n < 2:
        raise GraphError("random graphs need n >= 2")
    if not 1 <= boundary_size <= n:
        raise GraphError("boundary size must be between 1 and n")
    _check_ranges(weight_range, measure_range)
    return _random_instance(n, edge_prob, weight_range, measure_range, boundary_size,
                            seeded_rng(seed), unit).graph()


def _random_instance(n, edge_prob, weight_range, measure_range, boundary_size, rng,
                     unit) -> _Instance:
    """The draw of :func:`random_graph`, as an instance."""
    tails, heads = _pair_arrays(n)
    for _ in range(RANDOM_RETRIES):
        keep = rng.random(len(tails)) < edge_prob
        u, v = tails[keep], heads[keep]
        if not component_labels(n, u, v).any():
            break
    else:
        raise GraphError(f"no connected draw in {RANDOM_RETRIES} tries (n={n}, p={edge_prob})")
    if unit:
        weights, measures = np.ones(len(u)), np.ones(n)
    else:
        weights = rng.uniform(*weight_range, size=len(u))
        measures = rng.uniform(*measure_range, size=n)
    boundary = np.sort(rng.choice(n, size=boundary_size, replace=False))
    return _Instance(n, u, v, weights, measures, boundary, all_unit(measures, weights))


@lru_cache(maxsize=64)
def _pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of the vertex pairs u < v, in lexicographic order."""
    return np.triu_indices(n, 1)


# --- exhaustive enumeration -----------------------------------------------------


# Graphs per chunk, both when deciding connectivity and per unit stack.
_CHUNK = 4096


@lru_cache(maxsize=8)
def _connected_edge_masks(n: int) -> tuple[int, ...]:
    """Edge bitmasks of all connected labeled simple graphs on n vertices,
    ascending; bit k of a mask is the k-th pair of ``_pair_arrays(n)``.

    Each chunk is decided by one :func:`component_labels` call over the
    disjoint union of its graphs, graph i on the vertices i*n .. i*n + n-1.
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


def _mask_instance(n: int, edge_mask: int, boundary_mask: int,
                   rng=None, weight_range=None, measure_range=None) -> _Instance:
    """Instance of an edge and a boundary bitmask; values drawn from ``rng``, else all 1."""
    tails, heads = _pair_arrays(n)
    on = np.flatnonzero(_bits(edge_mask, len(tails)))
    w, m = np.ones(len(on)), np.ones(n)
    if rng is not None:
        w, m = rng.uniform(*weight_range, size=len(on)), rng.uniform(*measure_range, size=n)
    return _Instance(n, tails[on], heads[on], w, m, np.flatnonzero(_bits(boundary_mask, n)),
                     all_unit(m, w))


def _small_instances(n_max: int, *draw) -> Iterator[_Instance]:
    """Every connected labeled graph on 2..n_max vertices, crossed with every
    boundary subset of size >= 2, by ``_mask_instance(..., *draw)``: n
    ascending, then edge bitmask, then boundary bitmask."""
    return (_mask_instance(n, edge_mask, boundary_mask, *draw)
            for n in range(2, n_max + 1) for edge_mask in _connected_edge_masks(n)
            for boundary_mask in _boundary_masks(n))


def count_exhaustive_instances(n_max: int) -> int:
    """Number of (graph, boundary) instances of the exhaustive corpus."""
    if not 2 <= n_max <= 7:
        raise GraphError("exhaustive enumeration requires 2 <= n_max <= 7")
    return sum(len(_connected_edge_masks(n)) * len(_boundary_masks(n))
               for n in range(2, n_max + 1))


# --- the check table's evaluator and its shared quantities ---------------------


def _evaluate(q: dict) -> Iterator[tuple[str, tuple[str, ...], object]]:
    """(check, reported quantities, verdict) for every table row whose inputs
    are present; the verdict is a bool array over stacked cells."""
    for check, holds, keys in _CHECKS:
        if all(key in q for key in keys):
            yield check, keys, holds(q)


def _details(q: dict, keys: tuple[str, ...], at: tuple = ()) -> dict:
    """The reported quantities of one instance (cell ``at`` of a stack)."""
    return {key: np.asarray(q[key])[at].item() for key in keys}


def _bound_quantities(sigma2, w0, m0, v_b, d_b, nb: int, mutations) -> dict:
    """sigma_2, the three bounds and the numeric equality verdict; the
    ``bound_db_plus_one`` sentinel shifts d_B in the extended bound only."""
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


# --- the kernel -----------------------------------------------------------------


def _distance_tables(weights: np.ndarray) -> np.ndarray:
    """Hop distances of connected graphs from their (G, n, n) weights.

    d(x, y) counts the hop counts at which y is still out of x's reach, by
    boolean reach powers reach <- min(reach (A + I), 1): they cannot
    overflow and cost one product per hop, at most n - 1 of them.
    """
    n = weights.shape[-1]
    step = (weights > 0) + np.eye(n)
    reach = np.broadcast_to(np.eye(n), weights.shape)
    dist = np.zeros(weights.shape, dtype=np.int64)
    for _ in range(n - 1):
        apart = reach == 0
        if not apart.any():
            break
        dist += apart
        reach = np.minimum(reach @ step, 1.0)
    return dist


class _Stack:
    """G graphs on n vertices: (G, n, n) weights, zero off the edges, and
    (G, n) measures, or None when every weight and measure is 1."""

    def __init__(self, weights: np.ndarray, measures: np.ndarray | None = None):
        self.weights, self.measures = weights, measures
        self.lap = weights.sum(axis=2)[:, :, None] * np.eye(weights.shape[-1]) - weights
        self.w0 = np.where(weights > 0, weights, np.inf).min(axis=(1, 2))
        self.dist = _distance_tables(weights)


def _quantities(stack: _Stack, bidx, iidx, rng, mutations, vectors: bool) -> dict:
    """Every quantity the check table reads, as (G, C) arrays: the graphs of
    ``stack`` crossed with the boundary index tables ``bidx`` (C, |B|) and
    ``iidx`` (C, n - |B|).  ``vectors`` takes ``eigh`` and the misalignment
    over ``eigvalsh``.  Unit stacks skip the mass reduction: m0 = 1 exactly.
    """
    lap, (count, n), size = stack.lap, stack.lap.shape[:2], bidx.shape[1]
    mass = np.ones(size) if stack.measures is None else stack.measures[:, bidx]
    l_ob = interior_map = None
    try:
        if n > size:
            l_ob = lap[:, iidx[:, :, None], bidx[:, None, :]]
            interior_map = np.linalg.solve(lap[:, iidx[:, :, None], iidx[:, None, :]], l_ob)
        schur, eig, vecs, q = steklov_operator(
            lap[:, bidx[:, :, None], bidx[:, None, :]], l_ob, interior_map,
            None if stack.measures is None else mass, vectors)
    except np.linalg.LinAlgError as exc:
        return {"error": np.full((count, len(bidx)), str(exc))}
    if vectors:  # v1 is m-normalized; its residual off the constants:
        v1 = vecs[..., 0] / np.sqrt(mass)
        resid = v1 - (v1 * mass).sum(-1, keepdims=True) / mass.sum(-1, keepdims=True)
        q["misalignment"] = np.sqrt((resid * resid * mass).sum(-1))

    # Green symmetry: <Lambda f, h>_B (Schur route) against the energy
    # pairing of the harmonic extensions
    def extend(values: np.ndarray) -> np.ndarray:
        u = np.zeros((count, len(bidx), n))
        rows = np.arange(len(bidx))[:, None]
        u[:, rows, bidx] = values
        if interior_map is not None:
            u[:, rows, iidx] = -np.einsum("gcoj,gcj->gco", interior_map, values)
        return u

    f = rng.standard_normal((count, len(bidx), size))
    h = rng.standard_normal((count, len(bidx), size))
    q["schur_form"] = np.einsum("gci,gcij,gcj->gc", h, schur, f)
    q["energy"] = np.einsum("gci,gij,gcj->gc", extend(f), lap, extend(h))

    if size >= 2:
        d_b = stack.dist[:, bidx[:, :, None], bidx[:, None, :]].max(axis=(-1, -2))
        q.update(_bound_quantities(eig[..., 1], stack.w0[:, None], mass.min(-1),
                                   mass.sum(-1), d_b, size, mutations))
        if stack.measures is not None:
            del q["unit_formula"]
        cond = np.zeros((3, count, len(bidx)), dtype=bool)
        if size == 2:
            x, y = bidx.T
            cond[0] = mass[..., 0] == mass[..., 1]
            on, unique = geodesic_layers(stack.dist[:, x], stack.dist[:, y])
            gi, ci = np.nonzero(unique)
            cond[1:, gi, ci] = _geodesic_conditions(stack, gi, on[gi, ci])
        q.update(_certificate(*cond, mutations))
    return q


def _geodesic_conditions(stack: _Stack, gi, on) -> tuple[np.ndarray, np.ndarray]:
    """cond_path and cond_comb of graph ``gi[k]`` over the unique geodesic
    whose vertex mask is ``on[k]`` (:func:`~steklov.graph.geodesic_layers`).

    Its edges are the edges among those vertices (no chord), each weighing
    w0 bitwise for the path condition.  The graph is a comb when no two of
    those vertices are joined once those edges are removed: a closure by
    repeated boolean squaring.
    """
    n = on.shape[-1]
    on_pairs = on[:, :, None] & on[:, None, :]
    weights = stack.weights[gi]
    edge = weights > 0
    cond_path = ~(edge & on_pairs & (weights != stack.w0[gi, None, None])).any(axis=(1, 2))
    eye = np.eye(n, dtype=bool)
    reach = edge & ~on_pairs | eye
    for _ in range((n - 2).bit_length()):
        reach = reach @ reach
    return cond_path, ~(reach & on_pairs & ~eye).any(axis=(1, 2))


def _violations(q: dict, instance: Callable) -> list[ViolationRecord]:
    """Records of the failed cells of ``q``; ``instance(gi, ci)`` gives the
    index and the graph of cell (gi, ci)."""
    records = []
    for check, keys, ok in _evaluate(q):
        if ok.all():
            continue
        for gi, ci in np.argwhere(~ok).tolist():
            index, g = instance(gi, ci)
            records.append(ViolationRecord(
                index, check, graph_to_json_dict(g), _details(q, keys, (gi, ci))
            ))
    return records


def _record_key(record: ViolationRecord) -> tuple[int, int]:
    return record.index, _CHECK_RANK[record.check]


# --- the two feeders ------------------------------------------------------------


def _verify_unit_masks(spec, mutations, max_violations) -> list[ViolationRecord]:
    """Unit-weight exhaustive verification: each chunk of edge masks, crossed
    with the boundary subsets of one size at a time."""
    records: list[ViolationRecord] = []
    index_base = 0
    for n in range(2, spec.n_max + 1):
        masks, bmasks = _connected_edge_masks(n), _boundary_masks(n)
        bits = _bits(bmasks, n)
        tables = []
        for size in range(2, n + 1):
            ranks = np.flatnonzero(bits.sum(axis=1) == size)
            tables.append((ranks, np.nonzero(bits[ranks])[1].reshape(-1, size),
                           np.nonzero(1 - bits[ranks])[1].reshape(len(ranks), n - size)))
        u, v = _pair_arrays(n)
        for start in range(0, len(masks), _CHUNK):
            sub = masks[start : start + _CHUNK]
            adj = np.zeros((len(sub), n, n))
            adj[:, u, v] = adj[:, v, u] = _bits(sub, len(u))
            stack = _Stack(adj)
            rng = np.random.default_rng([spec.seed, n, start])
            for ranks, bidx, iidx in tables:
                q = _quantities(stack, bidx, iidx, rng, mutations, vectors=False)
                records += _violations(q, lambda gi, ci: (
                    index_base + (start + gi) * len(bmasks) + int(ranks[ci]),
                    _mask_instance(n, sub[gi], bmasks[ranks[ci]]).graph(),
                ))
            if max_violations is not None and len(records) >= max_violations:
                return sorted(records, key=_record_key)
        index_base += len(masks) * len(bmasks)
    return sorted(records, key=_record_key)


def _stack_quantities(stack: Sequence[_Instance], rng, mutations) -> dict:
    """The kernel's quantities for instances that share (n, |B|, unit weights),
    each relabelled boundary-first so that they share ``bidx = arange(|B|)``;
    one fancy assignment scatters every edge of the stack."""
    count, n, nb = len(stack), stack[0].n, len(stack[0].boundary)
    on_b = np.zeros((count, n), dtype=bool)
    on_b[np.arange(count)[:, None], [inst.boundary for inst in stack]] = True
    label = np.where(on_b, on_b.cumsum(axis=1) - 1, nb - 1 + (~on_b).cumsum(axis=1))
    gi = np.repeat(np.arange(count), [len(inst.u) for inst in stack])
    u = label[gi, np.concatenate([inst.u for inst in stack])]
    v = label[gi, np.concatenate([inst.v for inst in stack])]
    weights = np.zeros((count, n, n))
    weights[gi, u, v] = weights[gi, v, u] = np.concatenate([inst.w for inst in stack])
    measures = np.empty((count, n))
    measures[np.arange(count)[:, None], label] = [inst.m for inst in stack]
    return _quantities(_Stack(weights, None if stack[0].unit else measures),
                       np.arange(nb)[None], np.arange(nb, n)[None], rng, mutations,
                       vectors=True)


# Matrix cells (n^2 summed over the graphs) per window of a graph stream.
_WINDOW_CELLS = 1 << 20


def _verify_instances(instances, rng, mutations, max_violations) -> list[ViolationRecord]:
    """Verify an instance stream window by window, each window stacked by
    (n, |B|, unit weights); Green-check vectors are drawn per stack."""
    records: list[ViolationRecord] = []
    stream = enumerate(instances)
    while True:
        stacks: dict[tuple, list] = {}
        cells = 0
        for index, inst in stream:
            stacks.setdefault((inst.n, len(inst.boundary), inst.unit), []).append((index, inst))
            cells += inst.n * inst.n
            if cells >= _WINDOW_CELLS:
                break
        for members in stacks.values():
            indices, group = zip(*members)
            q = _stack_quantities(group, rng, mutations)
            records += _violations(q, lambda gi, ci: (indices[gi], group[gi].graph()))
        if not stacks or (max_violations is not None and len(records) >= max_violations):
            return sorted(records, key=_record_key)


def check_instance(g: WeightedBoundaryGraph, rng=None,
                   mutations: frozenset = frozenset()) -> list[tuple[str, dict]]:
    """Run every corpus assertion on one graph; returns (check, details) failures.

    The graph's own arrays as a stream of one through the kernel of
    ``verify_corpus``.  Raises :class:`~steklov.graph.DisconnectedGraphError`
    and :class:`~steklov.graph.EmptyBoundaryError` like the per-graph analysis.
    """
    require_connected(g)
    if not g.boundary:
        raise EmptyBoundaryError("graph has an empty boundary")
    rng = rng if rng is not None else np.random.default_rng(0)
    q = _stack_quantities([_Instance.of(g)], rng, mutations)
    return [(r.check, r.details) for r in _violations(q, lambda gi, ci: (0, g))]


# --- top-level verification ------------------------------------------------------


def _random_instances(spec: CorpusSpec) -> Iterator[_Instance]:
    rng = np.random.default_rng([spec.seed, 0])
    for _ in range(spec.samples):
        n = int(rng.integers(2, spec.n_max + 1))
        edge_prob = float(rng.uniform(0.2, 0.9))
        boundary_size = int(rng.integers(2, n + 1))
        yield _random_instance(n, edge_prob, spec.weight_range, spec.measure_range,
                               boundary_size, rng, spec.unit_only)


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
    if spec.mode == "exhaustive" and spec.unit_only:
        return _verify_unit_masks(spec, mutations, max_violations)
    if spec.mode == "random":
        instances = _random_instances(spec)
    else:
        instances = _small_instances(spec.n_max, np.random.default_rng([spec.seed, 0]),
                                     spec.weight_range, spec.measure_range)
    return _verify_instances(instances, np.random.default_rng([spec.seed, 1]), mutations,
                             max_violations)
