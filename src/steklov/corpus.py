"""Random and exhaustive graph corpora with brute-force theorem verification.

``verify_corpus`` asserts, for every instance, the extended lower bound,
that numeric equality coincides with the structural certificate, and the
spectral invariants.  Violations come back as data, never as exceptions.
Each assertion is written once, as a row of the check table ``_CHECKS``.

One kernel, ``_quantities``, computes every quantity the table reads for a
stack of graphs, and one scatter, ``_column_quantities``, fills that stack
from edge columns: each graph relabelled boundary-first, stacked by |B| and
padded to the stack's largest n with edgeless interior vertices, which leave
every quantity unchanged.  It eigensolves for eigenvalues only, as the
per-graph analysis does, and takes hop distances from the boundary vertices
only.  Whether a graph has unit weights is read off its stack.  Every mode
feeds it through one window loop, ``_verify_runs``, from runs of instances:
a random draw or ``check_instance``'s graph is a run of one, and an
exhaustive level is a run of bitmasks, with no per-instance object.

Both exhaustive modes stream the rows of the isomorphism classes of
connected graphs, each class crossed with the orbits of its automorphisms on
the boundary subsets.  A row stands for its labelings, the labeled instances
it is a relabelling of.  The checks read graph invariants only, so unit mode
verifies each row once; weighted mode repeats each row its labelings times
with fresh i.i.d. values, which is the labeled stream in distribution.  A
record names the row's representative and its index in the row stream, and
is serialised from the instance's arrays.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from math import factorial
from numbers import Real
from typing import Iterator

import numpy as np

from .bounds import bound_formulas
from .graph import (
    EmptyBoundaryError,
    GraphError,
    WeightedBoundaryGraph,
    arrays_to_json,
    check_ranges,
    component_labels,
    geodesic_layers,
    graph_from_arrays,
    index_labels,
    json_number,
    require_connected,
    require_integer,
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

# Largest n_max of each mode; exhaustive n = 8 alone would be 2^28 edge masks.
_N_MAX = {"random": RANDOM_N_MAX, "exhaustive": 7}

# Connectivity draws of one random instance before it gives up.
RANDOM_RETRIES = 1000

# Deliberate corruptions for mutation-sentinel tests: each must make the
# verifier report violations, proving the assertions are not vacuous.
MUTATION_BOUND_DB = "bound_db_plus_one"
MUTATION_COMB_SKIP = "comb_skip_disjointness"
KNOWN_MUTATIONS = frozenset({MUTATION_BOUND_DB, MUTATION_COMB_SKIP})

# The check table: (check, predicate over the named quantities, quantities a
# violation reports); the Steklov matrix's own rows are ``OPERATOR_CHECKS``,
# and ``misalignment`` is the Davis-Kahan bound of :func:`steklov_operator`.
# A row runs only when every quantity it reports is present: sigma_2, the
# bounds and the certificate need |B| >= 2, and a failed solve or eigensolve
# leaves only its error.  Predicates also work elementwise; ``unit`` may be a
# Python bool, so it is negated by ``np.logical_not``, not ``~``.
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
     lambda q: np.logical_not(q["unit"]) | (abs(q["bound_extended"] - q["unit_formula"])
                                             <= UNIT_SPECIALIZATION_TOL * q["unit_formula"]),
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
        if self.mode not in _N_MAX:
            raise GraphError(f"unknown corpus mode {self.mode!r}")
        for name in ("n_max", "samples", "seed"):
            value = getattr(self, name)
            require_integer(name, value)
            if value < 0:
                raise GraphError(f"{name} must be nonnegative, got {value}")
        _check_n_max(self.mode, self.n_max)
        check_ranges(weight_range=self.weight_range, measure_range=self.measure_range)


@dataclass(frozen=True)
class ViolationRecord:
    """One failed assertion, with the offending graph for reproduction and
    the number of labeled instances it stands for."""

    index: int
    check: str
    graph: dict
    details: dict = field(default_factory=dict)
    labelings: int = 1

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "check": self.check,
            "labelings": self.labelings,
            "details": {k: json_number(v) if isinstance(v, float) else v
                        for k, v in self.details.items()},
            "graph": self.graph,
        }


# --- instances -------------------------------------------------------------------


class _Instance(namedtuple("_Instance", "n u v w m boundary")):
    """A corpus instance as the kernel reads it: the edges u < v, sorted by
    (u, v), with weights w, the measures m and the sorted boundary ids.  It
    is a run of one row (:func:`_verify_runs`)."""

    __slots__ = ()
    rows = 1

    @classmethod
    def of(cls, g: WeightedBoundaryGraph) -> _Instance:
        return cls(g.n, *g.edge_arrays, g.measures, np.asarray(g.boundary))

    def columns(self, lo: int, hi: int) -> tuple:
        return (len(self.boundary),), self.boundary, (len(self.u),), self.u, self.v, self.w, self.m

    def graph(self) -> WeightedBoundaryGraph:
        """The validated graph."""
        return graph_from_arrays(self.m, self.boundary.tolist(),
                                 zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    def json_dict(self) -> dict:
        """``graph_to_json_dict(self.graph())``, with no graph built."""
        on_b = np.zeros(self.n, dtype=bool)
        on_b[self.boundary] = True
        return json.loads(arrays_to_json(index_labels(self.n), self.m, on_b, self.u, self.v,
                                         self.w))


def _check_n_max(mode: str, n_max: int) -> None:
    """The n_max range of a mode, for the spec and for the exhaustive count."""
    if not 2 <= n_max <= _N_MAX[mode]:
        raise GraphError(f"{mode} mode requires 2 <= n_max <= {_N_MAX[mode]}")


def random_graph(n: int, edge_prob: float, weight_range: tuple[float, float],
                 measure_range: tuple[float, float], boundary_size: int, seed,
                 unit: bool = False) -> WeightedBoundaryGraph:
    """Uniform G(n, p) conditioned on connectivity, by rejection sampling.

    Weights and measures are uniform in the given ranges (or all 1 with
    ``unit=True``), the boundary is a uniform subset of the requested size.
    Deterministic for a given seed; raises after ``RANDOM_RETRIES`` failed
    connectivity draws, and checks every argument before the first draw.
    """
    require_integer("n", n)
    require_integer("boundary_size", boundary_size)
    if not (isinstance(edge_prob, Real) and not isinstance(edge_prob, bool)
            and 0 < edge_prob <= 1):
        raise GraphError(f"edge_prob must be a number in (0, 1], got {edge_prob!r}")
    if n < 2:
        raise GraphError("random graphs need n >= 2")
    if not 1 <= boundary_size <= n:
        raise GraphError("boundary size must be between 1 and n")
    check_ranges(weight_range=weight_range, measure_range=measure_range)
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
    return _Instance(n, u, v, weights, measures, boundary)


@lru_cache(maxsize=64)
def _pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of the vertex pairs u < v, in lexicographic order."""
    return np.triu_indices(n, 1)


# --- exhaustive enumeration -----------------------------------------------------


# Relabelled masks per product when canonicalising: 2^22 cells is 32 MB.
_RELABEL_CELLS = 1 << 22


@lru_cache(maxsize=8)
def _boundary_masks(n: int) -> tuple[int, ...]:
    """Vertex bitmasks of all boundary subsets of size >= 2, ascending."""
    return tuple(m for m in range(1 << n) if bin(m).count("1") >= 2)


def _bits(masks, width: int) -> np.ndarray:
    """Bit k of each mask as entry k of a new last axis of length ``width``."""
    return (np.asarray(masks, dtype=np.int64)[..., None] >> np.arange(width)) & 1


class _MaskRun(namedtuple("_MaskRun", "n rows masks draw")):
    """A run of bitmask instances on n vertices: ``masks(lo, hi)`` gives the
    edge and the boundary bitmasks of rows lo..hi.  ``draw`` draws their
    weights and measures (:func:`_drawn_values`); without it all are 1."""

    __slots__ = ()

    def columns(self, lo: int, hi: int) -> tuple:
        edge_masks, boundary_masks = self.masks(lo, hi)
        tails, heads = _pair_arrays(self.n)
        gi, k = np.nonzero(_bits(edge_masks, len(tails)))
        row, bids = np.nonzero(_bits(boundary_masks, self.n))
        degree, sizes = np.bincount(gi, minlength=hi - lo), np.full(hi - lo, self.n)
        if self.draw is None:
            w, m = np.ones(len(k)), np.ones(sizes.sum())
        else:
            w, m = _drawn_values(self.draw, degree, sizes)
        return np.bincount(row, minlength=hi - lo), bids, degree, tails[k], heads[k], w, m


def _pair_index(n: int) -> np.ndarray:
    """(n, n) table of the rank of each vertex pair in ``_pair_arrays(n)``."""
    tails, heads = _pair_arrays(n)
    index = np.zeros((n, n), dtype=np.int64)
    index[tails, heads] = index[heads, tails] = np.arange(len(tails))
    return index


@lru_cache(maxsize=8)
def _permutations(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n! vertex permutations, (n!, n), row p mapping vertex v to p[v],
    and the rank of the pair each of them maps each vertex pair to."""
    perms = np.array(list(permutations(range(n))), dtype=np.int64).reshape(-1, n)
    tails, heads = _pair_arrays(n)
    return perms, _pair_index(n)[perms[:, tails], perms[:, heads]]


def _relabelled(masks, moves: np.ndarray) -> np.ndarray:
    """(len(masks), len(moves)) bitmasks: bit k of each mask moved to bit
    ``moves[p, k]`` by each row p.  One product against a power-of-two
    table, exact in float32: every partial sum is an integer below 2^21."""
    weights = np.exp2(moves.T).astype(np.float32)
    return (_bits(masks, moves.shape[1]).astype(np.float32) @ weights).astype(np.int64)


def _relabellings(n: int, masks) -> Iterator[np.ndarray]:
    """Every relabelling of each edge mask on n vertices, as rows of
    ``_relabelled`` products of at most ``_RELABEL_CELLS`` cells."""
    moves = _permutations(n)[1]
    masks = np.asarray(masks, dtype=np.int64)
    step = max(1, _RELABEL_CELLS // len(moves))
    return (_relabelled(masks[s : s + step], moves) for s in range(0, len(masks), step))


def _canonical_masks(n: int, masks) -> np.ndarray:
    """The least relabelled edge mask of each graph on n vertices: equal
    exactly for isomorphic graphs."""
    return np.concatenate([rows.min(axis=1) for rows in _relabellings(n, masks)])


_Class = namedtuple("_Class", "mask aut")


@lru_cache(maxsize=8)
def _graph_classes(n: int) -> tuple[_Class, ...]:
    """The isomorphism classes of connected graphs on n vertices, each as its
    least relabelled edge mask, ascending, with its automorphisms (rows of
    ``_permutations(n)[0]``).

    Every connected graph has a vertex whose removal leaves it connected
    (a leaf of a spanning tree), so joining a new vertex n - 1 to each
    nonempty subset of each class on n - 1 vertices reaches every class.
    """
    perms, moves = _permutations(n)
    if n == 1:
        classes = np.zeros(1, dtype=np.int64)
    else:
        tails, heads = _pair_arrays(n - 1)
        pair = _pair_index(n)
        old = [c.mask for c in _graph_classes(n - 1)]
        old = _bits(old, len(tails)) @ (1 << pair[tails, heads])  # in the pairs of n
        new = _bits(np.arange(1, 1 << (n - 1)), n - 1) @ (1 << pair[: n - 1, n - 1])
        classes = np.unique(_canonical_masks(n, (old[:, None] | new).ravel()))
    return tuple(_Class(int(mask), perms[row == mask])
                 for mask, row in zip(classes, _relabelled(classes, moves)))


@lru_cache(maxsize=8)
def _class_orbits(n: int) -> np.ndarray:
    """(edge mask, boundary mask, labelings) rows, read-only, of each class
    on n vertices crossed with each orbit of its automorphisms on the
    boundary subsets of size >= 2, the orbit as its least mask: class, then
    orbit, ascending.  A row stands for its labelings labeled instances:
    n!/|Aut| relabellings of the class times the orbit's size."""
    rows = []
    for c in _graph_classes(n):
        reps, sizes = np.unique(_relabelled(_boundary_masks(n), c.aut).min(axis=1),
                                return_counts=True)
        rows.append(np.column_stack([np.full(len(reps), c.mask), reps,
                                     factorial(n) // len(c.aut) * sizes]))
    rows = np.concatenate(rows)
    rows.setflags(write=False)
    return rows


def count_exhaustive_instances(n_max: int) -> int:
    """Number of (graph, boundary) instances of the exhaustive corpus, the
    labeled count: the labelings of the class rows."""
    require_integer("n_max", n_max)
    _check_n_max("exhaustive", n_max)
    return sum(int(_class_orbits(n)[:, 2].sum()) for n in range(2, n_max + 1))


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


def _distance_tables(lap: np.ndarray, pad: np.ndarray, nb: int) -> np.ndarray:
    """(G, nb, n) hop distances from the first ``nb`` vertices, none of them
    padding, of connected graphs with (G, n, n) Laplacians.

    d(x, y) counts the hop counts at which y is still out of x's reach, by
    boolean reach powers reach <- min(reach (A + I), 1), held in float32:
    exact, since no count exceeds n < 2^24, and one product per hop, at most
    n - 1 of them.  Padding vertices (``pad``, (G, n)) start in reach, so
    they never keep the loop running, and end at distance n: off every
    geodesic.
    """
    n = lap.shape[-1]
    step = ((lap < 0) | np.eye(n, dtype=bool)).astype(np.float32)
    reach = (np.eye(nb, n, dtype=bool) | pad[:, None, :]).astype(np.float32)
    dist = np.zeros(reach.shape, dtype=np.int64)
    for _ in range(n - 1):
        apart = reach == 0
        if not apart.any():
            break
        dist += apart
        reach = np.minimum(reach @ step, 1)
    return np.where(pad[:, None, :], n, dist)


class _Stack:
    """G graphs on n vertices, the first ``nb`` of them the boundary: the
    (G, n, n) Laplacians, the (G, n) measures (or one (1, n) row shared by
    every graph), the (G, n) padding mask and the (G, nb, n) hop distances
    from the boundary.

    ``lap`` comes holding -w on each edge and 0 elsewhere; its diagonal is
    set here, in place, to the weighted degree plus ``pad``.  Padding
    vertices are interior, with no edge and Laplacian diagonal 1.  L_OO is
    then block diagonal with an identity block and the padded rows of L_OB
    are 0, so the padded rows of X = L_OO^-1 L_OB are 0 and S, the Green
    energy and d_B do not change.  ``unit`` marks the graphs whose weights
    and measures are all 1.
    """

    def __init__(self, lap: np.ndarray, measures: np.ndarray, pad: np.ndarray, nb: int):
        n = lap.shape[-1]
        lap[:, np.arange(n), np.arange(n)] = pad - lap.sum(axis=2)
        self.lap, self.measures = lap, measures
        self.w0 = -np.where(lap < 0, lap, -np.inf).max(axis=(1, 2))
        self.unit = (measures == 1).all(1) & ((lap >= 0) | (lap == -1)).all((1, 2))
        self.dist = _distance_tables(lap, pad, nb)


def _quantities(stack: _Stack, nb: int, rng, mutations) -> dict:
    """Every quantity the check table reads, as (G,) arrays over the graphs
    of ``stack``, whose first ``nb`` vertices are the boundary.
    """
    lap, (count, n) = stack.lap, stack.lap.shape[:2]
    mass = stack.measures[:, :nb]
    l_ob = interior_map = None
    try:
        if n > nb:
            l_ob = lap[:, nb:, :nb]
            interior_map = np.linalg.solve(lap[:, nb:, nb:], l_ob)
        schur, eig, q = steklov_operator(lap[:, :nb, :nb], l_ob, interior_map, mass)
    except np.linalg.LinAlgError as exc:
        return {"error": np.full(count, str(exc))}

    # Green symmetry: <Lambda f, h>_B (Schur route) against the energy
    # pairing of the harmonic extensions
    def extend(values: np.ndarray) -> np.ndarray:
        if interior_map is None:
            return values
        return np.concatenate([values, -np.einsum("goj,gj->go", interior_map, values)], axis=1)

    f = rng.standard_normal((count, nb))
    h = rng.standard_normal((count, nb))
    q["schur_form"] = np.einsum("gi,gij,gj->g", h, schur, f)
    q["energy"] = np.einsum("gi,gij,gj->g", extend(f), lap, extend(h))

    if nb >= 2:
        d_b = stack.dist[:, :, :nb].max(axis=(1, 2))
        q.update(_bound_quantities(eig[:, 1], stack.w0, mass.min(-1), mass.sum(-1), d_b, nb,
                                   mutations))
        q["unit"] = stack.unit
        cond = np.zeros((3, count), dtype=bool)
        if nb == 2:
            cond[0] = mass[:, 0] == mass[:, 1]
            on, unique = geodesic_layers(stack.dist[:, 0], stack.dist[:, 1])
            gi = np.flatnonzero(unique)
            cond[1:, gi] = _geodesic_conditions(stack, gi, on[gi])
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
    lap = stack.lap[gi]
    edge = lap < 0
    cond_path = ~(edge & on_pairs & (lap != -stack.w0[gi, None, None])).any(axis=(1, 2))
    eye = np.eye(n, dtype=bool)
    reach = edge & ~on_pairs | eye
    for _ in range((n - 2).bit_length()):
        reach = reach @ reach
    return cond_path, ~(reach & on_pairs & ~eye).any(axis=(1, 2))


def _failed_cells(q: dict) -> Iterator[tuple[int, str, dict]]:
    """(graph, check, reported quantities) of every failed check of ``q``."""
    for check, keys, ok in _evaluate(q):
        if not ok.all():
            for gi in np.argwhere(~ok)[:, 0].tolist():
                yield gi, check, _details(q, keys, gi)


# --- the feeders ----------------------------------------------------------------


def _column_quantities(nb: int, sizes, on_b, gi, u, v, w, m, rng, mutations) -> dict:
    """The kernel's quantities for a stack of graphs that share |B| = ``nb``,
    given as edge columns: graph ``gi[k]`` has the edge ``u[k]``-``v[k]`` of
    weight ``w[k]``.  Graph g has ``sizes[g]`` vertices, row g of ``on_b``
    marks its boundary (columns past its size are ignored), and ``m`` holds
    the measures of every graph's vertices, graph after graph.

    Each graph is relabelled boundary-first and padded after its interior to
    the stack's largest n (see :class:`_Stack`).  One fancy assignment
    scatters every edge of the stack.
    """
    count, n = len(sizes), int(sizes.max())
    pad = np.arange(n) >= sizes[:, None]
    on_b = on_b[:, :n]
    counted = on_b.cumsum(axis=1)
    label = np.where(on_b, counted - 1, nb + np.arange(n) - counted)
    u, v = label[gi, u], label[gi, v]
    lap = np.zeros((count, n, n))
    lap[gi, u, v] = lap[gi, v, u] = -w
    measures = np.ones((count, n))
    measures[np.nonzero(~pad)[0], label[~pad]] = m
    return _quantities(_Stack(lap, measures, pad, nb), nb, rng, mutations)


# Padded matrix cells, instances x (largest n)^2, per window of a graph
# stream, so every padded stack of a window fits in it.  2^17 holds 145
# instances at n = 30; a larger window adds peak memory there, not speed.
_WINDOW_CELLS = 1 << 17


def _windows(runs) -> Iterator[list[tuple[object, int, int, int]]]:
    """Cut the instance stream of ``runs`` into windows of at most
    ``_WINDOW_CELLS`` padded cells, instances x (largest n)^2, as (run,
    stream index of row lo, lo, hi) row ranges; a larger instance is a
    window alone.  A run holds ``rows`` instances on ``n`` vertices."""
    window, length, side, first = [], 0, 0, 0
    for run in runs:
        lo = 0
        while lo < run.rows:
            if window and length >= _WINDOW_CELLS // max(side, run.n) ** 2:
                yield window
                window, length, side = [], 0, 0
            side = max(side, run.n)
            hi = min(run.rows, lo + max(_WINDOW_CELLS // side**2 - length, 1))
            window.append((run, first + lo, lo, hi))
            length, lo = length + hi - lo, hi
        first += run.rows
    if window:
        yield window


def _drawn_values(draw, degree: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights and measures of instances with ``degree`` edges and ``sizes``
    vertices, instance after instance, drawn from ``draw``, (rng,
    weight_range, measure_range), as ``rng.uniform`` draws them one instance
    at a time, weights then measures: one ``rng.random`` call, and
    ``rng.uniform(lo, hi)`` is lo + (hi - lo) U for U = ``rng.random()``."""
    rng, weight_range, measure_range = draw
    (w_lo, w_hi), (m_lo, m_hi) = map(float, weight_range), map(float, measure_range)
    values = rng.random(degree.sum() + sizes.sum())
    is_weight = np.repeat(np.tile([True, False], len(sizes)),
                          np.column_stack([degree, sizes]).ravel())
    return (w_lo + (w_hi - w_lo) * values[is_weight],
            m_lo + (m_hi - m_lo) * values[~is_weight])


def _verify_runs(runs, rng, mutations,
                 max_violations=None) -> list[tuple[int, str, dict, _Instance]]:
    """Verify the instances of ``runs`` window by window (:func:`_windows`);
    ``run.columns(lo, hi)`` gives rows lo..hi as concatenable columns: |B|
    per row, the boundary ids, the edge count per row, u, v, w and the
    measures.  Rows, edges and vertices are ordered into the window's
    stacks, one per |B| in order of appearance, by one stable argsort each
    over an int16 stack rank; Green-check vectors are drawn per stack.
    Returns the (index, check, details, instance) of each failure, stopping
    after the window that brings them to ``max_violations``."""
    failures: list[tuple[int, str, dict, _Instance]] = []
    for window in _windows(runs):
        nb, bids, degree, u, v, w, m = map(np.concatenate, zip(*(
            run.columns(lo, hi) for run, _, lo, hi in window)))
        sizes = np.repeat([run.n for run, *_ in window], [hi - lo for *_, lo, hi in window])
        count, first = len(sizes), window[0][1]
        on_b = np.zeros((count, sizes.max()), dtype=bool)
        on_b[np.repeat(np.arange(count), nb), bids] = True
        kinds, seen, kind = np.unique(nb, return_index=True, return_inverse=True)
        rank = np.argsort(np.argsort(seen)).astype(np.int16)[kind]
        rows, edges, cells = (np.argsort(np.repeat(rank, x), kind="stable")
                              for x in (1, degree, sizes))
        sizes, on_b, degree = sizes[rows], on_b[rows], degree[rows]
        gi, u, v, w, m = np.repeat(np.arange(count), degree), u[edges], v[edges], w[edges], m[cells]
        row_at = [0, *np.cumsum(np.bincount(rank)).tolist()]
        edge_at, cell_at = (np.concatenate([[0], np.cumsum(x)]) for x in (degree, sizes))
        for b, r0, r1 in zip(kinds[np.argsort(seen)].tolist(), row_at, row_at[1:]):
            e0, e1, c0, c1 = edge_at[r0], edge_at[r1], cell_at[r0], cell_at[r1]
            q = _column_quantities(b, sizes[r0:r1], on_b[r0:r1], gi[e0:e1] - r0, u[e0:e1],
                                   v[e0:e1], w[e0:e1], m[c0:c1], rng, mutations)
            for g, check, details in _failed_cells(q):
                j = r0 + g
                on = slice(edge_at[j], edge_at[j + 1])
                failures.append((first + int(rows[j]), check, details, _Instance(
                    int(sizes[j]), u[on], v[on], w[on], m[cell_at[j] : cell_at[j + 1]],
                    np.flatnonzero(on_b[j]))))
        if max_violations is not None and len(failures) >= max_violations:
            break
    return failures


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
    return [(check, details) for _, check, details, _ in _verify_runs([_Instance.of(g)], rng,
                                                                       mutations)]


# --- top-level verification ------------------------------------------------------


def _random_instances(spec: CorpusSpec) -> Iterator[_Instance]:
    rng = np.random.default_rng([spec.seed, 0])
    for _ in range(spec.samples):
        n = int(rng.integers(2, spec.n_max + 1))
        edge_prob = float(rng.uniform(0.2, 0.9))
        boundary_size = int(rng.integers(2, n + 1))
        yield _random_instance(n, edge_prob, spec.weight_range, spec.measure_range,
                               boundary_size, rng, spec.unit_only)


def _class_runs(n_max: int, draw) -> Iterator[_MaskRun]:
    """The class rows on 2..n_max vertices, n ascending: each row once, or,
    with ``draw``, each repeated its labelings times, each repeat with
    values of its own."""
    for n in range(2, n_max + 1):
        rows = _class_orbits(n)
        ends = np.cumsum(rows[:, 2] if draw else np.ones_like(rows[:, 2]))

        def masks(lo: int, hi: int, rows=rows, ends=ends) -> np.ndarray:
            return rows[np.searchsorted(ends, np.arange(lo, hi), side="right"), :2].T

        yield _MaskRun(n, int(ends[-1]), masks, draw)


def verify_corpus(
    spec: CorpusSpec,
    max_violations: int | None = None,
    mutations: frozenset = frozenset(),
) -> list[ViolationRecord]:
    """Verify the bound, the rigidity biconditional and the spectral
    invariants over the whole corpus; returns violations as data.

    An empty list is a full pass.  Identical specs give identical results;
    ``max_violations`` returns the first that many records of the full run,
    stopping early once they are found.  The ``mutations`` argument
    deliberately corrupts the checks (see ``KNOWN_MUTATIONS``) so tests can
    prove the suite is not vacuous.
    """
    unknown = set(mutations) - set(KNOWN_MUTATIONS)
    if unknown:
        raise GraphError(f"unknown mutation {sorted(unknown)[0]!r}")
    if max_violations is not None:
        require_integer("max_violations", max_violations)
        if max_violations < 0:
            raise GraphError(f"max_violations must be nonnegative, got {max_violations}")
    labelings = None  # a record of one labeled instance
    if spec.mode == "random":
        runs = _random_instances(spec)
    elif spec.unit_only:
        runs = _class_runs(spec.n_max, None)
        labelings = np.concatenate([_class_orbits(n)[:, 2] for n in range(2, spec.n_max + 1)])
    else:
        draw = np.random.default_rng([spec.seed, 0]), spec.weight_range, spec.measure_range
        runs = _class_runs(spec.n_max, draw)
    failures = _verify_runs(runs, np.random.default_rng([spec.seed, 1]), mutations,
                            max_violations)
    failures.sort(key=lambda failure: (failure[0], _CHECK_RANK[failure[1]]))
    failures = failures[:max_violations]
    graphs = {index: inst for index, _, _, inst in failures}  # one document per instance
    graphs = {index: inst.json_dict() for index, inst in graphs.items()}
    return [ViolationRecord(index, check, graphs[index], details,
                            1 if labelings is None else int(labelings[index]))
            for index, check, details, _ in failures]
