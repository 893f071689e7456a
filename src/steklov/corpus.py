"""Random and exhaustive graph corpora with brute-force theorem verification.

``iter_violations`` asserts, for every instance, the extended lower bound,
that numeric equality coincides with the structural certificate, and the
spectral invariants.  Violations come back as data, never as exceptions: a
stream of records, each yielded once its window is verified, which
``verify_corpus`` lists.  Each assertion is written once, as a row of the
check table ``_CHECKS``.

Every instance is a row of a ``_Run``, rows held as whole columns.  One
kernel, ``_quantities``, computes every quantity the table reads for a
stack of graphs given as a run: it scatters its edges into Laplacians, each
graph relabelled boundary-first and padded to the stack's largest |B| and
interior with edgeless slots, which leave every quantity unchanged.  It
forms S next to its batched interior solve, a zero-size one for a stack with
no interior, and eigensolves S for eigenvalues only through
``steklov_operator``, as the per-graph analysis does; it takes hop distances
from the boundary vertices only.  w0, the unit flag and the comb
test (``is_comb_over``'s, ``shared_components``) read the edge columns, not
the Laplacians.  Every mode feeds it runs through one window generator,
``_verify_runs``, which yields each window's failures in stream order: a
random batch (``_random_run``), a run of one row for ``check_instance``, or
exhaustive chunks (``_mask_run``).

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
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice, pairwise, permutations
from math import factorial
from typing import Iterable, Iterator

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
    is_real,
    json_number,
    require_connected,
    require_integer,
    seeded_rng,
    shared_components,
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

# Largest n of random mode and of random_graph: one instance at n = 1000 takes
# 0.4-0.9 s with its generation and about 200 MB (2-core VM, one BLAS thread).
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
            require_integer(name, getattr(self, name), lo=0)
        _check_n_max(self.mode, self.n_max)
        check_ranges(weight_range=self.weight_range, measure_range=self.measure_range)
        if not isinstance(self.unit_only, (bool, np.bool_)):
            raise GraphError(f"unit_only must be true or false, got {self.unit_only!r}")


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


class _Run(namedtuple("_Run", "sizes nb bids degree u v w m")):
    """Rows of corpus instances as whole columns, as the kernel reads them:
    row r has ``sizes[r]`` vertices, ``nb[r]`` sorted boundary ids in
    ``bids`` and ``degree[r]`` edges u < v in ``u``, ``v``, sorted by (u, v),
    with weights in ``w``; ``m`` holds the measures.  Every column lists its
    rows' entries row after row; ``n`` is the largest size, and
    ``columns(lo, hi)`` is rows lo..hi as a run."""

    __slots__ = ()

    @property
    def rows(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return int(self.sizes.max())

    @classmethod
    def of(cls, g: WeightedBoundaryGraph) -> _Run:
        u, v, w = g.edge_arrays
        return cls(np.array([g.n]), np.array([len(g.boundary)]), np.asarray(g.boundary),
                   np.array([len(u)]), u, v, w, g.measures)

    def columns(self, lo: int, hi: int) -> _Run:
        return next(self.split([lo, hi]))

    def split(self, ends) -> Iterator[_Run]:
        """The runs of rows ``ends[i]..ends[i + 1]``, cut at one prefix sum of
        each count column."""
        cuts = [np.concatenate(([0], np.cumsum(x)))[ends].tolist()
                for x in (self.nb, self.degree, self.sizes)]
        for (r0, r1), (b0, b1), (e0, e1), (c0, c1) in zip(*map(pairwise, (ends, *cuts))):
            yield _Run(self.sizes[r0:r1], self.nb[r0:r1], self.bids[b0:b1], self.degree[r0:r1],
                       self.u[e0:e1], self.v[e0:e1], self.w[e0:e1], self.m[c0:c1])

    def graph(self) -> WeightedBoundaryGraph:
        """The validated graph of a run of one row."""
        return graph_from_arrays(self.m, self.bids.tolist(),
                                 zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    def json_dict(self) -> dict:
        """``graph_to_json_dict(self.graph())``, with no graph built."""
        on_b = np.zeros(self.n, dtype=bool)
        on_b[self.bids] = True
        return json.loads(arrays_to_json(index_labels(self.n), self.m, on_b, self.u, self.v,
                                         self.w))


def _check_mutations(mutations) -> frozenset:
    """``mutations``, a set of names each one of ``KNOWN_MUTATIONS``, read
    once into the frozenset the caller then uses."""
    if isinstance(mutations, (str, bytes)) or not isinstance(mutations, Iterable):
        raise GraphError(f"mutations must be a set of names, got {mutations!r}")
    names = tuple(mutations)
    unknown = [x for x in names if not (isinstance(x, str) and x in KNOWN_MUTATIONS)]
    if unknown:
        raise GraphError(f"unknown mutation {min(unknown, key=repr)!r}")
    return frozenset(names)


def _check_n_max(mode: str, n_max: int) -> None:
    """The n_max range of a mode, for the spec and for the exhaustive counts."""
    require_integer("n_max", n_max)
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
    require_integer("n", n, hi=RANDOM_N_MAX)
    require_integer("boundary_size", boundary_size)
    if not (is_real(edge_prob) and 0 < edge_prob <= 1):
        raise GraphError(f"edge_prob must be a number in (0, 1], got {edge_prob!r}")
    if n < 2:
        raise GraphError("random graphs need n >= 2")
    if not 1 <= boundary_size <= n:
        raise GraphError("boundary size must be between 1 and n")
    check_ranges(weight_range=weight_range, measure_range=measure_range)
    run = _random_run(seeded_rng(seed), np.array([n]), np.array([edge_prob], dtype=float),
                      np.array([boundary_size]), weight_range, measure_range, unit)
    return run.graph()


def _random_run(rng, n, edge_prob, boundary_size, weight_range, measure_range,
                unit) -> _Run:
    """Rows r of G(n[r], edge_prob[r]) conditioned on connectivity, with a
    uniform boundary of ``boundary_size[r]`` vertices.  Rejection round t
    draws ``copies`` = 2^t candidates of every pending row, fewer where they
    would pass ``_DRAW_PAIRS`` uniforms (never fewer than one) or a row's
    ``RANDOM_RETRIES``: one ``rng.random`` over rows in order, a row's
    candidates one after another, a candidate's pairs in ``_colex_pairs``
    order, and one component labelling of all the candidates.  Each row keeps
    its first connected candidate, so this is exact rejection sampling.  Then
    the values (:func:`_drawn_values`, or all 1 with ``unit``) and the
    boundaries: the first ``boundary_size[r]`` columns of an argsort of row r
    of a (rows, max n) ``rng.random`` key matrix, padding columns at +inf,
    sorted.  ``random_graph`` is the batch of one."""
    tails, heads, rank = _colex_pairs(int(n.max()))
    edge, pending = np.zeros((len(n), len(tails)), dtype=bool), np.arange(len(n))
    tries, copies = 0, 1
    while len(pending) and tries < RANDOM_RETRIES:
        pairs = n[pending] * (n[pending] - 1) // 2
        budget = max(1, _DRAW_PAIRS // int(pairs.sum() or 1))
        copies = min(copies, budget, RANDOM_RETRIES - tries)
        count, sizes = np.repeat(pairs, copies), np.repeat(n[pending], copies)
        start, first = np.cumsum(count) - count, np.cumsum(sizes) - sizes
        on = rng.random(count.sum()) < np.repeat(edge_prob[pending], pairs * copies)
        k = np.flatnonzero(on)
        c = np.repeat(np.arange(len(count)), count)[k]  # the candidate of each edge
        k -= start[c]
        labels = component_labels(int(sizes.sum()), first[c] + tails[k], first[c] + heads[k])
        hit = (np.maximum.reduceat(labels, first) == first).reshape(-1, copies)
        win = (hit & (hit.cumsum(axis=1) == 1)).ravel()[c]
        edge[pending[c[win] // copies], rank[k[win]]] = True
        pending, tries, copies = pending[~hit.any(axis=1)], tries + copies, 2 * copies
    if len(pending):
        raise GraphError(f"no connected draw in {RANDOM_RETRIES} tries "
                         f"(n={int(n[pending[0]])}, p={float(edge_prob[pending[0]])})")
    k = np.flatnonzero(edge) % len(tails)  # row-major: rows in order, (u, v) sorted
    degree = edge.sum(axis=1)
    if unit:
        w, m = np.ones(len(k)), np.ones(n.sum())
    else:
        w, m = _drawn_values((rng, weight_range, measure_range), degree, n)
    column = np.arange(int(n.max()))
    keys = np.where(column < n[:, None], rng.random((len(n), len(column))), np.inf)
    chosen = column < boundary_size[:, None]
    bids = np.sort(np.where(chosen, np.argsort(keys, axis=1), len(column)), axis=1)[chosen]
    tails, heads = _pair_arrays(len(column))
    return _Run(n, boundary_size, bids, degree, tails[k], heads[k], w, m)


@lru_cache(maxsize=64)
def _pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of the vertex pairs u < v, in lexicographic order."""
    return np.triu_indices(n, 1)


def _colex_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tails, heads and ``_pair_arrays(n)`` rank of the vertex pairs u < v in
    colex order, by v then u: the pairs on m <= n vertices are the first
    m(m - 1)/2.  Not cached: the three arrays take 1.9 MB at n = 400, and
    computing them takes 15 us at n = 30."""
    tails, heads = _pair_arrays(n)
    rank = np.lexsort((tails, heads))
    return tails[rank], heads[rank], rank


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


def _mask_run(n: int, edge_masks, boundary_masks, draw) -> _Run:
    """The instances on n vertices of these edge and boundary bitmasks.
    ``draw`` draws their weights and measures (:func:`_drawn_values`);
    without it all are 1."""
    tails, heads = _pair_arrays(n)
    gi, k = np.nonzero(_bits(edge_masks, len(tails)))
    row, bids = np.nonzero(_bits(boundary_masks, n))
    degree, sizes = np.bincount(gi, minlength=len(edge_masks)), np.full(len(edge_masks), n)
    if draw is None:
        w, m = np.ones(len(k)), np.ones(sizes.sum())
    else:
        w, m = _drawn_values(draw, degree, sizes)
    return _Run(sizes, np.bincount(row, minlength=len(edge_masks)), bids, degree, tails[k],
                heads[k], w, m)


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
    _check_n_max("exhaustive", n_max)
    return sum(int(_class_orbits(n)[:, 2].sum()) for n in range(2, n_max + 1))


def count_class_rows(n_max: int) -> int:
    """Number of class rows of the exhaustive corpus, the rows it verifies."""
    _check_n_max("exhaustive", n_max)
    return sum(len(_class_orbits(n)) for n in range(2, n_max + 1))


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
    ``bound_db_plus_one`` sentinel shifts d_B in the extended bound only.
    Bounds out of binary64 range are 0 or inf with no warning, as per graph."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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
    """(G, nb, n) hop distances from the first ``nb`` vertices of connected
    graphs with (G, n, n) Laplacians.

    d(x, y) counts the hop counts at which y is still out of x's reach, by
    boolean reach powers reach <- min(reach (A + I), 1), held in float32:
    exact, since no count exceeds n < 2^24, and one product per hop, at most
    n - 1 of them.  Padding vertices (``pad``, (G, n)) start in reach, and
    padding sources reach all, so they never keep the loop running; padding
    ends at distance n, off every geodesic, or at 0 among the first ``nb``.
    """
    n = lap.shape[-1]
    step = ((lap < 0) | np.eye(n, dtype=bool)).astype(np.float32)
    reach = (np.eye(nb, n, dtype=bool) | pad[:, None, :] | pad[:, :nb, None]).astype(np.float32)
    dist = np.zeros(reach.shape, dtype=np.int64)
    for _ in range(n - 1):
        apart = reach == 0
        if not apart.any():
            break
        dist += apart
        reach = np.minimum(reach @ step, 1)
    return np.where(pad[:, None, :] & (np.arange(n) >= nb), n, dist)


def _quantities(nb: int, stack: _Run, rng, mutations) -> dict:
    """Every quantity the check table reads, as (G,) arrays over a stack of
    graphs of |B| <= ``nb`` (|B| <= 2 alone), given as a run: graph g is row g.

    One fancy assignment scatters every edge into (G, W, W) Laplacians, each
    graph relabelled boundary-first, padded to ``nb`` boundary slots, then to
    W = nb + the largest interior, with edgeless slots of diagonal 1: L_OO is
    block diagonal with an identity block, X = L_OO^-1 L_OB is 0 on padding,
    and S, the Green energy and d_B do not change.  A boundary padding slot's
    mass 1 / (2 t + 1), t = sum L_bb / m_b over the nb slots, puts it above
    the spectrum (S <= L_BB).  S = L_BB - L_OB^T X is formed after the
    batched solve; a stack with no interior solves a (G, 0, 0) block.
    """
    sizes, b, bids, degree, u, v, w, m = stack
    count, n = stack.rows, nb + int((sizes - b).max())  # n: the padded width W
    gi = np.repeat(np.arange(count), degree)  # the graph of each edge
    slot = np.arange(n)
    pad = ((slot >= b[:, None]) & (slot < nb)) | (slot >= (nb - b + sizes)[:, None])
    on_b = np.zeros((count, n), dtype=bool)
    on_b[np.repeat(np.arange(count), b), bids] = True
    counted = on_b.cumsum(axis=1)
    label = np.where(on_b, counted - 1, nb + slot - counted)
    u, v = label[gi, u], label[gi, v]
    lap = np.zeros((count, n, n))
    lap[gi, u, v] = lap[gi, v, u] = -w
    with np.errstate(over="ignore"):  # a degree that is not finite fails its row
        lap[:, slot, slot] = pad - lap.sum(axis=2)
    real = ~pad[:, :nb]
    mass = np.ones((count, nb))
    mass[real] = m[on_b[slot < sizes[:, None]]]  # the boundary measures, in label order
    if not real.all():
        with np.errstate(over="ignore"):  # capped, so that the padding stays finite
            t = (np.diagonal(lap, 0, 1, 2)[:, :nb] / mass).sum(-1)
            mass = np.where(real, mass, 1 / np.fmin(2 * t + 1, 2.0**1021)[:, None])
    dist = _distance_tables(lap, pad, nb)

    l_ob = lap[:, nb:, :nb]
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite S fails its row
            x = np.linalg.solve(lap[:, nb:, nb:], l_ob)
            schur = lap[:, :nb, :nb] - np.swapaxes(l_ob, 1, 2) @ x
            schur, eig, q = steklov_operator(schur, mass, real)
    except np.linalg.LinAlgError as exc:
        return {"error": np.full(count, str(exc))}

    # Green symmetry: <Lambda f, h>_B (Schur route) against the energy
    # pairing of the harmonic extensions
    def extend(values: np.ndarray) -> np.ndarray:
        return np.concatenate([values, -np.einsum("goj,gj->go", x, values)], axis=1)

    f, h = (np.where(real, rng.standard_normal((count, nb)), 0.0) for _ in range(2))
    q["schur_form"] = np.einsum("gi,gij,gj->g", h, schur, f)
    q["energy"] = np.einsum("gi,gij,gj->g", extend(f), lap, extend(h))

    if nb >= 2:
        w0 = np.full(count, np.inf)  # each graph's least weight
        np.minimum.at(w0, gi, w)
        d_b = dist[:, :, :nb].max(axis=(1, 2))
        q.update(_bound_quantities(eig[:, 1], w0, mass.min(-1, initial=np.inf, where=real),
                                   np.where(real, mass, 0.0).sum(-1), d_b, b, mutations))
        # unit: no weight and no measure other than 1
        off_unit = np.concatenate([gi[w != 1], np.nonzero(~pad)[0][m != 1]])
        q["unit"] = np.bincount(off_unit, minlength=count) == 0
        cond = np.zeros((3, count), dtype=bool)
        if nb == 2:
            cond[0] = mass[:, 0] == mass[:, 1]
            on, unique = geodesic_layers(dist[:, 0], dist[:, 1])
            cond[1:] = _geodesic_conditions(on & unique[:, None], gi, u, v, w, w0) & unique
        q.update(_certificate(*cond, mutations))
    return q


def _geodesic_conditions(on: np.ndarray, gi, u, v, w, w0) -> np.ndarray:
    """cond_path and cond_comb, (2, G), of each graph over the unique
    geodesic whose vertex mask is its row of ``on``, read off the edge
    columns (graph ``gi``, tail ``u``, head ``v``, weight ``w``) and the
    least weights ``w0``.  The geodesic's edges are those with both ends on
    it (a shortest path has no chord), and each must weigh w0 bitwise.  The
    comb test is ``shared_components`` over the other edges as one disjoint
    union, in which vertex x of graph g is g n + x.
    """
    count, n = on.shape
    on_path = on[gi, u] & on[gi, v]
    off, marked = gi[~on_path] * n, np.flatnonzero(on)
    _, shared = shared_components(count * n, off + u[~on_path], off + v[~on_path], marked)
    cond = np.ones((2, count), dtype=bool)
    cond[0, gi[on_path & (w != w0[gi])]] = False
    cond[1, marked[shared] // n] = False
    return cond


def _failed_cells(q: dict) -> Iterator[tuple[int, str, dict]]:
    """(graph, check, reported quantities) of every failed check of ``q``."""
    for check, keys, ok in _evaluate(q):
        if not ok.all():
            for gi in np.argwhere(~ok)[:, 0].tolist():
                yield gi, check, _details(q, keys, gi)


# --- the feeders ----------------------------------------------------------------


# Padded matrix cells, instances x (largest n)^2, per window of a graph
# stream, so every padded stack of a window fits in it.  2^19 holds 582
# instances at n = 30.  Each stack pays a fixed cost, so fewer, larger stacks
# are faster: 10^4 random instances (n <= 30) took 0.84-1.03 s at 2^19 and
# 1.58-2.0 s at 2^17, peaking 5 MB higher; weighted exhaustive n <= 6 gained
# less than its spread and peaks 14 MB higher (2 vCPUs, one BLAS thread).
_WINDOW_CELLS = 1 << 19

# A stack's fixed cost in padded cells: 210-250 us, at 35-120 ns a cell (n = 6-30, 2 vCPUs).
_STACK_CELLS = 4096


def _windows(runs) -> Iterator[list[tuple[object, int, int, int]]]:
    """Cut the instance stream of ``runs`` into windows of at most
    ``_WINDOW_CELLS`` padded cells, instances x (largest n)^2, as (run,
    stream index of row lo, lo, hi) row ranges; a larger instance is a
    window alone.  A run holds ``rows`` instances on at most ``n`` vertices."""
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


def _stack_ranks(nb: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each row's stack, as int16 ranks by |B|.  |B| <= 2 kinds stay alone;
    from the largest |B| down, a kind joins the current stack while their
    padded cells, rows x (largest |B| + largest interior)^2, stay below
    apart plus ``_STACK_CELLS`` and within ``_WINDOW_CELLS``."""
    kinds, kind = np.unique(nb, return_inverse=True)
    depth = np.zeros(len(kinds), dtype=np.int64)
    np.maximum.at(depth, kind, sizes - nb)
    shapes = [*zip(kinds.tolist(), np.bincount(kind).tolist(), depth.tolist())]
    lead, width, count, deep, cells = list(range(len(kinds))), 0, 0, 0, -np.inf
    for k in reversed(lead):  # the current stack is that of kind k + 1
        b, r, d = shapes[k]
        merged = (count + r) * (width + max(deep, d)) ** 2
        if b > 2 and merged < cells + r * (b + d) ** 2 + _STACK_CELLS and merged <= _WINDOW_CELLS:
            lead[k], count, deep, cells = lead[k + 1], count + r, max(deep, d), merged
        else:
            width, count, deep, cells = b, r, d, r * (b + d) ** 2
    return np.unique(lead, return_inverse=True)[1].astype(np.int16)[kind]


def _stack_failures(stack: _Run, rng, mutations) -> list[tuple[int, str, dict]]:
    """(row, check, details) of every failed check of a stack; a failed solve
    or eigensolve is redone row by row, so only rows that fail alone report it."""
    q = _quantities(int(stack.nb.max()), stack, rng, mutations)
    if "error" not in q or stack.rows == 1:
        return list(_failed_cells(q))
    return [(g, check, details) for g, row in enumerate(stack.split(range(stack.rows + 1)))
            for _, check, details in _stack_failures(row, rng, mutations)]


def _verify_runs(runs, rng, mutations) -> Iterator[tuple[int, str, dict, _Run]]:
    """Verify the ``_Run`` stream ``runs`` window by window (:func:`_windows`).
    A window's rows are concatenated into one run and ordered into stacks of
    |B| kinds, by |B| (:func:`_stack_ranks`), by one stable argsort of each
    column over the stack rank; Green-check vectors are drawn per stack.  Yields
    each window's failures, (index, check, details, run of the row), once it
    is verified, by index, then check: in stream order overall."""
    for window in _windows(runs):
        run = _Run(*map(np.concatenate, zip(*(r.columns(lo, hi) for r, _, lo, hi in window))))
        rank = _stack_ranks(run.nb, run.sizes)
        rows, ids, edges, cells = (np.argsort(np.repeat(rank, x), kind="stable")
                                   for x in (1, run.nb, run.degree, run.sizes))
        run = _Run(run.sizes[rows], run.nb[rows], run.bids[ids], run.degree[rows], run.u[edges],
                   run.v[edges], run.w[edges], run.m[cells])
        row_at = [0, *np.cumsum(np.bincount(rank)).tolist()]
        failures = []
        for r0, stack in zip(row_at, run.split(row_at)):
            failed = _stack_failures(stack, rng, mutations)
            cells = sorted({g for g, _, _ in failed})  # as runs of one, at one prefix sum
            cut = stack.split([x for g in cells for x in (g, g + 1)])
            row = dict(zip(cells, islice(cut, 0, None, 2)))
            failures += [(window[0][1] + int(rows[r0 + g]), check, details, row[g])
                         for g, check, details in failed]
        yield from sorted(failures, key=lambda failure: (failure[0], _CHECK_RANK[failure[1]]))


def check_instance(g: WeightedBoundaryGraph, rng=None,
                   mutations: frozenset = frozenset()) -> list[tuple[str, dict]]:
    """Run every corpus assertion on one graph; returns (check, details) failures.

    The graph's own arrays as a stream of one through the kernel of
    ``verify_corpus``.  Raises :class:`~steklov.graph.DisconnectedGraphError`
    and :class:`~steklov.graph.EmptyBoundaryError` like the per-graph analysis.
    """
    mutations = _check_mutations(mutations)
    require_connected(g)
    if not g.boundary:
        raise EmptyBoundaryError("graph has an empty boundary")
    rng = seeded_rng(0 if rng is None else rng)
    return [(check, details) for _, check, details, _ in _verify_runs([_Run.of(g)], rng,
                                                                       mutations)]


# --- top-level verification ------------------------------------------------------


# Vertex pairs per random batch: a rejection round draws at most 2^16 uniforms
# unless one candidate has more.  150 rows at n_max = 30, one from n_max = 257 on.
_DRAW_PAIRS = 1 << 16


def _random_runs(spec: CorpusSpec) -> Iterator[_Run]:
    """The random corpus, batch by batch: every row's n, edge probability
    and boundary size, then the rows."""
    rng = np.random.default_rng([spec.seed, 0])
    step = max(1, _DRAW_PAIRS // (spec.n_max * (spec.n_max - 1) // 2))
    for lo in range(0, spec.samples, step):
        n = rng.integers(2, spec.n_max + 1, size=min(step, spec.samples - lo))
        yield _random_run(rng, n, rng.uniform(0.2, 0.9, size=len(n)), rng.integers(2, n + 1),
                          spec.weight_range, spec.measure_range, spec.unit_only)


def _class_runs(n_max: int, draw) -> Iterator[_Run]:
    """The class rows on 2..n_max vertices, n ascending: each row once, or,
    with ``draw``, each repeated its labelings times, each repeat with
    values of its own; a level on n vertices in chunks of at most
    ``_WINDOW_CELLS // n^2`` rows."""
    for n in range(2, n_max + 1):
        rows = _class_orbits(n)
        ends = np.cumsum(rows[:, 2] if draw else np.ones_like(rows[:, 2]))
        total, step = int(ends[-1]), max(1, _WINDOW_CELLS // n**2)
        for lo in range(0, total, step):
            at = np.searchsorted(ends, np.arange(lo, min(lo + step, total)), side="right")
            yield _mask_run(n, *rows[at, :2].T, draw)


def iter_violations(spec: CorpusSpec,
                    mutations: frozenset = frozenset()) -> Iterator[ViolationRecord]:
    """The records of ``verify_corpus(spec, mutations=mutations)``, in its
    order, each yielded once the window that holds its instance is verified,
    with one graph document per failing instance.  ``mutations`` is checked
    at the call, like ``spec``; the corpus work waits for the first ``next``."""
    if not isinstance(spec, CorpusSpec):
        raise GraphError(f"spec must be a CorpusSpec, got {spec!r}")
    mutations = _check_mutations(mutations)

    def records() -> Iterator[ViolationRecord]:
        labelings = None  # a record of one labeled instance
        if spec.mode == "random":
            runs = _random_runs(spec)
        elif spec.unit_only:
            runs = _class_runs(spec.n_max, None)
            labelings = np.concatenate([_class_orbits(n)[:, 2] for n in range(2, spec.n_max + 1)])
        else:
            draw = np.random.default_rng([spec.seed, 0]), spec.weight_range, spec.measure_range
            runs = _class_runs(spec.n_max, draw)
        last = None
        for index, check, details, row in _verify_runs(
                runs, np.random.default_rng([spec.seed, 1]), mutations):
            if index != last:
                last, graph = index, row.json_dict()
            yield ViolationRecord(index, check, graph, details,
                                  1 if labelings is None else int(labelings[index]))
    return records()


def verify_corpus(
    spec: CorpusSpec,
    max_violations: int | None = None,
    mutations: frozenset = frozenset(),
) -> list[ViolationRecord]:
    """Verify the bound, the rigidity biconditional and the spectral
    invariants over the whole corpus; returns violations as data.

    An empty list is a full pass.  Identical specs give identical results;
    ``max_violations`` returns the first that many records of the full run,
    stopping at the last.  The ``mutations`` argument deliberately corrupts
    the checks (see ``KNOWN_MUTATIONS``) so tests can prove the suite is not
    vacuous.
    """
    records = iter_violations(spec, mutations)
    if max_violations is not None:
        require_integer("max_violations", max_violations, lo=0, hi=sys.maxsize)
    return list(islice(records, max_violations))
