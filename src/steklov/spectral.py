"""Laplacian, harmonic extension, and the Steklov operator of a graph.

The Steklov operator maps boundary values to the outward normal derivative of
their harmonic extension.  Its matrix (scaled by the boundary masses) is the
Schur complement of the weighted Laplacian onto the boundary block, and the
eigenvalues come from the generalized symmetric problem ``S v = sigma M_B v``
solved through the diagonal mass reduction.  No eigenvector is computed: the
one check on sigma_1's eigenvector reads a Davis-Kahan bound instead.  scipy
is imported by the first interior factorization, not with the module.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import (
    EmptyBoundaryError,
    WeightedBoundaryGraph,
    boundary_diameter,
    boundary_vector,
    require_connected,
)

# Scale-free tolerances for the structural invariants of the Steklov matrix.
SYMMETRY_TOL = 1e-12
KERNEL_TOL = 1e-10
PSD_TOL = 1e-10
SIGMA1_TOL = 1e-10

# The invariant rows of the Steklov matrix in the format of the corpus check
# table: (check, predicate over the quantities of :func:`steklov_operator`,
# quantities a failure reports).  Predicates also work elementwise.
OPERATOR_CHECKS = (
    ("schur_symmetry",
     lambda q: q["asymmetry"] <= SYMMETRY_TOL * q["schur_scale"], ("asymmetry",)),
    ("kernel_constants", lambda q: q["residual"] <= KERNEL_TOL * q["schur_scale"],
     ("residual",)),
    ("psd", lambda q: q["sigma1"] >= -PSD_TOL * q["eig_scale"], ("sigma1",)),
    ("sigma1_zero", lambda q: abs(q["sigma1"]) <= SIGMA1_TOL * q["eig_scale"],
     ("sigma1",)),
)


# Pruned interiors with at least this many vertices are factored by SuperLU,
# smaller ones by dense Cholesky.  With one BLAS thread SuperLU is faster
# from about 140 interior vertices on combs and 190 on grids, but only from
# 350-500 on random graphs, whose factors fill in (README).
SPARSE_INTERIOR_MIN = 200


class NumericsError(RuntimeError):
    """A computed matrix violated an invariant beyond numerical tolerance."""


def laplacian(g: WeightedBoundaryGraph) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized weighted Laplacian matrix L and the measure vector m.

    ``L[x, y] = -w_xy`` on edges and the diagonal holds the weighted degree,
    so row sums vanish.  The Laplacian operator itself is ``-diag(m)^-1 L``
    (non-positive spectrum convention: it averages neighbors minus center).
    """
    u, v, w = g.edge_arrays
    L = np.zeros((g.n, g.n))
    L[u, v] = L[v, u] = -w
    L[np.diag_indices(g.n)] = -L.sum(axis=1)
    return L, np.asarray(g.measures, dtype=float).copy()


def harmonic_extension(g: WeightedBoundaryGraph, f) -> np.ndarray:
    """Vertex function equal to f on B and harmonic at every interior vertex.

    Solves the pruned interior system ``L_OO u_O = -L_OB f`` with the
    graph's interior factor; the block is positive definite whenever the
    graph is connected and the boundary nonempty.  A dangling tree carries
    no current, so each pruned vertex takes the value of the vertex it hangs
    from.
    """
    analysis = g.analysis
    fvec = boundary_vector(g, f)
    blocks = analysis.blocks
    u = np.zeros(g.n)
    u[analysis.bidx] = fvec
    if analysis.interior_solve is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            rhs = -blocks.l_ob @ fvec
        if not np.isfinite(rhs).all():
            raise NumericsError("interior right-hand side L_OB f is not finite")
        u[blocks.interior] = analysis.interior_solve(rhs)
    for leaves, parents in reversed(blocks.pruned):
        u[leaves] = u[parents]
    return u


@dataclass(frozen=True)
class InteriorBlocks:
    """The Laplacian blocks of a graph with its dangling trees pruned.

    ``interior`` holds the kept interior vertex ids O in block order, and the
    boundary B is ``g.boundary``.  ``l_bb`` (|B| x |B|) and ``l_ob``
    (|O| x |B|) are dense; ``l_oo`` is L_OO as a COO triple ``(data, rows,
    cols)`` in block positions, both orientations of every kept interior
    edge, then the diagonal; each factorization converts it itself.
    ``pruned`` holds one ``(leaves, parents)`` pair per peeling round: each
    leaf was dropped as an interior vertex of degree 1 hanging from its
    parent.
    """

    l_bb: np.ndarray
    l_ob: np.ndarray
    l_oo: tuple[np.ndarray, np.ndarray, np.ndarray]
    interior: np.ndarray
    pruned: tuple[tuple[np.ndarray, np.ndarray], ...]


def _peel_dangling_trees(g: WeightedBoundaryGraph):
    """Kept-vertex mask and the peeling rounds of :class:`InteriorBlocks`.

    Each round drops every interior vertex with exactly one kept neighbour;
    only the parents of a round can become leaves of the next, so the whole
    peel reads each CSR row once.  In a connected graph with a nonempty
    boundary no two leaves of a round are adjacent, so each leaf has exactly
    one kept neighbour.
    """
    indptr, indices = g.csr
    counts = np.diff(indptr)
    degree = counts.copy()
    kept = np.ones(g.n, dtype=bool)
    inner = ~g.boundary_mask
    leaves = np.flatnonzero(inner & (degree == 1))
    rounds = []
    while len(leaves):
        kept[leaves] = False
        rows = counts[leaves]
        ends = np.cumsum(rows)
        slots = np.repeat(indptr[leaves] - ends + rows, rows) + np.arange(ends[-1])
        neighbours = indices[slots]
        parents = neighbours[kept[neighbours]]
        rounds.append((leaves, parents))
        np.subtract.at(degree, parents, 1)
        parents = np.unique(parents)
        leaves = parents[inner[parents] & (degree[parents] == 1)]
    return kept, tuple(rounds)


def interior_blocks(g: WeightedBoundaryGraph) -> InteriorBlocks:
    """Prune the dangling trees of g, then assemble its boundary-first
    Laplacian blocks from one COO triple of the kept edges and degrees.

    Pruning is exact: a dangling interior tree carries no current, so S and
    the spectrum do not change, and the degrees are sums over kept edges
    only.  Raises :class:`NumericsError` for a kept vertex whose weighted
    degree is not finite.
    """
    if len(g.boundary) == 0:
        raise EmptyBoundaryError("graph has an empty boundary")
    kept, pruned = _peel_dangling_trees(g)
    u, v, w = g.edge_arrays
    live = kept[u] & kept[v]
    u, v, w = u[live], v[live], w[live]
    with np.errstate(over="ignore"):  # reported below, in one line
        degree = np.bincount(u, w, g.n) + np.bincount(v, w, g.n)
    bad = kept & ~np.isfinite(degree)
    if bad.any():
        raise NumericsError(f"weighted degree of vertex {g.labels[int(np.argmax(bad))]!r} "
                            "is not finite")
    interior = np.flatnonzero(kept & ~g.boundary_mask)
    nb, no = len(g.boundary), len(interior)
    order = np.concatenate([g.boundary, interior])  # kept vertices, boundary first
    pos = np.zeros(g.n, dtype=np.intp)
    pos[order] = np.arange(nb + no)
    rows = pos[np.concatenate([u, v, order])]
    cols = pos[np.concatenate([v, u, order])]
    data = np.concatenate([-w, -w, degree[order]])
    row_b, col_b = rows < nb, cols < nb
    bb, ob, oo = row_b & col_b, ~row_b & col_b, ~(row_b | col_b)
    l_bb, l_ob = np.zeros((nb, nb)), np.zeros((no, nb))
    l_bb[rows[bb], cols[bb]] = data[bb]
    l_ob[rows[ob] - nb, cols[ob]] = data[ob]
    l_oo = (data[oo], rows[oo] - nb, cols[oo] - nb)
    return InteriorBlocks(l_bb, l_ob, l_oo, interior, pruned)


def _factorization_failed(detail) -> NumericsError:
    return NumericsError(f"interior block factorization failed: {detail}")


def cho_factor(a, lower=False, overwrite_a=False, check_finite=True):
    """``scipy.linalg.cho_factor``, imported on first use."""
    import scipy.linalg
    return scipy.linalg.cho_factor(a, lower, overwrite_a, check_finite)


def cho_solve(c_and_lower, b, overwrite_b=False, check_finite=True):
    """``scipy.linalg.cho_solve``, imported on first use."""
    import scipy.linalg
    return scipy.linalg.cho_solve(c_and_lower, b, overwrite_b, check_finite)


def cholesky_interior(data, rows, cols):
    """Solver of ``L_OO x = b`` by dense Cholesky of the COO matrix."""
    size = int(rows.max()) + 1  # every vertex of O has its diagonal entry
    a = np.zeros((size, size))
    a[rows, cols] = data
    try:
        factor = cho_factor(a, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise _factorization_failed(exc) from exc
    return lambda b: cho_solve(factor, b)


def superlu_interior(data, rows, cols):
    """Solver of ``L_OO x = b`` by SuperLU on the COO matrix, which scipy
    sorts into canonical compressed sparse columns.

    The fill-reducing order is minimum degree on A^T + A with diagonal
    pivots, so the pivots are those of a symmetric elimination; for the
    positive definite L_OO each must be finite and positive, as Cholesky
    requires.
    """
    # imported here, not at module load: small interiors never need scipy.sparse
    from scipy.sparse import csc_array
    from scipy.sparse.linalg import splu

    try:  # the diagonal gives the shape
        lu = splu(csc_array((data, (rows, cols))),
                  permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:  # how SuperLU reports an exactly singular factor
        raise _factorization_failed(exc) from exc
    pivots = lu.U.diagonal()
    bad = pivots[~(np.isfinite(pivots) & (pivots > 0))]
    if len(bad):
        raise _factorization_failed(f"pivot {float(bad[0])!r} is not finite and positive")
    return lu.solve


@dataclass(frozen=True)
class SteklovSystem:
    """Boundary-reduced system: Schur matrix S and boundary mass diagonal.

    S represents ``f -> M_B (Lambda f)`` in boundary order; the Steklov
    operator itself is ``diag(boundary_mass)^-1 S``.  The matrix stored here
    is exactly symmetrized, and every row of ``OPERATOR_CHECKS`` held on it.
    """

    schur: np.ndarray
    boundary_mass: np.ndarray
    boundary_order: tuple[int, ...]


def steklov_operator(l_bb, l_ob, interior_map, mass, real=None):
    """The Steklov matrix, its spectrum and its invariant quantities, over any
    leading axes: the algebra after the interior solve, shared by the
    per-graph analysis and the corpus kernel.

    ``l_bb`` and ``l_ob`` are the L_BB and L_OB blocks, ``interior_map`` is
    X = L_OO^-1 L_OB (None without an interior) and ``mass`` holds the
    boundary masses.  Returns ``(S, eigenvalues, quantities)``: the
    symmetrized S, the ascending eigenvalues of A = M^-1/2 S M^-1/2, and
    the quantities that ``OPERATOR_CHECKS`` reads, with ``misalignment``:
    the Davis-Kahan bound |A v - rho v| / (sigma_2 - rho), rho = v^T A v, on
    the angle between sigma_1's eigenvector and v = M^1/2 1 / |M^1/2 1|,
    read off A so that a faulty mass reduction shows; 0 for |B| = 1 (v is
    exact), +inf if sigma_2 <= rho.  ``real`` (None: all) masks each row's own
    slots, a prefix; padding, decoupled above the spectrum, is not read by
    ``residual``, ``eig_scale`` or v, and is 0 or 1 in S: ``schur_scale``'s floor.
    """
    real = np.ones(np.shape(mass), dtype=bool) if real is None else real
    if interior_map is not None:  # rebound, so the L_BB slice is freed
        l_bb = l_bb - np.swapaxes(l_ob, -1, -2) @ interior_map
    transpose = np.swapaxes(l_bb, -1, -2)
    asymmetry = np.abs(l_bb - transpose).max(axis=(-1, -2))
    schur = 0.5 * (l_bb + transpose)
    inv_sqrt = 1.0 / np.sqrt(mass)
    reduced = schur * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]
    reduced = 0.5 * (reduced + np.swapaxes(reduced, -1, -2))
    eig = np.linalg.eigvalsh(reduced)
    with np.errstate(all="ignore"):  # a bound that is not finite fails its row
        v = np.where(real, np.sqrt(mass), 0.0)
        v = v / np.linalg.norm(v, axis=-1, keepdims=True)
        av = (reduced @ v[..., None])[..., 0]
        rho = (v * av).sum(axis=-1)
        gap = eig[..., 1:].min(axis=-1, initial=np.inf, where=real[..., 1:]) - rho
        residual = np.linalg.norm(av - rho[..., None] * v, axis=-1)
        misalignment = np.where(gap > 0, residual / gap, np.inf)
    return schur, eig, {
        "asymmetry": asymmetry,
        "residual": np.abs(schur.sum(axis=-1)).max(axis=-1, initial=0.0, where=real),
        "schur_scale": np.abs(schur).max(axis=(-1, -2), initial=1.0),
        "sigma1": eig[..., 0],
        "eig_scale": np.abs(eig).max(axis=-1, initial=1.0, where=real),
        "misalignment": misalignment,
    }


def steklov_system(g: WeightedBoundaryGraph) -> SteklovSystem:
    """Schur complement of the Laplacian onto the boundary block.

    ``S = L_BB - L_BO L_OO^-1 L_OB``; with an empty interior S is just
    ``L_BB``.  Requires a connected graph and a nonempty boundary.
    """
    return g.analysis.operator[0]


@dataclass(frozen=True)
class Spectrum:
    """Ascending Steklov eigenvalues in boundary order.

    Indices beyond ``|B|`` follow the +infinity convention through
    :meth:`sigma`.
    """

    eigenvalues: np.ndarray
    boundary_order: tuple[int, ...]

    def sigma(self, i: int) -> float:
        """i-th eigenvalue, 1-based; +inf past the end of the spectrum."""
        if i < 1:
            raise IndexError("eigenvalue indices are 1-based")
        if i > len(self.eigenvalues):
            return float("inf")
        return float(self.eigenvalues[i - 1])

    def to_json_dict(self, g: WeightedBoundaryGraph) -> dict:
        return {
            "boundary": [g.labels[b] for b in self.boundary_order],
            "eigenvalues": [float(s) for s in self.eigenvalues],
        }


def steklov_spectrum(g: WeightedBoundaryGraph) -> Spectrum:
    """Solve ``S v = sigma M_B v`` via the diagonal mass reduction: the
    eigenvalues of the symmetric ``M^-1/2 S M^-1/2``."""
    return g.analysis.operator[1]


class GraphAnalysis:
    """Per-graph numerical state, each piece built on first use and then kept.

    Every per-graph operation reads ``g.analysis``, so the pruned Laplacian
    blocks, the interior factor, the Steklov system, the spectrum, d_B and
    the bound report are computed once per graph.  It checks connectivity on
    construction and holds its graph weakly, so both are freed by reference
    counting.
    """

    def __init__(self, g: WeightedBoundaryGraph):
        require_connected(g)
        self.graph = weakref.proxy(g)
        self.bidx = np.flatnonzero(g.boundary_mask)

    @cached_property
    def blocks(self) -> InteriorBlocks:
        return interior_blocks(self.graph)

    @cached_property
    def interior_solve(self):
        """Solver of ``L_OO x = b`` on the pruned interior (None without
        one): SuperLU from ``SPARSE_INTERIOR_MIN`` interior vertices, dense
        Cholesky below."""
        size = len(self.blocks.interior)
        if size == 0:
            return None
        route = superlu_interior if size >= SPARSE_INTERIOR_MIN else cholesky_interior
        return route(*self.blocks.l_oo)

    @cached_property
    def operator(self) -> tuple[SteklovSystem, Spectrum, dict]:
        """The Steklov system, its spectrum and the quantities of
        :func:`steklov_operator`; raises :class:`NumericsError` naming the
        first row of ``OPERATOR_CHECKS`` that fails."""
        blocks = self.blocks  # raises EmptyBoundaryError without a boundary
        l_ob = interior_map = None
        if self.interior_solve is not None:
            l_ob = blocks.l_ob
            interior_map = self.interior_solve(l_ob)
        mass = self.graph.measures[self.bidx]
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                schur, eig, q = steklov_operator(blocks.l_bb, l_ob, interior_map, mass)
            if not np.isfinite(eig).all():  # LAPACK gives nan or raises on such input
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            raise NumericsError("mass-reduced Steklov matrix is not finite") from None
        for check, holds, keys in OPERATOR_CHECKS:
            if not holds(q):
                raise NumericsError(f"Steklov matrix fails {check}: "
                                    + ", ".join(f"{key} = {q[key]:.3e}" for key in keys))
        for array in (schur, eig, mass):
            array.setflags(write=False)
        order = self.graph.boundary
        return SteklovSystem(schur, mass, order), Spectrum(eig, order), q

    @cached_property
    def boundary_diameter(self) -> int:
        return boundary_diameter(self.graph)

    @cached_property
    def bound_report(self):
        """The graph's :class:`~steklov.bounds.BoundReport`."""
        from .bounds import compute_bound_report  # bounds imports this module

        return compute_bound_report(self.graph)
