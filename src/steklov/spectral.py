"""Laplacian, harmonic extension, and the Steklov operator of a graph.

The Steklov operator maps boundary values to the outward normal derivative of
their harmonic extension.  Its matrix (scaled by the boundary masses) is the
Schur complement of the weighted Laplacian onto the boundary block, and the
eigenvalues come from the generalized symmetric problem ``S v = sigma M_B v``
solved through the diagonal mass reduction.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve

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

    Solves the interior block system ``L_OO u_O = -L_OB f`` by Cholesky
    factorization; the block is positive definite whenever the graph is
    connected and the boundary nonempty.
    """
    analysis = g.analysis
    fvec = boundary_vector(g, f)
    u = np.zeros(g.n)
    bidx, iidx = analysis.bidx, analysis.iidx
    u[bidx] = fvec
    if analysis.interior_factor is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            rhs = -analysis.laplacian_matrix[np.ix_(iidx, bidx)] @ fvec
        if not np.isfinite(rhs).all():
            raise NumericsError("interior right-hand side L_OB f is not finite")
        u[iidx] = cho_solve(analysis.interior_factor, rhs)
    return u


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


def steklov_operator(l_bb, l_ob, interior_map, mass, vectors: bool = False):
    """The Steklov matrix, its spectrum and its invariant quantities, over any
    leading axes: the algebra after the interior solve, shared by the
    per-graph analysis and the corpus kernel.

    ``l_bb`` and ``l_ob`` are the L_BB and L_OB blocks, ``interior_map`` is
    X = L_OO^-1 L_OB (None without an interior) and ``mass`` holds the
    boundary masses (None when all are 1).  Returns
    ``(S, eigenvalues, eigenvectors, quantities)``: the symmetrized S, the
    ascending eigenvalues of ``M^-1/2 S M^-1/2``, its eigenvectors when
    ``vectors`` (else None), and the quantities that ``OPERATOR_CHECKS``
    reads.
    """
    if interior_map is not None:  # rebound, so the L_BB slice is freed
        l_bb = l_bb - np.swapaxes(l_ob, -1, -2) @ interior_map
    transpose = np.swapaxes(l_bb, -1, -2)
    asymmetry = np.abs(l_bb - transpose).max(axis=(-1, -2))
    schur = 0.5 * (l_bb + transpose)
    reduced = schur
    if mass is not None:
        inv_sqrt = 1.0 / np.sqrt(mass)
        reduced = schur * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]
        reduced = 0.5 * (reduced + np.swapaxes(reduced, -1, -2))
    eig, vecs = np.linalg.eigh(reduced) if vectors else (np.linalg.eigvalsh(reduced), None)
    return schur, eig, vecs, {
        "asymmetry": asymmetry,
        "residual": np.abs(schur.sum(axis=-1)).max(axis=-1),
        "schur_scale": np.abs(schur).max(axis=(-1, -2), initial=1.0),
        "sigma1": eig[..., 0],
        "eig_scale": np.abs(eig).max(axis=-1, initial=1.0),
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

    Every per-graph operation reads ``g.analysis``, so the Laplacian, the
    interior Cholesky factor, the Steklov system, the spectrum, d_B and the
    bound report are computed once per graph.  It checks connectivity on
    construction and holds its graph weakly, so both are freed by reference
    counting.
    """

    def __init__(self, g: WeightedBoundaryGraph):
        require_connected(g)
        self.graph = weakref.proxy(g)
        self.bidx = np.flatnonzero(g.boundary_mask)
        self.iidx = np.flatnonzero(~g.boundary_mask)

    @cached_property
    def laplacian_matrix(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # reported below, in one line
            L, _ = laplacian(self.graph)
        degree = L.diagonal()
        if not np.isfinite(degree).all():
            v = self.graph.labels[int(np.argmin(np.isfinite(degree)))]
            raise NumericsError(f"weighted degree of vertex {v!r} is not finite")
        L.setflags(write=False)
        return L

    @cached_property
    def interior_factor(self) -> tuple[np.ndarray, bool] | None:
        """Cholesky factor of the interior block L_OO; None without interior."""
        if len(self.iidx) == 0:
            return None
        try:
            return cho_factor(self.laplacian_matrix[np.ix_(self.iidx, self.iidx)])
        except np.linalg.LinAlgError as exc:
            raise NumericsError(f"interior block factorization failed: {exc}") from exc

    @cached_property
    def operator(self) -> tuple[SteklovSystem, Spectrum, dict]:
        """The Steklov system, its spectrum and the quantities of
        :func:`steklov_operator`; raises :class:`NumericsError` naming the
        first row of ``OPERATOR_CHECKS`` that fails."""
        if len(self.bidx) == 0:
            raise EmptyBoundaryError("graph has an empty boundary")
        L, b, o = self.laplacian_matrix, self.bidx, self.iidx
        l_ob = interior_map = None
        if self.interior_factor is not None:
            l_ob = L[np.ix_(o, b)]
            interior_map = cho_solve(self.interior_factor, l_ob)
        mass = self.graph.measures[b]
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                schur, eig, _, q = steklov_operator(L[np.ix_(b, b)], l_ob, interior_map, mass)
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
