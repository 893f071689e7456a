"""Laplacian, harmonic extension, and the Steklov operator of a graph.

The Steklov operator maps boundary values to the outward normal derivative of
their harmonic extension.  Its matrix (scaled by the boundary masses) is the
Schur complement of the weighted Laplacian onto the boundary block, and the
eigenvalues come from the generalized symmetric problem ``S v = sigma M_B v``
solved through the diagonal mass reduction.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
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
        L_ob = analysis.laplacian_matrix[np.ix_(iidx, bidx)]
        u[iidx] = cho_solve(analysis.interior_factor, -L_ob @ fvec)
    return u


@dataclass(frozen=True)
class SteklovSystem:
    """Boundary-reduced system: Schur matrix S and boundary mass diagonal.

    S represents ``f -> M_B (Lambda f)`` in boundary order; the Steklov
    operator itself is ``diag(boundary_mass)^-1 S``.  The matrix stored here
    is exactly symmetrized; construction verifies that the raw asymmetry and
    the residual of S applied to constants stay within tolerance.
    """

    schur: np.ndarray
    boundary_mass: np.ndarray
    boundary_order: tuple[int, ...]


def _validated_system(
    raw: np.ndarray, mass: np.ndarray, order: tuple[int, ...]
) -> SteklovSystem:
    scale = max(1.0, float(np.abs(raw).max(initial=0.0)))
    asym = float(np.abs(raw - raw.T).max(initial=0.0))
    if asym > SYMMETRY_TOL * scale:
        raise NumericsError(f"Steklov matrix asymmetry {asym:.3e} exceeds tolerance")
    sym = 0.5 * (raw + raw.T)
    kernel_residual = float(np.abs(sym @ np.ones(len(order))).max(initial=0.0))
    if kernel_residual > KERNEL_TOL * scale:
        raise NumericsError(
            f"Steklov matrix does not annihilate constants "
            f"(residual {kernel_residual:.3e})"
        )
    sym.setflags(write=False)
    mass = np.asarray(mass, dtype=float).copy()
    mass.setflags(write=False)
    return SteklovSystem(schur=sym, boundary_mass=mass, boundary_order=order)


def steklov_system(g: WeightedBoundaryGraph) -> SteklovSystem:
    """Schur complement of the Laplacian onto the boundary block.

    ``S = L_BB - L_BO L_OO^-1 L_OB``; with an empty interior S is just
    ``L_BB``.  Requires a connected graph and a nonempty boundary.
    """
    return g.analysis.system


@dataclass(frozen=True)
class Spectrum:
    """Ascending Steklov eigenvalues, optionally with m-orthonormal vectors.

    ``eigenvectors[:, i]`` (when requested) is the eigenfunction of
    ``eigenvalues[i]`` in original boundary coordinates.  Indices beyond
    ``|B|`` follow the +infinity convention through :meth:`sigma`.
    """

    eigenvalues: np.ndarray
    boundary_order: tuple[int, ...]
    eigenvectors: np.ndarray | None = None

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


def steklov_spectrum(
    g: WeightedBoundaryGraph, with_vectors: bool = False
) -> Spectrum:
    """Solve ``S v = sigma M_B v`` via the diagonal mass reduction.

    The symmetric problem is ``M^-1/2 S M^-1/2``; eigenvectors are mapped
    back to original coordinates, where they are orthonormal in the
    m-weighted boundary inner product.
    """
    analysis = g.analysis
    return analysis.eigenpairs if with_vectors else analysis.eigenvalues


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
    def system(self) -> SteklovSystem:
        if len(self.bidx) == 0:
            raise EmptyBoundaryError("graph has an empty boundary")
        L, b, o = self.laplacian_matrix, self.bidx, self.iidx
        raw = L[np.ix_(b, b)]
        if self.interior_factor is not None:
            L_ob = L[np.ix_(o, b)]
            raw = raw - L_ob.T @ cho_solve(self.interior_factor, L_ob)
        return _validated_system(raw, self.graph.measures[b], self.graph.boundary)

    @cached_property
    def eigenpairs(self) -> Spectrum:
        return self._eigensolve(with_vectors=True)

    @cached_property
    def eigenvalues(self) -> Spectrum:
        """Eigenvalues alone, taken from :attr:`eigenpairs` when those exist."""
        if "eigenpairs" in self.__dict__:
            return replace(self.eigenpairs, eigenvectors=None)
        return self._eigensolve(with_vectors=False)

    @cached_property
    def boundary_diameter(self) -> int:
        return boundary_diameter(self.graph)

    @cached_property
    def bound_report(self):
        """The graph's :class:`~steklov.bounds.BoundReport`."""
        from .bounds import compute_bound_report  # bounds imports this module

        return compute_bound_report(self.graph)

    def _eigensolve(self, with_vectors: bool) -> Spectrum:
        system = self.system
        inv_sqrt = 1.0 / np.sqrt(system.boundary_mass)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            reduced = system.schur * inv_sqrt[:, None] * inv_sqrt[None, :]
            reduced = 0.5 * (reduced + reduced.T)
        if not np.isfinite(reduced).all():
            raise NumericsError("mass-reduced Steklov matrix is not finite")
        if with_vectors:
            vals, vecs = np.linalg.eigh(reduced)
            vectors = vecs * inv_sqrt[:, None]
            vectors.setflags(write=False)
        else:
            vals = np.linalg.eigvalsh(reduced)
            vectors = None
        scale = max(1.0, float(np.abs(vals).max(initial=0.0)))
        if vals[0] < -PSD_TOL * scale:
            raise NumericsError(f"Steklov matrix not PSD: lowest eigenvalue {vals[0]:.3e}")
        vals.setflags(write=False)
        return Spectrum(vals, system.boundary_order, vectors)
