"""Laplacian, harmonic extension, and the Steklov operator of a graph.

The Steklov operator maps boundary values to the outward normal derivative of
their harmonic extension.  Its matrix (scaled by the boundary masses) is the
Schur complement of the weighted Laplacian onto the boundary block, and the
eigenvalues come from the generalized symmetric problem ``S v = sigma M_B v``
solved through the diagonal mass reduction.  No eigenvector is computed: the
one check on sigma_1's eigenvector reads a Davis-Kahan bound instead.  The
interior is eliminated block by block with numpy alone, so no scipy is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import (
    EmptyBoundaryError,
    WeightedBoundaryGraph,
    boundary_hops,
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


# A pruned interior of at least LEVEL_INTERIOR_MIN vertices is cut at boundary
# BFS levels into blocks of at least LEVEL_BLOCK_MIN vertices, a smaller one is
# one block: sizes measured on the operator layer, one BLAS thread (README).
LEVEL_INTERIOR_MIN = 200
LEVEL_BLOCK_MIN = 48


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

    Solves ``u_1 = -D_1^-1 L_{O_1 B} f``, then walks ``u_k = -T_k u_{k-1}``
    down the transfers of :func:`eliminate_interior`; S is not formed.  A
    dangling tree carries no current, so a pruned vertex takes its parent's
    value.  ``L_OB f`` must be finite, as the CLI contract requires.
    """
    analysis, values = g.analysis, boundary_vector(g, f)
    blocks = analysis.blocks
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        rhs = blocks.l_ob[:blocks.cuts[1]] @ values  # deeper blocks touch no boundary vertex
        if not np.isfinite(rhs).all():
            raise NumericsError("interior right-hand side L_OB f is not finite")
    (d1, transfers), u = analysis.elimination, np.zeros(g.n)
    u[analysis.bidx] = values
    first, *deeper = np.split(blocks.interior, blocks.cuts[1:-1])
    u[first] = values = -_block_solve(1, d1, rhs)
    for block, transfer in zip(deeper, transfers):
        u[block] = values = -(transfer @ values)
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
    edge, then the diagonal.  Interior block k >= 1 holds positions
    ``cuts[k - 1]:cuts[k]`` of O; block 0 is the boundary.  ``pruned`` holds
    one ``(leaves, parents)`` pair per peeling round: each leaf was dropped
    as an interior vertex of degree 1 hanging from its parent.
    """

    l_bb: np.ndarray
    l_ob: np.ndarray
    l_oo: tuple[np.ndarray, np.ndarray, np.ndarray]
    interior: np.ndarray
    cuts: list[int]
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
    only.  An interior of ``LEVEL_INTERIOR_MIN`` vertices or more is cut into
    blocks of ``LEVEL_BLOCK_MIN`` or more vertices, each a run of hop levels
    out of the boundary (README), so L is block tridiagonal; a smaller one is
    one block.  Raises :class:`NumericsError` for a kept vertex whose
    weighted degree is not finite.
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
    cuts = [0, len(interior)]
    if len(interior) >= LEVEL_INTERIOR_MIN:  # a frontier BFS on lists, no cost per level
        indptr, indices = (a.tolist() for a in g.csr)
        seen = (~kept | g.boundary_mask).tolist()
        frontier, by_level, cuts = list(g.boundary), [], [0]
        while frontier:
            level = []
            for x in frontier:
                for y in indices[indptr[x]:indptr[x + 1]]:
                    if not seen[y]:
                        seen[y] = True
                        level.append(y)
            by_level += level
            if len(by_level) - cuts[-1] >= LEVEL_BLOCK_MIN:
                cuts.append(len(by_level))
            frontier = level
        cuts[max(len(cuts) - 1, 1):] = [len(by_level)]
        interior = np.array(by_level, dtype=np.intp)
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
    return InteriorBlocks(l_bb, l_ob, l_oo, interior, cuts, pruned)


def _block_solve(k: int, d: np.ndarray, rhs=None):
    """``D_k^-1 rhs``, or with no ``rhs`` the gate of D_k: ``1 / L_ii^2 <=
    (D_k^-1)_ii`` from ``L = np.linalg.cholesky(D_k)``, which overflows on the
    subnormal blocks that pass Cholesky.  A ``LinAlgError`` or a result that
    is not finite is the one-line :class:`NumericsError`."""
    try:
        out = np.linalg.cholesky(d).diagonal() ** -2.0 if rhs is None else np.linalg.solve(d, rhs)
        if not np.isfinite(out).all():
            raise np.linalg.LinAlgError(f"D_{k}^-1 is not finite")
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"interior block factorization failed: {exc}") from exc
    return out


def eliminate_interior(blocks: InteriorBlocks) -> tuple[np.ndarray, list[np.ndarray]]:
    """D_1 and the transfers ``[T_2, ..., T_K]`` by block elimination, deepest
    block first: ``np.linalg.cholesky(D_k)`` gates, ``T_k = D_k^-1 A_{k,k-1}``
    and ``D_{k-1} = A_{k-1,k-1} - A_{k-1,k} T_k``, down to the gated D_1.
    Each diagonal is the row sum of the off-diagonal conductances plus those
    to the next shallower block, as in GTH (Grassmann, Taksar & Heyman 1985)
    and Kron reduction (Dorfler & Bullo 2013): no cancelling subtraction, so
    the S of :func:`schur_complement` has S 1 = 0 up to their rounding.
    """
    cuts, order = blocks.cuts, np.argsort(blocks.l_oo[1])
    data, rows, cols = (a[order] for a in blocks.l_oo)
    ends = np.searchsorted(rows, cuts)

    def dense(k):  # A_kk and A_{k,k-1} of interior block k >= 1
        lo, hi, above = cuts[k - 1], cuts[k], cuts[max(k - 2, 0)]
        d, r, c = (a[ends[k - 1]:ends[k]] for a in (data, rows, cols))
        band, within = np.zeros((hi - lo, hi - above)), c < hi  # blocks k - 1 and k
        band[r[within] - lo, c[within] - above] = d[within]
        return band[:, lo - above:], (blocks.l_ob[lo:hi] if k == 1 else band[:, :lo - above])

    transfers, (d, link) = [], dense(len(cuts) - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a D_k that is not finite fails its gate
        for k in range(len(cuts) - 1, 0, -1):  # an empty interior is one block of size 0
            np.fill_diagonal(d, 0.0)
            np.fill_diagonal(d, -(d.sum(axis=1) + link.sum(axis=1)))
            _block_solve(k, d)
            if k == 1:
                return d, transfers[::-1]
            transfers.append(_block_solve(k, d, link))
            shallower, next_link = dense(k - 1)
            d, link = shallower - link.T @ transfers[-1], next_link


def schur_complement(blocks: InteriorBlocks, d1: np.ndarray) -> np.ndarray:
    """S = L_BB - L_{O_1 B}^T T_1, T_1 = D_1^-1 L_{O_1 B}, unsymmetrized, from
    the D_1 of :func:`eliminate_interior`, with the row-sum diagonal of every D_k."""
    link = blocks.l_ob[:blocks.cuts[1]]
    schur = blocks.l_bb - link.T @ _block_solve(1, d1, link)
    np.fill_diagonal(schur, 0.0)
    np.fill_diagonal(schur, -schur.sum(axis=1))
    return schur


def cho_factor(a, lower=False, overwrite_a=False, check_finite=True):
    """``scipy.linalg.cho_factor`` on first use; no library caller, kept for the tracer."""
    import scipy.linalg
    return scipy.linalg.cho_factor(a, lower, overwrite_a, check_finite)


def cho_solve(c_and_lower, b, overwrite_b=False, check_finite=True):
    """``scipy.linalg.cho_solve`` on first use; no library caller, kept for the tracer."""
    import scipy.linalg
    return scipy.linalg.cho_solve(c_and_lower, b, overwrite_b, check_finite)


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


def steklov_operator(schur, mass, real=None):
    """The Steklov spectrum and the invariant quantities of a Schur complement
    S = L_BB - L_BO L_OO^-1 L_OB as its engine formed it, over any leading
    axes: the algebra after S, shared by the per-graph analysis and the
    corpus kernel.

    ``mass`` holds the boundary masses.  Returns ``(S, eigenvalues,
    quantities)``: the symmetrized S, the ascending eigenvalues of
    A = M^-1/2 S M^-1/2, and the quantities that ``OPERATOR_CHECKS`` reads,
    ``asymmetry`` measured on S as given, with ``misalignment``:
    the Davis-Kahan bound |A v - rho v| / (sigma_2 - rho), rho = v^T A v, on
    the angle between sigma_1's eigenvector and v = M^1/2 1 / |M^1/2 1|,
    read off A so that a faulty mass reduction shows; 0 for |B| = 1 (v is
    exact), +inf if sigma_2 <= rho.  ``real`` (None: all) masks each row's own
    slots, a prefix; padding, decoupled above the spectrum, is not read by
    ``residual``, ``eig_scale`` or v, and is 0 or 1 in S: ``schur_scale``'s floor.
    """
    real = np.ones(np.shape(mass), dtype=bool) if real is None else real
    transpose = np.swapaxes(schur, -1, -2)
    asymmetry = np.abs(schur - transpose).max(axis=(-1, -2))
    schur = 0.5 * (schur + transpose)
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
    blocks, their elimination, the Steklov system, the spectrum, d_B and
    the bound report are computed once per graph.  It checks connectivity on
    construction and holds its graph, so an analysis outlives a temporary
    graph; the cyclic garbage collector frees the pair.
    """

    def __init__(self, g: WeightedBoundaryGraph):
        require_connected(g)
        self.graph = g
        self.bidx = np.flatnonzero(g.boundary_mask)

    @cached_property
    def blocks(self) -> InteriorBlocks:
        return interior_blocks(self.graph)

    @cached_property
    def elimination(self) -> tuple[np.ndarray, list[np.ndarray]]:
        return eliminate_interior(self.blocks)

    @cached_property
    def operator(self) -> tuple[SteklovSystem, Spectrum, dict]:
        """The Steklov system, its spectrum and the quantities of
        :func:`steklov_operator`; raises :class:`NumericsError` naming the
        first row of ``OPERATOR_CHECKS`` that fails."""
        mass = self.graph.measures[self.bidx]
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                schur = schur_complement(self.blocks, self.elimination[0])
                schur, eig, q = steklov_operator(schur, mass)
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
    def boundary_hops(self) -> tuple[int, np.ndarray | None]:
        return boundary_hops(self.graph)

    @cached_property
    def bound_report(self):
        """The graph's :class:`~steklov.bounds.BoundReport`."""
        from .bounds import compute_bound_report  # bounds imports this module

        return compute_bound_report(self.graph)
