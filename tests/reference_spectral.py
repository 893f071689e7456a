"""Oracles for the Steklov operator, independent of the blocks and the
elimination that the library builds.

The edge-sum oracles are direct sums over ``g.edge_arrays``:

- ``edge_energy(g, u, v)`` is the Dirichlet form: the sum over the edges xy
  of ``w_xy (u(y) - u(x)) (v(y) - v(x))``;
- ``normal_derivative(g, u)`` is ``(1/m_x) sum_y (u(x) - u(y)) w_xy`` at each
  boundary vertex x, in boundary-id order;
- ``rayleigh_quotient(g, f)`` is the energy of the harmonic extension of f
  over the m-weighted boundary norm of f; its minimum over the f that are
  m-orthogonal to constants is sigma_2.

The dense oracles solve the unpruned Laplacian in one piece
(``dense_schur``, ``dense_harmonic``), and ``exact_effective_conductance``
eliminates the interior of a two-vertex boundary in rational arithmetic.
"""

from fractions import Fraction

import numpy as np

from steklov import harmonic_extension


def edge_energy(g, u, v) -> float:
    tails, heads, w = g.edge_arrays
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return float(np.dot((u[heads] - u[tails]) * w, v[heads] - v[tails]))


def normal_derivative(g, u) -> np.ndarray:
    tails, heads, w = g.edge_arrays
    u = np.asarray(u, dtype=float)
    flux = np.zeros(g.n)
    np.add.at(flux, tails, w * (u[tails] - u[heads]))
    np.add.at(flux, heads, w * (u[heads] - u[tails]))
    b = np.asarray(g.boundary, dtype=np.intp)
    return flux[b] / g.measures[b]


def rayleigh_quotient(g, f) -> float:
    f = np.asarray(f, dtype=float)
    u = harmonic_extension(g, f)
    mass = g.measures[np.asarray(g.boundary, dtype=np.intp)]
    return edge_energy(g, u, u) / float(np.dot(f * f, mass))


def dense_laplacian(g) -> np.ndarray:
    """The weighted Laplacian of every vertex, written from the edge arrays."""
    tails, heads, w = g.edge_arrays
    L = np.zeros((g.n, g.n))
    np.add.at(L, (tails, heads), -w)
    np.add.at(L, (heads, tails), -w)
    np.add.at(L, (tails, tails), w)
    np.add.at(L, (heads, heads), w)
    return L


def dense_schur(g) -> np.ndarray:
    """S = L_BB - L_BO L_OO^-1 L_OB of the unpruned Laplacian, by one dense
    ``numpy.linalg.solve``, in boundary order."""
    L = dense_laplacian(g)
    b = np.asarray(g.boundary, dtype=np.intp)
    o = np.flatnonzero(~g.boundary_mask)
    return L[np.ix_(b, b)] - L[np.ix_(b, o)] @ np.linalg.solve(L[np.ix_(o, o)], L[np.ix_(o, b)])


def dense_harmonic(g, f) -> np.ndarray:
    """The harmonic extension of f by one dense solve of the unpruned
    interior system ``L_OO u_O = -L_OB f``."""
    L = dense_laplacian(g)
    b = np.asarray(g.boundary, dtype=np.intp)
    o = np.flatnonzero(~g.boundary_mask)
    u = np.zeros(g.n)
    u[b] = f
    u[o] = np.linalg.solve(L[np.ix_(o, o)], -L[np.ix_(o, b)] @ np.asarray(f, dtype=float))
    return u


def exact_effective_conductance(g) -> Fraction:
    """The effective conductance between the two boundary vertices of g, in
    exact rational arithmetic: every interior vertex k is removed by the
    star-mesh transform, which joins each pair i, j of its neighbours by
    c_ik c_kj / sum_l c_kl."""
    conductance: dict[int, dict[int, Fraction]] = {x: {} for x in range(g.n)}
    for u, v, w in g.edges:
        conductance[u][v] = conductance[v][u] = Fraction(w)
    for k in np.flatnonzero(~g.boundary_mask).tolist():
        star = conductance.pop(k)
        total = sum(star.values())
        for i in star:
            del conductance[i][k]
        for i, c_ik in star.items():
            for j, c_kj in star.items():
                if i != j:
                    conductance[i][j] = conductance[i].get(j, 0) + c_ik * c_kj / total
    a, b = g.boundary
    return conductance[a].get(b, Fraction(0))
