"""Edge-sum oracles for the identities of the Steklov operator.

Each is a direct sum over ``g.edge_arrays``, independent of the Laplacian
matrix and the Schur complement that the library builds:

- ``edge_energy(g, u, v)`` is the Dirichlet form: the sum over the edges xy
  of ``w_xy (u(y) - u(x)) (v(y) - v(x))``;
- ``normal_derivative(g, u)`` is ``(1/m_x) sum_y (u(x) - u(y)) w_xy`` at each
  boundary vertex x, in boundary-id order;
- ``rayleigh_quotient(g, f)`` is the energy of the harmonic extension of f
  over the m-weighted boundary norm of f; its minimum over the f that are
  m-orthogonal to constants is sigma_2.
"""

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
