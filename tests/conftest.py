import numpy as np
import pytest

from steklov import graph_from_arrays
from steklov.corpus import _Run

from reference_corpus import small_instances


@pytest.fixture
def k2():
    """Unit K2, both vertices boundary."""
    return graph_from_arrays([1.0, 1.0], [0, 1], [(0, 1, 1.0)])


@pytest.fixture
def path3():
    """Unit path on 3 vertices, endpoints boundary."""
    return graph_from_arrays([1.0] * 3, [0, 2], [(0, 1, 1.0), (1, 2, 1.0)])


@pytest.fixture
def c4():
    """Unit 4-cycle, opposite vertices boundary."""
    return graph_from_arrays(
        [1.0] * 4, [0, 2], [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]
    )


@pytest.fixture
def star():
    """Unit K_{1,3}: center 1, leaves 0, 2, 3; leaves 0 and 2 boundary."""
    return graph_from_arrays(
        [1.0] * 4, [0, 2], [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)]
    )


def enumerate_small(n_max: int, *draw):
    """The exhaustive corpus on 2..n_max vertices as validated graphs, in
    stream order; ``draw`` is ``(rng, weight_range, measure_range)`` for
    drawn weights and measures, else all are 1."""
    return map(_Run.graph, small_instances(n_max, *draw))


def unit_path(n: int):
    """Unit path on n vertices with endpoint boundary."""
    return graph_from_arrays(
        [1.0] * n, [0, n - 1], [(i, i + 1, 1.0) for i in range(n - 1)]
    )


def rng_graph(rng: np.random.Generator, n: int, extra_edge_prob: float = 0.35,
              unit: bool = False, boundary_size: int | None = None):
    """Random connected graph: random tree plus extra edges (no rejection)."""
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges.add((i, j))
    if unit:
        weights = {e: 1.0 for e in edges}
        measures = np.ones(n)
    else:
        weights = {e: float(rng.uniform(0.5, 2.0)) for e in edges}
        measures = rng.uniform(0.5, 2.0, size=n)
    if boundary_size is None:
        boundary_size = int(rng.integers(1, n + 1))
    boundary = sorted(int(b) for b in rng.choice(n, size=boundary_size, replace=False))
    return graph_from_arrays(
        measures=measures,
        boundary=boundary,
        edges=[(u, v, weights[(u, v)]) for u, v in sorted(edges)],
    )
