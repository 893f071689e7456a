"""The per-graph route of the corpus verifier, kept as a test reference.

It computes every quantity of the corpus check table one graph at a time
from the public per-graph operations (``g.analysis``, ``harmonic_extension``,
``bound_report``, ``check_rigidity``) and hands them to the same evaluator as
the stacked kernel in ``steklov.corpus``.  The tests compare the two routes
record by record, in every corpus mode.

It also keeps a brute-force list of the connected labeled graphs, which the
tests hold the isomorphism classes of ``steklov.corpus`` to, and the
exhaustive corpus as a stream of instances, one object per labeled instance,
which the tests hold the bitmask feeder of exhaustive mode to.
"""

from functools import lru_cache
from itertools import combinations

import numpy as np
import scipy.linalg

from steklov import bound_report, check_rigidity, graph_to_json_dict
from steklov.corpus import (
    ViolationRecord,
    _boundary_masks,
    _bound_quantities,
    _certificate,
    _details,
    _evaluate,
    _Instance,
    _labeled_masks,
    _mask_instance,
    _random_instances,
)
from steklov.spectral import NumericsError, harmonic_extension

from reference_spectral import edge_energy


def reference_quantities(g, rng, mutations=frozenset()) -> dict:
    """The check table's quantities of one graph, as Python scalars.

    Raises :class:`NumericsError` where the per-graph analysis does.
    """
    system, _, operator = g.analysis.operator
    q = dict(operator)

    # lowest eigenvector must be constant: residual after projecting onto 1
    # in the m-inner product (scipy's v1 is m-normalized already)
    mass = system.boundary_mass
    v1 = scipy.linalg.eigh(system.schur, np.diag(mass))[1][:, 0]
    resid = v1 - float(np.dot(v1, mass)) / float(mass.sum())
    q["misalignment"] = float(np.sqrt(np.dot(resid * resid, mass)))

    # Green symmetry: <Lambda f, h>_B (Schur route) against <du_f, du_h>
    # (harmonic extension route)
    nb = len(g.boundary)
    f = rng.standard_normal(nb)
    h = rng.standard_normal(nb)
    q["schur_form"] = float(h @ (system.schur @ f))
    q["energy"] = edge_energy(g, harmonic_extension(g, f), harmonic_extension(g, h))

    if nb >= 2:
        r = bound_report(g)
        q.update(_bound_quantities(r.sigma2, r.w0, r.m0, r.VB, r.dB, nb, mutations))
        q["unit"] = g.is_unit_weighted()
        rigidity = check_rigidity(g)
        q.update(_certificate(
            rigidity.cond_boundary, rigidity.cond_path, rigidity.cond_comb, mutations
        ))
    return q


def reference_check_instance(g, rng=None, mutations=frozenset()) -> list:
    """(check, details) of every failed assertion on one graph."""
    rng = rng if rng is not None else np.random.default_rng(0)
    try:
        q = reference_quantities(g, rng, mutations)
    except NumericsError as exc:
        return [("numerics_failure", {"error": str(exc)})]
    return [(check, _details(q, keys)) for check, keys, ok in _evaluate(q) if not ok]


def reference_verify(spec, mutations=frozenset()) -> list:
    """verify_corpus one graph at a time over the same instance stream."""
    if spec.mode == "random":
        graphs = (instance.graph() for instance in _random_instances(spec))
    else:
        draw = (np.random.default_rng([spec.seed, 0]), spec.weight_range,
                spec.measure_range)
        graphs = map(_Instance.graph,
                     small_instances(spec.n_max, *(() if spec.unit_only else draw)))
    rng = np.random.default_rng([spec.seed, 1])
    records = []
    for index, g in enumerate(graphs):
        failures = reference_check_instance(g, rng, mutations)
        records.extend(
            ViolationRecord(index, check, graph_to_json_dict(g), details)
            for check, details in failures
        )
    return records


def small_instances(n_max: int, rng=None, weight_range=None, measure_range=None):
    """Every connected labeled graph on 2..n_max vertices, crossed with every
    boundary subset of size >= 2, one instance each: n ascending, then edge
    bitmask, then boundary bitmask.  With ``rng``, each instance draws its
    weights and then its measures by ``rng.uniform``, else all are 1."""
    for n in range(2, n_max + 1):
        for edge_mask in _labeled_masks(n):
            for boundary_mask in _boundary_masks(n):
                inst = _mask_instance(n, edge_mask, boundary_mask)
                if rng is not None:
                    inst = inst._replace(w=rng.uniform(*weight_range, size=len(inst.u)),
                                         m=rng.uniform(*measure_range, size=n))
                yield inst


@lru_cache(maxsize=None)
def connected_edge_masks(n: int) -> tuple[int, ...]:
    """Edge bitmasks of the connected labeled graphs on n vertices, ascending,
    by a search from vertex 0 in each of the 2^(n choose 2) graphs; bit k of
    a mask is the k-th pair u < v in lexicographic order."""
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        adjacent = [0] * n
        for k, (u, v) in enumerate(pairs):
            if mask >> k & 1:
                adjacent[u] |= 1 << v
                adjacent[v] |= 1 << u
        seen = frontier = 1
        while frontier:
            reached = 0
            for x in range(n):
                if frontier >> x & 1:
                    reached |= adjacent[x]
            frontier = reached & ~seen
            seen |= reached
        if seen == (1 << n) - 1:
            out.append(mask)
    return tuple(out)
