"""The per-graph route of the corpus verifier, kept as a test reference.

It computes every quantity of the corpus check table one graph at a time
from the public per-graph operations (``g.analysis``, ``harmonic_extension``,
``bound_report``, ``check_rigidity``) and hands them to the same evaluator as
the stacked kernel in ``steklov.corpus``.  The tests compare the two routes
record by record, in every corpus mode.
"""

import numpy as np
import scipy.linalg

from steklov import bound_report, check_rigidity, graph_to_json_dict
from steklov.corpus import (
    ViolationRecord,
    _bound_quantities,
    _certificate,
    _details,
    _evaluate,
    _random_instances,
)
from steklov.spectral import NumericsError, harmonic_extension

from conftest import enumerate_small
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
        if not g.is_unit_weighted():
            del q["unit_formula"]
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
        graphs = enumerate_small(spec.n_max, *(() if spec.unit_only else draw))
    rng = np.random.default_rng([spec.seed, 1])
    records = []
    for index, g in enumerate(graphs):
        failures = reference_check_instance(g, rng, mutations)
        records.extend(
            ViolationRecord(index, check, graph_to_json_dict(g), details)
            for check, details in failures
        )
    return records
