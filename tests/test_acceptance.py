"""Acceptance suite: one pass/fail line per criterion, with runtime limits.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines.
"""

import time

import numpy as np
import scipy.linalg

from steklov import (
    CorpusSpec,
    bound_report,
    check_rigidity,
    graph_from_arrays,
    harmonic_extension,
    laplacian,
    random_comb,
    steklov_spectrum,
    steklov_system,
    verify_corpus,
)
from steklov.corpus import MUTATION_BOUND_DB, MUTATION_COMB_SKIP
from conftest import enumerate_small, rng_graph, unit_path


def _report(num, slug, failures, elapsed, limit=None):
    ok = not failures and (limit is None or elapsed < limit)
    budget = f", limit {limit:.0f} s" if limit is not None else ""
    print(f"\nACCEPTANCE {num} [{slug}]: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f} s{budget})")
    if limit is not None:
        assert elapsed < limit, f"runtime {elapsed:.2f} s exceeded {limit} s"
    assert not failures, failures[:5]


def _oracle_sigma2(g):
    """Independent dense route: explicit-inverse Schur complement plus
    scipy's generalized symmetric eigensolver."""
    L, m = laplacian(g)
    b = np.asarray(g.boundary, dtype=np.intp)
    o = np.flatnonzero(~g.boundary_mask)
    S = L[np.ix_(b, b)]
    if len(o):
        S = S - L[np.ix_(b, o)] @ np.linalg.inv(L[np.ix_(o, o)]) @ L[np.ix_(o, b)]
    vals = scipy.linalg.eigh(S, np.diag(m[b]), eigvals_only=True)
    return float(vals[1])


def test_criterion_1_path_family_sharpness():
    """Unit paths attain the bound exactly for every n in 2..50."""
    start = time.perf_counter()
    failures = []
    for n in range(2, 51):
        g = unit_path(n)
        target = 2.0 / (n - 1)
        rep = bound_report(g)
        if abs(rep.sigma2 - target) > 1e-9 * target:
            failures.append((n, "sigma2", rep.sigma2, target))
        if rep.bound_extended != target:
            failures.append((n, "bound_not_exact", rep.bound_extended, target))
        rigidity = check_rigidity(g)
        if not (rigidity.equality and rigidity.certified_equality):
            failures.append((n, "not_certified"))
    _report(1, "path-family-sharpness", failures, time.perf_counter() - start, 1.0)


def test_criterion_2_bound_validity_at_scale():
    """10^4 random connected graphs, n <= 30, weights/measures in [0.5, 2],
    boundary sizes 2..n: no bound violations at 1e-9 relative slack."""
    start = time.perf_counter()
    spec = CorpusSpec(
        mode="random",
        n_max=30,
        samples=10_000,
        weight_range=(0.5, 2.0),
        measure_range=(0.5, 2.0),
        seed=20260811,
    )
    records = verify_corpus(spec)
    failures = [(r.index, r.check, r.details) for r in records]
    _report(2, "bound-validity-10k-random", failures, time.perf_counter() - start, 120.0)


def test_criterion_3_rigidity_biconditional_exhaustive():
    """All connected labeled unit graphs on n <= 6 vertices, all boundary
    subsets of size >= 2: numeric equality (tol 1e-8) coincides with the
    structural certificate on every one of the 1,541,491 instances."""
    start = time.perf_counter()
    spec = CorpusSpec(mode="exhaustive", n_max=6, unit_only=True, seed=0)
    records = verify_corpus(spec)
    failures = [(r.index, r.check, r.details) for r in records]
    _report(3, "rigidity-biconditional-n6", failures, time.perf_counter() - start, 300.0)


def test_criterion_4_converse_soundness():
    """100 seeded random combs (trees up to 6 vertices per tooth, weights in
    [w, 10w], measures in [0.1, 10]) are all certified and sharp, with the
    closed-form sigma_2 confirmed by the dense eigensolve oracle."""
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    failures = []
    for i in range(100):
        length = int(rng.integers(1, 9))
        w = float(rng.uniform(0.5, 2.0))
        mass = float(rng.uniform(0.1, 10.0))
        g = random_comb(length, w, mass, seed=rng)
        target = 2.0 * w / (mass * length)
        oracle = _oracle_sigma2(g)
        if abs(oracle - target) > 1e-9 * target:
            failures.append((i, "oracle_disagrees", oracle, target))
        rep = check_rigidity(g)
        if not (rep.certified_equality and rep.equality):
            failures.append((i, "not_certified"))
        if abs(rep.sigma2 - target) > 1e-9 * target:
            failures.append((i, "sigma2_off", rep.sigma2, target))
    _report(4, "converse-soundness-100-combs", failures, time.perf_counter() - start, 10.0)


def test_criterion_5_structural_invariants():
    """10^3 random graphs: Green symmetry, zero eigenvalue with constant
    eigenvector, constants in the kernel of S, the maximum principle, and
    weight/measure scaling covariance."""
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    failures = []
    for i in range(1000):
        n = int(rng.integers(3, 17))
        g = rng_graph(rng, n, unit=bool(rng.integers(0, 2)),
                      boundary_size=int(rng.integers(2, n + 1)))
        system = steklov_system(g)
        spectrum = steklov_spectrum(g)
        nb = len(g.boundary)
        mass = system.boundary_mass

        f = rng.standard_normal(nb)
        h = rng.standard_normal(nb)
        u_f = harmonic_extension(g, f)
        u_h = harmonic_extension(g, h)
        L, _ = laplacian(g)
        lhs = float(h @ (system.schur @ f))
        rhs = float(u_h @ (L @ u_f))
        if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs), abs(rhs)):
            failures.append((i, "green", lhs, rhs))

        eig = spectrum.eigenvalues
        scale = max(1.0, float(eig[-1]))
        if abs(eig[0]) > 1e-10 * scale:
            failures.append((i, "sigma1", float(eig[0])))
        v1 = scipy.linalg.eigh(system.schur, np.diag(mass))[1][:, 0]
        resid = v1 - float(np.dot(v1, mass)) / float(mass.sum())
        if float(np.sqrt(np.dot(resid * resid, mass))) > 1e-8:
            failures.append((i, "sigma1_vector"))

        s_scale = max(1.0, float(np.abs(system.schur).max()))
        if float(np.abs(system.schur @ np.ones(nb)).max()) > 1e-10 * s_scale:
            failures.append((i, "kernel"))

        slack = 1e-12 * max(1.0, float(np.abs(f).max()))
        if u_f.min() < f.min() - slack or u_f.max() > f.max() + slack:
            failures.append((i, "max_principle"))

        c = float(rng.uniform(0.2, 5.0))
        scaled_w = steklov_spectrum(
            graph_from_arrays(g.measures, g.boundary,
                              [(u, v, w * c) for u, v, w in g.edges])
        ).eigenvalues
        if not np.allclose(scaled_w, c * eig, rtol=1e-10, atol=1e-12):
            failures.append((i, "weight_scaling"))
        scaled_m = steklov_spectrum(
            graph_from_arrays(np.asarray(g.measures) * c, g.boundary, list(g.edges))
        ).eigenvalues
        if not np.allclose(scaled_m, eig / c, rtol=1e-10, atol=1e-12):
            failures.append((i, "measure_scaling"))
    _report(5, "structural-invariants-1k", failures, time.perf_counter() - start, 60.0)


def test_criterion_6_dominance_and_specialization():
    """Extended bound dominates the general one, and reduces exactly to the
    unit-weight formula on unit instances.  Full corpus coverage is folded
    into criteria 2 and 3 (the verifier asserts both on every instance);
    this re-checks the n <= 4 corpora directly through bound_report."""
    start = time.perf_counter()
    failures = []
    streams = [
        enumerate_small(4),
        enumerate_small(4, np.random.default_rng(6), (0.5, 2.0), (0.5, 2.0)),
    ]
    for stream in streams:
        for i, g in enumerate(stream):
            rep = bound_report(g)
            if rep.bound_extended < rep.bound_general - 1e-15:
                failures.append((i, "dominance", rep))
            if g.is_unit_weighted():
                nb = len(g.boundary)
                unit_value = nb / ((nb - 1) ** 2 * rep.dB)
                if abs(rep.bound_extended - unit_value) > 1e-15:
                    failures.append((i, "specialization", rep))
    _report(6, "dominance-and-specialization", failures, time.perf_counter() - start)


def test_criterion_7_mutation_sentinel():
    """Corrupting the bound formula (d_B + 1) or the comb check (skip the
    disjointness test) must surface violations in criterion 3's run.  The
    run is capped at 100 records since only existence matters."""
    start = time.perf_counter()
    spec = CorpusSpec(mode="exhaustive", n_max=6, unit_only=True, seed=0)
    failures = []
    for mutation in (MUTATION_BOUND_DB, MUTATION_COMB_SKIP):
        records = verify_corpus(
            spec, max_violations=100, mutations=frozenset({mutation})
        )
        if not records:
            failures.append((mutation, "no violations caught"))
    _report(7, "mutation-sentinel", failures, time.perf_counter() - start)
