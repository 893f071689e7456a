"""The per-graph route of the corpus verifier, kept as a test reference.

It computes every quantity of the corpus check table one graph at a time
from the public per-graph operations (``g.analysis``, ``harmonic_extension``,
``bound_report``, ``check_rigidity``) and hands them to the same evaluator as
the stacked kernel in ``steklov.corpus``.  The tests compare the two routes
record by record, in every corpus mode.

It also keeps the labeled enumeration that ``steklov.corpus`` no longer
needs: a brute-force list of the connected labeled graphs, the orbits of the
isomorphism classes under relabelling, and the exhaustive corpus as a stream
of instances, one object per labeled instance or per repeated class row.  In
unit mode the reference checks every labeled instance and folds the failures
by canonical (class, orbit) row, which is what the kernel reports.  The
random corpus is drawn one row at a time (:func:`random_instances`), in the
order that the batched draw of ``steklov.corpus`` consumes the generator.
"""

from functools import lru_cache
from itertools import combinations, compress
from math import comb

import numpy as np
import scipy.linalg

from steklov import (
    GraphError,
    bound_report,
    check_rigidity,
    graph_from_arrays,
    graph_to_json_dict,
    is_connected,
)
from steklov.corpus import (
    RANDOM_RETRIES,
    ViolationRecord,
    _DRAW_PAIRS,
    _bits,
    _boundary_masks,
    _CHECK_RANK,
    _bound_quantities,
    _certificate,
    _class_orbits,
    _details,
    _evaluate,
    _graph_classes,
    _pair_arrays,
    _permutations,
    _relabelled,
    _relabellings,
    _Run,
)
from steklov.spectral import NumericsError, harmonic_extension

from reference_spectral import edge_energy


def reference_quantities(g, rng, mutations=frozenset()) -> dict:
    """The check table's quantities of one graph, as Python scalars.

    Raises :class:`NumericsError` where the per-graph analysis does.
    """
    system, _, operator = g.analysis.operator
    q = dict(operator)
    q["misalignment"] = eigenvector_angle(system.schur, system.boundary_mass)

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


def eigenvector_angle(schur, mass) -> float:
    """Sine of the angle between sigma_1's eigenvector of ``S v = sigma M v``,
    by scipy's generalized eigh, and the constants: the M-norm of its
    residual after projecting onto 1 (scipy's v1 is M-normalized already).
    The kernel's ``misalignment`` is the Davis-Kahan bound on it."""
    v1 = scipy.linalg.eigh(schur, np.diag(mass))[1][:, 0]
    resid = v1 - float(np.dot(v1, mass)) / float(mass.sum())
    return float(np.sqrt(np.dot(resid * resid, mass)))


def reference_check_instance(g, rng=None, mutations=frozenset()) -> list:
    """(check, details) of every failed assertion on one graph."""
    rng = rng if rng is not None else np.random.default_rng(0)
    try:
        q = reference_quantities(g, rng, mutations)
    except NumericsError as exc:
        return [("numerics_failure", {"error": str(exc)})]
    return [(check, _details(q, keys)) for check, keys, ok in _evaluate(q) if not ok]


def reference_verify(spec, mutations=frozenset()) -> list:
    """verify_corpus one graph at a time: the random stream, the repeated
    class rows of weighted exhaustive mode, or every labeled unit instance
    folded by class row (:func:`fold_by_class_row`)."""
    rng = np.random.default_rng([spec.seed, 1])
    if spec.mode == "exhaustive" and spec.unit_only:
        return fold_by_class_row(spec.n_max, rng, mutations)
    if spec.mode == "random":
        instances = random_instances(spec)
    else:
        instances = class_row_instances(spec.n_max, np.random.default_rng([spec.seed, 0]),
                                        spec.weight_range, spec.measure_range)
    records = []
    for index, inst in enumerate(instances):
        g = inst.graph()
        records.extend(ViolationRecord(index, check, graph_to_json_dict(g), details)
                       for check, details in reference_check_instance(g, rng, mutations))
    return records


def random_instances(spec):
    """The random corpus one row at a time.  Per batch of
    ``_DRAW_PAIRS // (n_max choose 2)`` rows (at least one): every row's n,
    then every edge probability, then every boundary size; then the
    rejection rounds of :func:`draw_connected`; then each row's weights and
    measures by ``rng.uniform``; then one (rows, largest n) matrix of uniform
    keys, and each row's boundary is its ``boundary_size`` real columns of
    smallest key, ascending."""
    rng = np.random.default_rng([spec.seed, 0])
    step = max(1, _DRAW_PAIRS // comb(spec.n_max, 2))
    for lo in range(0, spec.samples, step):
        rows = min(step, spec.samples - lo)
        sizes = rng.integers(2, spec.n_max + 1, size=rows).tolist()
        probs = rng.uniform(0.2, 0.9, size=rows).tolist()
        boundary_sizes = rng.integers(2, np.array(sizes) + 1).tolist()
        edges = draw_connected(rng, sizes, probs)
        values = []
        for n, (u, _) in zip(sizes, edges):
            if spec.unit_only:
                values.append((np.ones(len(u)), np.ones(n)))
            else:
                values.append((rng.uniform(*spec.weight_range, size=len(u)),
                               rng.uniform(*spec.measure_range, size=n)))
        keys = rng.random((rows, max(sizes)))
        for n, nb, (u, v), (w, m), key in zip(sizes, boundary_sizes, edges, values, keys):
            boundary = np.array(sorted(sorted(range(n), key=lambda x: key[x])[:nb]))
            yield instance(n, u, v, w, m, boundary)


def draw_connected(rng, sizes, probs) -> list:
    """(tails, heads), in lexicographic order, of the first connected G(n, p)
    candidate of each row.  Round t draws min(2^t, budget, retries left)
    candidates of each row still pending, one row after another, where the
    budget is ``_DRAW_PAIRS`` over the pending rows' pairs (at least one); a
    candidate draws one uniform per vertex pair in colex order, (u, v) by v
    then u, and rows keep drawing their candidates after a connected one."""
    edges, pending, tries, copies = [None] * len(sizes), list(range(len(sizes))), 0, 1
    while pending and tries < RANDOM_RETRIES:
        budget = _DRAW_PAIRS // max(1, sum(comb(sizes[r], 2) for r in pending))
        copies = min(copies, max(1, budget), RANDOM_RETRIES - tries)
        for r in pending:
            pairs = sorted(combinations(range(sizes[r]), 2), key=lambda pair: pair[::-1])
            for _ in range(copies):
                on = rng.random(len(pairs)) < probs[r]
                u, v = np.array(sorted(compress(pairs, on)), dtype=np.int64).reshape(-1, 2).T
                g = graph_from_arrays(np.ones(sizes[r]), [0],
                                      zip(u.tolist(), v.tolist(), [1.0] * len(u)))
                if edges[r] is None and is_connected(g):
                    edges[r] = u, v
        pending = [r for r in pending if edges[r] is None]
        tries, copies = tries + copies, 2 * copies
    if pending:
        raise GraphError(f"no connected draw in {RANDOM_RETRIES} tries")
    return edges


def fold_by_class_row(n_max: int, rng, mutations=frozenset()) -> list:
    """Check every labeled unit instance on 2..n_max vertices and fold the
    failures by canonical (class, orbit) row: the least (relabelled edge
    mask, relabelled boundary mask) pair over all n! relabellings.  Per
    (row, check), one record, indexed by the row's rank among all rows (n,
    then edge mask, then boundary mask), with the graph and details of the
    row's own instance when it failed that check (else of the first labeled
    instance that did) and ``labelings`` the number of labeled instances
    that failed it."""
    folded, rows = {}, set()
    for n in range(2, n_max + 1):
        perms, moves = _permutations(n)
        for edge_mask in labeled_masks(n).tolist():
            graphs = _relabelled([edge_mask], moves)[0]
            for boundary_mask in _boundary_masks(n):
                key = int((graphs << n | _relabelled([boundary_mask], perms)[0]).min())
                row = n, key >> n, key & ((1 << n) - 1)
                rows.add(row)
                g = mask_instance(n, edge_mask, boundary_mask).graph()
                for check, details in reference_check_instance(g, rng, mutations):
                    entry = folded.setdefault((row, check), [g, details, 0])
                    if (edge_mask, boundary_mask) == row[1:]:
                        entry[:2] = g, details
                    entry[2] += 1
    rank = {row: index for index, row in enumerate(sorted(rows))}
    records = [ViolationRecord(rank[row], check, graph_to_json_dict(g), details, count)
               for (row, check), (g, details, count) in folded.items()]
    return sorted(records, key=lambda r: (r.index, _CHECK_RANK[r.check]))


def instance(n: int, u, v, w, m, boundary) -> _Run:
    """A run of one row: n vertices, the edges u < v with weights w, the
    measures m and the sorted boundary ids."""
    return _Run(np.array([n]), np.array([len(boundary)]), boundary, np.array([len(u)]), u, v, w, m)


def mask_instance(n: int, edge_mask: int, boundary_mask: int) -> _Run:
    """Unit-weight instance of an edge and a boundary bitmask."""
    tails, heads = _pair_arrays(n)
    on = np.flatnonzero(_bits(edge_mask, len(tails)))
    return instance(n, tails[on], heads[on], np.ones(len(on)), np.ones(n),
                    np.flatnonzero(_bits(boundary_mask, n)))


@lru_cache(maxsize=8)
def labeled_masks(n: int) -> np.ndarray:
    """Edge bitmasks of all connected labeled graphs on n vertices,
    ascending; bit k of a mask is the k-th pair of ``_pair_arrays(n)``.

    They are the orbits of the classes under relabelling.  Orbits of
    different classes are disjoint, so only repeats within a row go.
    """
    orbits = []
    for rows in _relabellings(n, [c.mask for c in _graph_classes(n)]):
        rows.sort(axis=1)
        orbits.append(rows[np.diff(rows, axis=1, prepend=-1) != 0])
    return np.sort(np.concatenate(orbits))


def small_instances(n_max: int, rng=None, weight_range=None, measure_range=None):
    """Every connected labeled graph on 2..n_max vertices, crossed with every
    boundary subset of size >= 2, one instance each: n ascending, then edge
    bitmask, then boundary bitmask.  With ``rng``, each instance draws its
    weights and then its measures by ``rng.uniform``, else all are 1."""
    for n in range(2, n_max + 1):
        for edge_mask in labeled_masks(n):
            for boundary_mask in _boundary_masks(n):
                inst = mask_instance(n, edge_mask, boundary_mask)
                if rng is not None:
                    inst = _drawn(inst, rng, weight_range, measure_range)
                yield inst


def class_row_instances(n_max: int, rng, weight_range, measure_range):
    """The weighted exhaustive stream one instance at a time: each class row
    on 2..n_max vertices repeated its labelings times, each repeat drawing
    its weights and then its measures by ``rng.uniform``."""
    for n in range(2, n_max + 1):
        for edge_mask, boundary_mask, labelings in _class_orbits(n).tolist():
            for _ in range(labelings):
                yield _drawn(mask_instance(n, edge_mask, boundary_mask), rng, weight_range,
                             measure_range)


def _drawn(inst: _Run, rng, weight_range, measure_range) -> _Run:
    return inst._replace(w=rng.uniform(*weight_range, size=len(inst.u)),
                         m=rng.uniform(*measure_range, size=inst.n))


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
