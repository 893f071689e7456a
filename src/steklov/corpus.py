"""Random and exhaustive graph corpora with brute-force theorem verification.

``verify_corpus`` asserts, for every instance, that sigma_2 respects the
extended lower bound, that numeric equality coincides with the structural
certificate, and that the spectral invariants hold (PSD, kernel, Green
symmetry, bound dominance and the unit-weight specialization).  Violations
come back as data, never as exceptions.

The exhaustive unit-weight mode runs on a vectorized engine (stacked
Laplacians, batched Schur complements and eigensolves) because the n <= 6
corpus has about 1.5 million instances; random mode and the weighted
exhaustive mode go through the per-graph reference path built from the
public operations.  The two paths are cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bounds import bound_formulas, bound_report
from .graph import (
    GraphError,
    WeightedBoundaryGraph,
    component_labels,
    graph_from_arrays,
    graph_to_json_dict,
    json_number,
)
from .rigidity import check_rigidity
from .spectral import (
    KERNEL_TOL,
    PSD_TOL,
    SIGMA1_TOL,
    NumericsError,
    differential,
    dirichlet_energy,
    harmonic_extension,
    steklov_spectrum,
    steklov_system,
)

BOUND_SLACK = 1e-9
EQUALITY_TOL = 1e-8
GREEN_TOL = 1e-9
DOMINANCE_SLACK = 1e-15
UNIT_SPECIALIZATION_TOL = 1e-15
EIGVEC_ALIGN_TOL = 1e-8

# Deliberate corruptions for mutation-sentinel tests: each must make the
# verifier report violations, proving the assertions are not vacuous.
MUTATION_BOUND_DB = "bound_db_plus_one"
MUTATION_COMB_SKIP = "comb_skip_disjointness"
KNOWN_MUTATIONS = frozenset({MUTATION_BOUND_DB, MUTATION_COMB_SKIP})

_CHECK_ORDER = (
    "numerics_failure",
    "psd",
    "sigma1_zero",
    "sigma1_constant_vector",
    "kernel_constants",
    "green_symmetry",
    "bound_extended_holds",
    "dominance",
    "unit_specialization",
    "equality_iff_certified",
)
_CHECK_RANK = {name: i for i, name in enumerate(_CHECK_ORDER)}


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters of a verification corpus run."""

    mode: str
    n_max: int = 6
    samples: int = 10_000
    weight_range: tuple[float, float] = (0.5, 2.0)
    measure_range: tuple[float, float] = (0.5, 2.0)
    seed: int = 0
    unit_only: bool = False

    def __post_init__(self):
        if self.mode not in ("random", "exhaustive"):
            raise GraphError(f"unknown corpus mode {self.mode!r}")
        if self.mode == "exhaustive" and not 2 <= self.n_max <= 7:
            raise GraphError("exhaustive mode requires 2 <= n_max <= 7")
        if self.mode == "random" and self.n_max < 2:
            raise GraphError("random mode requires n_max >= 2")
        if self.samples < 0:
            raise GraphError("samples must be nonnegative")


@dataclass(frozen=True)
class ViolationRecord:
    """One failed assertion, with the offending graph for reproduction."""

    index: int
    check: str
    graph: dict
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "check": self.check,
            "details": {k: json_number(v) if isinstance(v, float) else v
                        for k, v in self.details.items()},
            "graph": self.graph,
        }


# --- random graphs ------------------------------------------------------------


def random_graph(
    n: int,
    edge_prob: float,
    weight_range: tuple[float, float],
    measure_range: tuple[float, float],
    boundary_size: int,
    seed,
    unit: bool = False,
    max_retries: int = 1000,
) -> WeightedBoundaryGraph:
    """Uniform G(n, p) conditioned on connectivity, by rejection sampling.

    Weights and measures are uniform in the given ranges (or all 1 with
    ``unit=True``), the boundary is a uniform subset of the requested size.
    Deterministic for a given seed; raises after ``max_retries`` failed
    connectivity draws.
    """
    if n < 2:
        raise GraphError("random graphs need n >= 2")
    if not 1 <= boundary_size <= n:
        raise GraphError("boundary size must be between 1 and n")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    pairs = list(combinations(range(n), 2))
    for _ in range(max_retries):
        keep = rng.random(len(pairs)) < edge_prob
        edges = [p for p, k in zip(pairs, keep) if k]
        if len(set(component_labels(n, edges))) == 1:
            break
    else:
        raise GraphError(
            f"no connected draw in {max_retries} tries (n={n}, p={edge_prob})"
        )
    if unit:
        weights = np.ones(len(edges))
        measures = np.ones(n)
    else:
        weights = rng.uniform(*weight_range, size=len(edges))
        measures = rng.uniform(*measure_range, size=n)
    boundary = sorted(int(b) for b in rng.choice(n, size=boundary_size, replace=False))
    return graph_from_arrays(
        measures=measures,
        boundary=boundary,
        edges=[(u, v, float(w)) for (u, v), w in zip(edges, weights)],
    )


# --- exhaustive enumeration -----------------------------------------------------


@lru_cache(maxsize=8)
def _vertex_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(n), 2))


@lru_cache(maxsize=8)
def _connected_edge_masks(n: int) -> tuple[int, ...]:
    """Edge bitmasks of all connected labeled simple graphs on n vertices.

    Bit k of a mask corresponds to ``_vertex_pairs(n)[k]``.  Ascending order.
    """
    pairs = _vertex_pairs(n)
    full = (1 << n) - 1
    out = []
    for mask in range(1 << len(pairs)):
        nbr = [0] * n
        m = mask
        while m:
            k = (m & -m).bit_length() - 1
            m &= m - 1
            u, v = pairs[k]
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        visited = 1
        frontier = 1
        while frontier:
            nxt = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                nxt |= nbr[v]
            frontier = nxt & ~visited
            visited |= frontier
        if visited == full:
            out.append(mask)
    return tuple(out)


@lru_cache(maxsize=8)
def _boundary_masks(n: int) -> tuple[int, ...]:
    """Vertex bitmasks of all boundary subsets of size >= 2, ascending."""
    return tuple(m for m in range(1 << n) if bin(m).count("1") >= 2)


def _mask_bits(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _instance_graph(
    n: int,
    edge_mask: int,
    boundary_mask: int,
    weights: Sequence[float] | None = None,
    measures: Sequence[float] | None = None,
) -> WeightedBoundaryGraph:
    pairs = _vertex_pairs(n)
    edge_bits = _mask_bits(edge_mask)
    if weights is None:
        weights = [1.0] * len(edge_bits)
    if measures is None:
        measures = [1.0] * n
    edges = [(*pairs[k], float(w)) for k, w in zip(edge_bits, weights)]
    return graph_from_arrays(
        measures=measures, boundary=_mask_bits(boundary_mask), edges=edges
    )


def _canonical_key(n: int, edge_mask: int, boundary_mask: int) -> tuple[int, int]:
    """Minimum (boundary_mask, edge_mask) over all vertex relabelings."""
    pairs = _vertex_pairs(n)
    edge_bits = _mask_bits(edge_mask)
    best = None
    for perm in permutations(range(n)):
        bm = 0
        for v in _mask_bits(boundary_mask):
            bm |= 1 << perm[v]
        em = 0
        for k in edge_bits:
            u, v = pairs[k]
            pu, pv = perm[u], perm[v]
            if pu > pv:
                pu, pv = pv, pu
            em |= 1 << pairs.index((pu, pv))
        key = (bm, em)
        if best is None or key < best:
            best = key
    return best


def enumerate_small(
    n_max: int,
    unit_only: bool = True,
    rng=None,
    weight_range: tuple[float, float] = (0.5, 2.0),
    measure_range: tuple[float, float] = (0.5, 2.0),
    dedup_iso: bool = False,
) -> Iterator[WeightedBoundaryGraph]:
    """Every connected labeled graph on 2..n_max vertices, crossed with every
    boundary subset of size >= 2.

    Order is deterministic: n ascending, then edge bitmask, then boundary
    bitmask.  With ``unit_only`` all weights and measures are 1; otherwise
    they are drawn per instance from ``rng`` (seeded 0 when omitted) in the
    given ranges.  ``dedup_iso`` skips instances isomorphic (by a relabeling
    matching boundary to boundary) to an already-yielded one.
    """
    if not 2 <= n_max <= 7:
        raise GraphError("exhaustive enumeration requires 2 <= n_max <= 7")
    if not unit_only and rng is None:
        rng = np.random.default_rng(0)
    seen: set[tuple[int, int, int]] = set()
    for n in range(2, n_max + 1):
        for edge_mask in _connected_edge_masks(n):
            n_edges = bin(edge_mask).count("1")
            for boundary_mask in _boundary_masks(n):
                if dedup_iso:
                    key = (n, *_canonical_key(n, edge_mask, boundary_mask))
                    if key in seen:
                        continue
                    seen.add(key)
                if unit_only:
                    yield _instance_graph(n, edge_mask, boundary_mask)
                else:
                    weights = rng.uniform(*weight_range, size=n_edges)
                    measures = rng.uniform(*measure_range, size=n)
                    yield _instance_graph(
                        n, edge_mask, boundary_mask, weights, measures
                    )


def count_exhaustive_instances(n_max: int) -> int:
    """Number of (graph, boundary) instances enumerate_small would yield."""
    total = 0
    for n in range(2, n_max + 1):
        total += len(_connected_edge_masks(n)) * len(_boundary_masks(n))
    return total


# --- reference per-instance verification ---------------------------------------


def check_instance(
    g: WeightedBoundaryGraph,
    rng=None,
    bound_slack: float = BOUND_SLACK,
    equality_tol: float = EQUALITY_TOL,
    mutations: frozenset = frozenset(),
) -> list[tuple[str, dict]]:
    """Run every corpus assertion on one graph; returns (check, details) failures.

    Built entirely from the public per-graph operations; the batched
    exhaustive engine must agree with this on every instance.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    failures: list[tuple[str, dict]] = []
    try:
        system = steklov_system(g)
        spectrum = steklov_spectrum(g, with_vectors=True)
    except NumericsError as exc:
        return [("numerics_failure", {"error": str(exc)})]

    eig = spectrum.eigenvalues
    nb = len(g.boundary)
    scale_eig = max(1.0, float(np.abs(eig).max()))
    if eig[0] < -PSD_TOL * scale_eig:
        failures.append(("psd", {"sigma1": float(eig[0])}))
    if abs(eig[0]) > SIGMA1_TOL * scale_eig:
        failures.append(("sigma1_zero", {"sigma1": float(eig[0])}))

    # lowest eigenvector must be constant: residual after projecting onto 1
    # in the m-inner product (v1 is m-normalized already)
    v1 = spectrum.eigenvectors[:, 0]
    mass = system.boundary_mass
    coef = float(np.dot(v1, mass)) / float(mass.sum())
    resid = v1 - coef
    misalignment = float(np.sqrt(np.dot(resid * resid, mass)))
    if misalignment > EIGVEC_ALIGN_TOL:
        failures.append(("sigma1_constant_vector", {"misalignment": misalignment}))

    s_scale = max(1.0, float(np.abs(system.schur).max()))
    kernel_residual = float(np.abs(system.schur.sum(axis=1)).max())
    if kernel_residual > KERNEL_TOL * s_scale:
        failures.append(("kernel_constants", {"residual": kernel_residual}))

    # Green symmetry: <Lambda f, h>_B (Schur route) against <du_f, du_h>
    # (harmonic extension route)
    f = rng.standard_normal(nb)
    h = rng.standard_normal(nb)
    lhs = float(h @ (system.schur @ f))
    du_f = differential(g, harmonic_extension(g, f))
    du_h = differential(g, harmonic_extension(g, h))
    rhs = dirichlet_energy(g, du_f, du_h)
    green_scale = max(1.0, abs(lhs), abs(rhs))
    if abs(lhs - rhs) > GREEN_TOL * green_scale:
        failures.append(("green_symmetry", {"schur_form": lhs, "energy": rhs}))

    if nb < 2:
        return failures

    report = bound_report(g)
    bound_ext, bound_gen = report.bound_extended, report.bound_general
    if MUTATION_BOUND_DB in mutations:
        _, _, bound_ext = bound_formulas(
            report.w0, report.m0, report.VB, report.dB + 1, nb
        )
    sigma2 = report.sigma2
    sigma2_scale = max(1.0, sigma2)

    if sigma2 < bound_ext - bound_slack * sigma2_scale:
        failures.append(
            ("bound_extended_holds", {"sigma2": sigma2, "bound_extended": bound_ext})
        )
    if bound_ext < bound_gen - DOMINANCE_SLACK:
        failures.append(
            ("dominance", {"bound_extended": bound_ext, "bound_general": bound_gen})
        )
    if g.is_unit_weighted():
        if abs(bound_ext - report.bound_unit) > UNIT_SPECIALIZATION_TOL:
            failures.append(
                ("unit_specialization",
                 {"bound_extended": bound_ext, "unit_formula": report.bound_unit})
            )

    equality = abs(sigma2 - bound_ext) <= equality_tol * sigma2_scale
    rigidity = check_rigidity(g, tol=equality_tol)
    if MUTATION_COMB_SKIP in mutations:
        certified = rigidity.cond_boundary and rigidity.cond_path
    else:
        certified = rigidity.certified_equality
    if equality != certified:
        failures.append(
            ("equality_iff_certified",
             {
                 "sigma2": sigma2,
                 "bound_extended": bound_ext,
                 "equality": equality,
                 "certified_equality": certified,
                 "cond_boundary": rigidity.cond_boundary,
                 "cond_path": rigidity.cond_path,
                 "cond_comb": rigidity.cond_comb,
             })
        )
    return failures


# --- batched exhaustive engine ---------------------------------------------------


def _batched_hop_distances(adj: np.ndarray) -> np.ndarray:
    """Hop distances for a stack of adjacency matrices of connected graphs."""
    stack, n, _ = adj.shape
    eye = np.eye(n, dtype=bool)
    reach = (adj > 0) | eye
    dist = np.where(adj > 0, 1, 0).astype(np.int64)
    k = 1
    while True:
        new = reach | ((reach.astype(np.float64) @ adj) > 0)
        newly = new & ~reach
        if not newly.any():
            break
        k += 1
        dist[newly] = k
        reach = new
    return dist


def _comb_over_unique_geodesic(
    nbr: list[int], dist: np.ndarray, x: int, y: int
) -> bool:
    """Comb verdict for the unique geodesic x..y (caller guarantees uniqueness)."""
    path = [x]
    u = x
    while u != y:
        du = int(dist[u, y])
        m = nbr[u]
        nxt = -1
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if dist[v, y] == du - 1:
                nxt = v
                break
        path.append(nxt)
        u = nxt
    trimmed = nbr[:]
    for a, b in zip(path, path[1:]):
        trimmed[a] &= ~(1 << b)
        trimmed[b] &= ~(1 << a)
    seen = 0
    for v in path:
        if (seen >> v) & 1:
            return False
        comp = 1 << v
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier
            while f:
                u = (f & -f).bit_length() - 1
                f &= f - 1
                nxt |= trimmed[u]
            frontier = nxt & ~comp
            comp |= frontier
        if comp & seen:
            return False
        seen |= comp
    return True


def _neighbor_bitmasks(n: int, edge_mask: int) -> list[int]:
    pairs = _vertex_pairs(n)
    nbr = [0] * n
    m = edge_mask
    while m:
        k = (m & -m).bit_length() - 1
        m &= m - 1
        u, v = pairs[k]
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def _verify_exhaustive_batch(
    spec: CorpusSpec, mutations: frozenset, max_violations: int | None
) -> list[ViolationRecord]:
    """Vectorized unit-weight exhaustive verification (n grouped in chunks)."""
    mutate_db = MUTATION_BOUND_DB in mutations
    mutate_comb = MUTATION_COMB_SKIP in mutations
    chunk_size = 4096
    records: list[ViolationRecord] = []
    index_base = 0

    for n in range(2, spec.n_max + 1):
        pairs = _vertex_pairs(n)
        n_pairs = len(pairs)
        u_arr = np.fromiter((p[0] for p in pairs), dtype=np.intp, count=n_pairs)
        v_arr = np.fromiter((p[1] for p in pairs), dtype=np.intp, count=n_pairs)
        masks = _connected_edge_masks(n)
        bmasks = _boundary_masks(n)
        subsets_per_graph = len(bmasks)
        by_size: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for size in range(2, n + 1):
            ranks = [r for r, bm in enumerate(bmasks) if bin(bm).count("1") == size]
            bidx = np.array(
                [_mask_bits(bmasks[r]) for r in ranks], dtype=np.intp
            )
            iidx = np.array(
                [
                    [v for v in range(n) if not (bmasks[r] >> v) & 1]
                    for r in ranks
                ],
                dtype=np.intp,
            ).reshape(len(ranks), n - size)
            by_size[size] = (np.array(ranks), bidx, iidx)

        for start in range(0, len(masks), chunk_size):
            sub = masks[start : start + chunk_size]
            count = len(sub)
            mask_arr = np.asarray(sub, dtype=np.int64)
            bits = ((mask_arr[:, None] >> np.arange(n_pairs)[None, :]) & 1).astype(
                np.float64
            )
            adj = np.zeros((count, n, n))
            adj[:, u_arr, v_arr] = bits
            adj[:, v_arr, u_arr] = bits
            lap = -adj.copy()
            diag = np.arange(n)
            lap[:, diag, diag] = adj.sum(axis=2)
            dist = _batched_hop_distances(adj)
            # walk counts: a length-d walk between vertices at hop distance d
            # is necessarily a geodesic, so A^d entries count geodesics
            powers = [adj]
            for _ in range(n - 2):
                powers.append(powers[-1] @ adj)
            counts = np.stack(powers, axis=1) if powers else None
            nbr_cache: dict[int, list[int]] = {}
            rng = np.random.default_rng([spec.seed, n, start])

            for size in range(2, n + 1):
                ranks, bidx, iidx = by_size[size]
                n_subsets = len(ranks)
                n_int = n - size
                l_bb = lap[:, bidx[:, :, None], bidx[:, None, :]]
                if n_int:
                    l_oo = lap[:, iidx[:, :, None], iidx[:, None, :]]
                    l_ob = lap[:, iidx[:, :, None], bidx[:, None, :]]
                    interior_map = np.linalg.solve(l_oo, l_ob)
                    schur = l_bb - np.swapaxes(l_ob, -1, -2) @ interior_map
                else:
                    interior_map = None
                    schur = l_bb
                schur = 0.5 * (schur + np.swapaxes(schur, -1, -2))
                eig = np.linalg.eigvalsh(schur)
                sigma1 = eig[..., 0]
                sigma2 = eig[..., 1]
                scale_eig = np.maximum(1.0, np.abs(eig).max(axis=-1))
                s_scale = np.maximum(1.0, np.abs(schur).max(axis=(-1, -2)))

                ok_psd = sigma1 >= -PSD_TOL * scale_eig
                ok_sigma1 = np.abs(sigma1) <= SIGMA1_TOL * scale_eig
                kernel_residual = np.abs(schur.sum(axis=-1)).max(axis=-1)
                ok_kernel = kernel_residual <= KERNEL_TOL * s_scale

                f = rng.standard_normal((count, n_subsets, size))
                h = rng.standard_normal((count, n_subsets, size))
                lhs = np.einsum("gci,gcij,gcj->gc", h, schur, f)
                u_f = np.zeros((count, n_subsets, n))
                u_h = np.zeros((count, n_subsets, n))
                c_rows = np.arange(n_subsets)[:, None]
                u_f[:, c_rows, bidx] = f
                u_h[:, c_rows, bidx] = h
                if interior_map is not None:
                    u_f[:, c_rows, iidx] = -np.einsum(
                        "gcoj,gcj->gco", interior_map, f
                    )
                    u_h[:, c_rows, iidx] = -np.einsum(
                        "gcoj,gcj->gco", interior_map, h
                    )
                rhs = np.einsum("gci,gij,gcj->gc", u_f, lap, u_h)
                green_scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
                ok_green = np.abs(lhs - rhs) <= GREEN_TOL * green_scale

                d_b = dist[:, bidx[:, :, None], bidx[:, None, :]].max(axis=(-1, -2))
                d_b_eff = d_b + 1 if mutate_db else d_b
                bound_ext = size / ((size - 1) ** 2 * d_b_eff)
                bound_gen = 1.0 / (d_b * size)
                unit_value = size / ((size - 1) ** 2 * d_b)
                sigma2_scale = np.maximum(1.0, sigma2)
                ok_bound = sigma2 >= bound_ext - BOUND_SLACK * sigma2_scale
                ok_dom = bound_ext >= bound_gen - DOMINANCE_SLACK
                ok_spec = np.abs(bound_ext - unit_value) <= UNIT_SPECIALIZATION_TOL
                equality = np.abs(sigma2 - bound_ext) <= EQUALITY_TOL * sigma2_scale

                certified = np.zeros((count, n_subsets), dtype=bool)
                cond_path_arr = np.zeros((count, n_subsets), dtype=bool)
                cond_comb_arr = np.zeros((count, n_subsets), dtype=bool)
                if size == 2:
                    x = bidx[:, 0]
                    y = bidx[:, 1]
                    d_xy = dist[:, x, y]
                    g_rows = np.arange(count)[:, None]
                    n_geodesics = counts[g_rows, d_xy - 1, x[None, :], y[None, :]]
                    unique = np.rint(n_geodesics).astype(np.int64) == 1
                    cond_path_arr = unique  # unit weights: path weights are all w0
                    if mutate_comb:
                        cond_comb_arr = unique
                    else:
                        for gi, ci in np.argwhere(unique):
                            nbr = nbr_cache.get(gi)
                            if nbr is None:
                                nbr = _neighbor_bitmasks(n, sub[gi])
                                nbr_cache[gi] = nbr
                            cond_comb_arr[gi, ci] = _comb_over_unique_geodesic(
                                nbr, dist[gi], int(x[ci]), int(y[ci])
                            )
                    certified = cond_path_arr & cond_comb_arr
                ok_iff = equality == certified

                named = (
                    ("psd", ok_psd, lambda gi, ci: {"sigma1": float(sigma1[gi, ci])}),
                    ("sigma1_zero", ok_sigma1,
                     lambda gi, ci: {"sigma1": float(sigma1[gi, ci])}),
                    ("kernel_constants", ok_kernel,
                     lambda gi, ci: {"residual": float(kernel_residual[gi, ci])}),
                    ("green_symmetry", ok_green,
                     lambda gi, ci: {"schur_form": float(lhs[gi, ci]),
                                     "energy": float(rhs[gi, ci])}),
                    ("bound_extended_holds", ok_bound,
                     lambda gi, ci: {"sigma2": float(sigma2[gi, ci]),
                                     "bound_extended": float(bound_ext[gi, ci])}),
                    ("dominance", ok_dom,
                     lambda gi, ci: {"bound_extended": float(bound_ext[gi, ci]),
                                     "bound_general": float(bound_gen[gi, ci])}),
                    ("unit_specialization", ok_spec,
                     lambda gi, ci: {"bound_extended": float(bound_ext[gi, ci]),
                                     "unit_formula": float(unit_value[gi, ci])}),
                    ("equality_iff_certified", ok_iff,
                     lambda gi, ci: {
                         "sigma2": float(sigma2[gi, ci]),
                         "bound_extended": float(bound_ext[gi, ci]),
                         "equality": bool(equality[gi, ci]),
                         "certified_equality": bool(certified[gi, ci]),
                         "cond_boundary": True,
                         "cond_path": bool(cond_path_arr[gi, ci]),
                         "cond_comb": bool(cond_comb_arr[gi, ci]),
                     } if size == 2 else {
                         "sigma2": float(sigma2[gi, ci]),
                         "bound_extended": float(bound_ext[gi, ci]),
                         "equality": bool(equality[gi, ci]),
                         "certified_equality": False,
                         "cond_boundary": False,
                         "cond_path": False,
                         "cond_comb": False,
                     }),
                )
                for check, ok, details_fn in named:
                    if ok.all():
                        continue
                    for gi, ci in np.argwhere(~ok):
                        gi, ci = int(gi), int(ci)
                        instance_index = (
                            index_base
                            + (start + gi) * subsets_per_graph
                            + int(ranks[ci])
                        )
                        graph_doc = graph_to_json_dict(
                            _instance_graph(n, sub[gi], bmasks[ranks[ci]])
                        )
                        records.append(
                            ViolationRecord(
                                index=instance_index,
                                check=check,
                                graph=graph_doc,
                                details=details_fn(gi, ci),
                            )
                        )
            if max_violations is not None and len(records) >= max_violations:
                records.sort(key=lambda r: (r.index, _CHECK_RANK[r.check]))
                return records
        index_base += len(masks) * subsets_per_graph

    records.sort(key=lambda r: (r.index, _CHECK_RANK[r.check]))
    return records


# --- top-level verification ------------------------------------------------------


def _random_graphs(spec: CorpusSpec) -> Iterator[WeightedBoundaryGraph]:
    rng = np.random.default_rng([spec.seed, 0])
    for _ in range(spec.samples):
        n = int(rng.integers(2, spec.n_max + 1))
        edge_prob = float(rng.uniform(0.2, 0.9))
        boundary_size = int(rng.integers(2, n + 1))
        yield random_graph(
            n,
            edge_prob,
            spec.weight_range,
            spec.measure_range,
            boundary_size,
            rng,
            unit=spec.unit_only,
        )


def _check_stream(
    graphs: Iterable[WeightedBoundaryGraph],
    spec: CorpusSpec,
    mutations: frozenset,
    max_violations: int | None,
) -> list[ViolationRecord]:
    """check_instance on every graph, Green-check vectors drawn from one stream."""
    rng_green = np.random.default_rng([spec.seed, 1])
    records: list[ViolationRecord] = []
    for index, g in enumerate(graphs):
        failures = check_instance(g, rng=rng_green, mutations=mutations)
        if failures:
            doc = graph_to_json_dict(g)
            records.extend(
                ViolationRecord(index=index, check=check, graph=doc, details=details)
                for check, details in failures
            )
            if max_violations is not None and len(records) >= max_violations:
                break
    return records


def _verify_exhaustive_reference(
    spec: CorpusSpec, mutations: frozenset, max_violations: int | None
) -> list[ViolationRecord]:
    stream = enumerate_small(
        spec.n_max,
        unit_only=spec.unit_only,
        rng=np.random.default_rng([spec.seed, 0]),
        weight_range=spec.weight_range,
        measure_range=spec.measure_range,
    )
    return _check_stream(stream, spec, mutations, max_violations)


def verify_corpus(
    spec: CorpusSpec,
    max_violations: int | None = None,
    mutations: frozenset = frozenset(),
) -> list[ViolationRecord]:
    """Verify the bound, the rigidity biconditional and the spectral
    invariants over the whole corpus; returns violations as data.

    An empty list is a full pass.  Identical specs give identical results;
    ``max_violations`` allows early exit once that many are found.  The
    ``mutations`` argument deliberately corrupts the checks (see
    ``KNOWN_MUTATIONS``) so tests can prove the suite is not vacuous.
    """
    unknown = set(mutations) - set(KNOWN_MUTATIONS)
    if unknown:
        raise GraphError(f"unknown mutation {sorted(unknown)[0]!r}")
    if spec.mode == "random":
        return _check_stream(_random_graphs(spec), spec, mutations, max_violations)
    if spec.unit_only:
        return _verify_exhaustive_batch(spec, mutations, max_violations)
    return _verify_exhaustive_reference(spec, mutations, max_violations)
