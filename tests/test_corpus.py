import functools
import json
from collections import namedtuple
from itertools import combinations
from math import comb, factorial

import numpy as np
import pytest

from steklov import (
    CorpusSpec,
    GraphError,
    all_geodesics,
    check_instance,
    count_exhaustive_instances,
    graph_from_arrays,
    hop_distance_matrix,
    is_comb_over,
    is_connected,
    iter_violations,
    parse_graph,
    random_comb,
    random_graph,
    verify_corpus,
)
from steklov import corpus
from steklov.corpus import (
    KNOWN_MUTATIONS,
    MUTATION_BOUND_DB,
    MUTATION_COMB_SKIP,
    RANDOM_N_MAX,
    _bits,
    _boundary_masks,
    _canonical_masks,
    _class_orbits,
    _distance_tables,
    _geodesic_conditions,
    _graph_classes,
    _pair_arrays,
    _permutations,
    _random_runs,
    _relabelled,
    _Run,
)
from steklov.graph import geodesic_layers
from steklov.rigidity import _unique_geodesic, check_rigidity
from steklov.spectral import steklov_operator
from conftest import enumerate_small, unit_path
from reference_graph import geodesic_count_oracle
from reference_corpus import (
    class_row_instances,
    connected_edge_masks,
    eigenvector_angle,
    labeled_masks,
    mask_instance,
    random_instances,
    reference_check_instance,
    reference_quantities,
    reference_verify,
    small_instances,
)

# Seeds numpy cannot take, none of them an integer or a sequence, with ids.
ODD_SEEDS = [({1}, "set"), ({1: 2}, "dict"), ((x for x in [1]), "generator"), (1j, "complex"),
             (object(), "object")]


def odd_seed_cases():
    return [pytest.param(seed, "seed must be an integer, a sequence of them or a numpy "
                         f"Generator, got {seed!r}", id=name) for seed, name in ODD_SEEDS]


def stack_quantities(stack, rng, mutations):
    """The kernel's quantities of instances stacked as one, their runs
    concatenated into one, at the width of their largest |B|."""
    run = _Run(*map(np.concatenate, zip(*stack)))
    return corpus._quantities(int(run.nb.max()), run, rng, mutations)


def run_instances(run) -> list:
    """The rows of a run as runs of one, sliced off its columns one by one."""
    return [run.columns(r, r + 1) for r in range(run.rows)]


def drawn_instance(rng, n, edge_prob, boundary_size, unit=False) -> _Run:
    """One row of the draw routine, as an instance."""
    run = corpus._random_run(rng, np.array([n]), np.array([edge_prob]),
                             np.array([boundary_size]), (0.5, 2.0), (0.5, 2.0), unit)
    return run_instances(run)[0]


def connected_labeled_count(n):
    """Independent counting oracle: the classical recurrence
    C(n) = 2^C(n,2) - sum_k C(k) * binom(n-1, k-1) * 2^C(n-k,2)."""
    totals = [1 << (k * (k - 1) // 2) for k in range(n + 1)]
    counts = [0, 1]
    for k in range(2, n + 1):
        counts.append(
            totals[k]
            - sum(
                counts[j] * comb(k - 1, j - 1) * totals[k - j]
                for j in range(1, k)
            )
        )
    return counts[n]


class TestRandomGraph:
    def test_k2_with_prob_one(self):
        g = random_graph(2, 1.0, (0.5, 2.0), (0.5, 2.0), 2, seed=3)
        assert g.n == 2 and len(g.edges) == 1

    def test_deterministic(self):
        a = random_graph(12, 0.3, (0.5, 2.0), (0.5, 2.0), 4, seed=99)
        b = random_graph(12, 0.3, (0.5, 2.0), (0.5, 2.0), 4, seed=99)
        assert a == b

    def test_draw_batch_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 16))
            bsz = int(rng.integers(1, n + 1))
            g = random_graph(n, 0.5, (0.5, 2.0), (0.25, 4.0), bsz, rng)
            assert g.n == n
            assert len(g.boundary) == bsz
            assert all(0.5 <= w <= 2.0 for _, _, w in g.edges)
            assert np.all((g.measures >= 0.25) & (g.measures <= 4.0))
            from steklov import is_connected

            assert is_connected(g)

    def test_sparse_large_draws(self):
        from steklov import is_connected

        rng = np.random.default_rng(12)
        for _ in range(300):
            g = random_graph(
                30, 0.2, (0.5, 2.0), (0.5, 2.0), int(rng.integers(1, 31)), rng
            )
            assert g.n == 30
            assert is_connected(g)

    def test_retry_budget(self):
        with pytest.raises(GraphError, match="no connected draw"):
            random_graph(8, 1e-9, (0.5, 2.0), (0.5, 2.0), 2, seed=0)

    def test_validates_arguments(self, monkeypatch):
        """Each bad argument is one GraphError line, raised before any draw."""
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the arguments were checked")

        monkeypatch.setattr(corpus, "_random_run", no_draw)
        for args, message in [
            ((1, 0.5, 1), "random graphs need n >= 2"),
            ((4, 0.5, 5), "boundary size must be between 1 and n"),
            ((2.5, 0.5, 2), "n must be an integer, got 2.5"),
            ((5, 0.5, 2.5), "boundary_size must be an integer, got 2.5"),
            ((5, 0.5, True), "boundary_size must be an integer, got True"),
            ((5, float("nan"), 2), "edge_prob must be a number in (0, 1], got nan"),
            ((5, -0.5, 2), "edge_prob must be a number in (0, 1], got -0.5"),
            ((5, 0.0, 2), "edge_prob must be a number in (0, 1], got 0.0"),
            ((5, 1.5, 2), "edge_prob must be a number in (0, 1], got 1.5"),
            ((5, "0.5", 2), "edge_prob must be a number in (0, 1], got '0.5'"),
        ]:
            n, p, size = args
            with pytest.raises(GraphError) as excinfo:
                random_graph(n, p, (0.5, 2.0), (0.5, 2.0), size, seed=0)
            assert str(excinfo.value) == message

    @pytest.mark.parametrize("seed, message", [
        pytest.param(-1, "seed must be nonnegative, got -1", id="int"),
        pytest.param(np.int64(-7), "seed must be nonnegative, got -7", id="numpy"),
        pytest.param(1.5, "seed must be an integer, got 1.5", id="float"),
        pytest.param(np.float64(2.0), "seed must be an integer, got np.float64(2.0)",
                     id="numpy-float"),
        pytest.param(True, "seed must be an integer, got True", id="bool"),
        pytest.param("7", "seed must be an integer, got '7'", id="string"),
        pytest.param([1.5], "seed entries must be nonnegative integers, got 1.5",
                     id="sequence-float"),
        pytest.param(["a"], "seed entries must be nonnegative integers, got 'a'",
                     id="sequence-string"),
        pytest.param([-1], "seed entries must be nonnegative integers, got -1",
                     id="sequence-negative"),
        pytest.param([True], "seed entries must be nonnegative integers, got True",
                     id="sequence-bool"),
        *odd_seed_cases(),
    ])
    def test_negative_seed_is_a_graph_error(self, seed, message):
        """A negative integer, a float, a bool or a string is not a seed,
        alone or as an entry of a sequence seed: one GraphError line from
        random_graph and from random_comb."""
        for draw in (lambda: random_graph(5, 0.5, (0.5, 2), (0.5, 2), 2, seed=seed),
                     lambda: random_comb(4, 1.0, 2.0, seed)):
            with pytest.raises(GraphError) as excinfo:
                draw()
            assert str(excinfo.value) == message

    def test_seeds_that_numpy_takes(self):
        """An integer, a sequence of nonnegative integers and a Generator
        still seed the draw, each as numpy seeds it."""
        draw = functools.partial(random_graph, 12, 0.4, (0.5, 2.0), (0.5, 2.0), 3)
        assert draw(seed=7) == draw(seed=np.int64(7)) == draw(seed=np.random.default_rng(7))
        assert draw(seed=[7, 0]) == draw(seed=np.random.default_rng([7, 0]))
        assert draw(seed=(7, np.int64(0))) == draw(seed=np.array([7, 0]))


def draw_rows(rng, rows, n, edge_prob, boundary_size) -> _Run:
    """``rows`` unit rows of the draw routine, each of n vertices."""
    return corpus._random_run(rng, np.full(rows, n), np.full(rows, edge_prob),
                              np.full(rows, boundary_size), (0.5, 2.0), (0.5, 2.0), True)


class RecordedRng:
    """A generator whose ``random`` records the size of every call."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def random(self, size=None):
        self.sizes.append(size)
        return self.rng.random(size)


class TestRejectionRounds:
    """Round t draws 2^t candidates of every pending row, within the pair
    budget, and each row keeps its first connected candidate."""

    @pytest.mark.parametrize("n, p", [(3, 0.3), (4, 0.25)])
    def test_graphs_are_gnp_conditioned_on_connectivity(self, n, p):
        """Chi-square of the labeled graphs of 20 batches of 1,000 rows
        (seed 0) against G(n, p) conditioned on connectivity.  Tolerance:
        p-value above 1e-3, which a correct draw misses on one seed in 1,000."""
        from scipy.stats import chisquare

        pairs = comb(n, 2)
        masks = connected_edge_masks(n)
        prob = np.array([p ** bin(m).count("1") * (1 - p) ** (pairs - bin(m).count("1"))
                         for m in masks])
        rank = np.zeros((n, n), dtype=np.int64)
        rank[tuple(np.array(list(combinations(range(n), 2))).T)] = np.arange(pairs)
        rng, drawn = np.random.default_rng(0), []
        for _ in range(20):
            run = draw_rows(rng, 1000, n, p, 1)
            row = np.repeat(np.arange(run.rows), run.degree)
            drawn.append(np.bincount(row, 1 << rank[run.u, run.v]).astype(np.int64))
        seen = np.searchsorted(masks, np.concatenate(drawn))
        assert np.array_equal(np.asarray(masks)[seen], np.concatenate(drawn))
        seen = np.bincount(seen, minlength=len(masks))
        assert chisquare(seen, seen.sum() * prob / prob.sum()).pvalue > 1e-3

    def test_boundaries_are_uniform(self):
        """The 10 boundary pairs of 10,000 rows with n = 5 (seed 1) by
        chi-square against equal frequencies.  Tolerance: p-value above 1e-3."""
        from scipy.stats import chisquare

        run = draw_rows(np.random.default_rng(1), 10_000, 5, 0.5, 2)
        pair = run.bids.reshape(-1, 2) @ [5, 1]
        seen = np.unique(pair, return_counts=True)[1]
        assert len(seen) == 10 and chisquare(seen).pvalue > 1e-3

    def test_stragglers_take_few_rounds(self, monkeypatch):
        """200 rows of n = 2 at p = 0.05 connect one candidate in 20, yet all
        connect within 11 rounds, counted as component labellings (seed 2):
        after t rounds a row has had 2^t - 1 candidates."""
        calls = []
        labels = corpus.component_labels
        monkeypatch.setattr(corpus, "component_labels",
                            lambda *args: calls.append(1) or labels(*args))
        run = draw_rows(np.random.default_rng(2), 200, 2, 0.05, 1)
        assert len(calls) <= 11
        assert run.degree.tolist() == [1] * 200

    def test_rounds_keep_the_pair_budget(self):
        """A row of n = 100 (4,950 pairs) that never connects still gives up
        after RANDOM_RETRIES candidates, 13 at most a round, and no round
        draws more than _DRAW_PAIRS uniforms (seed 3)."""
        rng = RecordedRng(3)
        with pytest.raises(GraphError, match="^no connected draw in 1000 tries"):
            draw_rows(rng, 1, 100, 1e-6, 2)
        assert sum(rng.sizes) == 1000 * 4950
        assert max(rng.sizes) == 13 * 4950 <= corpus._DRAW_PAIRS
        assert rng.sizes[:4] == [4950, 2 * 4950, 4 * 4950, 8 * 4950]

    def test_a_row_past_the_budget_draws_one_candidate_a_round(self):
        """A row of n = 400 (79,800 pairs) draws one candidate a round; near
        the connectivity threshold, seed 4 needs several rounds."""
        rng = RecordedRng(4)
        draw_rows(rng, 1, 400, 0.0145, 2)
        rounds = [size for size in rng.sizes if not isinstance(size, tuple)]
        assert len(rounds) >= 2 and set(rounds) == {79_800}
        assert rng.sizes[-1] == (1, 400)  # the boundary keys


BAD_RANGES = [(float("nan"), 1.0), (0.5, float("inf")), (-1.0, 2.0), (0.0, 1.0),
              (0.5, float("nan")), (float("-inf"), 1.0)]


@pytest.mark.parametrize("bad", BAD_RANGES, ids=str)
@pytest.mark.parametrize("name", ["weight_range", "measure_range"])
class TestValueRanges:
    """A range end that is not finite and > 0 is one GraphError line, raised
    before any draw: drawn instances are not validated value by value."""

    @staticmethod
    def ranges(name, bad):
        return {"weight_range": (0.5, 2.0), "measure_range": (0.5, 2.0), name: bad}

    @staticmethod
    def assert_one_line(excinfo, name):
        assert str(excinfo.value).startswith(f"{name} ends must be finite and > 0, got (")
        assert "\n" not in str(excinfo.value)

    def test_random_graph(self, name, bad):
        r = self.ranges(name, bad)
        with pytest.raises(GraphError) as excinfo:
            random_graph(12, 0.5, r["weight_range"], r["measure_range"], 3, seed=0)
        self.assert_one_line(excinfo, name)

    @pytest.mark.parametrize("mode", ["random", "exhaustive"])
    def test_corpus_spec(self, name, bad, mode):
        with pytest.raises(GraphError) as excinfo:
            CorpusSpec(mode=mode, n_max=4, samples=50, **self.ranges(name, bad))
        self.assert_one_line(excinfo, name)


@pytest.mark.parametrize("bad, message", [
    ((2.0, 1.0), "ends must be in order, got (2.0, 1.0)"),
    (1.0, "must be two numbers, got 1.0"),
    (("a", "b"), "must be two numbers, got ('a', 'b')"),
    ((0.5, 1.0, 2.0), "must be two numbers, got (0.5, 1.0, 2.0)"),
    ((True, 2.0), "must be two numbers, got (True, 2.0)"),
    pytest.param((1, 10**400), f"must be two numbers, got (1, {10**400})", id="(1, 10**400)"),
], ids=str)
@pytest.mark.parametrize("name", ["weight_range", "measure_range"])
def test_malformed_ranges(monkeypatch, name, bad, message):
    """A range that is not two numbers, or whose ends are out of order, is
    one GraphError line in every mode, raised before any draw."""
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before the ranges were checked")

    monkeypatch.setattr(corpus, "_random_run", no_draw)
    ranges = {"weight_range": (0.5, 2.0), "measure_range": (0.5, 2.0), name: bad}
    for make in (lambda: random_graph(12, 0.5, ranges["weight_range"], ranges["measure_range"],
                                      3, seed=0),
                 lambda: CorpusSpec(mode="random", n_max=4, samples=50, **ranges),
                 lambda: CorpusSpec(mode="exhaustive", n_max=4, **ranges)):
        with pytest.raises(GraphError) as excinfo:
            make()
        assert str(excinfo.value) == f"{name} {message}"


@pytest.mark.parametrize("kwargs, message", [
    ({"max_tooth_vertices": 0}, "max_tooth_vertices must be >= 1, got 0"),
    ({"max_tooth_vertices": 2.5}, "max_tooth_vertices must be an integer, got 2.5"),
    ({"weight_factor": 0.5}, "weight_factor must be finite and >= 1, got 0.5"),
    ({"weight_factor": float("nan")}, "weight_factor must be finite and >= 1, got nan"),
    ({"measure_range": (2.0, 1.0)}, "measure_range ends must be in order, got (2.0, 1.0)"),
    ({"measure_range": 1.0}, "measure_range must be two numbers, got 1.0"),
    pytest.param({"weight_factor": 10**400},
                 f"weight_factor must be finite and >= 1, got {10**400}",
                 id="{'weight_factor': 10**400}"),
    pytest.param({"measure_range": (1, 10**400)},
                 f"measure_range must be two numbers, got (1, {10**400})",
                 id="{'measure_range': (1, 10**400)}"),
], ids=str)
def test_malformed_comb_parameters(kwargs, message):
    from steklov import random_comb

    with pytest.raises(GraphError) as excinfo:
        random_comb(4, 1.0, 2.0, seed=0, **kwargs)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("name, value", [
    ("n_max", 5.0), ("n_max", 6.5), ("n_max", True), ("n_max", "5"),
    ("samples", 2.5), ("samples", False), ("seed", 1.5), ("seed", True), ("seed", None),
], ids=str)
@pytest.mark.parametrize("mode, unit_only", [
    ("random", False), ("exhaustive", False), ("exhaustive", True),
], ids=["random", "weighted", "unit"])
def test_spec_integers(mode, unit_only, name, value):
    """n_max, samples and seed that are not integers, or are bools, are one
    GraphError line, raised before any draw or enumeration."""
    kwargs = {"n_max": 4, "samples": 10, name: value}
    with pytest.raises(GraphError) as excinfo:
        CorpusSpec(mode=mode, unit_only=unit_only, **kwargs)
    assert str(excinfo.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("value", [1.5, True, "3", np.int64(3)], ids=repr)
def test_counts_outside_the_spec_are_integers(monkeypatch, value):
    """``max_violations`` and the n_max of ``count_exhaustive_instances``
    that are not integers, or are bools, are one GraphError line in the
    spec's wording, raised before any corpus work; numpy integers count."""
    spec = CorpusSpec(mode="exhaustive", n_max=3, unit_only=True)
    mutations = frozenset({MUTATION_BOUND_DB})
    if isinstance(value, np.integer):
        capped = verify_corpus(spec, max_violations=value, mutations=mutations)
        assert capped == verify_corpus(spec, mutations=mutations)[:3] and len(capped) == 3
        assert count_exhaustive_instances(value) == 17
        return

    def no_work(*args, **kwargs):
        raise AssertionError("corpus work before the count was checked")

    monkeypatch.setattr(corpus, "_quantities", no_work)
    monkeypatch.setattr(corpus, "_graph_classes", no_work)
    for name, call in (("max_violations", lambda: verify_corpus(spec, max_violations=value)),
                       ("n_max", lambda: count_exhaustive_instances(value))):
        with pytest.raises(GraphError) as excinfo:
            call()
        assert str(excinfo.value) == f"{name} must be an integer, got {value!r}"


class TestEnumeration:
    def test_counts_match_recurrence(self):
        # hand-checked values first, then the oracle up to n = 7
        assert connected_labeled_count(2) == 1
        assert connected_labeled_count(3) == 4
        assert connected_labeled_count(4) == 38
        assert connected_labeled_count(7) == 1_866_256
        total = 0
        for n in range(2, 8):
            assert len(labeled_masks(n)) == connected_labeled_count(n)
            # the labelings column: a class row stands for n!/|Aut|
            # relabellings of its class times its orbit's size, and the
            # orbits of a class partition the boundary subsets
            rows = _class_orbits(n)
            relabellings = {c.mask: factorial(n) // len(c.aut) for c in _graph_classes(n)}
            orbit_sizes = dict.fromkeys(relabellings, 0)
            for mask, _, labelings in rows.tolist():
                assert labelings % relabellings[mask] == 0
                orbit_sizes[mask] += labelings // relabellings[mask]
            assert orbit_sizes == dict.fromkeys(relabellings, 2**n - n - 1)
            assert rows[:, 2].sum() == connected_labeled_count(n) * (2**n - n - 1)
            total += int(rows[:, 2].sum())
            assert count_exhaustive_instances(n) == total

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_masks_are_the_connected_graphs(self, n):
        """The labeled masks, read off the orbits of the classes, are the
        brute-force list of connected labeled graphs, in the same order."""
        masks = labeled_masks(n).tolist()
        assert masks == list(connected_edge_masks(n))
        if n <= 5:  # and that list is what the library calls connected
            assert masks == [mask for mask in range(1 << (n * (n - 1) // 2))
                             if is_connected(mask_instance(n, mask, 0).graph())]

    def test_n2_single_instance(self):
        graphs = list(enumerate_small(2))
        assert len(graphs) == 1
        g = graphs[0]
        assert g.n == 2 and g.boundary == (0, 1) and g.edges == ((0, 1, 1.0),)

    def test_n3_instances(self):
        graphs = list(enumerate_small(3))
        # 1 instance for n=2, then 4 connected graphs x 4 boundary subsets
        assert len(graphs) == 1 + 4 * 4
        assert count_exhaustive_instances(3) == len(graphs)
        for g in graphs:
            assert len(g.boundary) >= 2

    def test_instance_count_n6(self):
        expected = sum(
            connected_labeled_count(n) * (2**n - n - 1) for n in range(2, 7)
        )
        assert count_exhaustive_instances(6) == expected == 1_541_491

    def test_weighted_stream_deterministic(self):
        a = [
            (g.edges, tuple(g.measures))
            for g in enumerate_small(3, np.random.default_rng(5), (0.5, 2.0), (0.5, 2.0))
        ]
        b = [
            (g.edges, tuple(g.measures))
            for g in enumerate_small(3, np.random.default_rng(5), (0.5, 2.0), (0.5, 2.0))
        ]
        assert a == b
        assert any(w != 1.0 for edges, _ in a for _, _, w in edges)

    def test_out_of_range(self):
        """The spec and the count refuse the same n_max with the same message."""
        for n_max in (1, 8, 9):
            messages = []
            for refuse in (lambda: CorpusSpec(mode="exhaustive", n_max=n_max),
                           lambda: count_exhaustive_instances(n_max)):
                with pytest.raises(GraphError, match="2 <= n_max <= 7") as info:
                    refuse()
                messages.append(str(info.value))
            assert messages == ["exhaustive mode requires 2 <= n_max <= 7"] * 2

    @pytest.mark.parametrize("n_max", [1, 8, 9, 40])
    def test_count_out_of_range(self, monkeypatch, n_max):
        # rejected before any enumeration: n_max = 8 alone means 2^28 masks
        def no_enumeration(n):
            raise AssertionError(f"enumerated the graphs of n = {n}")

        monkeypatch.setattr(corpus, "_class_orbits", no_enumeration)
        monkeypatch.setattr(corpus, "_graph_classes", no_enumeration)
        with pytest.raises(GraphError, match="2 <= n_max <= 7"):
            count_exhaustive_instances(n_max)


class TestGraphClasses:
    """Unit exhaustive mode verifies one instance per isomorphism class of
    (graph, boundary) pairs; its class enumerator against counts and
    brute force."""

    def test_class_counts(self):
        # OEIS A001349, and every labeled graph once: n!/|Aut| labelings per class
        counts = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
        for n, expected in counts.items():
            classes = _graph_classes(n)
            assert len(classes) == expected
            assert [c.mask for c in classes] == sorted(c.mask for c in classes)
            assert sum(factorial(n) // len(c.aut) for c in classes) == connected_labeled_count(n)
        assert count_exhaustive_instances(7) == sum(
            connected_labeled_count(n) * (2**n - n - 1) for n in range(2, 8)
        ) == 225_492_211

    def test_automorphisms_fix_the_mask(self):
        for n in range(2, 7):
            perms, moves = _permutations(n)
            for c in _graph_classes(n):
                relabelled = _relabelled([c.mask], moves)[0]
                assert c.aut.tolist() == perms[relabelled == c.mask].tolist()
                assert relabelled.min() == c.mask

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_labeled_graph_is_in_a_class(self, n):
        canonical = set(_canonical_masks(n, connected_edge_masks(n)).tolist())
        assert canonical == {c.mask for c in _graph_classes(n)}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_orbits_are_the_pair_classes(self, n):
        """One class instance per (graph, boundary) pair up to relabelling:
        the distinct least relabelled (edge mask, boundary mask) pairs of
        the labeled corpus."""
        perms, moves = _permutations(n)
        graphs = _relabelled(connected_edge_masks(n), moves)
        subsets = _relabelled(_boundary_masks(n), perms)
        pairs = (graphs[:, None, :] << n | subsets[None, :, :]).min(axis=-1)
        reps = _class_orbits(n)
        keys, labelings = np.unique(pairs, return_counts=True)
        assert sorted(g << n | b for g, b, _ in reps) == keys.tolist()
        # and a row's labelings are the labeled pairs in its class
        assert reps[np.argsort(reps[:, 0] << n | reps[:, 1]), 2].tolist() == labelings.tolist()

    def test_classes_match_networkx_atlas(self):
        nx = pytest.importorskip("networkx")
        for n in range(2, 7):
            atlas = [g for g in nx.graph_atlas_g() if len(g) == n and nx.is_connected(g)]
            pair = {pair: k for k, pair in enumerate(zip(*_pair_arrays(n)))}
            masks = [sum(1 << pair[min(e), max(e)] for e in g.edges) for g in atlas]
            assert sorted(_canonical_masks(n, masks).tolist()) == [
                c.mask for c in _graph_classes(n)]

    @pytest.mark.parametrize("mutation, rows, count, first, last", [
        (MUTATION_BOUND_DB, 355, 21_398, (0, "unit_specialization"), (313, "unit_specialization")),
        (MUTATION_COMB_SKIP, 65, 4_691, (4, "equality_iff_certified"),
         (310, "equality_iff_certified")),
    ], ids=["bound_db", "comb_skip"])
    def test_expansion_matches_labeled_engine(self, mutation, rows, count, first, last):
        """A failing class row stands for its labeled instances: on unit
        n <= 5 the labelings of the records sum to the failure count of the
        engine that verified every labeled instance.  In both exhaustive
        modes a capped run returns the first k records of the uncapped run."""
        mutations = frozenset({mutation})
        unit = CorpusSpec(mode="exhaustive", n_max=5, unit_only=True)
        records = verify_corpus(unit, mutations=mutations)
        keys = [(r.index, r.check) for r in records]
        assert (len(keys), keys[0], keys[-1]) == (rows, first, last)
        assert sum(r.labelings for r in records) == count
        assert keys == sorted(keys, key=lambda k: (k[0], corpus._CHECK_RANK[k[1]]))
        weighted = CorpusSpec(mode="exhaustive", n_max=4, seed=3)
        for spec in (unit, weighted):
            full = [r.to_json_dict() for r in verify_corpus(spec, mutations=mutations)]
            for k in (1, 7, 100):
                capped = verify_corpus(spec, max_violations=k, mutations=mutations)
                assert [r.to_json_dict() for r in capped] == full[:k], (spec, k)


class TestInstanceStreams:
    """Random and weighted exhaustive mode stream array instances; a graph
    is built from one only for a violation record."""

    @staticmethod
    def assert_instance_is_graph(inst, g):
        assert inst.graph() == g
        for ours, theirs in zip(inst, _Run.of(g)):
            assert np.array_equal(ours, theirs)
            assert np.asarray(ours).dtype.kind == np.asarray(theirs).dtype.kind

    @pytest.mark.parametrize("unit_only", [False, True])
    def test_random_stream_is_random_graph(self, monkeypatch, unit_only):
        """In batches of one, the random stream is successive ``random_graph``
        calls on one generator, bitwise.  Batches are one row from n_max =
        257 on; here the pair budget is cut to make them so at n_max = 30."""
        big = CorpusSpec(mode="random", n_max=257, samples=3, seed=4, unit_only=unit_only)
        assert [run.rows for run in _random_runs(big)] == [1, 1, 1]
        monkeypatch.setattr(corpus, "_DRAW_PAIRS", 1)
        spec = CorpusSpec(mode="random", n_max=30, samples=300, seed=4, unit_only=unit_only)
        rng = np.random.default_rng([spec.seed, 0])
        runs = list(_random_runs(spec))
        assert len(runs) == spec.samples and {run.rows for run in runs} == {1}
        for run in runs:
            n = int(rng.integers(2, spec.n_max + 1))
            p = float(rng.uniform(0.2, 0.9))
            g = random_graph(n, p, spec.weight_range, spec.measure_range,
                             int(rng.integers(2, n + 1)), rng, unit=unit_only)
            self.assert_instance_is_graph(run_instances(run)[0], g)

    @pytest.mark.parametrize("unit_only", [False, True])
    @pytest.mark.parametrize("n_max, samples", [(8, 2400), (30, 300), (60, 100)])
    def test_batched_stream_is_the_reference_draw(self, n_max, samples, unit_only):
        """The batched draw is bitwise the per-row reference draw of
        ``reference_corpus.random_instances``, over two or more batches."""
        spec = CorpusSpec(mode="random", n_max=n_max, samples=samples, seed=6,
                          unit_only=unit_only)
        runs = list(_random_runs(spec))
        assert len(runs) >= 2 and sum(run.rows for run in runs) == samples
        ours = [inst for run in runs for inst in run_instances(run)]
        theirs = list(random_instances(spec))
        assert len(ours) == len(theirs) == samples
        for inst, ref in zip(ours, theirs):
            assert inst.n == ref.n
            for a, b in zip(inst[1:], ref[1:]):
                assert np.asarray(a).dtype.kind == np.asarray(b).dtype.kind
                assert np.array_equal(a, b)
        assert any(inst.n < run.n for run in runs for inst in run_instances(run))

    def test_weighted_stream_is_enumerate_small(self):
        ranges = (0.25, 4.0), (0.5, 2.0)
        stream = small_instances(4, np.random.default_rng(13), *ranges)
        graphs = enumerate_small(4, np.random.default_rng(13), *ranges)
        count = 0
        for inst, g in zip(stream, graphs, strict=True):
            self.assert_instance_is_graph(inst, g)
            count += 1
        assert count == count_exhaustive_instances(4)

    @pytest.mark.parametrize("spec", [
        CorpusSpec(mode="random", n_max=30, samples=300),
        CorpusSpec(mode="random", n_max=8, samples=300, seed=5, unit_only=True),
        CorpusSpec(mode="exhaustive", n_max=4, seed=3),
        CorpusSpec(mode="exhaustive", n_max=4, unit_only=True),
    ], ids=["random", "random-unit", "weighted", "unit"])
    def test_clean_run_builds_no_graph(self, monkeypatch, spec):
        def no_graph(*args, **kwargs):
            raise AssertionError("built a graph on a clean run")

        def no_argwhere(*args, **kwargs):
            raise AssertionError("searched a check row whose verdicts all hold")

        monkeypatch.setattr(corpus, "graph_from_arrays", no_graph)
        monkeypatch.setattr(corpus.np, "argwhere", no_argwhere)
        assert verify_corpus(spec) == []

    @pytest.mark.parametrize("spec", [
        CorpusSpec(mode="random", n_max=30, samples=300),
        CorpusSpec(mode="exhaustive", n_max=4, seed=3),
        CorpusSpec(mode="exhaustive", n_max=4, unit_only=True),
    ], ids=["random", "weighted", "unit"])
    def test_graphs_built_only_for_violations(self, monkeypatch, spec):
        """Not even a violation builds a graph: a record's graph is serialised
        once per instance, straight from its arrays, as ``graph_to_json_dict``
        writes it."""
        from steklov import graph_to_json_dict

        def no_graph(*args, **kwargs):
            raise AssertionError("built a graph for a violation record")

        with monkeypatch.context() as patch:
            patch.setattr(corpus, "graph_from_arrays", no_graph)
            records = verify_corpus(spec, mutations=frozenset({MUTATION_BOUND_DB}))
        assert records
        documents = {}
        for r in records:
            assert documents.setdefault(r.index, r.graph) is r.graph
            assert r.graph == graph_to_json_dict(parse_graph(json.dumps(r.graph)))


class TestMaskFeeder:
    """Both exhaustive modes read the kernel's edge columns off bitmask
    runs.  Every stack they feed the kernel, and every quantity the kernel
    computes on it, is bitwise what the same window loop feeds it from the
    same instances fed one by one as runs of one: same windows, same
    columns, same drawn weights and measures, same Green-check vectors."""

    COLUMNS = _Run._fields

    @staticmethod
    def kernel_calls(monkeypatch, run) -> list:
        """(nb, input stack, quantities) of every kernel call of ``run()``."""
        calls, kernel = [], corpus._quantities

        def recorded(nb, stack, *args):
            calls.append((nb, stack, kernel(nb, stack, *args)))
            return calls[-1][2]

        with monkeypatch.context() as patch:
            patch.setattr(corpus, "_quantities", recorded)
            run()
        return calls

    @staticmethod
    def assert_bitwise(ours, theirs, name):
        ours, theirs = np.asarray(ours), np.asarray(theirs)
        assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape), name
        assert ours.tobytes() == theirs.tobytes(), name

    @pytest.mark.parametrize("cells", [None, 1 << 9], ids=["default", "small-windows"])
    @pytest.mark.parametrize("mode", ["unit", "weighted"])
    def test_stacks_match_the_instance_path(self, monkeypatch, mode, cells):
        if cells is not None:  # every level spans several windows and stacks
            monkeypatch.setattr(corpus, "_WINDOW_CELLS", cells)
        # one level more in the default windows, whose smaller |B| kinds
        # share a stack: each |B| kind of the largest levels is a stack alone
        n_max = 5 if cells else 6
        if mode == "unit":
            spec = CorpusSpec(mode="exhaustive", n_max=n_max, unit_only=True)
            stream = (mask_instance(n, edge, b) for n in range(2, n_max + 1)
                      for edge, b, _ in _class_orbits(n))
        else:
            n_max -= 1
            spec = CorpusSpec(mode="exhaustive", n_max=n_max, seed=13)
            stream = class_row_instances(n_max, np.random.default_rng([13, 0]),
                                         spec.weight_range, spec.measure_range)

        def instance_path():
            rng = np.random.default_rng([spec.seed, 1])
            assert list(corpus._verify_runs(stream, rng, frozenset())) == []

        ours = self.kernel_calls(monkeypatch, lambda: verify_corpus(spec))
        theirs = self.kernel_calls(monkeypatch, instance_path)
        assert len(ours) == len(theirs) >= (20 if cells else 3)
        for (nb, columns, q), (ref_nb, ref_columns, ref_q) in zip(ours, theirs):
            assert nb == ref_nb
            for name, ours_, theirs_ in zip(self.COLUMNS, columns, ref_columns):
                self.assert_bitwise(ours_, theirs_, name)
            assert q.keys() == ref_q.keys()
            for name, value in ref_q.items():
                self.assert_bitwise(q[name], value, name)
        # a window crosses levels: its stacks are padded
        assert any(columns[0].min() < columns[0].max() for _, columns, _ in ours)


def unit_columns(n: int, masks: np.ndarray) -> tuple:
    """The edge columns (graph, tail, head, weight) of the unit-weight
    graphs on n vertices with these edge masks."""
    u, v = _pair_arrays(n)
    gi, k = np.nonzero(_bits(masks, len(u)))
    return gi, u[k], v[k], np.ones(len(k))


def unit_distances(n: int, masks: np.ndarray) -> np.ndarray:
    """The kernel's hop distances of those graphs, every vertex a boundary
    vertex."""
    gi, u, v, w = unit_columns(n, masks)
    lap = np.zeros((len(masks), n, n))
    lap[gi, u, v] = lap[gi, v, u] = -w
    return _distance_tables(lap, np.zeros((len(masks), n), dtype=bool), n)


class TestBatchedGeodesics:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_walk_counts_and_comb_match_per_graph_route(self, n):
        """Distances from the reach powers equal hop_distance_matrix, the
        layer flags mark exactly the pairs with one geodesic, and the
        vectorized comb test agrees with is_comb_over on every such pair:
        the stack of cells holds graph gi once per pair with one geodesic."""
        masks = labeled_masks(n)
        dist = unit_distances(n, masks)
        pairs = list(combinations(range(n), 2))
        px, py = np.array(pairs).T
        on, flags = geodesic_layers(dist[:, px], dist[:, py])
        cells, expected = [], []
        for gi, mask in enumerate(masks):
            g = mask_instance(n, mask, (1 << n) - 1).graph()
            assert dist[gi].tolist() == hop_distance_matrix(g).tolist()
            for k, (x, y) in enumerate(pairs):
                geodesics = all_geodesics(g, x, y)
                unique = flags[gi, k]
                assert unique == (len(geodesics) == 1)
                if unique:
                    cells.append((gi, k))
                    expected.append(is_comb_over(g, geodesics[0]).is_comb)
        gi, k = np.array(cells).T
        cond_path, cond_comb = _geodesic_conditions(on[gi, k], *unit_columns(n, masks[gi]),
                                                    np.ones(len(gi)))
        assert cond_path.all()  # unit weights: every geodesic edge is w0
        assert cond_comb.tolist() == expected
        if n >= 3:
            assert any(expected) and not all(expected)

    def test_distance_tables_on_200_vertices(self):
        """On a random graph with n = 200 the hop tables equal the per-graph
        BFS, the layer flags equal the counting oracle, and nothing
        overflows."""
        g = random_graph(200, 0.03, (0.5, 2.0), (0.5, 2.0), 2, seed=4)
        u, v, w = g.edge_arrays
        lap = np.zeros((1, g.n, g.n))
        lap[0, u, v] = lap[0, v, u] = -w
        with np.errstate(all="raise"):
            dist = _distance_tables(lap, np.zeros((1, g.n), dtype=bool), g.n)
        assert dist[0].tolist() == hop_distance_matrix(g).tolist()
        assert dist.max() >= 3
        _, flags = geodesic_layers(dist[0][:, None], dist[0][None, :])  # cell (x, y)
        oracle = [[c == 1 for c in geodesic_count_oracle(g, x)] for x in range(g.n)]
        assert flags.tolist() == oracle
        assert not flags.all()

    def test_diamond_in_long_path_is_not_unique(self):
        """A path of 40 edges with one diamond in its middle has two
        boundary geodesics: neither engine may certify one."""
        edges = [(i, i + 1, 1.0) for i in range(40)] + [(19, 41, 1.0), (41, 21, 1.0)]
        g = graph_from_arrays([1.0] * 42, [0, 40], edges)
        assert len(all_geodesics(g, 0, 40)) == 2
        assert _unique_geodesic(g, 0, 40) is None
        report = check_rigidity(g)
        assert not report.cond_path and not report.certified_equality
        q = stack_quantities([_Run.of(g)], np.random.default_rng(0), frozenset())
        assert q["cond_boundary"].tolist() == [True]
        assert q["cond_path"].tolist() == [False]
        assert q["certified_equality"].tolist() == [False]

    @pytest.mark.parametrize("weight_factor", [1.0, 10.0, 1e4])
    @pytest.mark.parametrize("path_len", [20, 60, 200])
    def test_comb_certificate_matches_check_rigidity(self, path_len, weight_factor):
        """Both engines' cond_path and cond_comb agree on combs with up to
        about 900 vertices and on two near-combs of each: a chord between
        the teeth of path vertices 1 and 2 (the geodesic stays unique, the
        comb goes), and path edge 0-1 raised to 2.5 (the path condition
        goes).  Combs are clean; the comb sentinel trips on the chord."""
        g = random_comb(path_len, 1.0, 2.0, seed=path_len, weight_factor=weight_factor)
        u, v, _ = g.edge_arrays
        tooth = [int(v[(u == i) & (v > path_len)].min()) for i in (1, 2)]
        chord = graph_from_arrays(g.measures, g.boundary, [*g.edges, (*tooth, 1.0)])
        raised = graph_from_arrays(g.measures, g.boundary, [
            (a, b, 2.5 if (a, b) == (0, 1) else w) for a, b, w in g.edges])
        skip = frozenset({MUTATION_COMB_SKIP})
        for graph, conds, mutations in ((g, (True, True), frozenset()),
                                        (chord, (True, False), skip),
                                        (raised, (False, True), frozenset())):
            q = stack_quantities([_Run.of(graph)], np.random.default_rng(0), mutations)
            report = check_rigidity(graph)
            assert (q["cond_path"].tolist(), q["cond_comb"].tolist()) == ([conds[0]], [conds[1]])
            assert (report.cond_path, report.cond_comb) == conds
            assert q["equality"].tolist() == [report.equality] == [conds == (True, True)]
            failed = [check for _, check, _ in corpus._failed_cells(q)]
            assert failed == (["equality_iff_certified"] if graph is chord else [])


class TestCheckInstance:
    def test_clean_on_fixture(self, star):
        assert check_instance(star, rng=np.random.default_rng(0)) == []

    def test_bound_mutation_fires_on_path(self, path3):
        failures = check_instance(
            path3, rng=np.random.default_rng(0),
            mutations=frozenset({MUTATION_BOUND_DB}),
        )
        names = {name for name, _ in failures}
        assert "equality_iff_certified" in names
        assert "unit_specialization" in names

    def test_comb_mutation_fires_on_triangle(self):
        g = graph_from_arrays(
            [1.0] * 3, [0, 1], [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]
        )
        failures = check_instance(
            g, rng=np.random.default_rng(0),
            mutations=frozenset({MUTATION_COMB_SKIP}),
        )
        assert [name for name, _ in failures] == ["equality_iff_certified"]


    @pytest.mark.parametrize("mutation", ["", *sorted(KNOWN_MUTATIONS)],
                             ids=lambda m: m or "clean")
    def test_quantities_match_reference(self, mutation):
        """A batch of one draws the reference's Green vectors, so every
        quantity of the table agrees with the per-graph route, the
        schur_form/energy pair included."""
        from conftest import rng_graph
        from steklov import random_comb

        mutations = frozenset({mutation} - {""})
        rng = np.random.default_rng(21)
        graphs = [random_comb(int(rng.integers(1, 5)), 1.5, 2.0, seed=rng) for _ in range(5)]
        graphs += [rng_graph(rng, int(rng.integers(1, 13)), unit=bool(k % 2))
                   for k in range(60)]
        for g in graphs:
            ours = stack_quantities([_Run.of(g)], np.random.default_rng(7), mutations)
            ref = reference_quantities(g, np.random.default_rng(7), mutations)
            assert ours.keys() == ref.keys()
            for name, value in ref.items():
                got = np.asarray(ours[name])[0].item()
                if isinstance(value, (bool, np.bool_)):
                    assert got == value, name
                else:
                    assert got == pytest.approx(value, rel=1e-9, abs=1e-12), name

    def test_single_boundary_vertex_skips_bound_rows(self):
        g = graph_from_arrays([1.0, 2.0, 1.5], [1], [(0, 1, 1.0), (1, 2, 0.5)])
        q = stack_quantities([_Run.of(g)], np.random.default_rng(0), frozenset())
        assert "sigma2" not in q and "certified_equality" not in q
        assert check_instance(g) == []

    def test_graphs_without_spectrum_raise(self):
        from steklov import DisconnectedGraphError, EmptyBoundaryError

        disconnected = graph_from_arrays([1.0] * 4, [0, 3], [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            check_instance(disconnected)
        no_boundary = graph_from_arrays([1.0] * 2, [], [(0, 1, 1.0)])
        with pytest.raises(EmptyBoundaryError):
            check_instance(no_boundary)

    @pytest.mark.parametrize("routine", ["solve", "eigh", "eigvalsh"])
    def test_linalg_error_is_a_numerics_failure(self, monkeypatch, routine):
        """A LinAlgError fails every instance of its stack, one record each.
        Both routes eigensolve with eigvalsh, and the per-graph route reports
        its failure as a matrix that is not finite; neither calls eigh."""
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        monkeypatch.setattr(np.linalg, routine, fail)
        unit = CorpusSpec(mode="exhaustive", n_max=3, unit_only=True)
        if routine == "eigh":
            assert reference_check_instance(unit_path(4)) == check_instance(unit_path(4)) == []
            assert verify_corpus(unit) == []
            return
        assert check_instance(unit_path(4)) == [
            ("numerics_failure", {"error": "forced failure"})
        ]
        if routine == "solve":
            return
        assert reference_check_instance(unit_path(4)) == [
            ("numerics_failure", {"error": "mass-reduced Steklov matrix is not finite"})
        ]
        random = CorpusSpec(mode="random", n_max=5, samples=20)
        for spec, rows in ((random, random.samples), (unit, 1 + 5)):  # 5 class rows on n = 3
            records = verify_corpus(spec)
            assert {r.check for r in records} == {"numerics_failure"}
            assert [r.index for r in records] == list(range(rows))
            assert sum(r.labelings for r in records) == (
                rows if spec.mode == "random" else count_exhaustive_instances(3))

    @pytest.mark.parametrize("a, delta", [(1.0, 1e-6), (1e-6, 1e-12), (1.0, 1.0)])
    @pytest.mark.parametrize("mass", [1.0, 4.0])
    def test_misalignment_is_the_davis_kahan_bound(self, a, delta, mass):
        """S = c [[a + delta, -a], [-a, a]] with both masses c has A = S / c,
        v = (1, 1) / sqrt 2 and rho = delta / 2, so the bound
        |A v - rho v| / (sigma_2 - rho) is delta / (2a + sqrt(4a^2 + delta^2))
        at every scale.  Reading S in place of A is off by about c, and the
        gap sigma_2 - sigma_1 in place of sigma_2 - rho is 5% off at
        delta = a.  Each case fails the sigma1_constant_vector row."""
        s = mass * np.array([[a + delta, -a], [-a, a]])
        q = steklov_operator(s, np.full(2, mass))[2]
        bound = delta / (2 * a + np.sqrt(4 * a * a + delta * delta))
        assert q["misalignment"] == pytest.approx(bound, rel=1e-8)
        holds = {check: holds for check, holds, _ in corpus._CHECKS}
        assert not holds["sigma1_constant_vector"](q)

    def test_misalignment_without_a_gap(self):
        """One boundary vertex makes v exact, so the bound is 0; when
        sigma_2 <= rho there is no bound, and it is +inf, with no warning."""
        q = steklov_operator(np.array([[1e-3]]), np.array([2.0]))[2]
        assert q["misalignment"] == 0.0
        for s in (np.ones((3, 3)), np.zeros((2, 2))):  # rho = 3 > sigma_2 = 0; 0 / 0
            assert steklov_operator(s, np.ones(len(s)))[2]["misalignment"] == np.inf

    @pytest.mark.parametrize("path_len", [20, 200])
    def test_heavy_comb_fails_the_eigenvector_row(self, monkeypatch, path_len):
        """On a comb whose tree teeth weigh up to 1e12 times its path, the
        kernel's unpruned S is off enough that sigma_1's eigenvector leaves
        the constants: the row still fails, and its bound is within 1% of
        the angle scipy's generalized eigh measures on the same S."""
        operators, operator = [], corpus.steklov_operator

        def recorded(schur, mass, real=None):
            out = operator(schur, mass, real)
            operators.append((out[0][0], mass[0]))
            return out

        monkeypatch.setattr(corpus, "steklov_operator", recorded)
        failed = dict(check_instance(random_comb(path_len, 1, 2, seed=1, weight_factor=1e12)))
        (schur, mass), = operators
        assert failed["sigma1_constant_vector"]["misalignment"] == pytest.approx(
            eigenvector_angle(schur, mass), rel=0.01)

    def test_unit_classes_check_the_lowest_eigenvector(self, monkeypatch):
        """Unit exhaustive mode runs the sigma1_constant_vector row like
        every other mode: a negative tolerance fails every instance."""
        monkeypatch.setattr(corpus, "EIGVEC_ALIGN_TOL", -1.0)
        spec = CorpusSpec(mode="exhaustive", n_max=4, unit_only=True)
        records = verify_corpus(spec)
        assert {r.check for r in records} == {"sigma1_constant_vector"}
        assert [r.index for r in records] == list(range(1 + 5 + 33))  # class rows, n <= 4
        assert sum(r.labelings for r in records) == count_exhaustive_instances(4)

    @pytest.mark.parametrize("c", [1e-12, 1e-6, 1e6, 1e12])
    @pytest.mark.parametrize("scaled", ["weights", "measures"])
    @pytest.mark.parametrize("kind", ["random", "comb"])
    def test_verdicts_invariant_under_scaling(self, kind, scaled, c):
        from conftest import rng_graph
        from steklov import check_rigidity, random_comb

        rng = np.random.default_rng(5)
        if kind == "comb":
            g = random_comb(4, 1.5, 2.0, seed=rng)
        else:
            g = rng_graph(rng, 10, boundary_size=2)
        wc, mc = (c, 1.0) if scaled == "weights" else (1.0, c)
        h = graph_from_arrays(
            g.measures * mc, g.boundary, [(u, v, w * wc) for u, v, w in g.edges]
        )
        assert check_instance(h, rng=np.random.default_rng(0)) == []
        verdict = lambda r: (
            r.equality, r.cond_boundary, r.cond_path, r.cond_comb,
            r.certified_equality,
        )
        base = check_rigidity(g)
        assert base.certified_equality == (kind == "comb")
        assert verdict(check_rigidity(h)) == verdict(base)

    @pytest.mark.parametrize("kind", ["random", "comb"])
    def test_one_laplacian_and_one_factorization(self, monkeypatch, kind):
        """The per-graph reference route assembles the pruned Laplacian
        blocks once and eliminates the interior once per graph."""
        import steklov.spectral as spectral
        from conftest import rng_graph
        from steklov import random_comb

        calls = dict.fromkeys(("interior_blocks", "eliminate_interior"), 0)

        def counted(name):
            original = getattr(spectral, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(spectral, name, wrapper)

        for name in calls:
            counted(name)
        rng = np.random.default_rng(11)
        if kind == "comb":
            g = random_comb(6, 1.5, 2.0, seed=rng)
        else:
            g = rng_graph(rng, 12, boundary_size=3)
        assert not g.boundary_mask.all()
        assert reference_check_instance(g, rng=rng) == []
        assert calls["interior_blocks"] == 1
        assert calls["eliminate_interior"] == 1


class TestVerifyCorpus:
    def test_exhaustive_unit_clean(self):
        spec = CorpusSpec(mode="exhaustive", n_max=5, unit_only=True)
        assert verify_corpus(spec) == []

    def test_exhaustive_unit_n7_clean(self):
        """All 225,492,211 labeled unit instances with n <= 7, as 66,513
        class instances."""
        assert sum(len(_class_orbits(n)) for n in range(2, 8)) == 66_513
        spec = CorpusSpec(mode="exhaustive", n_max=7, unit_only=True)
        assert verify_corpus(spec) == []

    def test_exhaustive_weighted_clean(self):
        spec = CorpusSpec(mode="exhaustive", n_max=4, unit_only=False, seed=3)
        assert verify_corpus(spec) == []

    def test_random_clean(self):
        spec = CorpusSpec(mode="random", n_max=14, samples=300, seed=17)
        assert verify_corpus(spec) == []

    def test_unknown_mutation_rejected(self, path3):
        """A misspelt sentinel is one GraphError line in every entry point,
        so it cannot pass silently; ``iter_violations`` raises at the call,
        before its first record.  Names that are not strings, unhashable
        ones too, are unknown, the first by ``repr`` named."""
        spec = CorpusSpec(mode="exhaustive", n_max=3, unit_only=True)
        for mutations, name in ((frozenset({"nope"}), "'nope'"), ({1, "a"}, "'a'"),
                                ([["a"]], "['a']")):
            for call in (lambda: verify_corpus(spec, mutations=mutations),
                         lambda: iter_violations(spec, mutations=mutations),
                         lambda: check_instance(path3, mutations=mutations)):
                with pytest.raises(GraphError) as excinfo:
                    call()
                assert str(excinfo.value) == f"unknown mutation {name}"

    def test_one_shot_mutations_are_read_once(self):
        """An iterator of names is read once, by the check, and the checked
        set is the one the run uses: the sentinel still fires."""
        spec = CorpusSpec(mode="random", n_max=5, samples=3)
        listed = verify_corpus(spec, mutations=[MUTATION_BOUND_DB])
        assert len(listed) == 1
        assert verify_corpus(spec, mutations=iter([MUTATION_BOUND_DB])) == listed
        assert list(iter_violations(spec, mutations=iter([MUTATION_BOUND_DB]))) == listed
        g = random_comb(6, 1.0, 1.0, seed=0)
        listed = check_instance(g, mutations=[MUTATION_BOUND_DB])
        assert [check for check, _ in listed] == ["equality_iff_certified"]
        assert check_instance(g, mutations=(m for m in [MUTATION_BOUND_DB])) == listed

    @pytest.mark.parametrize("mutations", [MUTATION_BOUND_DB, b"x", None, 5], ids=repr)
    def test_mutations_are_a_set_of_names(self, path3, mutations):
        """A string, bytes or a non-iterable is refused whole, not read as
        its characters, in every entry point."""
        spec = CorpusSpec(mode="exhaustive", n_max=3, unit_only=True)
        for call in (lambda: verify_corpus(spec, mutations=mutations),
                     lambda: iter_violations(spec, mutations=mutations),
                     lambda: check_instance(path3, mutations=mutations)):
            with pytest.raises(GraphError) as excinfo:
                call()
            assert str(excinfo.value) == f"mutations must be a set of names, got {mutations!r}"

    @pytest.mark.parametrize("spec", ["random", None, {"mode": "random"}], ids=repr)
    def test_spec_is_a_corpus_spec(self, spec):
        """Anything but a ``CorpusSpec`` is one GraphError line, raised by
        ``iter_violations`` at the call, not at its first record."""
        for call in (lambda: verify_corpus(spec), lambda: iter_violations(spec)):
            with pytest.raises(GraphError) as excinfo:
                call()
            assert str(excinfo.value) == f"spec must be a CorpusSpec, got {spec!r}"

    @pytest.mark.parametrize("other_boundary", [[0, 2, 3], [0, 1, 2, 3]], ids=["equal", "ragged"])
    def test_a_failed_eigensolve_fails_its_own_row_only(self, monkeypatch, other_boundary):
        """A clean row stacked with a row whose eigensolve fails reports
        nothing, whether the two share |B| or are padded to one stack: the
        failed stack is verified again row by row."""
        cycle = [(0, 1), (1, 2), (2, 3), (0, 3)]
        good = graph_from_arrays([1.0] * 5, other_boundary, [(a, b, 1.0) for a, b in cycle]
                                 + [(3, 4, 1.0)])
        bad = graph_from_arrays([1.0] * 4, [0, 2, 3], [(a, b, 1e308) for a, b in cycle])
        assert check_instance(good) == []
        assert [check for check, _ in check_instance(bad)] == ["numerics_failure"]
        calls, kernel = [], corpus._quantities

        def counted(nb, stack, *args):
            calls.append(stack.rows)
            return kernel(nb, stack, *args)

        monkeypatch.setattr(corpus, "_quantities", counted)
        run = _Run(*map(np.concatenate, zip(_Run.of(good), _Run.of(bad))))
        failures = list(corpus._verify_runs([run], np.random.default_rng(0), frozenset()))
        assert [(index, check) for index, check, *_ in failures] == [(1, "numerics_failure")]
        assert calls == [2, 1, 1]  # one stack, then each row alone

    @pytest.mark.parametrize("rng, message", [
        ("x", "seed must be an integer, got 'x'"),
        (1.5, "seed must be an integer, got 1.5"),
        (-1, "seed must be nonnegative, got -1"),
        *odd_seed_cases(),
    ], ids=["str", "float", "negative", *(name for _, name in ODD_SEEDS)])
    def test_check_instance_takes_a_seed(self, path3, rng, message):
        """``rng`` is a seed or a Generator, as for the graph generators."""
        mutations = frozenset({MUTATION_BOUND_DB})
        assert (check_instance(path3, rng=5, mutations=mutations)
                == check_instance(path3, rng=np.random.default_rng(5), mutations=mutations))
        with pytest.raises(GraphError) as excinfo:
            check_instance(path3, rng=rng)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("value", ["no", 1, None], ids=repr)
    @pytest.mark.parametrize("mode", ["random", "exhaustive"])
    def test_unit_only_is_a_bool(self, mode, value):
        with pytest.raises(GraphError) as excinfo:
            CorpusSpec(mode=mode, unit_only=value)
        assert str(excinfo.value) == f"unit_only must be true or false, got {value!r}"
        assert CorpusSpec(mode=mode, unit_only=np.True_).unit_only

    @pytest.mark.parametrize("weight_range, measure_range", [
        ((1e-300, 1e-299), (1e300, 1e301)),
        ((1.0, 2.0), (1e-300, 2e-300)),
    ], ids=["overflow", "underflow"])
    def test_bounds_out_of_range_do_not_warn(self, weight_range, measure_range):
        """Bounds that leave binary64 range are 0 or inf, as on the
        per-graph route, with no RuntimeWarning (which the suite makes an
        error); which rows these runs report is left open."""
        spec = CorpusSpec(mode="random", n_max=8, samples=50, weight_range=weight_range,
                          measure_range=measure_range)
        for mutations in (frozenset(), frozenset({MUTATION_BOUND_DB})):
            verify_corpus(spec, mutations=mutations)

    def test_spec_validation(self):
        with pytest.raises(GraphError, match="unknown corpus mode"):
            CorpusSpec(mode="full")
        with pytest.raises(GraphError, match="2 <= n_max <= 7"):
            CorpusSpec(mode="exhaustive", n_max=9)
        with pytest.raises(GraphError, match="seed must be nonnegative"):
            CorpusSpec(mode="random", seed=-1)
        with pytest.raises(GraphError, match="^samples must be nonnegative, got -1$"):
            CorpusSpec(mode="random", samples=-1)
        CorpusSpec(mode="random", n_max=np.int64(5), samples=np.int64(3), seed=np.int64(1))

    @pytest.mark.parametrize("n_max", [1, RANDOM_N_MAX + 1, 100_000])
    def test_random_n_max_out_of_range(self, monkeypatch, n_max):
        # rejected before any draw: n_max = 100000 means 5e9 vertex pairs
        def no_pairs(n):
            raise AssertionError(f"built the vertex pairs of n = {n}")

        monkeypatch.setattr(corpus, "_pair_arrays", no_pairs)
        with pytest.raises(GraphError, match=f"2 <= n_max <= {RANDOM_N_MAX}"):
            verify_corpus(CorpusSpec(mode="random", n_max=n_max, samples=1))

    @pytest.mark.parametrize("mutation", ["", *sorted(KNOWN_MUTATIONS)],
                             ids=lambda m: m or "clean")
    @pytest.mark.parametrize("spec", [
        CorpusSpec(mode="exhaustive", n_max=4, unit_only=True),
        CorpusSpec(mode="exhaustive", n_max=4, seed=3),
        CorpusSpec(mode="random", n_max=30, samples=300),
        CorpusSpec(mode="random", n_max=8, samples=300, unit_only=True),
    ], ids=["unit", "weighted", "random", "random-unit"])
    def test_kernel_and_reference_agree(self, spec, mutation):
        """The stacked kernel and the per-graph reference route flag exactly
        the same instances for the same reasons, with the same details.  In
        unit mode the reference checks every labeled instance and folds its
        failures by class row: per check, the kernel's labelings sum to the
        reference's labeled failure count.  Stacked streams draw their Green
        vectors per stack, so only the schur_form/energy pair is left out."""
        mutations = frozenset({mutation} - {""})
        ours = verify_corpus(spec, mutations=mutations)
        reference = reference_verify(spec, mutations)
        key = lambda recs: [(r.index, r.check, r.labelings) for r in recs]
        assert key(ours) == key(reference)
        assert (len(ours) > 0) == (mutation == MUTATION_BOUND_DB or (
            mutation == MUTATION_COMB_SKIP and spec.unit_only))
        for ro, rr in zip(ours, reference):
            assert ro.graph == rr.graph
            assert ro.details.keys() == rr.details.keys()
            for name, value in rr.details.items():
                if name in ("schur_form", "energy"):
                    continue
                if isinstance(value, bool):
                    assert ro.details[name] is value, name
                else:
                    assert ro.details[name] == pytest.approx(
                        value, rel=1e-9, abs=1e-12
                    ), name

    def test_mutated_runs_are_deterministic(self):
        spec = CorpusSpec(mode="exhaustive", n_max=4, unit_only=True)
        runs = [
            verify_corpus(spec, mutations=frozenset({MUTATION_BOUND_DB}))
            for _ in range(2)
        ]
        payloads = [
            "\n".join(json.dumps(r.to_json_dict(), sort_keys=True) for r in run)
            for run in runs
        ]
        assert payloads[0] == payloads[1]

    def test_max_violations_early_stop(self):
        """In every mode a cap of k returns exactly the first k records of
        the uncapped run, and a negative cap is one GraphError line; the
        stream of ``iter_violations`` is the uncapped run, clean or not."""
        mutations = frozenset({MUTATION_BOUND_DB})
        for spec in (CorpusSpec(mode="random", n_max=30, samples=300),
                     CorpusSpec(mode="exhaustive", n_max=4, seed=3),
                     CorpusSpec(mode="exhaustive", n_max=4, unit_only=True)):
            for sentinels in (frozenset(), frozenset({MUTATION_COMB_SKIP}), mutations):
                full = [r.to_json_dict() for r in verify_corpus(spec, mutations=sentinels)]
                assert [r.to_json_dict() for r in iter_violations(spec, sentinels)] == full
            assert len(full) > 1  # the bound sentinel's run, the last one above
            for k in (0, 1, 100):
                capped = verify_corpus(spec, max_violations=k, mutations=mutations)
                assert [r.to_json_dict() for r in capped] == full[:k], (spec, k)
            with pytest.raises(GraphError, match="^max_violations must be nonnegative, got -1$"):
                verify_corpus(spec, max_violations=-1, mutations=mutations)

    def test_first_record_verifies_one_window(self, monkeypatch):
        """The first record of a long stream costs the kernel calls of its
        window's stacks only, one per |B| of the window."""
        spec = CorpusSpec(mode="exhaustive", n_max=6)
        draw = np.random.default_rng([spec.seed, 0]), spec.weight_range, spec.measure_range
        windows = corpus._windows(corpus._class_runs(spec.n_max, draw))
        first = next(windows)
        assert next(windows, None) is not None
        nb = np.concatenate([run.columns(lo, hi).nb for run, _, lo, hi in first])
        calls, kernel = [], corpus._quantities

        def counted(b, stack, *args):
            calls.append((b, stack.rows))
            return kernel(b, stack, *args)

        monkeypatch.setattr(corpus, "_quantities", counted)
        record = next(iter_violations(spec, frozenset({MUTATION_BOUND_DB})))
        assert record.index < len(nb)
        assert calls == [(b, int((nb == b).sum())) for b in dict.fromkeys(nb.tolist())]

    def test_violation_reproducible_from_stored_graph(self):
        spec = CorpusSpec(mode="exhaustive", n_max=4, unit_only=True)
        record = verify_corpus(
            spec, max_violations=1, mutations=frozenset({MUTATION_BOUND_DB})
        )[0]
        g = parse_graph(json.dumps(record.graph))
        names = {
            name
            for name, _ in check_instance(
                g, rng=np.random.default_rng(0),
                mutations=frozenset({MUTATION_BOUND_DB}),
            )
        }
        assert record.check in names


BuiltStack = namedtuple("BuiltStack", "lap dist")


@pytest.fixture
def built_stacks(monkeypatch):
    """The Laplacians and hop distances of every stack the kernel builds, in
    order, as its ``_distance_tables`` calls see them."""
    stacks, tables = [], corpus._distance_tables

    def recorded(lap, pad, nb):
        stacks.append(BuiltStack(lap, tables(lap, pad, nb)))
        return stacks[-1].dist

    monkeypatch.setattr(corpus, "_distance_tables", recorded)
    return stacks


# Quantities that are 0 in exact arithmetic, with the scale of their rounding.
_RESIDUES = {"asymmetry": "schur_scale", "residual": "schur_scale",
             "sigma1": "eig_scale", "misalignment": None}


@pytest.mark.parametrize("nb, sizes, unit", [
    (1, [1, 4, 9, 2, 9], False),
    (3, [3, 5, 12, 20, 12, 7, 4], False),
    (3, [3, 5, 12, 20, 12, 7, 4], True),
    (3, [3, 5, 12, 20, 12, 7, 4], [True, False, False, True, True, False, True]),
    ([3, 7, 4, 5, 6, 3, 7, 5, 4], [5, 20, 9, 12, 6, 14, 7, 18, 5],
     [False, True, False, True, False, False, True, False, True]),
], ids=["one-vertex", "weighted", "unit", "mixed", "ragged"])
def test_padded_stack_matches_single_stacks(monkeypatch, built_stacks, nb, sizes, unit):
    """A group of mixed n, and of mixed |B| from 3 up, padded to its largest
    |B| and then to that plus its largest interior, gives each instance the
    quantities, verdicts and hop distances from the boundary it gets
    stacked alone; the padding interior columns of the (G, |B|, W) distances
    are at the stack's W, and padding boundary columns at 0.  The member with n = |B| has no interior; with
    |B| = 1 it is a one-vertex graph, whose degree is 0 like a padding
    vertex's.  A group may mix unit and weighted draws: each member's unit
    weights are its own."""
    units = unit if isinstance(unit, list) else [unit] * len(sizes)
    nbs = nb if isinstance(nb, list) else [nb] * len(sizes)
    rng = np.random.default_rng(2)
    group = [drawn_instance(rng, n, 0.5, b, u) for n, b, u in zip(sizes, nbs, units)]
    padded = stack_quantities(group, np.random.default_rng(0), frozenset())
    stack = built_stacks[-1]
    width = max(nbs)
    top = width + max(n - b for n, b in zip(sizes, nbs))
    assert stack.lap.shape == (len(sizes), top, top)
    assert stack.dist.shape == (len(sizes), width, top)
    verdicts = {check: ok for check, _, ok in corpus._evaluate(padded)}
    for gi, inst in enumerate(group):
        alone = stack_quantities([inst], np.random.default_rng(0), frozenset())
        lone = built_stacks[-1]
        b = nbs[gi]
        own = np.r_[:b, width:width + inst.n - b]  # its slots: boundary, then interior
        assert np.array_equal(stack.dist[gi, :b][:, own], lone.dist[0])
        assert (stack.dist[gi, :b, b:width] == 0).all()  # its padding boundary slots
        assert (stack.dist[gi, :b, width + inst.n - b:] == top).all()
        assert alone.keys() == padded.keys()
        for name, value in alone.items():
            if name in ("schur_form", "energy"):
                continue
            want, got = value[0], padded[name][gi]
            if want.dtype == bool:
                assert got == want, name
            elif name in _RESIDUES:
                scale = 1.0 if _RESIDUES[name] is None else alone[_RESIDUES[name]][0]
                assert abs(got - want) <= 1e-12 * scale, name
            else:
                assert got == pytest.approx(want, rel=1e-12), name
        for check, _, ok in corpus._evaluate(alone):
            assert verdicts[check][gi] == ok[0], check
    assert "green_symmetry" in verdicts and verdicts["green_symmetry"].all()
    if min(nbs) >= 2:  # a negative tolerance fails the unit row on the unit members only
        monkeypatch.setattr(corpus, "UNIT_SPECIALIZATION_TOL", -1.0)
        verdicts = {check: ok for check, _, ok in corpus._evaluate(padded)}
        assert (~verdicts["unit_specialization"]).tolist() == units


@functools.lru_cache(maxsize=None)
def reference_keys(spec, mutation):
    return [(r.index, r.check) for r in reference_verify(spec, frozenset({mutation}))]


@pytest.mark.parametrize("cells", [1 << 6, 1 << 9, 1 << 12])
@pytest.mark.parametrize("spec", [
    CorpusSpec(mode="random", n_max=30, samples=300),
    CorpusSpec(mode="exhaustive", n_max=4, seed=3),
], ids=["random", "weighted"])
def test_window_size_keeps_the_records(monkeypatch, spec, cells):
    """Small windows take every branch of the windower: runs (random
    batches, levels of bitmask instances) are cut across windows; where a
    row of the run's largest n is larger than the window, each row fills
    one alone, and otherwise windows hold several runs.  The failures are
    those of the default window and of the per-graph reference."""
    mutations = frozenset({MUTATION_BOUND_DB})
    key = lambda recs: [(r.index, r.check) for r in recs]  # noqa: E731
    default = key(verify_corpus(spec, mutations=mutations))
    windows, cut = [], corpus._windows

    def recorded(runs):
        for window in cut(runs):
            windows.append([(run.n, lo, hi) for run, _, lo, hi in window])
            yield window

    monkeypatch.setattr(corpus, "_WINDOW_CELLS", cells)
    monkeypatch.setattr(corpus, "_windows", recorded)
    assert key(verify_corpus(spec, mutations=mutations)) == default
    assert default == reference_keys(spec, MUTATION_BOUND_DB) and default
    assert any(lo > 0 for parts in windows for _, lo, _ in parts)
    if max(n for parts in windows for n, _, _ in parts) ** 2 > cells:
        assert any(len(parts) == 1 and parts[0][0] ** 2 > cells for parts in windows)
    else:
        assert any(len(parts) > 1 for parts in windows)
    for parts in windows:
        side, length = max(n for n, _, _ in parts), sum(hi - lo for _, lo, hi in parts)
        assert length == 1 or length * side**2 <= cells


def test_padded_stacks_fit_the_window(monkeypatch, built_stacks):
    """Random mode pads its stacks, and no window or stack of more than one
    graph exceeds ``_WINDOW_CELLS`` padded cells, instances x (largest n)^2."""
    windows, cut = [], corpus._windows

    def recorded(runs):
        for window in cut(runs):
            windows.append((sum(hi - lo for *_, lo, hi in window),
                            max(run.n for run, *_ in window)))
            yield window

    monkeypatch.setattr(corpus, "_windows", recorded)
    assert verify_corpus(CorpusSpec(mode="random", n_max=30, samples=1000)) == []
    shapes = [stack.lap.shape[:2] for stack in built_stacks]
    assert sum(count for count, _ in shapes) == sum(count for count, _ in windows) == 1000
    assert len(windows) > 1
    # a distance of n marks a padding vertex
    assert any(stack.lap.shape[0] > 1 and (stack.dist == stack.lap.shape[1]).any()
               for stack in built_stacks)
    for count, n in windows + shapes:
        assert count == 1 or count * n * n <= corpus._WINDOW_CELLS


def test_stacks_merge_boundary_kinds(monkeypatch):
    """Unit exhaustive n <= 6 is one window whose |B| kinds are each large
    enough for a stack alone; a 100-row random window merges its kinds into
    at most 8 stacks, each within ``_WINDOW_CELLS`` padded cells, and keeps
    the kinds with |B| <= 2 alone."""
    stacks, kernel = [], corpus._quantities

    def recorded(nb, stack, *args):
        width = nb + int((stack.sizes - stack.nb).max())
        stacks.append((sorted(set(stack.nb.tolist())), stack.rows * width**2))
        return kernel(nb, stack, *args)

    monkeypatch.setattr(corpus, "_quantities", recorded)
    assert verify_corpus(CorpusSpec(mode="exhaustive", n_max=6, unit_only=True)) == []
    assert [kinds for kinds, _ in stacks] == [[2], [3], [4], [5], [6]]
    merged = 0
    for seed in range(20):
        stacks.clear()
        assert verify_corpus(CorpusSpec(mode="random", n_max=30, samples=100, seed=seed)) == []
        assert len(stacks) <= 8
        for kinds, cells in stacks:
            assert cells <= corpus._WINDOW_CELLS
            assert kinds[0] > 2 or len(kinds) == 1
            merged += len(kinds) > 1
    assert merged >= 20
