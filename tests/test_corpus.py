import json
from itertools import combinations
from math import comb

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
    parse_graph,
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
    _connected_edge_masks,
    _distance_tables,
    _geodesic_conditions,
    _Instance,
    _mask_instance,
    _pair_arrays,
    _random_instances,
    _small_instances,
    _Stack,
    _stack_quantities,
)
from steklov.graph import geodesic_layers
from steklov.rigidity import _unique_geodesic, check_rigidity
from conftest import enumerate_small, unit_path
from reference_graph import geodesic_count_oracle
from reference_corpus import (
    reference_check_instance,
    reference_quantities,
    reference_verify,
)


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

    def test_validates_arguments(self):
        with pytest.raises(GraphError):
            random_graph(1, 0.5, (0.5, 2.0), (0.5, 2.0), 1, seed=0)
        with pytest.raises(GraphError):
            random_graph(4, 0.5, (0.5, 2.0), (0.5, 2.0), 5, seed=0)

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)], ids=["int", "numpy"])
    def test_negative_seed_is_a_graph_error(self, seed):
        with pytest.raises(GraphError, match=r"^seed must be nonnegative, got -\d+$"):
            random_graph(5, 0.5, (0.5, 2), (0.5, 2), 2, seed=seed)


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


class TestEnumeration:
    def test_counts_match_recurrence(self):
        # hand-checked values first, then the oracle up to n = 6
        assert connected_labeled_count(2) == 1
        assert connected_labeled_count(3) == 4
        assert connected_labeled_count(4) == 38
        for n in range(2, 7):
            assert len(_connected_edge_masks(n)) == connected_labeled_count(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_masks_are_the_connected_graphs(self, n):
        masks = _connected_edge_masks(n)
        assert list(masks) == sorted(masks)
        expected = {mask for mask in range(1 << (n * (n - 1) // 2))
                    if is_connected(_mask_instance(n, mask, 0).graph())}
        assert set(masks) == expected

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
        with pytest.raises(GraphError, match="2 <= n_max <= 7"):
            CorpusSpec(mode="exhaustive", n_max=8)
        with pytest.raises(GraphError, match="2 <= n_max <= 7"):
            CorpusSpec(mode="exhaustive", n_max=1)

    @pytest.mark.parametrize("n_max", [1, 8, 40])
    def test_count_out_of_range(self, monkeypatch, n_max):
        # rejected before any enumeration: n_max = 8 alone means 2^28 masks
        def no_enumeration(n):
            raise AssertionError(f"enumerated the masks of n = {n}")

        monkeypatch.setattr(corpus, "_connected_edge_masks", no_enumeration)
        with pytest.raises(GraphError, match="2 <= n_max <= 7"):
            count_exhaustive_instances(n_max)


class TestInstanceStreams:
    """Random and weighted exhaustive mode stream array instances; a graph
    is built from one only for a violation record."""

    @staticmethod
    def assert_instance_is_graph(inst, g):
        assert inst.graph() == g
        for ours, theirs in zip(inst, _Instance.of(g)):
            assert np.array_equal(ours, theirs)
            assert np.asarray(ours).dtype.kind == np.asarray(theirs).dtype.kind

    @pytest.mark.parametrize("unit_only", [False, True])
    def test_random_stream_is_random_graph(self, unit_only):
        spec = CorpusSpec(mode="random", n_max=30, samples=300, seed=4, unit_only=unit_only)
        rng = np.random.default_rng([spec.seed, 0])
        for inst in _random_instances(spec):
            n = int(rng.integers(2, spec.n_max + 1))
            p = float(rng.uniform(0.2, 0.9))
            g = random_graph(n, p, spec.weight_range, spec.measure_range,
                             int(rng.integers(2, n + 1)), rng, unit=unit_only)
            self.assert_instance_is_graph(inst, g)
            assert inst.unit == unit_only

    def test_weighted_stream_is_enumerate_small(self):
        ranges = (0.25, 4.0), (0.5, 2.0)
        stream = _small_instances(4, np.random.default_rng(13), *ranges)
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
        from steklov import graph_to_json_dict

        built = []

        def spy(*args, **kwargs):
            built.append(graph_from_arrays(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(corpus, "graph_from_arrays", spy)
        records = verify_corpus(spec, mutations=frozenset({MUTATION_BOUND_DB}))
        assert records
        as_text = lambda g: json.dumps(g, sort_keys=True)  # noqa: E731
        assert sorted(as_text(graph_to_json_dict(g)) for g in built) == sorted(
            as_text(r.graph) for r in records)


class TestBatchedGeodesics:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_walk_counts_and_comb_match_per_graph_route(self, n):
        """Distances from the reach powers equal hop_distance_matrix, the
        layer flags mark exactly the pairs with one geodesic, and the
        vectorized comb test agrees with is_comb_over on every such pair."""
        masks = _connected_edge_masks(n)
        u, v = _pair_arrays(n)
        adj = np.zeros((len(masks), n, n))
        adj[:, u, v] = adj[:, v, u] = _bits(masks, len(u))
        stack = _Stack(adj)
        dist = stack.dist
        pairs = list(combinations(range(n), 2))
        px, py = np.array(pairs).T
        on, flags = geodesic_layers(dist[:, px], dist[:, py])
        cells, expected = [], []
        for gi, mask in enumerate(masks):
            g = _mask_instance(n, mask, (1 << n) - 1).graph()
            assert dist[gi].tolist() == hop_distance_matrix(g).tolist()
            for k, (x, y) in enumerate(pairs):
                geodesics = all_geodesics(g, x, y)
                unique = flags[gi, k]
                assert unique == (len(geodesics) == 1)
                if unique:
                    cells.append((gi, k))
                    expected.append(is_comb_over(g, geodesics[0]).is_comb)
        gi, k = np.array(cells).T
        cond_path, cond_comb = _geodesic_conditions(stack, gi, on[gi, k])
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
        weights = np.zeros((1, g.n, g.n))
        weights[0, u, v] = weights[0, v, u] = w
        with np.errstate(all="raise"):
            dist = _distance_tables(weights)
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
        q = _stack_quantities([_Instance.of(g)], np.random.default_rng(0), frozenset())
        assert q["cond_boundary"].tolist() == [[True]]
        assert q["cond_path"].tolist() == [[False]]
        assert q["certified_equality"].tolist() == [[False]]


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
            ours = _stack_quantities([_Instance.of(g)], np.random.default_rng(7), mutations)
            ref = reference_quantities(g, np.random.default_rng(7), mutations)
            assert ours.keys() == ref.keys()
            for name, value in ref.items():
                got = np.asarray(ours[name])[0, 0].item()
                if isinstance(value, (bool, np.bool_)):
                    assert got == value, name
                else:
                    assert got == pytest.approx(value, rel=1e-9, abs=1e-12), name

    def test_single_boundary_vertex_skips_bound_rows(self):
        g = graph_from_arrays([1.0, 2.0, 1.5], [1], [(0, 1, 1.0), (1, 2, 0.5)])
        q = _stack_quantities([_Instance.of(g)], np.random.default_rng(0), frozenset())
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
        """A LinAlgError fails every instance of its stack, one record each."""
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        monkeypatch.setattr(np.linalg, routine, fail)
        if routine == "eigvalsh":
            spec = CorpusSpec(mode="exhaustive", n_max=3, unit_only=True)
            instances = count_exhaustive_instances(3)
        else:
            assert check_instance(unit_path(4)) == [
                ("numerics_failure", {"error": "forced failure"})
            ]
            if routine == "solve":
                return
            spec = CorpusSpec(mode="random", n_max=5, samples=20)
            instances = spec.samples
        records = verify_corpus(spec)
        assert {r.check for r in records} == {"numerics_failure"}
        assert [r.index for r in records] == list(range(instances))

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
        """The per-graph reference route builds one Laplacian and one
        interior factorization per graph."""
        import steklov.spectral as spectral
        from conftest import rng_graph
        from steklov import random_comb

        calls = {"laplacian": 0, "cho_factor": 0}

        def counted(name):
            original = getattr(spectral, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(spectral, name, wrapper)

        counted("laplacian")
        counted("cho_factor")
        rng = np.random.default_rng(11)
        if kind == "comb":
            g = random_comb(6, 1.5, 2.0, seed=rng)
        else:
            g = rng_graph(rng, 12, boundary_size=3)
        assert not g.boundary_mask.all()
        assert reference_check_instance(g, rng=rng) == []
        assert calls == {"laplacian": 1, "cho_factor": 1}


class TestVerifyCorpus:
    def test_exhaustive_unit_clean(self):
        spec = CorpusSpec(mode="exhaustive", n_max=5, unit_only=True)
        assert verify_corpus(spec) == []

    def test_exhaustive_weighted_clean(self):
        spec = CorpusSpec(mode="exhaustive", n_max=4, unit_only=False, seed=3)
        assert verify_corpus(spec) == []

    def test_random_clean(self):
        spec = CorpusSpec(mode="random", n_max=14, samples=300, seed=17)
        assert verify_corpus(spec) == []

    def test_unknown_mutation_rejected(self):
        spec = CorpusSpec(mode="exhaustive", n_max=3, unit_only=True)
        with pytest.raises(GraphError, match="unknown mutation"):
            verify_corpus(spec, mutations=frozenset({"nope"}))

    def test_spec_validation(self):
        with pytest.raises(GraphError, match="unknown corpus mode"):
            CorpusSpec(mode="full")
        with pytest.raises(GraphError, match="2 <= n_max <= 7"):
            CorpusSpec(mode="exhaustive", n_max=9)
        with pytest.raises(GraphError, match="seed must be nonnegative"):
            CorpusSpec(mode="random", seed=-1)

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
        the same instances for the same reasons, with the same details.
        Stacked streams draw their Green vectors per stack, so only the
        schur_form/energy pair is left out."""
        mutations = frozenset({mutation} - {""})
        ours = verify_corpus(spec, mutations=mutations)
        reference = reference_verify(spec, mutations)
        key = lambda recs: [(r.index, r.check) for r in recs]
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
        spec = CorpusSpec(mode="exhaustive", n_max=5, unit_only=True)
        full = verify_corpus(spec, mutations=frozenset({MUTATION_COMB_SKIP}))
        capped = verify_corpus(
            spec, max_violations=1, mutations=frozenset({MUTATION_COMB_SKIP})
        )
        assert 1 <= len(capped) <= len(full)
        assert capped[0].to_json_dict() == full[0].to_json_dict()

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
