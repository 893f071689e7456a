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
    enumerate_small,
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
    _adjacency_stack,
    _comb_verdicts,
    _connected_edge_masks,
    _geodesic_tables,
    _instance_graph,
    _verify_exhaustive_batch,
    _verify_exhaustive_reference,
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
            random_graph(8, 1e-9, (0.5, 2.0), (0.5, 2.0), 2, seed=0, max_retries=5)

    def test_validates_arguments(self):
        with pytest.raises(GraphError):
            random_graph(1, 0.5, (0.5, 2.0), (0.5, 2.0), 1, seed=0)
        with pytest.raises(GraphError):
            random_graph(4, 0.5, (0.5, 2.0), (0.5, 2.0), 5, seed=0)


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
                    if is_connected(_instance_graph(n, mask, 0))}
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
            for g in enumerate_small(3, unit_only=False, rng=np.random.default_rng(5))
        ]
        b = [
            (g.edges, tuple(g.measures))
            for g in enumerate_small(3, unit_only=False, rng=np.random.default_rng(5))
        ]
        assert a == b
        assert any(w != 1.0 for edges, _ in a for _, _, w in edges)

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            list(enumerate_small(8))
        with pytest.raises(GraphError):
            list(enumerate_small(1))

    @pytest.mark.parametrize("n_max", [1, 8, 40])
    def test_count_out_of_range(self, monkeypatch, n_max):
        # rejected before any enumeration: n_max = 8 alone means 2^28 masks
        def no_enumeration(n):
            raise AssertionError(f"enumerated the masks of n = {n}")

        monkeypatch.setattr(corpus, "_connected_edge_masks", no_enumeration)
        with pytest.raises(GraphError, match="2 <= n_max <= 7"):
            count_exhaustive_instances(n_max)


class TestBatchedGeodesics:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_walk_counts_and_comb_match_per_graph_route(self, n):
        """Distances from the walk counts equal hop_distance_matrix, a count
        of 1 marks exactly the pairs with one geodesic, and the vectorized
        comb test agrees with is_comb_over on every such pair."""
        masks = _connected_edge_masks(n)
        adj = _adjacency_stack(n, masks)
        counts, dist = _geodesic_tables(adj)
        cells, expected = [], []
        for gi, mask in enumerate(masks):
            g = _instance_graph(n, mask, (1 << n) - 1)
            assert dist[gi].tolist() == hop_distance_matrix(g).tolist()
            for x, y in combinations(range(n), 2):
                geodesics = all_geodesics(g, x, y)
                unique = counts[gi, dist[gi, x, y] - 1, x, y] == 1
                assert unique == (len(geodesics) == 1)
                if unique:
                    cells.append((gi, x, y))
                    expected.append(is_comb_over(g, geodesics[0]).is_comb)
        gi, x, y = np.array(cells).T
        verdicts = _comb_verdicts(adj > 0, dist, gi, x, y)
        assert verdicts.tolist() == expected
        if n >= 3:
            assert any(expected) and not all(expected)


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
        assert len(g.interior) > 0
        assert check_instance(g, rng=rng) == []
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

    @pytest.mark.parametrize("mutation", sorted(KNOWN_MUTATIONS))
    def test_batch_and_reference_agree_under_mutation(self, mutation):
        """The vectorized engine and the per-graph reference path must flag
        exactly the same instances for the same reasons, with the same
        details."""
        spec = CorpusSpec(mode="exhaustive", n_max=4, unit_only=True)
        batch = _verify_exhaustive_batch(spec, frozenset({mutation}), None)
        reference = _verify_exhaustive_reference(spec, frozenset({mutation}), None)
        key = lambda recs: [(r.index, r.check) for r in recs]
        assert key(batch) == key(reference)
        assert len(batch) > 0
        for rb, rr in zip(batch, reference):
            assert rb.graph == rr.graph
            assert rb.details.keys() == rr.details.keys()
            for name, value in rr.details.items():
                if isinstance(value, bool):
                    assert rb.details[name] is value, name
                else:
                    assert rb.details[name] == pytest.approx(
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
