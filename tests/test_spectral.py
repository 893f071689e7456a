import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

from steklov import (
    EmptyBoundaryError,
    GraphError,
    graph_from_arrays,
    harmonic_extension,
    laplacian,
    random_comb,
    random_graph,
    spectral,
    steklov_spectrum,
    steklov_system,
)

from reference_spectral import edge_energy, normal_derivative, rayleigh_quotient
from strategies import connected_graphs


def oracle_schur(g):
    """Schur complement by explicit inverse (independent of the solver path)."""
    L, _ = laplacian(g)
    b = np.asarray(g.boundary, dtype=np.intp)
    o = np.flatnonzero(~g.boundary_mask)
    if len(o) == 0:
        return L[np.ix_(b, b)]
    return L[np.ix_(b, b)] - L[np.ix_(b, o)] @ np.linalg.inv(
        L[np.ix_(o, o)]
    ) @ L[np.ix_(o, b)]


def oracle_schur_by_definition(g):
    """Column-by-column from the definition: extend each boundary basis
    vector harmonically and read off the mass-weighted normal derivative."""
    nb = len(g.boundary)
    bidx = np.asarray(g.boundary, dtype=np.intp)
    cols = []
    for i in range(nb):
        f = np.zeros(nb)
        f[i] = 1.0
        u = harmonic_extension(g, f)
        cols.append(g.measures[bidx] * normal_derivative(g, u))
    return np.column_stack(cols)


def oracle_spectrum(g):
    """Generalized symmetric eigensolve, scipy route."""
    S = oracle_schur(g)
    M = np.diag(g.measures[np.asarray(g.boundary, dtype=np.intp)])
    return scipy.linalg.eigh(S, M, eigvals_only=True)


class TestLaplacian:
    def test_k2(self, k2):
        L, m = laplacian(k2)
        assert np.array_equal(L, [[1.0, -1.0], [-1.0, 1.0]])
        assert np.array_equal(m, [1.0, 1.0])

    def test_path3_middle_row(self, path3):
        L, _ = laplacian(path3)
        assert list(L[1]) == [-1.0, 2.0, -1.0]

    def test_weighted_offdiagonal(self):
        g = graph_from_arrays([1.0, 1.0], [0, 1], [(0, 1, 2.5)])
        L, _ = laplacian(g)
        assert L[0, 1] == -2.5
        assert L[0, 0] == 2.5

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs())
    def test_zero_row_sums(self, g):
        L, _ = laplacian(g)
        assert np.allclose(L.sum(axis=1), 0.0, atol=1e-12)


class TestDirichletEnergy:
    def test_k2_unit(self, k2):
        # Dirichlet principle: the energy of the harmonic extension of f is
        # <f, S f>
        u = harmonic_extension(k2, [0.0, 1.0])
        assert edge_energy(k2, u, u) == 1.0
        assert [0.0, 1.0] @ steklov_system(k2).schur @ [0.0, 1.0] == 1.0

    def test_zero(self, c4):
        u = harmonic_extension(c4, [2.0, 2.0])
        assert edge_energy(c4, u, u) == pytest.approx(0.0, abs=1e-24)

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_n=7))
    def test_integration_by_parts(self, g):
        # <Delta u, v> = -<du, dv> with the m-weighted vertex inner product
        rng = np.random.default_rng(1)
        u = rng.standard_normal(g.n)
        v = rng.standard_normal(g.n)
        L, m = laplacian(g)
        delta_u = -(L @ u) / m
        lhs = float(np.dot(delta_u * m, v))
        rhs = -edge_energy(g, u, v)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_n=7, min_boundary=1))
    def test_green_formula_general(self, g):
        # <Delta u, v>_Omega = -<du, dv> + <du/dn, v>_B for arbitrary u, v
        rng = np.random.default_rng(2)
        u = rng.standard_normal(g.n)
        v = rng.standard_normal(g.n)
        L, m = laplacian(g)
        delta_u = -(L @ u) / m
        iidx = np.flatnonzero(~g.boundary_mask)
        bidx = np.asarray(g.boundary, dtype=np.intp)
        lhs = float(np.dot(delta_u[iidx] * m[iidx], v[iidx]))
        flux = normal_derivative(g, u)
        rhs = -edge_energy(g, u, v) + float(np.dot(flux * m[bidx], v[bidx]))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


class TestHarmonicExtension:
    def test_path3_midpoint(self, path3):
        u = harmonic_extension(path3, [0.0, 1.0])
        assert u[1] == pytest.approx(0.5, abs=1e-14)

    def test_constants_extend_exactly(self, c4):
        u = harmonic_extension(c4, [2.5, 2.5])
        assert np.allclose(u, 2.5, atol=1e-13)

    def test_c4_interior_averages(self, c4):
        f0, f2 = 0.3, 1.1
        u = harmonic_extension(c4, [f0, f2])
        assert u[1] == pytest.approx((f0 + f2) / 2, abs=1e-13)
        assert u[3] == pytest.approx((f0 + f2) / 2, abs=1e-13)

    def test_empty_interior_is_identity(self, k2):
        u = harmonic_extension(k2, [4.0, -1.0])
        assert list(u) == [4.0, -1.0]

    def test_disconnected_raises(self):
        g = graph_from_arrays([1.0] * 4, [0, 3], [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(GraphError):
            harmonic_extension(g, [0.0, 1.0])

    def test_empty_boundary_raises(self):
        g = graph_from_arrays([1.0, 1.0], [], [(0, 1, 1.0)])
        with pytest.raises(EmptyBoundaryError):
            harmonic_extension(g, [])

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs(max_n=8, min_boundary=1))
    def test_interior_residual_and_max_principle(self, g):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(len(g.boundary))
        u = harmonic_extension(g, f)
        L, m = laplacian(g)
        residual = np.abs((L @ u)[np.flatnonzero(~g.boundary_mask)])
        degw = max((L[i, i] for i in range(g.n)), default=0.0)
        bound = 1e-10 * max(1.0, float(np.abs(f).max())) * max(1.0, degw)
        assert np.all(residual <= bound)
        slack = 1e-12 * max(1.0, float(np.abs(f).max()))
        assert np.all(u >= f.min() - slack)
        assert np.all(u <= f.max() + slack)


class TestSteklovSystem:
    def test_k2_no_interior(self, k2):
        sys = steklov_system(k2)
        assert np.array_equal(sys.schur, [[1.0, -1.0], [-1.0, 1.0]])
        assert sys.boundary_order == (0, 1)

    def test_path3_by_hand(self, path3):
        sys = steklov_system(path3)
        assert np.allclose(sys.schur, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)

    def test_c4_parallel_paths(self, c4):
        sys = steklov_system(c4)
        assert np.allclose(sys.schur, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-14)

    def test_star_matches_oracle(self, star):
        sys = steklov_system(star)
        assert np.allclose(sys.schur, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)
        assert np.allclose(sys.schur, oracle_schur(star), atol=1e-13)

    def test_empty_boundary_raises(self):
        g = graph_from_arrays([1.0, 1.0], [], [(0, 1, 1.0)])
        with pytest.raises(EmptyBoundaryError):
            steklov_system(g)

    def test_json_serialization(self, path3):
        sdoc = steklov_spectrum(path3).to_json_dict(path3)
        assert sdoc["boundary"] == ["v0", "v2"]
        assert sdoc["eigenvalues"] == pytest.approx([0.0, 1.0], abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs(max_n=8, min_boundary=1))
    def test_matches_both_oracles(self, g):
        sys = steklov_system(g)
        scale = max(1.0, float(np.abs(sys.schur).max()))
        assert np.allclose(sys.schur, oracle_schur(g), atol=1e-10 * scale)
        assert np.allclose(
            sys.schur, oracle_schur_by_definition(g), atol=1e-10 * scale
        )

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs(max_n=8, min_boundary=1))
    def test_type_invariants(self, g):
        sys = steklov_system(g)
        S = sys.schur
        scale = max(1.0, float(np.abs(S).max()))
        assert np.array_equal(S, S.T)
        assert np.abs(S @ np.ones(len(sys.boundary_order))).max() <= 1e-10 * scale
        eig = np.linalg.eigvalsh(S)
        assert eig[0] >= -1e-10 * max(1.0, float(np.abs(eig).max()))


class TestSpectrum:
    def test_k2(self, k2):
        s = steklov_spectrum(k2)
        assert np.allclose(s.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_path3(self, path3):
        s = steklov_spectrum(path3)
        assert np.allclose(s.eigenvalues, [0.0, 1.0], atol=1e-12)

    def test_single_boundary_vertex(self, path3):
        g = graph_from_arrays([1.0] * 3, [0], [(0, 1, 1.0), (1, 2, 1.0)])
        s = steklov_spectrum(g)
        assert len(s.eigenvalues) == 1
        assert abs(s.eigenvalues[0]) <= 1e-12
        assert s.sigma(1) == pytest.approx(0.0, abs=1e-12)
        assert s.sigma(2) == float("inf")

    def test_sigma_index_validation(self, k2):
        with pytest.raises(IndexError):
            steklov_spectrum(k2).sigma(0)

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs(max_n=8, min_boundary=1))
    def test_matches_generalized_oracle(self, g):
        s = steklov_spectrum(g)
        assert len(s.eigenvalues) == len(g.boundary)
        assert np.all(np.diff(s.eigenvalues) >= 0)
        ref = oracle_spectrum(g)
        assert np.allclose(s.eigenvalues, ref, atol=1e-9 * max(1.0, ref[-1]))

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs(max_n=8, min_boundary=2))
    def test_kernel_and_positivity(self, g):
        s = steklov_spectrum(g)
        scale = max(1.0, float(s.eigenvalues[-1]))
        assert abs(s.eigenvalues[0]) <= 1e-10 * scale
        assert s.eigenvalues[1] > 0

    def test_scaling_covariance(self):
        rng = np.random.default_rng(5)
        from conftest import rng_graph

        for c in (3.7, 0.25):
            g = rng_graph(rng, 9, boundary_size=4)
            base = steklov_spectrum(g).eigenvalues
            gw = graph_from_arrays(
                g.measures, g.boundary, [(u, v, w * c) for u, v, w in g.edges]
            )
            scaled_w = steklov_spectrum(gw).eigenvalues
            assert np.allclose(scaled_w, c * base, rtol=1e-10, atol=1e-12)
            gm = graph_from_arrays(
                np.asarray(g.measures) * c, g.boundary, list(g.edges)
            )
            scaled_m = steklov_spectrum(gm).eigenvalues
            assert np.allclose(scaled_m, base / c, rtol=1e-10, atol=1e-12)


class TestRayleigh:
    def test_k2_antisymmetric(self, k2):
        assert rayleigh_quotient(k2, [1.0, -1.0]) == pytest.approx(2.0, abs=1e-13)

    def test_eigenfunction_recovers_sigma2(self, star):
        sigma2 = steklov_spectrum(star).eigenvalues[1]
        mass = star.measures[np.asarray(star.boundary, dtype=np.intp)]
        _, vecs = scipy.linalg.eigh(steklov_system(star).schur, np.diag(mass))
        value = rayleigh_quotient(star, vecs[:, 1])
        assert value == pytest.approx(sigma2, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(connected_graphs(max_n=7, min_boundary=2))
    def test_variational_lower_bound(self, g):
        rng = np.random.default_rng(7)
        s = steklov_spectrum(g)
        sigma2 = s.sigma(2)
        mass = g.measures[np.asarray(g.boundary, dtype=np.intp)]
        for _ in range(25):
            f = rng.standard_normal(len(g.boundary))
            f -= np.dot(f, mass) / mass.sum()  # m-orthogonal to constants
            if not np.any(np.abs(f) > 1e-12):
                continue
            assert rayleigh_quotient(g, f) >= sigma2 - 1e-9 * max(1.0, sigma2)


def weighted_grid(k, rng):
    """k x k grid with weights and measures in [0.5, 2] and the perimeter
    as boundary."""
    vid = lambda i, j: i * k + j  # noqa: E731
    edges = [(vid(i, j), vid(i, j + 1)) for i in range(k) for j in range(k - 1)]
    edges += [(vid(i, j), vid(i + 1, j)) for i in range(k - 1) for j in range(k)]
    boundary = [vid(i, j) for i in range(k) for j in range(k)
                if i in (0, k - 1) or j in (0, k - 1)]
    return graph_from_arrays(rng.uniform(0.5, 2.0, k * k), boundary,
                             [(a, b, float(rng.uniform(0.5, 2.0))) for a, b in edges])


class TestInteriorRoutes:
    """The dense Cholesky and SuperLU factorizations of the pruned interior
    block give the same Steklov matrix and spectrum."""

    @staticmethod
    def operator_by(route, g):
        blocks = spectral.interior_blocks(g)
        interior_map = route(*blocks.l_oo)(blocks.l_ob)
        schur, eig, _ = spectral.steklov_operator(
            blocks.l_bb, blocks.l_ob, interior_map, g.measures[list(g.boundary)])
        return len(blocks.interior), schur, eig

    @pytest.mark.parametrize("kind, size", [
        ("grid", 12), ("grid", 20), ("comb", 120), ("comb", 260),
        ("random", 0.9), ("random", 1.3),
    ])
    def test_routes_agree(self, kind, size):
        rng = np.random.default_rng(int(10 * size))
        if kind == "grid":
            g = weighted_grid(size, rng)
        elif kind == "comb":
            g = random_comb(size, float(rng.uniform(0.5, 2.0)), 1.5, seed=rng,
                            max_tooth_vertices=3)
        else:  # about |O| = size * SPARSE_INTERIOR_MIN interior vertices
            interior = int(size * spectral.SPARSE_INTERIOR_MIN)
            g = random_graph(interior + 40, 4.0 / interior, (0.5, 2.0), (0.5, 2.0), 40, rng)
        n_o, s_dense, eig_dense = self.operator_by(spectral.cholesky_interior, g)
        _, s_sparse, eig_sparse = self.operator_by(spectral.superlu_interior, g)
        if kind == "random":  # the two draws lie either side of the crossover
            assert (n_o >= spectral.SPARSE_INTERIOR_MIN) == (size > 1)
        assert np.abs(s_dense - s_sparse).max() <= 1e-12 * np.abs(s_dense).max()
        assert np.abs(eig_dense - eig_sparse).max() <= 1e-12 * np.abs(eig_dense).max()


class TestPruning:
    """Dangling interior trees are dropped before the interior solve."""

    @staticmethod
    def core_edges():
        # a 3 x 3 grid 0..8 with corners 0, 2, 6, 8 as boundary
        return [(0, 1, 1.5), (1, 2, 0.7), (3, 4, 2.0), (4, 5, 1.1), (6, 7, 0.9),
                (7, 8, 1.3), (0, 3, 0.6), (3, 6, 1.7), (1, 4, 1.2), (4, 7, 0.8),
                (2, 5, 1.9), (5, 8, 1.4)]

    # path tooth 9-10-11 off interior vertex 4, star 12 (leaves 13, 14, 15) off
    # interior vertex 7, tree 16-{17, 18-19} off boundary vertex 2
    TREES = {4: [(4, 9, 3.0), (9, 10, 0.5), (10, 11, 7.0)],
             7: [(7, 12, 2.5), (12, 13, 1.0), (12, 14, 4.0), (12, 15, 0.25)],
             2: [(2, 16, 1.5), (16, 17, 2.0), (16, 18, 0.75), (18, 19, 5.0)]}

    def graphs(self):
        rng = np.random.default_rng(5)
        measures = rng.uniform(0.5, 2.0, 20)
        boundary = [0, 2, 6, 8]
        tree_edges = [e for edges in self.TREES.values() for e in edges]
        full = graph_from_arrays(measures, boundary, self.core_edges() + tree_edges)
        core = graph_from_arrays(measures[:9], boundary, self.core_edges())
        return full, core

    def test_spectrum_is_that_of_the_core(self):
        full, core = self.graphs()
        blocks = full.analysis.blocks
        assert blocks.interior.tolist() == [1, 3, 4, 5, 7]
        assert sorted(np.concatenate([leaves for leaves, _ in blocks.pruned])) == list(
            range(9, 20))
        eig_full = steklov_spectrum(full).eigenvalues
        eig_core = steklov_spectrum(core).eigenvalues
        assert np.abs(eig_full - eig_core).max() <= 1e-14 * eig_core.max()
        assert np.allclose(eig_full, oracle_spectrum(full), rtol=1e-12, atol=1e-14)

    def test_harmonic_extension_is_constant_on_each_tree(self):
        full, core = self.graphs()
        f = [0.3, -1.2, 2.0, 0.7]
        u_full, u_core = harmonic_extension(full, f), harmonic_extension(core, f)
        assert np.array_equal(u_full[:9], u_core)
        for root, edges in self.TREES.items():
            tree = sorted({v for _, v, _ in edges})
            assert (u_full[tree] == u_full[root]).all()


def _adjacent_boundary_graph():
    # boundary 0-1-2 is a path of its own; interior 3, 4 joins all three
    return graph_from_arrays([1.0, 0.5, 2.0, 1.5, 0.75], [0, 1, 2],
                             [(0, 1, 1.25), (1, 2, 0.5), (0, 3, 2.0), (3, 4, 0.3),
                              (4, 2, 1.1), (3, 1, 0.9), (0, 2, 3.0)])


def _empty_interior_graph():
    # boundary edge 0-1 with an interior tree 2-3 hanging off 0: pruned away
    return graph_from_arrays([1.0, 2.0, 0.5, 1.5], [0, 1], [(0, 1, 1.5), (0, 2, 2.0),
                                                           (2, 3, 0.25)])


class TestBlockAssembly:
    """The blocks of :func:`spectral.interior_blocks` are those of the dense
    Laplacian of the kept subgraph, boundary first."""

    @pytest.mark.parametrize("build, no", [
        (lambda: TestPruning().graphs()[0], 5),
        (lambda: weighted_grid(17, np.random.default_rng(17)), 15 * 15),
        (_adjacent_boundary_graph, 2),
        (_empty_interior_graph, 0),
    ], ids=["pruned_trees", "grid_above_sparse_min", "adjacent_boundary", "empty_interior"])
    def test_blocks_match_dense_laplacian(self, build, no):
        g = build()
        blocks = spectral.interior_blocks(g)
        nb = len(g.boundary)
        assert len(blocks.interior) == no
        kept = np.concatenate([np.asarray(g.boundary, dtype=np.intp), blocks.interior])
        dense = laplacian(g)[0][np.ix_(kept, kept)]
        diagonal = np.diag_indices(nb + no)
        dense[diagonal] = 0.0
        dense[diagonal] = -dense.sum(axis=1)  # degrees over kept edges only
        data, rows, cols = blocks.l_oo
        l_oo = np.zeros((no, no))
        l_oo[rows, cols] = data
        assert len(data) == len(set(zip(rows.tolist(), cols.tolist())))
        assembled = np.block([[blocks.l_bb, blocks.l_ob.T], [blocks.l_ob, l_oo]])
        off = ~np.eye(nb + no, dtype=bool)
        assert np.array_equal(assembled[off], dense[off])
        assert np.allclose(assembled[diagonal], dense[diagonal], rtol=1e-14, atol=0.0)


class TestPaddedOperator:
    """The corpus kernel pads boundaries to a stack's width with slots that
    carry no edge, Laplacian diagonal 1 and mass 1 / (2 t + 1), t =
    sum_b L_bb / m_b, and masks them out with ``real``."""

    @staticmethod
    def operator_inputs(g, pads: int = 0):
        """(L_BB, L_OB, X, boundary masses, real mask) of g, boundary first,
        with ``pads`` decoupled padding boundary slots after the boundary."""
        L, m = laplacian(g)
        b, o = np.asarray(g.boundary, dtype=np.intp), np.flatnonzero(~g.boundary_mask)
        nb = len(b)
        l_bb = np.eye(nb + pads)
        l_bb[:nb, :nb] = L[np.ix_(b, b)]
        l_ob = np.zeros((len(o), nb + pads))
        l_ob[:, :nb] = L[np.ix_(o, b)]
        mass = np.full(nb + pads, 1 / (2 * (np.diag(l_bb)[:nb] / m[b]).sum() + 1))
        mass[:nb] = m[b]
        x = np.zeros(l_ob.shape)  # X = L_OO^-1 L_OB is 0 on the padding
        x[:, :nb] = np.linalg.solve(L[np.ix_(o, o)], l_ob[:, :nb])
        return l_bb, l_ob, x, mass, np.arange(nb + pads) < nb

    @pytest.mark.parametrize("pads", [1, 4])
    def test_masked_padding_keeps_the_quantities(self, pads):
        """With the mask, the padded operator gives the graph's eigenvalues
        first, then the padding's above them, and the unpadded quantities to
        1e-15 of their scales; the eigensolver's rounding on the spectrum
        grows with its size, so the eigenvalues, sigma_1 among them, agree
        to 1e-15 |B| (60 seeds gave at most 3.1e-16 |B|)."""
        rng = np.random.default_rng(pads)
        for _ in range(20):
            n = int(rng.integers(5, 20))  # the kernel pads boundaries of 3 or more
            g = random_graph(n, 0.4, (0.5, 2.0), (0.5, 2.0), int(rng.integers(3, n)), rng)
            *inputs, real = self.operator_inputs(g)
            _, eig, q = spectral.steklov_operator(*inputs)
            _, padded, p = spectral.steklov_operator(*self.operator_inputs(g, pads))
            nb = len(eig)
            assert abs(padded[:nb] - eig).max() <= 1e-15 * nb * q["eig_scale"]
            assert (padded[nb:] > eig[-1]).all()
            assert p["schur_scale"] == q["schur_scale"]
            for name, scale, tol in (("eig_scale", "eig_scale", 1e-15 * nb),
                                     ("sigma1", "eig_scale", 1e-15 * nb),
                                     ("asymmetry", "schur_scale", 1e-15),
                                     ("residual", "schur_scale", 1e-15),
                                     ("misalignment", None, 1e-15)):
                assert abs(p[name] - q[name]) <= tol * (q[scale] if scale else 1.0), name

    def test_no_mask_is_the_unmasked_arithmetic(self):
        """``real=None`` gives an all-true mask's bits, and those of the
        quantities' unmasked expressions, over a stack of graphs."""
        rng = np.random.default_rng(5)
        graphs = [random_graph(12, 0.4, (0.5, 2.0), (0.5, 2.0), 5, rng) for _ in range(6)]
        l_bb, l_ob, x, mass, real = map(np.stack, zip(*map(self.operator_inputs, graphs)))
        schur, eig, q = spectral.steklov_operator(l_bb, l_ob, x, mass)
        masked = spectral.steklov_operator(l_bb, l_ob, x, mass, real)
        for ours, theirs in zip((schur, eig, *q.values()), (masked[0], masked[1],
                                                            *masked[2].values())):
            assert ours.tobytes() == theirs.tobytes()
        inv_sqrt = 1.0 / np.sqrt(mass)
        reduced = schur * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]
        reduced = 0.5 * (reduced + np.swapaxes(reduced, -1, -2))
        v = np.sqrt(mass) / np.linalg.norm(np.sqrt(mass), axis=-1, keepdims=True)
        av = (reduced @ v[..., None])[..., 0]
        rho = (v * av).sum(axis=-1)
        gap = eig[..., 1:].min(axis=-1, initial=np.inf) - rho
        residual = np.linalg.norm(av - rho[..., None] * v, axis=-1)
        assert q["misalignment"].tobytes() == (residual / gap).tobytes()
        assert q["residual"].tobytes() == np.abs(schur.sum(axis=-1)).max(axis=-1).tobytes()
        assert q["eig_scale"].tobytes() == np.abs(eig).max(axis=-1, initial=1.0).tobytes()
