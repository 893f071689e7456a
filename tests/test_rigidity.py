import numpy as np
import pytest
import scipy.linalg

from steklov import (
    GraphError,
    ToothSet,
    check_rigidity,
    comb_graph,
    graph_from_arrays,
    is_comb_over,
    laplacian,
    random_comb,
    report_json,
    steklov_spectrum,
)
from conftest import unit_path


def oracle_sigma2(g):
    """sigma_2 via explicit-inverse Schur complement and scipy's generalized
    symmetric eigensolver (independent of the production path)."""
    L, m = laplacian(g)
    b = np.asarray(g.boundary, dtype=np.intp)
    o = np.flatnonzero(~g.boundary_mask)
    S = L[np.ix_(b, b)]
    if len(o):
        S = S - L[np.ix_(b, o)] @ np.linalg.inv(L[np.ix_(o, o)]) @ L[np.ix_(o, b)]
    vals = scipy.linalg.eigh(S, np.diag(m[b]), eigvals_only=True)
    return float(vals[1])


class TestCombCheck:
    def test_star_is_comb(self, star):
        deco = is_comb_over(star, [0, 1, 2])
        assert deco.is_comb
        assert deco.components == (
            frozenset({0}),
            frozenset({1, 3}),
            frozenset({2}),
        )

    def test_c4_is_not_comb(self, c4):
        deco = is_comb_over(c4, [0, 1, 2])
        assert not deco.is_comb
        # removing the geodesic's edges leaves 0-3-2, joining both endpoints
        assert deco.components[0] == deco.components[2] == frozenset({0, 2, 3})

    def test_bare_path_over_itself(self, path3):
        deco = is_comb_over(path3, [0, 1, 2])
        assert deco.is_comb
        assert all(len(c) == 1 for c in deco.components)

    def test_verdict_matches_pairwise_disjointness(self):
        # the stored verdict must equal literal pairwise disjointness of the
        # listed component sets, comb or not
        rng = np.random.default_rng(31)
        from conftest import rng_graph
        from steklov import all_geodesics

        for _ in range(50):
            g = rng_graph(rng, int(rng.integers(3, 9)), boundary_size=2)
            x, y = g.boundary
            path = all_geodesics(g, x, y)[0]
            deco = is_comb_over(g, path)
            disjoint = all(
                a.isdisjoint(b)
                for i, a in enumerate(deco.components)
                for b in deco.components[i + 1 :]
            )
            assert deco.is_comb == disjoint

    def test_invalid_paths(self, path3):
        with pytest.raises(GraphError, match="not adjacent"):
            is_comb_over(path3, [0, 2])
        with pytest.raises(GraphError, match="repeated"):
            is_comb_over(path3, [0, 1, 0])
        with pytest.raises(GraphError, match="empty"):
            is_comb_over(path3, [])
        with pytest.raises(GraphError, match="unknown vertex"):
            is_comb_over(path3, [0, 1, 7])
        for path, bad in (([0, 1.9, 2], "1.9"), ([True, 0], "True")):
            with pytest.raises(GraphError) as excinfo:
                is_comb_over(path3, path)
            assert str(excinfo.value) == f"invalid path: vertex must be an integer, got {bad}"

    @pytest.mark.parametrize("path", [5, None, 1.5], ids=repr)
    def test_path_is_a_collection(self, path3, path):
        """A path that is not a collection of vertex ids is one GraphError
        line naming it, as the sources of hop_distances are."""
        with pytest.raises(GraphError) as excinfo:
            is_comb_over(path3, path)
        assert str(excinfo.value) == f"path must be a list of vertex ids, got {path!r}"

    def test_chord_stays(self):
        """Only the path's edges are removed: the chord 0-2 of a triangle
        joins the path's ends."""
        triangle = graph_from_arrays([1.0] * 3, [0, 2], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        deco = is_comb_over(triangle, [0, 1, 2])
        assert not deco.is_comb
        assert deco.components[0] == deco.components[2] == frozenset({0, 2})


class TestCheckRigidity:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
    def test_unit_paths_certified(self, n):
        rep = check_rigidity(unit_path(n))
        assert rep.equality
        assert rep.cond_boundary and rep.cond_path and rep.cond_comb
        assert rep.certified_equality
        assert rep.witness.vertices == tuple(range(n))
        assert rep.witness.edge_weights == tuple([1.0] * (n - 1))

    def test_c4_two_geodesics(self, c4):
        rep = check_rigidity(c4)
        assert not rep.equality  # sigma2 = 2 > 1 = bound
        assert not rep.cond_path
        assert not rep.certified_equality
        assert rep.witness is None

    def test_equality_tolerance_is_relative_to_the_bound(self):
        # C4 with every weight 1e-9: sigma2 = 2e-9 against the bound 1e-9 is
        # far from equality, however small both are
        g = graph_from_arrays(
            [1.0] * 4, [0, 2],
            [(0, 1, 1e-9), (1, 2, 1e-9), (2, 3, 1e-9), (0, 3, 1e-9)],
        )
        rep = check_rigidity(g)
        assert rep.sigma2 == pytest.approx(2e-9, rel=1e-9)
        assert rep.bound_extended == pytest.approx(1e-9, rel=1e-12)
        assert not rep.equality
        assert not rep.certified_equality

    def test_star_certified(self, star):
        rep = check_rigidity(star)
        assert rep.equality and rep.certified_equality
        assert rep.witness.vertices == (0, 1, 2)
        assert rep.comb.is_comb

    def test_triangle_unique_geodesic_not_comb(self):
        g = graph_from_arrays(
            [1.0] * 3, [0, 1], [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]
        )
        rep = check_rigidity(g)
        assert rep.sigma2 == pytest.approx(3.0, abs=1e-12)
        assert rep.bound_extended == 2.0
        assert not rep.equality
        assert rep.cond_boundary
        assert rep.cond_path  # the direct edge is the unique geodesic
        assert not rep.cond_comb
        assert not rep.certified_equality

    def test_unequal_boundary_measures(self):
        g = graph_from_arrays([1.0, 1.0, 2.0], [0, 2], [(0, 1, 1.0), (1, 2, 1.0)])
        rep = check_rigidity(g)
        assert not rep.cond_boundary
        assert not rep.certified_equality
        assert not rep.equality

    def test_nonminimal_path_weight(self):
        # path edge weights 1 and 2: w0 = 1 but the geodesic is not all-minimal
        g = graph_from_arrays([1.0] * 3, [0, 2], [(0, 1, 1.0), (1, 2, 2.0)])
        rep = check_rigidity(g)
        assert not rep.cond_path
        assert not rep.equality  # sigma2 = 4/3 vs bound 1

    def test_weight_tol_relaxes_comparisons(self):
        w = 1.0 + 1e-12
        g = graph_from_arrays([1.0] * 3, [0, 2], [(0, 1, 1.0), (1, 2, w)])
        strict = check_rigidity(g)
        assert not strict.cond_path and not strict.certified_equality
        relaxed = check_rigidity(g, weight_tol=1e-9)
        assert relaxed.cond_path and relaxed.certified_equality
        assert relaxed.equality  # sigma2 is within 1e-8 of the bound here

    def test_large_boundary_conditions_false(self, star):
        g = graph_from_arrays(
            [1.0] * 4, [0, 2, 3], [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)]
        )
        rep = check_rigidity(g)
        assert not rep.cond_boundary
        assert not rep.cond_path and not rep.cond_comb
        assert rep.witness is None

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0,
                                     pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize("name", ["tol", "weight_tol"])
    def test_rejects_bad_tolerances(self, path3, name, tol):
        with pytest.raises(GraphError, match=f"{name} must be finite and nonnegative"):
            check_rigidity(path3, **{name: tol})

    def test_needs_two_boundary_vertices(self):
        g = graph_from_arrays([1.0, 1.0], [0], [(0, 1, 1.0)])
        with pytest.raises(GraphError, match="at least 2"):
            check_rigidity(g)

    def test_report_json(self, star):
        doc = report_json(star, check_rigidity(star))
        assert doc["certified_equality"] is True
        assert doc["witness"]["vertices"] == ["v0", "v1", "v2"]
        assert doc["comb"]["is_comb"] is True
        assert ["v1", "v3"] in doc["comb"]["components"]


class TestCombGraph:
    def test_bare_path(self, path3):
        assert comb_graph(2, 1.0, 1.0) == path3

    def test_single_tooth_star(self, star):
        g = comb_graph(2, 1.0, 1.0, teeth=ToothSet(measures=(1.0,), attachments=((0, 1, 1.0),)))
        assert g == star

    def test_k2_case(self, k2):
        assert comb_graph(1, 1.0, 1.0) == k2

    def test_tooth_weight_below_path_weight(self):
        with pytest.raises(GraphError, match="below path weight"):
            comb_graph(
                2, 1.0, 1.0,
                teeth=ToothSet(measures=(1.0,), attachments=((0, 1, 0.5),)),
            )
        with pytest.raises(GraphError, match="below path weight"):
            comb_graph(
                2, 1.0, 1.0,
                teeth=ToothSet(
                    measures=(1.0, 1.0),
                    edges=((0, 1, 0.25),),
                    attachments=((0, 1, 1.0),),
                ),
            )

    def test_tooth_touching_two_path_vertices(self):
        teeth = ToothSet(
            measures=(1.0, 1.0),
            edges=((0, 1, 1.0),),
            attachments=((0, 1, 1.0), (1, 2, 1.0)),
        )
        with pytest.raises(GraphError, match="touches two path vertices"):
            comb_graph(3, 1.0, 1.0, teeth=teeth)

    def test_unattached_tooth(self):
        with pytest.raises(GraphError, match="not attached"):
            comb_graph(2, 1.0, 1.0, teeth=ToothSet(measures=(1.0,)))

    def test_attachment_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            comb_graph(2, 1.0, 1.0, teeth=ToothSet(measures=(1.0,), attachments=((0, 5, 1.0),)))

    @pytest.mark.parametrize("teeth, message", [
        (ToothSet((1.0,), (), ((0, 1, "2"),)),
         "attachment 0: weight must be a real number, got '2'"),
        (ToothSet((1.0,), (), ((0, "1", 2.0),)),
         "attachment 0: path index must be an integer, got '1'"),
        (ToothSet((1.0, 1.0), ((0, 1, None),), ((0, 1, 2.0),)),
         "tooth edge 0: weight must be a real number, got None"),
        (ToothSet((1.0,), (), ((0.0, 1, 2.0),)),
         "attachment 0: tooth vertex must be an integer, got 0.0"),
    ], ids=["str_weight", "str_path_index", "none_weight", "float_tooth_id"])
    def test_tooth_rows_are_checked_before_compared(self, teeth, message):
        """A ToothSet row with a non-integer id or a non-number weight is one
        GraphError line naming that row, not a TypeError or a graph row."""
        with pytest.raises(GraphError) as excinfo:
            comb_graph(3, 1.0, 1.0, teeth=teeth)
        assert str(excinfo.value) == message

    def test_interior_mass_count_validated(self):
        with pytest.raises(GraphError, match="interior masses"):
            comb_graph(3, 1.0, 1.0, interior_masses=[1.0])

    def test_path_length_validated(self):
        with pytest.raises(GraphError, match="at least 1"):
            comb_graph(0, 1.0, 1.0)

    @pytest.mark.parametrize("call, message", [
        (lambda: comb_graph(3, "1", 1.0), "path weight must be positive and finite, got '1'"),
        (lambda: comb_graph(3, None, 1.0), "path weight must be positive and finite, got None"),
        (lambda: comb_graph(3, 1.0, True), "endpoint mass must be positive and finite, got True"),
        (lambda: random_comb(3, "1", 1.0, seed=0),
         "path weight must be positive and finite, got '1'"),
        pytest.param(lambda: random_comb(3, 10**400, 1.0, seed=0),
                     f"path weight must be positive and finite, got {10**400}",
                     id="-path weight must be positive and finite, got 10**400"),
        (lambda: random_comb(3, 1.0, 1.0, seed=0, weight_factor="2"),
         "weight_factor must be finite and >= 1, got '2'"),
        (lambda: random_comb(3, 1.0, 1.0, seed=0, weight_factor=True),
         "weight_factor must be finite and >= 1, got True"),
        (lambda: comb_graph(3, 1.0, 1.0, interior_masses=True),
         "interior_masses must be a number or a sequence, got True"),
        (lambda: comb_graph(3, 1.0, 1.0, interior_masses=[1, "x"]),
         "vertices[2]: measure must be a number, got 'x'"),
        (lambda: comb_graph(3, 1.0, 1.0, interior_masses=[1, True]),
         "vertices[2]: measure must be a number, got True"),
        (lambda: check_rigidity(comb_graph(2, 1.0, 1.0), tol=None),
         "tol must be finite and nonnegative, got None"),
        (lambda: check_rigidity(comb_graph(2, 1.0, 1.0), tol=True),
         "tol must be finite and nonnegative, got True"),
        (lambda: check_rigidity(comb_graph(2, 1.0, 1.0), weight_tol="0"),
         "weight_tol must be finite and nonnegative, got '0'"),
    ], ids=lambda x: x if isinstance(x, str) else "")
    def test_scalar_arguments_are_real_numbers(self, call, message):
        """A scalar argument that is not a real number, or is a bool, is one
        GraphError line."""
        with pytest.raises(GraphError) as excinfo:
            call()
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("masses", [np.int64(2), np.float32(2.0), 2, [2, np.int64(2)],
                                        np.array([2, 2])], ids=repr)
    def test_interior_masses_take_numpy_numbers(self, masses):
        assert comb_graph(3, 1.0, 1.0, interior_masses=masses).measures.tolist() == [
            1.0, 2.0, 2.0, 1.0]

    @pytest.mark.parametrize("path_len", [2.5, "3", True], ids=repr)
    @pytest.mark.parametrize("make", [comb_graph, random_comb])
    def test_path_length_is_an_integer(self, make, path_len):
        args = (path_len, 1.0, 1.0) if make is comb_graph else (path_len, 1.0, 1.0, 0)
        with pytest.raises(GraphError) as excinfo:
            make(*args)
        assert str(excinfo.value) == f"path_len must be an integer, got {path_len!r}"

    def test_sigma2_formula(self):
        # two teeth sharing one path vertex are still a single valid comb
        teeth = ToothSet(
            measures=(0.7, 4.0, 2.2),
            edges=((1, 2, 3.0),),
            attachments=((0, 2, 2.0), (1, 2, 5.0)),
        )
        g = comb_graph(4, 2.0, 0.5, teeth=teeth, interior_masses=[9.0, 0.2, 3.0])
        sigma2 = steklov_spectrum(g).sigma(2)
        target = 2 * 2.0 / (0.5 * 4)
        assert sigma2 == pytest.approx(target, rel=1e-9)
        assert sigma2 == pytest.approx(oracle_sigma2(g), rel=1e-12)
        assert check_rigidity(g).certified_equality


class TestRandomComb:
    def test_deterministic(self):
        a = random_comb(5, 1.5, 2.0, seed=123)
        b = random_comb(5, 1.5, 2.0, seed=123)
        assert a == b
        c = random_comb(5, 1.5, 2.0, seed=124)
        assert a != c

    def test_certified_and_sharp(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            length = int(rng.integers(1, 8))
            w = float(rng.uniform(0.5, 2.0))
            mass = float(rng.uniform(0.1, 10.0))
            g = random_comb(length, w, mass, seed=rng)
            rep = check_rigidity(g)
            assert rep.certified_equality and rep.equality
            target = 2 * w / (mass * length)
            assert rep.sigma2 == pytest.approx(target, rel=1e-9)
            # consequence of equal boundary masses
            assert 2 * min(g.measures[b] for b in g.boundary) == sum(
                g.measures[b] for b in g.boundary
            )

    def test_teeth_are_invisible(self):
        g = random_comb(6, 1.25, 0.75, seed=2024)
        interior_path = [float(g.measures[i]) for i in range(1, 6)]
        bare = comb_graph(6, 1.25, 0.75, interior_masses=interior_path)
        full = steklov_spectrum(g).eigenvalues
        stripped = steklov_spectrum(bare).eigenvalues
        assert np.allclose(full, stripped, rtol=1e-10, atol=1e-13)


def relabel(g, perm):
    """g with vertex v renamed perm[v]."""
    u, v, w = g.edge_arrays
    measures = np.empty(g.n)
    measures[perm] = g.measures
    return graph_from_arrays(measures, perm[list(g.boundary)].tolist(),
                             list(zip(perm[u].tolist(), perm[v].tolist(), w.tolist())))


@pytest.mark.parametrize("weight_factor", [1e4, 1e6, 1e12])
@pytest.mark.parametrize("path_len", [20, 200, 1000])
def test_heavy_tooth_combs_are_certified(path_len, weight_factor):
    """Combs whose tree teeth weigh up to 1e12 times the path weight are
    equality instances under any labelling: pruning the teeth leaves the
    bare path, so no subtraction across the weight spread reaches sigma_2."""
    g = random_comb(path_len, 1.0, 2.0, seed=1, weight_factor=weight_factor)
    rng = np.random.default_rng(path_len)
    for graph in (g, relabel(g, rng.permutation(g.n)), relabel(g, rng.permutation(g.n))):
        rep = check_rigidity(graph)
        assert rep.equality and rep.certified_equality
        assert abs(rep.sigma2 - rep.bound_extended) <= 1e-12 * rep.bound_extended
