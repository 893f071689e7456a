import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from steklov import (
    GraphError,
    bound_report,
    boundary_quantities,
    graph_from_arrays,
    graph_to_json,
    parse_graph,
    steklov_spectrum,
)
from conftest import unit_path
from strategies import connected_graphs


class TestBoundaryQuantities:
    def test_path3(self, path3):
        assert boundary_quantities(path3) == (1.0, 1.0, 2.0, 2)

    def test_k2(self, k2):
        assert boundary_quantities(k2) == (1.0, 1.0, 2.0, 1)

    def test_weighted(self):
        # boundary measures 2 and 3, edge weights 1 and 0.5
        g = graph_from_arrays(
            [2.0, 1.0, 3.0], [0, 2], [(0, 1, 1.0), (1, 2, 0.5)]
        )
        w0, m0, VB, dB = boundary_quantities(g)
        assert (w0, m0, VB, dB) == (0.5, 2.0, 5.0, 2)

    def test_needs_two_boundary_vertices(self):
        g = graph_from_arrays([1.0, 1.0], [0], [(0, 1, 1.0)])
        with pytest.raises(GraphError, match="at least 2"):
            boundary_quantities(g)


class TestBoundFormulas:
    @pytest.mark.parametrize("n", [2, 3, 5, 10, 23])
    def test_extended_on_paths(self, n):
        assert bound_report(unit_path(n)).bound_extended == 2.0 / (n - 1)

    def test_extended_on_c4(self, c4):
        assert bound_report(c4).bound_extended == 1.0

    def test_extended_arithmetic(self):
        # w0=0.5, m0=2, VB=5, dB=3 -> 0.5*5/(9*3) = 5/54
        g = graph_from_arrays(
            [2.0, 1.0, 1.0, 3.0],
            [0, 3],
            [(0, 1, 0.5), (1, 2, 1.0), (2, 3, 2.0)],
        )
        assert bound_report(g).bound_extended == pytest.approx(5.0 / 54.0, abs=1e-15)

    def test_general_path3(self, path3):
        assert bound_report(path3).bound_general == 0.25

    def test_general_k2(self, k2):
        assert bound_report(k2).bound_general == 0.5

    def test_unit_form_path3(self, path3):
        rep = bound_report(path3)
        assert rep.bound_unit == 1.0
        assert rep.bound_unit_applicable

    def test_unit_form_k2_inapplicable(self, k2):
        rep = bound_report(k2)
        assert rep.bound_unit == 2.0
        assert not rep.bound_unit_applicable  # boundary-boundary edge

    def test_unit_form_weighted_inapplicable(self):
        g = graph_from_arrays([1.0] * 3, [0, 2], [(0, 1, 2.0), (1, 2, 2.0)])
        rep = bound_report(g)
        assert rep.bound_unit == 1.0
        assert not rep.bound_unit_applicable

    def test_single_boundary_vertex_is_vacuous(self):
        g = graph_from_arrays([1.0] * 3, [1], [(0, 1, 1.0), (1, 2, 1.0)])
        rep = bound_report(g)
        assert rep.bound_extended == rep.bound_general == math.inf
        assert (rep.bound_unit, rep.bound_unit_applicable) == (math.inf, False)

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=8, min_boundary=2))
    def test_dominance(self, g):
        rep = bound_report(g)
        assert rep.bound_extended >= rep.bound_general - 1e-15

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=8, min_boundary=2, unit=True))
    def test_unit_specialization_exact(self, g):
        rep = bound_report(g)
        assert abs(rep.bound_extended - rep.bound_unit) <= 1e-15


class TestBoundReport:
    def test_path3(self, path3):
        rep = bound_report(path3)
        assert rep.sigma2 == pytest.approx(1.0, abs=1e-12)
        assert rep.bound_extended == 1.0
        assert rep.gap_extended == pytest.approx(0.0, abs=1e-12)

    def test_c4(self, c4):
        rep = bound_report(c4)
        assert rep.sigma2 == pytest.approx(2.0, abs=1e-12)
        assert rep.bound_extended == 1.0
        assert rep.gap_extended == pytest.approx(1.0, abs=1e-12)

    def test_star(self, star):
        rep = bound_report(star)
        assert rep.sigma2 == pytest.approx(1.0, abs=1e-12)
        assert rep.bound_extended == 1.0
        assert rep.gap_extended == pytest.approx(0.0, abs=1e-12)

    def test_single_boundary_vertex(self):
        g = graph_from_arrays([1.0] * 3, [1], [(0, 1, 1.0), (1, 2, 1.0)])
        rep = bound_report(g)
        assert rep.sigma2 == math.inf
        assert rep.bound_extended == math.inf
        assert math.isnan(rep.gap_extended)
        doc = rep.to_json_dict()
        assert doc["sigma2"] == "inf"
        assert doc["gap_extended"] == "nan"

    def test_json_keys(self, path3):
        doc = bound_report(path3).to_json_dict()
        assert set(doc) == {
            "w0", "m0", "VB", "dB", "bound_unit", "bound_unit_applicable",
            "bound_general", "bound_extended", "sigma2", "gap_extended",
        }
        assert doc["dB"] == 2
        assert doc["bound_unit_applicable"] is True

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=8, min_boundary=2))
    def test_theorem_holds(self, g):
        rep = bound_report(g)
        assert rep.sigma2 >= rep.bound_extended - 1e-9 * max(1.0, rep.sigma2)
        assert rep.VB >= rep.m0 > 0
        assert rep.dB >= 1

    def test_isolated_boundary_vertex_graph(self):
        # K1 with its single vertex as boundary: spectrum {0}, vacuous bounds
        g = graph_from_arrays([2.0], [0], [])
        rep = bound_report(g)
        assert rep.sigma2 == math.inf
        assert rep.w0 == math.inf  # no edges at all
        assert rep.dB == 0

    def test_pendant_tooth_does_not_move_sigma2(self):
        # attaching a pendant vertex to an interior path vertex leaves the
        # whole spectrum unchanged: harmonic extensions are constant on it
        for n in (3, 4, 6):
            base = unit_path(n)
            for spot in range(1, n - 1):
                toothed = graph_from_arrays(
                    [1.0] * (n + 1),
                    [0, n - 1],
                    [(i, i + 1, 1.0) for i in range(n - 1)] + [(spot, n, 1.0)],
                )
                a = steklov_spectrum(base).eigenvalues
                b = steklov_spectrum(toothed).eigenvalues
                assert np.allclose(a, b, rtol=1e-10, atol=1e-12)


class TestAnalysisLifetime:
    """``g.analysis`` holds its graph, so it outlives a temporary graph, and
    the cyclic garbage collector still frees the pair."""

    def test_report_of_a_temporary_graph(self, path3):
        text = graph_to_json(path3)
        assert parse_graph(text).analysis.bound_report == bound_report(parse_graph(text))

    def test_graph_is_freed(self, path3):
        g = parse_graph(graph_to_json(path3))
        assert g.analysis.bound_report.sigma2 > 0
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None
