import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov import (
    DisconnectedGraphError,
    GeodesicLimitError,
    GraphError,
    all_geodesics,
    bound_report,
    boundary_vector,
    graph_from_arrays,
    graph_to_json,
    hop_distance_matrix,
    is_connected,
    make_graph,
    parse_graph,
)
from steklov.graph import boundary_diameter, geodesic_layers, hop_distances
from steklov.rigidity import _unique_geodesic, comb_graph

from reference_graph import bfs_distances, geodesic_count_oracle
from strategies import connected_graphs

K2_JSON = """
{"vertices": [{"id": "a", "m": 1, "boundary": true},
              {"id": "b", "m": 1, "boundary": true}],
 "edges": [{"u": "a", "v": "b", "w": 1}]}
"""

C4_JSON = """
{"vertices": [{"id": "0", "m": 1, "boundary": true},
              {"id": "1", "m": 1, "boundary": false},
              {"id": "2", "m": 1, "boundary": true},
              {"id": "3", "m": 1, "boundary": false}],
 "edges": [{"u": "0", "v": "1", "w": 1}, {"u": "1", "v": "2", "w": 1},
           {"u": "2", "v": "3", "w": 1}, {"u": "3", "v": "0", "w": 1}]}
"""


class TestParse:
    def test_k2(self):
        g = parse_graph(K2_JSON)
        assert g.n == 2
        assert g.labels == ("a", "b")
        assert g.boundary == (0, 1)
        assert g.edges == ((0, 1, 1.0),)

    def test_zero_weight_rejected(self):
        bad = K2_JSON.replace('"w": 1', '"w": 0')
        with pytest.raises(GraphError, match="non-positive weight"):
            parse_graph(bad)

    def test_negative_measure_rejected(self):
        bad = K2_JSON.replace('"m": 1, "boundary": true},', '"m": -2, "boundary": true},', 1)
        with pytest.raises(GraphError, match="non-positive measure"):
            parse_graph(bad)

    def test_c4_fixture(self):
        g = parse_graph(C4_JSON)
        assert g.n == 4
        assert g.boundary == (0, 2)
        assert np.flatnonzero(~g.boundary_mask).tolist() == [1, 3]
        assert len(g.edges) == 4

    def test_loop_rejected(self):
        bad = K2_JSON.replace('"v": "b"', '"v": "a"')
        with pytest.raises(GraphError, match="loop"):
            parse_graph(bad)

    def test_duplicate_edge_rejected(self):
        doc = json.loads(K2_JSON)
        doc["edges"].append({"u": "b", "v": "a", "w": 2})
        with pytest.raises(GraphError, match=r"edges\[1\].*duplicate"):
            parse_graph(json.dumps(doc))

    def test_unknown_vertex_in_edge(self):
        bad = K2_JSON.replace('"u": "a"', '"u": "zz"')
        with pytest.raises(GraphError, match="unknown vertex reference 'zz'"):
            parse_graph(bad)

    def test_unknown_field_rejected(self):
        doc = json.loads(K2_JSON)
        doc["edges"][0]["color"] = "red"
        with pytest.raises(GraphError, match="unknown field 'color'"):
            parse_graph(json.dumps(doc))
        doc = json.loads(K2_JSON)
        doc["extra"] = 1
        with pytest.raises(GraphError, match="unknown field 'extra'"):
            parse_graph(json.dumps(doc))

    def test_missing_field_rejected(self):
        doc = json.loads(K2_JSON)
        del doc["vertices"][0]["m"]
        with pytest.raises(GraphError, match=r"vertices\[0\]: missing field 'm'"):
            parse_graph(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(GraphError, match="malformed JSON"):
            parse_graph("{not json")

    def test_duplicate_label(self):
        doc = json.loads(K2_JSON)
        doc["vertices"][1]["id"] = "a"
        with pytest.raises(GraphError, match="duplicate vertex id"):
            parse_graph(json.dumps(doc))

    def test_boundary_must_be_bool(self):
        bad = K2_JSON.replace("true", "1")
        with pytest.raises(GraphError, match="boundary must be true or false"):
            parse_graph(bad)

    def test_empty_vertex_list(self):
        with pytest.raises(GraphError, match="empty vertex list"):
            parse_graph('{"vertices": [], "edges": []}')

    def test_empty_boundary_is_parseable(self):
        doc = json.loads(K2_JSON)
        for v in doc["vertices"]:
            v["boundary"] = False
        g = parse_graph(json.dumps(doc))
        assert g.boundary == ()

    def test_canonical_order_sorts_labels(self):
        # input order is b, a; ids must follow sorted labels
        text = """
        {"vertices": [{"id": "b", "m": 2, "boundary": false},
                      {"id": "a", "m": 3, "boundary": true}],
         "edges": [{"u": "b", "v": "a", "w": 4}]}
        """
        g = parse_graph(text)
        assert g.labels == ("a", "b")
        assert g.measures[0] == 3.0
        assert g.boundary == (0,)
        assert g.edges == ((0, 1, 4.0),)


class TestSerialize:
    def test_round_trip_fixture(self):
        g = parse_graph(C4_JSON)
        assert parse_graph(graph_to_json(g)) == g

    def test_17_digit_round_trip(self):
        w = 1.0 / 3.0
        m = 0.1 + 0.2  # not exactly representable as a short decimal
        g = graph_from_arrays([m, 1.0], [0, 1], [(0, 1, w)])
        g2 = parse_graph(graph_to_json(g))
        assert g2.edges[0][2] == w
        assert g2.measures[0] == m

    def test_serialization_is_canonical_json(self):
        g = parse_graph(K2_JSON)
        doc = json.loads(graph_to_json(g))
        assert set(doc) == {"vertices", "edges"}
        assert [v["id"] for v in doc["vertices"]] == ["a", "b"]

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=7))
    def test_round_trip_random(self, g):
        assert parse_graph(graph_to_json(g)) == g

    def test_awkward_labels_round_trip(self):
        g = make_graph(
            [('a "quoted"', 0.25, True), ("b\\slash", 1.0, False), ("ζ", 2.0, True)],
            [('a "quoted"', "b\\slash", 0.5), ("b\\slash", "ζ", 3.0)],
        )
        assert parse_graph(graph_to_json(g)) == g


class TestImmutability:
    def test_measures_are_read_only(self, path3):
        with pytest.raises(ValueError):
            path3.measures[0] = 5.0


class TestConnectivity:
    def test_k2_connected(self, k2):
        assert is_connected(k2)

    def test_two_disjoint_edges(self):
        g = graph_from_arrays([1.0] * 4, [0], [(0, 1, 1.0), (2, 3, 1.0)])
        assert not is_connected(g)

    def test_comb_is_connected(self):
        g = comb_graph(2, 1.0, 1.0)
        assert is_connected(g)


class TestDistances:
    def test_path3(self, path3):
        d = hop_distance_matrix(path3)
        assert d[0, 2] == 2
        assert d[0, 1] == d[1, 2] == 1

    def test_k2(self, k2):
        assert hop_distance_matrix(k2)[0, 1] == 1

    def test_c4(self, c4):
        assert hop_distance_matrix(c4)[0, 2] == 2

    def test_disconnected_raises(self):
        g = graph_from_arrays([1.0] * 4, [0], [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            hop_distance_matrix(g)

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=8))
    def test_metric_axioms(self, g):
        d = hop_distance_matrix(g)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)
        assert np.all(d[~np.eye(g.n, dtype=bool)] >= 1)
        for k in range(g.n):
            assert np.all(d <= d[:, [k]] + d[[k], :])

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=8))
    def test_matches_plain_bfs(self, g):
        d = hop_distance_matrix(g)
        for src in range(g.n):
            assert list(d[src]) == bfs_distances(g, src)


class TestGeodesics:
    def test_path3_unique(self, path3):
        assert all_geodesics(path3, 0, 2) == [(0, 1, 2)]

    def test_c4_two(self, c4):
        assert all_geodesics(c4, 0, 2) == [(0, 1, 2), (0, 3, 2)]

    def test_k2(self, k2):
        assert all_geodesics(k2, 0, 1) == [(0, 1)]

    def test_trivial_endpoints(self, k2):
        assert all_geodesics(k2, 0, 0) == [(0,)]

    def test_lexicographic_order(self):
        # K_{2,3}: hubs 0 and 4, middles 1..3: three geodesics 0-i-4
        g = graph_from_arrays(
            [1.0] * 5,
            [0, 4],
            [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0),
             (1, 4, 1.0), (2, 4, 1.0), (3, 4, 1.0)],
        )
        assert all_geodesics(g, 0, 4) == [(0, 1, 4), (0, 2, 4), (0, 3, 4)]

    def test_limit_exceeded(self):
        g = graph_from_arrays(
            [1.0] * 5,
            [0, 4],
            [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0),
             (1, 4, 1.0), (2, 4, 1.0), (3, 4, 1.0)],
        )
        with pytest.raises(GeodesicLimitError):
            all_geodesics(g, 0, 4, max_paths=2)
        assert len(all_geodesics(g, 0, 4, max_paths=3)) == 3

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=7, min_boundary=2))
    def test_count_matches_dp_oracle(self, g):
        x, y = g.boundary[0], g.boundary[-1]
        paths = all_geodesics(g, x, y)
        assert len(paths) == len(set(paths))
        d = hop_distance_matrix(g)[x, y]
        for p in paths:
            assert len(p) == d + 1
            assert p[0] == x and p[-1] == y
            for a, b in zip(p, p[1:]):
                assert (min(a, b), max(a, b)) in g.edge_rank
        assert len(paths) == geodesic_count_oracle(g, x)[y]

    def test_order_follows_sorted_neighbour_lists(self):
        # vertex 2's CSR row must read 1 before 3 for the lexicographic order
        g = graph_from_arrays(
            [1.0] * 5,
            [0, 4],
            [(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0), (1, 4, 1.0), (3, 4, 1.0)],
        )
        assert all_geodesics(g, 0, 4) == [(0, 2, 1, 4), (0, 2, 3, 4)]

    @pytest.mark.parametrize("x, y", [(-1, 0), (0, 4), (4, 0)])
    def test_vertex_out_of_range(self, x, y):
        g = comb_graph(path_len=3, path_weight=1.0, endpoint_mass=1.0)
        with pytest.raises(GraphError, match="unknown vertex"):
            all_geodesics(g, x, y)


class TestGeodesicCounts:
    """The layer test of uniqueness against the counting oracle."""

    @staticmethod
    def _check(g, sources):
        d = hop_distance_matrix(g)
        for x in sources:
            _, unique = geodesic_layers(d[x], d)  # row y: the pair (x, y)
            assert unique.tolist() == [c == 1 for c in geodesic_count_oracle(g, x)]

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=8))
    def test_small_graphs(self, g):
        self._check(g, range(g.n))

    def test_1500_edge_comb(self):
        g = comb_graph(path_len=1500, path_weight=1.0, endpoint_mass=1.0)
        self._check(g, [0, 750, 1500])

    def test_unreachable_vertices(self):
        g = graph_from_arrays([1.0] * 4, [0], [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            hop_distances(g, [0])
        with pytest.raises(DisconnectedGraphError):
            hop_distances(g, [0, 2])


class TestCoercion:
    def test_boundary_vector_mapping(self, path3):
        v = boundary_vector(path3, {0: 1.5, 2: -2.0})
        assert list(v) == [1.5, -2.0]

    def test_boundary_vector_wrong_domain(self, path3):
        with pytest.raises(GraphError, match="domain"):
            boundary_vector(path3, {0: 1.0, 1: 2.0})

    def test_boundary_vector_wrong_length(self, path3):
        with pytest.raises(GraphError, match="length"):
            boundary_vector(path3, [1.0, 2.0, 3.0])

    def test_graph_from_arrays_bad_boundary(self):
        with pytest.raises(GraphError, match="unknown vertex reference"):
            graph_from_arrays([1.0, 1.0], [5], [(0, 1, 1.0)])

    def test_make_graph_requires_string_labels(self):
        with pytest.raises(GraphError, match="must be a string"):
            make_graph([(1, 1.0, True), (2, 1.0, True)], [(1, 2, 1.0)])


@st.composite
def boundary_heavy_graphs(draw):
    """|B| on both sides of a 64-bit word boundary, on random graphs, long
    paths and long combs (spine with short pendant teeth)."""
    nb = draw(st.sampled_from([63, 64, 65, 130]))
    shape = draw(st.sampled_from(["random", "path", "comb"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "path":
        n = nb + draw(st.integers(0, 300))
        edges = {(i, i + 1) for i in range(n - 1)}
    elif shape == "comb":
        spine = draw(st.integers(2, 200))
        n = max(nb, spine + draw(st.integers(0, 200)))
        edges = {(i, i + 1) for i in range(spine - 1)}
        edges |= {(int(rng.integers(0, v)), v) for v in range(spine, n)}
    else:
        n = nb + draw(st.integers(0, 100))
        edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
        extra = rng.integers(0, n, size=(draw(st.integers(0, 2 * n)), 2))
        edges |= {(int(min(a, b)), int(max(a, b))) for a, b in extra if a != b}
    boundary = rng.choice(n, size=nb, replace=False)
    return graph_from_arrays(
        [1.0] * n, [int(b) for b in boundary], [(u, v, 1.0) for u, v in sorted(edges)]
    )


class TestBoundaryDiameter:
    """The packed boundary BFS against the pure-Python single-source BFS."""

    @settings(max_examples=25, deadline=None)
    @given(boundary_heavy_graphs())
    def test_matches_plain_bfs(self, g):
        rows = [bfs_distances(g, b) for b in g.boundary]
        expected = max(row[c] for row in rows for c in g.boundary)
        assert boundary_diameter(g) == expected

    @settings(max_examples=20, deadline=None)
    @given(boundary_heavy_graphs())
    def test_hop_matrix_rows_match_plain_bfs(self, g):
        d = hop_distance_matrix(g)
        for src in g.boundary[:5]:
            assert list(d[src]) == bfs_distances(g, src)

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=8))
    def test_small_graphs(self, g):
        bidx = np.asarray(g.boundary, dtype=np.intp)
        expected = int(hop_distance_matrix(g)[np.ix_(bidx, bidx)].max(initial=0))
        assert boundary_diameter(g) == expected

    def test_long_comb(self):
        g = comb_graph(path_len=1500, path_weight=1.0, endpoint_mass=1.0)
        assert boundary_diameter(g) == 1500

    def test_single_vertex(self):
        g = graph_from_arrays([1.0], [0], [])
        assert boundary_diameter(g) == 0
        assert hop_distance_matrix(g).tolist() == [[0]]

    @pytest.mark.parametrize("isolated", [0, 2, 4])
    def test_isolated_vertex_raises(self, isolated):
        # An isolated vertex has an empty CSR row, which reduceat would fill
        # with a neighbour's bits (or index past the end) if it were not caught.
        others = [v for v in range(5) if v != isolated]
        edges = [(a, b, 1.0) for a, b in zip(others, others[1:])]
        g = graph_from_arrays([1.0] * 5, others[:2], edges)
        with pytest.raises(DisconnectedGraphError):
            boundary_diameter(g)
        with pytest.raises(DisconnectedGraphError):
            hop_distance_matrix(g)

    def test_two_components_raise(self):
        g = graph_from_arrays([1.0] * 4, [0, 2], [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            boundary_diameter(g)
        with pytest.raises(DisconnectedGraphError):
            bound_report(g)


class TestLongGeodesics:
    def test_all_geodesics_on_1500_edge_comb(self):
        g = comb_graph(path_len=1500, path_weight=1.0, endpoint_mass=1.0)
        assert all_geodesics(g, 0, 1500) == [tuple(range(1501))]

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=8, min_boundary=2))
    def test_unique_geodesic_matches_enumeration(self, g):
        x, y = g.boundary[0], g.boundary[-1]
        paths = all_geodesics(g, x, y)
        witness = _unique_geodesic(g, x, y)
        if len(paths) != 1:
            assert witness is None
        else:
            assert witness.vertices == paths[0]
            assert witness.edge_weights == tuple(
                g.edges[g.edge_rank[(min(a, b), max(a, b))]][2]
                for a, b in zip(paths[0], paths[0][1:])
            )
