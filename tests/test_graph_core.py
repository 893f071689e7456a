"""The column-wise graph core against the row-by-row reference.

Valid documents must give the reference's canonical graph, invalid ones the
reference's message for the same first offending row.  Generated graphs are
pinned by digest, so construction changes cannot silently change a corpus.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov import (
    GraphError,
    graph_from_arrays,
    graph_to_json,
    make_graph,
    parse_graph,
    random_comb,
    random_graph,
)
from steklov.graph import DisconnectedGraphError, boundary_hops, component_labels, is_connected

from conftest import enumerate_small
from reference_graph import reference_csr, reference_make_graph, reference_parse_graph

labels_st = st.one_of(
    st.text(max_size=5),
    st.integers(0, 10**4).map(str),
    st.integers(0, 99).map(lambda i: f"{i:03d}"),
)
values_st = st.one_of(
    st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False),
    st.integers(1, 10**20),
)


@st.composite
def documents(draw, max_n=8):
    """A valid graph document with shuffled rows and random orientations."""
    labels = draw(st.lists(labels_st, min_size=1, max_size=max_n, unique=True))
    n = len(labels)
    vertices = [
        {"id": lab, "m": draw(values_st), "boundary": draw(st.booleans())}
        for lab in labels
    ]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = []
    for i, j in chosen:
        if draw(st.booleans()):
            i, j = j, i
        edges.append({"u": labels[i], "v": labels[j], "w": draw(values_st)})
    return {"vertices": draw(st.permutations(vertices)), "edges": edges}


def canonical(g):
    return g.labels, g.measures, g.boundary, g.edges


def assert_same_graph(got, want):
    labels, measures, boundary, edges = got
    assert labels == want[0]
    assert measures.tobytes() == want[1].tobytes()  # bitwise
    assert boundary == want[2]
    assert edges == want[3]
    assert all(type(x) is int for e in edges for x in e[:2])
    assert all(type(e[2]) is float for e in edges)


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(documents())
    def test_parse_matches_reference(self, doc):
        text = json.dumps(doc)
        g = parse_graph(text)
        assert_same_graph(canonical(g), reference_parse_graph(text))
        out = graph_to_json(g)
        again = parse_graph(out)
        assert again == g
        assert graph_to_json(again) == out

    @settings(max_examples=100, deadline=None)
    @given(documents())
    def test_make_graph_matches_reference(self, doc):
        vertices = [(r["id"], r["m"], r["boundary"]) for r in doc["vertices"]]
        edges = [(r["u"], r["v"], r["w"]) for r in doc["edges"]]
        assert_same_graph(
            canonical(make_graph(vertices, edges)),
            reference_make_graph(vertices, edges),
        )

    @settings(max_examples=100, deadline=None)
    @given(documents(), st.data())
    def test_graph_from_arrays_matches_reference(self, doc, data):
        # default labels are zero-padded, so the ids need no relabelling
        n = len(doc["vertices"])
        index = {r["id"]: i for i, r in enumerate(doc["vertices"])}
        measures = [r["m"] for r in doc["vertices"]]
        boundary = [i for i, r in enumerate(doc["vertices"]) if r["boundary"]]
        edges = [(index[r["u"]], index[r["v"]], r["w"]) for r in doc["edges"]]
        width = max(1, len(str(n - 1)))
        labels = [f"v{i:0{width}d}" for i in range(n)]
        want = reference_make_graph(
            [(labels[i], m, i in boundary) for i, m in enumerate(measures)],
            [(labels[u], labels[v], w) for u, v, w in edges],
        )
        assert_same_graph(canonical(graph_from_arrays(measures, boundary, edges)), want)


def _faults(doc):
    """Ways to break one row of a document: (name, row list, mutator)."""
    v, e = doc["vertices"], doc["edges"]
    first_label = v[0]["id"]
    out = [
        ("m_bool", v, lambda r: r.update(m=True)),
        ("m_str", v, lambda r: r.update(m="1")),
        ("m_inf", v, lambda r: r.update(m=float("inf"))),
        ("m_zero", v, lambda r: r.update(m=0)),
        ("m_negative", v, lambda r: r.update(m=-2.5)),
        ("m_huge", v, lambda r: r.update(m=10**400)),
        ("id_int", v, lambda r: r.update(id=7)),
        ("id_dup", v, lambda r: r.update(id=first_label)),
        ("boundary_int", v, lambda r: r.update(boundary=1)),
        ("v_extra", v, lambda r: r.update(color="red")),
        ("v_missing", v, lambda r: r.pop("m", None)),
        ("v_not_object", v, None),
    ]
    if e:
        first_u, first_v = e[0]["u"], e[0]["v"]
        out += [
            ("w_bool", e, lambda r: r.update(w=False)),
            ("w_str", e, lambda r: r.update(w="2")),
            ("w_zero", e, lambda r: r.update(w=0.0)),
            ("w_huge", e, lambda r: r.update(w=-(10**400))),
            ("u_int", e, lambda r: r.update(u=3)),
            ("v_unknown", e, lambda r: r.update(v="no such vertex")),
            ("loop", e, lambda r: r.update(v=r.get("u"))),
            ("reversed_duplicate", e, lambda r: r.update(u=first_v, v=first_u)),
            ("e_missing", e, lambda r: r.pop("w", None)),
            ("e_not_object", e, None),
        ]
    return out


class TestFirstFault:
    @settings(max_examples=200, deadline=None)
    @given(documents(), st.data())
    def test_faulty_documents_match_reference(self, doc, data):
        faults = _faults(doc)
        for _ in range(data.draw(st.integers(1, 3))):
            name, rows, mutate = data.draw(st.sampled_from(faults))
            i = data.draw(st.integers(0, len(rows) - 1))
            if mutate is None:
                rows[i] = [1, 2, 3]
            elif isinstance(rows[i], dict):
                mutate(rows[i])
        text = json.dumps(doc)
        try:
            want = reference_parse_graph(text)
        except GraphError as exc:
            with pytest.raises(GraphError) as got:
                parse_graph(text)
            assert str(got.value) == str(exc)
        else:
            assert_same_graph(canonical(parse_graph(text)), want)

    VALID = {
        "vertices": [
            {"id": "a", "m": 1, "boundary": True},
            {"id": "b", "m": 2.5, "boundary": False},
            {"id": "c", "m": 1, "boundary": True},
        ],
        "edges": [{"u": "a", "v": "b", "w": 1}, {"u": "b", "v": "c", "w": 2}],
    }

    @pytest.mark.parametrize("where, row, change, message", [
        ("vertices", 1, {"m": True}, "vertices[1]: measure must be a number, got True"),
        ("vertices", 2, {"m": "1"}, "vertices[2]: measure must be a number, got '1'"),
        ("edges", 1, {"w": False}, "edges[1]: weight must be a number, got False"),
        ("edges", 0, {"w": "2"}, "edges[0]: weight must be a number, got '2'"),
        ("vertices", 0, {"m": float("inf")}, "vertices[0]: non-positive measure inf"),
        ("edges", 1, {"w": 0}, "edges[1]: non-positive weight 0.0"),
        ("vertices", 1, {"m": -3}, "vertices[1]: non-positive measure -3.0"),
        ("vertices", 1, {"m": 10**400}, "vertices[1]: measure is too large for binary64"),
        ("edges", 0, {"w": 10**400}, "edges[0]: weight is too large for binary64"),
        ("vertices", 2, {"id": 5}, "vertices[2]: id must be a string, got 5"),
        ("edges", 1, {"v": 5}, "edges[1]: v must be a string"),
        ("vertices", 2, {"id": "a"}, "vertices[2]: duplicate vertex id 'a'"),
        ("edges", 1, {"u": "zz"}, "edges[1]: unknown vertex reference 'zz'"),
        ("edges", 0, {"v": "a"}, "edges[0]: loop at vertex 'a'"),
        ("edges", 1, {"u": "b", "v": "a"}, "edges[1]: duplicate edge 'b'-'a'"),
        ("vertices", 0, {"boundary": 1}, "vertices[0]: boundary must be true or false"),
        ("edges", 1, {"colour": "red"}, "edges[1]: unknown field 'colour'"),
    ])
    def test_malformed_documents(self, where, row, change, message):
        doc = json.loads(json.dumps(self.VALID))
        doc[where][row].update(change)
        with pytest.raises(GraphError) as exc:
            parse_graph(json.dumps(doc))
        assert str(exc.value) == message

    def test_earlier_row_wins(self):
        # a loop at edges[0] and a bad weight at edges[1]; then the same
        # faults swapped.  Each time the earlier row is reported, whatever
        # the kind of its fault.
        doc = json.loads(json.dumps(self.VALID))
        doc["edges"][0]["v"] = "a"
        doc["edges"][1]["w"] = -1
        with pytest.raises(GraphError, match=r"^edges\[0\]: loop at vertex 'a'$"):
            parse_graph(json.dumps(doc))
        doc = json.loads(json.dumps(self.VALID))
        doc["edges"][0]["w"] = -1
        doc["edges"][1]["v"] = "b"
        with pytest.raises(GraphError, match=r"^edges\[0\]: non-positive weight -1.0$"):
            parse_graph(json.dumps(doc))

    def test_vertex_rows_are_checked_before_edge_rows(self):
        # the order of the phases: row shapes, then labels, then measures,
        # then edge references, loops, repeats and weights
        doc = json.loads(json.dumps(self.VALID))
        doc["vertices"][2]["m"] = 0
        doc["edges"][0]["v"] = "a"
        with pytest.raises(GraphError, match=r"^vertices\[2\]: non-positive measure"):
            parse_graph(json.dumps(doc))
        doc["edges"][1]["u"] = 1
        with pytest.raises(GraphError, match=r"^edges\[1\]: u must be a string$"):
            parse_graph(json.dumps(doc))

    def test_graph_from_arrays_faults(self):
        with pytest.raises(GraphError, match=r"^boundary: unknown vertex reference 3$"):
            graph_from_arrays([1.0] * 3, [0, 3], [(0, 1, 1.0)])
        with pytest.raises(GraphError, match=r"^edges: unknown vertex reference in \(0, 5\)$"):
            graph_from_arrays([1.0] * 3, [0], [(0, 1, 1.0), (0, 5, 1.0)])
        with pytest.raises(GraphError, match=r"^edges\[1\]: duplicate edge 'v1'-'v0'$"):
            graph_from_arrays([1.0] * 3, [0], [(0, 1, 1.0), (1, 0, 1.0)])
        with pytest.raises(GraphError, match=r"^vertices\[1\]: non-positive measure 0.0$"):
            graph_from_arrays(np.array([1.0, 0.0]), [0], [(0, 1, 1.0)])
        with pytest.raises(GraphError, match=r"^vertices: empty vertex list$"):
            graph_from_arrays([], [], [])


class TestPinnedGenerators:
    """Digests of the generated corpora, computed before construction became
    column-wise: every generator must draw the same graphs from the same
    stream."""

    @staticmethod
    def digest(graphs) -> str:
        h = hashlib.sha256()
        for g in graphs:
            h.update(graph_to_json(g).encode())
        return h.hexdigest()

    def test_random_graph(self):
        rng = np.random.default_rng(11)

        def draws():
            for _ in range(40):
                n = int(rng.integers(2, 31))
                p = float(rng.uniform(0.2, 0.9))
                yield random_graph(n, p, (0.5, 2.0), (0.5, 2.0),
                                   int(rng.integers(1, n + 1)), rng)

        assert self.digest(draws()) == (
            "eec550ce8f70165b37b5ad5fa23ea825912952e0ac1e3d4e591e40e1a6e1f47f")

    def test_random_comb(self):
        rng = np.random.default_rng(12)
        combs = (random_comb(L, 1.5, 0.75, rng) for L in (1, 2, 5, 17, 40))
        assert self.digest(combs) == (
            "8f1a1992a6c0a6afad021c293cff6bd84d13e202c5a401290dac6a47b9822ce6")

    def test_weighted_enumeration(self):
        graphs = enumerate_small(4, np.random.default_rng(13), (0.5, 2.0), (0.5, 2.0))
        assert self.digest(graphs) == (
            "959ce438657433e42498c80bf693c1d556bb48f37a2b3460d32e0a2e0245db1c")


class TestCsr:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_matches_lexsort_reference(self, n, data):
        """Edges drawn in any orientation and order, so some vertices have
        degree 0; n = 1 is drawn too.  The arrays are bitwise the reference's."""
        pairs = [(i, j) for i in range(n) for j in range(n) if i < j]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        edges = [(j, i, 1.0) if data.draw(st.booleans()) else (i, j, 1.0) for i, j in chosen]
        g = graph_from_arrays([1.0] * n, [0], edges)
        for got, want in zip(g.csr, reference_csr(g)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        if n > 1 and not np.diff(g.csr[0]).all():  # an empty row: no BFS may read it
            with pytest.raises(DisconnectedGraphError):
                boundary_hops(g)


class TestComponents:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_labels_match_union_find(self, n, data):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        edges = data.draw(st.lists(st.sampled_from(pairs))) if pairs else []
        root = list(range(n))

        def find(a):
            while root[a] != a:
                a = root[a]
            return a

        for a, b in edges:
            root[find(a)] = find(b)
        u = np.array([a for a, _ in edges], dtype=np.intp)
        v = np.array([b for _, b in edges], dtype=np.intp)
        labels = component_labels(n, u, v)
        for a in range(n):
            same = [b for b in range(n) if find(b) == find(a)]
            assert labels[a] == min(same)

    def test_is_connected(self):
        path = graph_from_arrays([1.0] * 4, [0], [(0, 1, 1.0), (2, 1, 1.0), (2, 3, 1.0)])
        split = graph_from_arrays([1.0] * 4, [0], [(0, 1, 1.0), (2, 3, 1.0)])
        lonely = graph_from_arrays([1.0] * 3, [0], [(1, 2, 1.0)])
        assert is_connected(path)
        assert not is_connected(split) and not is_connected(lonely)
        assert is_connected(graph_from_arrays([1.0], [0], []))
