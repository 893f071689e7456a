"""Hypothesis strategies for randomly structured connected graphs."""

from hypothesis import strategies as st

from steklov import graph_from_arrays

positive = st.floats(0.5, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def connected_graphs(draw, min_n=2, max_n=8, min_boundary=0, unit=False):
    """Connected graph: random spanning tree plus a subset of extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        edges.add((parent, v))
    non_tree = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges
    ]
    if non_tree:
        edges |= set(
            draw(st.lists(st.sampled_from(non_tree), unique=True, max_size=len(non_tree)))
        )
    edges = sorted(edges)
    if unit:
        weights = [1.0] * len(edges)
        measures = [1.0] * n
    else:
        weights = [draw(positive) for _ in edges]
        measures = [draw(positive) for _ in range(n)]
    boundary = sorted(
        draw(
            st.sets(st.integers(0, n - 1), min_size=min(min_boundary, n), max_size=n)
        )
    )
    return graph_from_arrays(
        measures=measures,
        boundary=boundary,
        edges=[(u, v, w) for (u, v), w in zip(edges, weights)],
    )


# Finite positive binary64 values, subnormals included.
binary64 = st.floats(5e-324, 1e308, allow_subnormal=True)
# JSON values that no field of a graph document may hold.
malformed = st.one_of(st.booleans(), st.none(), st.just(float("nan")),
                      st.integers(10**309, 10**400), st.just("1"))


@st.composite
def cli_documents(draw, max_n=5):
    """A graph JSON document and a values document for ``harmonic``.

    The graph is a labelled tree plus extra edges with values anywhere in
    binary64; up to three corruptions then put a malformed value into a
    field, add an unknown field or point an edge or a value at no vertex.
    """
    n = draw(st.integers(1, max_n))
    labels = [f"v{i}" for i in range(n)]
    vertices = [{"id": label, "m": draw(binary64), "boundary": draw(st.booleans())}
                for label in labels]
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 1:
        extra = st.sampled_from([(u, v) for v in range(n) for u in range(v)])
        pairs |= set(draw(st.lists(extra, max_size=3)))
    edges = [{"u": labels[u], "v": labels[v], "w": draw(binary64)} for u, v in sorted(pairs)]
    doc = {"vertices": vertices, "edges": edges}
    values = {row["id"]: draw(st.floats(-1e308, 1e308)) for row in vertices if row["boundary"]}
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["value", "field", "reference", "values"]))
        row = draw(st.sampled_from(vertices + edges))
        if kind == "value":
            row[draw(st.sampled_from(sorted(row)))] = draw(malformed)
        elif kind == "field":
            draw(st.sampled_from([row, doc]))["junk"] = 1
        elif kind == "reference":
            row["v" if "v" in row else "id"] = "nowhere"
        else:
            values[draw(st.sampled_from([*values, "nowhere"]))] = draw(malformed)
    return doc, values
