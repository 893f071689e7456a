"""Every count and size argument of the public API, over one table of odd
values: each call returns, or raises one ``GraphError`` line, within an
alarm, and with no RuntimeWarning.  A value one past an argument's cap is
refused; so are an integer too long for ``str`` and a container or graph of
the wrong kind, each with one line."""

import signal
import sys
import warnings

import pytest

from steklov import (
    CorpusSpec,
    GraphError,
    all_geodesics,
    check_instance,
    check_rigidity,
    comb_graph,
    count_exhaustive_instances,
    graph_from_arrays,
    random_comb,
    random_graph,
    verify_corpus,
)
from steklov.corpus import RANDOM_N_MAX
from steklov.rigidity import COMB_N_MAX

ALARM_S = 5
ODD_VALUES = [("-1", -1), ("0", 0), ("2.5", 2.5), ("True", True), ("'3'", "3"),
              ("None", None), ("10**400", 10**400)]
RANGE = (0.5, 2.0)
COMB = comb_graph(4, 1.0, 2.0)  # path 0-1-2-3-4, B = {0, 4}
SMALL_SPEC = CorpusSpec(mode="exhaustive", n_max=3, unit_only=True)
TOOTH = 6  # random_comb's default max_tooth_vertices


def most_path_len(max_tooth_vertices: int) -> int:
    """The longest path_len whose vertex bound, path_len + 1 + (path_len - 1)
    * max_tooth_vertices, is at most COMB_N_MAX."""
    return (COMB_N_MAX + max_tooth_vertices - 1) // (max_tooth_vertices + 1)


# (argument, call with the value in its place, its cap or None)
ARGUMENTS = [
    ("CorpusSpec-random.n_max", lambda v: CorpusSpec(mode="random", n_max=v), RANDOM_N_MAX),
    ("CorpusSpec-exhaustive.n_max", lambda v: CorpusSpec(mode="exhaustive", n_max=v), 7),
    ("CorpusSpec.samples", lambda v: CorpusSpec(mode="random", samples=v), None),
    ("CorpusSpec.seed", lambda v: CorpusSpec(mode="random", seed=v), None),
    ("verify_corpus.max_violations", lambda v: verify_corpus(SMALL_SPEC, max_violations=v),
     sys.maxsize),
    ("count_exhaustive_instances.n_max", count_exhaustive_instances, 7),
    ("random_graph.n", lambda v: random_graph(v, 0.5, RANGE, RANGE, 2, seed=0), RANDOM_N_MAX),
    ("random_graph.boundary_size", lambda v: random_graph(5, 0.5, RANGE, RANGE, v, seed=0), 5),
    ("random_graph.seed", lambda v: random_graph(5, 0.5, RANGE, RANGE, 2, seed=v), None),
    ("comb_graph.path_len", lambda v: comb_graph(v, 1.0, 2.0), COMB_N_MAX),
    ("random_comb.path_len", lambda v: random_comb(v, 1.0, 2.0, seed=0, max_tooth_vertices=TOOTH),
     most_path_len(TOOTH)),
    ("random_comb.max_tooth_vertices",
     lambda v: random_comb(4, 1.0, 2.0, seed=0, max_tooth_vertices=v), (COMB_N_MAX - 5) // 3),
    ("random_comb.seed", lambda v: random_comb(4, 1.0, 2.0, seed=v), None),
    ("all_geodesics.max_paths", lambda v: all_geodesics(COMB, 0, 4, max_paths=v), None),
    ("check_instance.rng", lambda v: check_instance(COMB, rng=v), None),
]


def cases():
    for name, call, cap in ARGUMENTS:
        values = ODD_VALUES + ([] if cap is None else [(f"{cap + 1}", cap + 1)])
        for label, value in values:
            yield pytest.param(call, value, cap, id=f"{name}={label}")


class Alarm(Exception):
    pass


def ring(signum, frame):
    raise Alarm(f"still running after {ALARM_S} s")


def refusal(call, value) -> str | None:
    """The message of the GraphError that ``call(value)`` raises, or None if
    it returns; any other exception, a RuntimeWarning or the alarm
    propagates."""
    previous = signal.signal(signal.SIGALRM, ring)
    signal.alarm(ALARM_S)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            call(value)
    except GraphError as exc:
        return str(exc)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return None


def test_most_path_len_is_the_cap():
    for tooth in (1, 2, TOOTH, 100):
        longest = most_path_len(tooth)
        assert longest + 1 + (longest - 1) * tooth <= COMB_N_MAX
        assert longest + 2 + longest * tooth > COMB_N_MAX


@pytest.mark.parametrize("call, value, cap", cases())
def test_count_and_size_arguments(call, value, cap):
    message = refusal(call, value)
    if message is not None:
        assert "\n" not in message
    if cap is not None and value == cap + 1:
        assert message is not None, "a value past the cap was taken"


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: random_comb(10**5000, 1.0, 2.0, seed=0), "the vertex bound",
                 id="random_comb.path_len=10**5000"),
    pytest.param(lambda: random_graph(10**5000, 0.5, RANGE, RANGE, 2, seed=0), "n",
                 id="random_graph.n=10**5000"),
    pytest.param(lambda: CorpusSpec(mode="random", seed=-10**5000), "seed",
                 id="CorpusSpec.seed=-10**5000"),
])
def test_integers_past_str_are_one_line(call, name):
    """An integer too long for ``str`` (4,300 digits) outside its range is
    refused by its order of magnitude."""
    message = refusal(lambda _: call(), None)
    assert message.startswith(f"{name} ") and "about " in message and "\n" not in message


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: graph_from_arrays(None, [0], [(0, 1, 1.0)]),
                 "measures must be a list of numbers, got None", id="graph_from_arrays.measures"),
    pytest.param(lambda: graph_from_arrays([1.0, 1.0], 0, [(0, 1, 1.0)]),
                 "boundary must be a list of vertex ids, got 0", id="graph_from_arrays.boundary"),
    pytest.param(lambda: graph_from_arrays([1.0, 1.0], [0], None),
                 "edges must be a list of (u, v, weight) rows, got None",
                 id="graph_from_arrays.edges"),
    pytest.param(lambda: check_rigidity(None), "g must be a WeightedBoundaryGraph, got None",
                 id="check_rigidity.g"),
    pytest.param(lambda: check_instance(None), "g must be a WeightedBoundaryGraph, got None",
                 id="check_instance.g"),
])
def test_containers_and_graphs_of_the_wrong_kind(call, message):
    assert refusal(lambda _: call(), None) == message
