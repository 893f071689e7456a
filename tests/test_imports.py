"""Importing steklov loads no scipy; only the dense per-graph route does.

Each check runs in a fresh interpreter, since the test process itself has
scipy loaded by the references.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import steklov.cli
from steklov import ToothSet, comb_graph, graph_from_arrays, graph_to_json

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run by ``python -c`` with ``src`` first
    on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_corpus_routes_load_no_scipy():
    out = run_fresh("""
import sys
import steklov, steklov.cli
from steklov import CorpusSpec, check_instance, random_graph, verify_corpus
for spec in (CorpusSpec(mode="random", n_max=30, samples=200),
             CorpusSpec(mode="random", n_max=8, samples=200, unit_only=True),
             CorpusSpec(mode="exhaustive", n_max=4),
             CorpusSpec(mode="exhaustive", n_max=5, unit_only=True)):
    assert verify_corpus(spec) == [], spec
assert check_instance(random_graph(12, 0.4, (0.5, 2.0), (0.5, 2.0), 3, seed=0)) == []
print(sorted(name for name in sys.modules if name.startswith("scipy")))
""")
    assert out.strip() == "[]"


def test_dense_route_loads_scipy_linalg_on_first_use(tmp_path, capsys):
    path = tmp_path / "comb.json"
    path.write_text(graph_to_json(comb_graph(path_len=6, path_weight=1.0, endpoint_mass=2.0)))
    assert steklov.cli.main(["bounds", str(path)]) == 0
    expected = json.loads(capsys.readouterr().out)
    out = run_fresh(f"""
import json, sys
import steklov.cli
before = "scipy.linalg" in sys.modules
assert steklov.cli.main(["bounds", {str(path)!r}]) == 0
print(json.dumps([before, "scipy.linalg" in sys.modules]))
""")
    *answer, loaded = out.strip().splitlines()
    assert json.loads("\n".join(answer)) == expected
    assert json.loads(loaded) == [False, True]


# a two-vertex tree tooth hung from a boundary vertex: pruning removes it all
TREE_TOOTH = ToothSet(measures=(1.0, 3.0), edges=((0, 1, 2.0),), attachments=((0, 0, 1.5),))


@pytest.mark.parametrize("g", [
    graph_from_arrays([1.0, 2.0], [0, 1], [(0, 1, 1.5)]),
    comb_graph(1, 1.0, 2.0, teeth=TREE_TOOTH),
], ids=["K2", "comb-with-a-pruned-tooth"])
def test_empty_interior_loads_no_scipy(tmp_path, capsys, g):
    """With no interior left after pruning, the interior solve is the
    zero-size one: spectrum, bounds and harmonic answer as in process and
    load no scipy."""
    path, values = tmp_path / "g.json", tmp_path / "values.json"
    path.write_text(graph_to_json(g))
    values.write_text(json.dumps({g.labels[b]: float(i) for i, b in enumerate(g.boundary)}))
    calls = [["spectrum", str(path)], ["bounds", str(path)],
             ["harmonic", str(path), "--values", str(values)]]
    expected = []
    for argv in calls:
        assert steklov.cli.main(argv) == 0
        expected.append(json.loads(capsys.readouterr().out))
    out = run_fresh(f"""
import contextlib, io, json, sys
import steklov.cli
answers = []
for argv in {calls!r}:
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        assert steklov.cli.main(argv) == 0
    answers.append(json.loads(buf.getvalue()))
print(json.dumps([answers, sorted(name for name in sys.modules if name.startswith("scipy"))]))
""")
    answers, scipy_modules = json.loads(out)
    assert answers == expected
    assert scipy_modules == []
