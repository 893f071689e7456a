"""Neither importing steklov nor any analysis command loads scipy.

Each check runs in a fresh interpreter, since the test process itself has
scipy loaded by the references.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steklov.cli
from steklov import (ToothSet, comb_graph, graph_from_arrays, graph_to_json, random_comb,
                     random_graph)
from test_spectral import weighted_grid

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


def test_dense_route_loads_no_scipy(tmp_path, capsys):
    """A one-block interior answers as in process, and loads no scipy."""
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
    assert json.loads(loaded) == [False, False]


@pytest.mark.parametrize("build", [
    lambda rng: weighted_grid(30, rng),
    lambda rng: random_comb(200, 1.0, 2.0, seed=rng, weight_factor=1e6),
    lambda rng: random_graph(400, 0.04, (0.5, 2.0), (0.5, 2.0), 300, rng),
], ids=["grid30", "heavy_tooth_comb", "random400"])
def test_analysis_commands_load_no_scipy(tmp_path, build):
    """spectrum, bounds, rigidity and harmonic, each run in one fresh
    interpreter, exit 0 and leave no scipy module loaded after any of them:
    the interior is eliminated and d_B and the geodesic rows found by numpy
    and the standard library alone."""
    g = build(np.random.default_rng(3))
    path, values = tmp_path / "g.json", tmp_path / "values.json"
    path.write_text(graph_to_json(g))
    values.write_text(json.dumps({g.labels[b]: float(i) for i, b in enumerate(g.boundary)}))
    calls = [["spectrum", str(path)], ["bounds", str(path)], ["rigidity", str(path)],
             ["harmonic", str(path), "--values", str(values)]]
    out = run_fresh(f"""
import contextlib, io, json, sys
import steklov.cli
loaded = []
for argv in {calls!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert steklov.cli.main(argv) == 0, argv
    loaded.append(sorted(name for name in sys.modules
                         if name == "scipy" or name.startswith("scipy.")))
print(json.dumps(loaded))
""")
    assert json.loads(out) == [[], [], [], []]


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
