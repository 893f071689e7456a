"""The benchmark's tracer finds every name it wraps, and puts each back.

``perfbench/tracing.py`` looks up its traced functions by name, so removing
or renaming one of them breaks every traced benchmark run.  This test loads
the tracer from its file and runs one CLI command under it.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import steklov.cli
from steklov import comb_graph, graph_to_json

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_functions(tracing) -> dict:
    """``(module, name) -> function`` of every name the tracer wraps."""
    out = {}
    for spec in tracing.LAYERS.values():
        if spec is not None:
            module = importlib.import_module(spec[0])
            out.update({(module, fn): getattr(module, fn) for fn in spec[1]})
    for fn, source in tracing.KERNEL_SOURCES.items():
        module = importlib.import_module(source)
        out[(module, fn)] = getattr(module, fn)
    return out


def test_traced_cli_run_and_restore(tmp_path, capsys):
    tracing = load_tracing()
    originals = traced_functions(tracing)
    p = tmp_path / "comb.json"
    p.write_text(graph_to_json(comb_graph(path_len=6, path_weight=1.0, endpoint_mass=2.0)))
    with tracing.Tracer() as tracer:
        assert steklov.cli.main(["bounds", str(p)]) == 0
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["bounds.bound_report"] >= 1
    assert json.loads(capsys.readouterr().out)["bound_extended"] > 0
    for (module, fn), original in originals.items():
        assert getattr(module, fn) is original, f"{module.__name__}.{fn}"
