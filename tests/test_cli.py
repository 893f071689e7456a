import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov import (check_instance, comb_graph, graph_from_arrays, graph_to_json, parse_graph,
                     spectral)
from steklov.cli import _build_parser, main
from conftest import unit_path
from strategies import cli_documents


@pytest.fixture
def path3_file(tmp_path, path3):
    p = tmp_path / "path3.json"
    p.write_text(graph_to_json(path3))
    return str(p)


@pytest.fixture
def c4_file(tmp_path, c4):
    p = tmp_path / "c4.json"
    p.write_text(graph_to_json(c4))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_path3(self, capsys, path3_file):
        code, out, err = run(capsys, "spectrum", path3_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["boundary"] == ["v0", "v2"]
        assert doc["eigenvalues"][0] == pytest.approx(0.0, abs=1e-12)
        assert doc["eigenvalues"][1] == pytest.approx(1.0, abs=1e-12)

    def test_empty_boundary_is_input_error(self, capsys, tmp_path, path3):
        doc = json.loads(graph_to_json(path3))
        for v in doc["vertices"]:
            v["boundary"] = False
        p = tmp_path / "nob.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "spectrum", str(p))
        assert code == 2
        assert out == ""
        assert err.startswith("steklov: ")

    def test_disconnected_is_input_error(self, capsys, tmp_path):
        text = """
        {"vertices": [{"id": "a", "m": 1, "boundary": true},
                      {"id": "b", "m": 1, "boundary": true},
                      {"id": "c", "m": 1, "boundary": false},
                      {"id": "d", "m": 1, "boundary": false}],
         "edges": [{"u": "a", "v": "b", "w": 1}, {"u": "c", "v": "d", "w": 1}]}
        """
        p = tmp_path / "disc.json"
        p.write_text(text)
        code, _, err = run(capsys, "spectrum", str(p))
        assert code == 2
        assert "not connected" in err


class TestBounds:
    def test_path3(self, capsys, path3_file):
        code, out, _ = run(capsys, "bounds", path3_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["sigma2"] == pytest.approx(1.0, abs=1e-12)
        assert doc["bound_extended"] == 1.0
        assert doc["dB"] == 2


class TestRigidity:
    def test_c4_not_certified_still_exit_zero(self, capsys, c4_file):
        code, out, _ = run(capsys, "rigidity", c4_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["certified_equality"] is False
        assert doc["equality"] is False

    def test_path3_certified(self, capsys, path3_file):
        code, out, _ = run(capsys, "rigidity", path3_file, "--tol", "1e-8")
        doc = json.loads(out)
        assert code == 0
        assert doc["certified_equality"] is True
        assert doc["witness"]["vertices"] == ["v0", "v1", "v2"]

    def test_weight_tol_flag(self, capsys, tmp_path):
        text = """
        {"vertices": [{"id": "a", "m": 1, "boundary": true},
                      {"id": "b", "m": 1, "boundary": false},
                      {"id": "c", "m": 1, "boundary": true}],
         "edges": [{"u": "a", "v": "b", "w": 1},
                   {"u": "b", "v": "c", "w": 1.000000000001}]}
        """
        p = tmp_path / "near.json"
        p.write_text(text)
        code, out, _ = run(capsys, "rigidity", str(p))
        assert json.loads(out)["certified_equality"] is False
        code, out, _ = run(capsys, "rigidity", str(p), "--weight-tol", "1e-9")
        assert json.loads(out)["certified_equality"] is True

    @pytest.mark.parametrize("flag", ["--tol", "--weight-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_tolerance_exits_2(self, capsys, path3_file, flag, value):
        code, out, err = run(capsys, "rigidity", path3_file, flag, value)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "must be finite and nonnegative" in err


class TestHarmonic:
    def test_path3_midpoint(self, capsys, tmp_path, path3_file):
        values = tmp_path / "values.json"
        values.write_text('{"v0": 0, "v2": 1}')
        code, out, _ = run(capsys, "harmonic", path3_file, "--values", str(values))
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["v0", "v1", "v2"]
        assert doc["v0"] == 0.0 and doc["v2"] == 1.0
        assert doc["v1"] == pytest.approx(0.5, abs=1e-12)

    def test_wrong_domain(self, capsys, tmp_path, path3_file):
        values = tmp_path / "values.json"
        values.write_text('{"v0": 0, "v1": 1}')
        code, _, err = run(capsys, "harmonic", path3_file, "--values", str(values))
        assert code == 2
        assert "domain" in err

    def test_unknown_label(self, capsys, tmp_path, path3_file):
        values = tmp_path / "values.json"
        values.write_text('{"v0": 0, "zz": 1}')
        code, _, err = run(capsys, "harmonic", path3_file, "--values", str(values))
        assert code == 2
        assert "unknown vertex" in err


class TestGenerateComb:
    def test_random_teeth_roundtrip(self, capsys):
        code, out, err = run(
            capsys, "generate-comb", "--path-len", "4", "--path-weight", "1.5",
            "--endpoint-mass", "2.0", "--seed", "11",
        )
        assert code == 0
        assert "seed=11" in err
        g = parse_graph(out)
        assert len(g.boundary) == 2

    def test_deterministic_output(self, capsys):
        argv = ["generate-comb", "--path-len", "3", "--path-weight", "1.0",
                "--endpoint-mass", "1.0", "--seed", "5"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_explicit_teeth(self, capsys, tmp_path, star):
        teeth = tmp_path / "teeth.json"
        teeth.write_text(json.dumps({
            "vertices": [{"id": "t", "m": 1}],
            "edges": [],
            "attachments": [{"v": "t", "path_index": 1, "w": 1}],
        }))
        code, out, err = run(
            capsys, "generate-comb", "--path-len", "2", "--path-weight", "1",
            "--endpoint-mass", "1", "--teeth", str(teeth),
        )
        assert code == 0
        assert "seed" not in err
        assert parse_graph(out) == star

    def test_bad_teeth_exit_2(self, capsys, tmp_path):
        teeth = tmp_path / "teeth.json"
        teeth.write_text(json.dumps({
            "vertices": [{"id": "t", "m": 1}],
            "attachments": [{"v": "t", "path_index": 1, "w": 0.25}],
        }))
        code, _, err = run(
            capsys, "generate-comb", "--path-len", "2", "--path-weight", "1",
            "--endpoint-mass", "1", "--teeth", str(teeth),
        )
        assert code == 2
        assert "below path weight" in err

    def test_tooth_touching_two_path_vertices(self, capsys, tmp_path):
        teeth = tmp_path / "teeth.json"
        teeth.write_text(json.dumps({
            "vertices": [{"id": "s", "m": 1}, {"id": "t", "m": 1}],
            "edges": [{"u": "s", "v": "t", "w": 2}],
            "attachments": [{"v": "s", "path_index": 1, "w": 2},
                             {"v": "t", "path_index": 2, "w": 2}],
        }))
        code, _, err = run(
            capsys, "generate-comb", "--path-len", "3", "--path-weight", "1",
            "--endpoint-mass", "1", "--teeth", str(teeth),
        )
        assert code == 2
        assert "touches two path vertices" in err

    @pytest.mark.parametrize("teeth, message", [
        ({"vertices": [{"id": ["t"], "m": 1}]},
         "teeth file: vertices[0]: id must be a string"),
        ({"vertices": [{"id": "t", "m": 1}],
          "attachments": [{"v": {"id": "t"}, "path_index": 1, "w": 2}]},
         "teeth file: attachments[0]: unknown tooth vertex {'id': 't'}"),
        ({"vertices": [{"id": "t", "m": 1}], "edges": None},
         "teeth file: edges must be an array"),
        ({"vertices": 3}, "teeth file: vertices must be an array"),
        # non-positive tooth values are named at their row of the teeth file
        ({"vertices": [{"id": "t", "m": 0}],
          "attachments": [{"v": "t", "path_index": 1, "w": 2}]},
         "teeth file: vertices[0]: non-positive measure 0.0"),
        ({"vertices": [{"id": "s", "m": 1}, {"id": "t", "m": 1}],
          "edges": [{"u": "s", "v": "t", "w": -1}],
          "attachments": [{"v": "s", "path_index": 1, "w": 2}]},
         "teeth file: edges[0]: non-positive weight -1.0"),
        ({"vertices": [{"id": "t", "m": 1}],
          "attachments": [{"v": "t", "path_index": 1, "w": 2, "x": 0}]},
         "teeth file: attachments[0]: unknown field 'x'"),
        ({"vertices": [{"id": "t", "m": 1}, {"id": "t", "m": 2}]},
         "teeth file: duplicate tooth vertex 't'"),
    ])
    def test_malformed_teeth_exit_2(self, capsys, tmp_path, teeth, message):
        p = tmp_path / "teeth.json"
        p.write_text(json.dumps(teeth))
        code, out, err = run(
            capsys, "generate-comb", "--path-len", "2", "--path-weight", "1",
            "--endpoint-mass", "1", "--teeth", str(p),
        )
        assert (code, out) == (2, "")
        assert err.strip().splitlines() == [f"steklov: {message}"]

    @pytest.mark.parametrize("flag, value, message", [
        ("--path-weight", "-1", "path weight must be positive and finite, got -1.0"),
        ("--path-weight", "nan", "path weight must be positive and finite, got nan"),
        ("--path-weight", "inf", "path weight must be positive and finite, got inf"),
        ("--path-weight", "1e308",
         "weight_factor * path weight must be positive and finite, got inf"),
        ("--endpoint-mass", "nan", "endpoint mass must be positive and finite, got nan"),
        ("--endpoint-mass", "0", "endpoint mass must be positive and finite, got 0.0"),
    ])
    def test_bad_random_comb_values_exit_2(self, capsys, flag, value, message):
        values = {"--path-weight": "1", "--endpoint-mass": "1", flag: value}
        code, out, err = run(
            capsys, "generate-comb", "--path-len", "3",
            "--path-weight", values["--path-weight"],
            "--endpoint-mass", values["--endpoint-mass"],
        )
        assert (code, out) == (2, "")
        assert err.strip().splitlines() == [f"steklov: {message}"]

    def test_nan_path_weight_with_teeth_exit_2(self, capsys, tmp_path):
        teeth = tmp_path / "teeth.json"
        teeth.write_text(json.dumps({"vertices": [{"id": "t", "m": 1}], "attachments": [
            {"v": "t", "path_index": 1, "w": 1}]}))
        code, out, err = run(
            capsys, "generate-comb", "--path-len", "2", "--path-weight", "nan",
            "--endpoint-mass", "1", "--teeth", str(teeth),
        )
        assert (code, out) == (2, "")
        assert err.strip().splitlines() == [
            "steklov: path weight must be positive and finite, got nan"]


class TestVerify:
    def test_exhaustive_clean_run(self, capsys):
        code, out, err = run(
            capsys, "verify", "--mode", "exhaustive", "--n-max", "4", "--unit-only"
        )
        assert code == 0
        assert out == ""  # no violation lines
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["violations"] == 0
        assert summary["instances"] == 435
        assert summary["seed"] == 0

    @pytest.mark.parametrize("unit", [True, False], ids=["unit", "weighted"])
    def test_exhaustive_summary_counts_class_rows(self, capsys, unit):
        """Beside the 435 labeled instances with n <= 4, the summary gives
        the 1 + 5 + 33 class rows the run verified; stdout stays empty."""
        code, out, err = run(capsys, "verify", "--mode", "exhaustive", "--n-max", "4",
                             *(["--unit-only"] if unit else []))
        assert (code, out) == (0, "")
        summary = json.loads(err.strip().splitlines()[-1])
        assert (summary["instances"], summary["class_rows"]) == (435, 39)

    def test_random_clean_run(self, capsys):
        code, out, err = run(
            capsys, "verify", "--mode", "random", "--n-max", "8",
            "--samples", "50", "--seed", "4",
        )
        assert code == 0
        assert out == ""
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["instances"] == 50

    def test_violations_exit_1_and_jsonl(self, capsys, monkeypatch):
        import steklov.cli as cli
        from steklov.corpus import ViolationRecord

        fake = [ViolationRecord(index=7, check="bound_extended_holds",
                                graph={"vertices": [], "edges": []},
                                details={"sigma2": 1.0})]
        monkeypatch.setattr(cli, "iter_violations", lambda spec: iter(fake))
        code, out, err = run(
            capsys, "verify", "--mode", "exhaustive", "--n-max", "4", "--unit-only"
        )
        assert code == 1
        lines = out.strip().splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["index"] == 7 and doc["check"] == "bound_extended_holds"
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["violations"] == 1

    def test_records_are_printed_as_found(self, monkeypatch):
        """Each record reaches stdout, flushed, before the next is found."""
        import steklov.cli as cli
        from steklov.corpus import ViolationRecord

        raw = io.BytesIO()  # holds only what ``out`` flushed
        out = io.TextIOWrapper(raw, encoding="utf-8")
        records = [ViolationRecord(index=i, check="bound_extended_holds",
                                   graph={"vertices": [], "edges": []}) for i in (3, 7)]
        lines = [json.dumps(r.to_json_dict()) for r in records]

        def fake(spec):
            yield records[0]
            assert raw.getvalue().decode().splitlines() == lines[:1]
            yield records[1]

        monkeypatch.setattr(cli, "iter_violations", fake)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", "--mode", "exhaustive", "--n-max", "4", "--unit-only"])
        assert code == 1
        assert raw.getvalue().decode().splitlines() == lines

    def test_random_n_max_above_cap_exit_2(self, capsys, monkeypatch):
        from steklov import corpus

        def no_pairs(n):
            raise AssertionError(f"built the vertex pairs of n = {n}")

        monkeypatch.setattr(corpus, "_pair_arrays", no_pairs)
        code, out, err = run(
            capsys, "verify", "--mode", "random", "--n-max", "100000", "--samples", "1"
        )
        assert (code, out) == (2, "")
        assert err.strip().splitlines() == [
            f"steklov: random mode requires 2 <= n_max <= {corpus.RANDOM_N_MAX}"]


@pytest.mark.parametrize("argv", [
    ["verify", "--mode", "random", "--seed", "-1"],
    ["verify", "--mode", "exhaustive", "--n-max", "3", "--seed", "-1"],
    ["verify", "--mode", "exhaustive", "--n-max", "3", "--unit-only", "--seed", "-1"],
    ["generate-comb", "--path-len", "3", "--path-weight", "1", "--endpoint-mass", "1",
     "--seed", "-1"],
], ids=["random", "weighted-exhaustive", "unit-exhaustive", "generate-comb"])
def test_negative_seed_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.strip().splitlines() == ["steklov: seed must be nonnegative, got -1"]


@pytest.mark.parametrize("argv, message", [
    (["generate-comb", "--path-len", "1000000", "--path-weight", "1", "--endpoint-mass", "2"],
     "the vertex bound path_len + 1 + (path_len - 1) * max_tooth_vertices must be <= 1000000, "
     "got 6999995"),
    (["generate-comb", "--path-len", "100000000000000000000", "--path-weight", "1",
      "--endpoint-mass", "2"],
     "the vertex bound path_len + 1 + (path_len - 1) * max_tooth_vertices must be <= 1000000, "
     "got 699999999999999999995"),
    (["verify", "--mode", "random", "--samples", "-1"], "samples must be nonnegative, got -1"),
], ids=["comb-at-1e6", "comb-at-1e20", "negative-samples"])
def test_counts_out_of_range_exit_2(capsys, argv, message):
    """A count past its range exits 2 with one line naming it, before any
    work: a comb past COMB_N_MAX vertices is refused, not built."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.strip().splitlines() == [f"steklov: {message}"]


class TestErrors:
    def test_unknown_flag_exits_2(self, capsys, path3_file):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", path3_file, "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explode"])
        assert exc.value.code == 2

    def test_unreadable_file(self, capsys):
        code, _, err = run(capsys, "spectrum", "/nonexistent/graph.json")
        assert code == 2
        assert err.startswith("steklov: ")

    def test_schema_violation(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"vertices": [], "edges": [], "junk": 1}')
        code, _, err = run(capsys, "spectrum", str(p))
        assert code == 2
        assert "unknown field" in err

    def test_stdout_stays_clean_on_errors(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{")
        code, out, err = run(capsys, "bounds", str(p))
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("command", ["spectrum", "bounds", "rigidity"])
    def test_factorization_failure_exits_2(self, capsys, monkeypatch, path3_file,
                                           command):
        """A Cholesky gate that fails on a one-block interior is one line and
        exit 2."""
        import numpy as np

        calls = []

        def failing_cholesky(a):
            calls.append(a.shape)
            raise np.linalg.LinAlgError("leading minor not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
        code, out, err = run(capsys, command, path3_file)
        assert calls == [(1, 1)]  # the one interior block, b
        assert code == 2
        assert out == ""
        assert err.startswith("steklov: ") and "factorization failed" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.fixture
    def long_path_file(self, tmp_path):
        """A bare path whose interior is cut into level blocks."""
        g = comb_graph(path_len=spectral.LEVEL_INTERIOR_MIN + 1, path_weight=1.0,
                       endpoint_mass=1.0)
        assert len(spectral.interior_blocks(g).cuts) > 3
        p = tmp_path / "long_path.json"
        p.write_text(graph_to_json(g))
        return str(p)

    @pytest.mark.parametrize("fault", ["singular", "pivot"])
    @pytest.mark.parametrize("command", ["spectrum", "bounds", "rigidity"])
    def test_sparse_factorization_failure_exits_2(self, capsys, monkeypatch,
                                                  long_path_file, command, fault):
        """The Cholesky gate failing on the second block of a multi-block
        interior, by raising or on a block with a zero pivot, is one line and
        exit 2, as on a one-block interior."""
        import numpy as np

        original = np.linalg.cholesky
        calls = []

        def faulty_cholesky(a):
            calls.append(a.shape)
            if len(calls) == 1:
                return original(a)
            if fault == "singular":
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            a = a.copy()
            a[-1, -1] = 0.0
            return original(a)

        monkeypatch.setattr(np.linalg, "cholesky", faulty_cholesky)
        code, out, err = run(capsys, command, long_path_file)
        assert len(calls) == 2
        assert (code, out) == (2, "")
        assert err.startswith("steklov: interior block factorization failed: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


def test_one_parser_answers_like_fresh_parsers(capsys, path3_file, c4_file):
    """The parser is built once per process; a usage error after a
    successful call, and different commands back to back, give the exit
    codes and output that a fresh parser gives."""
    calls = [["spectrum", path3_file], ["spectrum", path3_file, "--frobnicate"],
             ["bounds", c4_file], ["rigidity", path3_file, "--tol", "1e-6"],
             ["harmonic", path3_file], ["spectrum", c4_file]]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(outcome(argv))
    _build_parser.cache_clear()
    assert [outcome(argv) for argv in calls] == fresh
    assert _build_parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0, 2, 0]


class TestLongGeodesic:
    def test_rigidity_on_1500_edge_comb(self, capsys, tmp_path):
        g = comb_graph(path_len=1500, path_weight=1.0, endpoint_mass=1.0)
        p = tmp_path / "comb1500.json"
        p.write_text(graph_to_json(g))
        code, out, err = run(capsys, "rigidity", str(p))
        assert code == 0, err
        doc = json.loads(out)
        assert doc["certified_equality"] is True
        assert doc["equality"] is True
        assert len(doc["witness"]["vertices"]) == 1501


class TestNumbersOutOfRange:
    """Integers beyond binary64 and non-finite values end in exit 2 with one
    line, not a traceback."""

    HUGE = 10**400

    @staticmethod
    def assert_one_line_exit_2(code, out, err, *fragments):
        assert code == 2
        assert out == ""
        assert err.startswith("steklov: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        for fragment in fragments:
            assert fragment in err

    @pytest.mark.parametrize("row, field, where", [
        ("vertices", "m", "vertices[1]: measure"),
        ("edges", "w", "edges[0]: weight"),
    ])
    def test_graph_file(self, capsys, tmp_path, path3, row, field, where):
        doc = json.loads(graph_to_json(path3))
        doc[row][1 if row == "vertices" else 0][field] = self.HUGE
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        for command in ("spectrum", "bounds", "rigidity"):
            self.assert_one_line_exit_2(*run(capsys, command, str(p)),
                                        where, "too large for binary64")

    def test_values_file(self, capsys, tmp_path, path3_file):
        values = tmp_path / "values.json"
        values.write_text(json.dumps({"v0": 0, "v2": self.HUGE}))
        self.assert_one_line_exit_2(
            *run(capsys, "harmonic", path3_file, "--values", str(values)),
            "values file: value for 'v2' is too large for binary64",
        )

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_value(self, capsys, tmp_path, path3_file, token):
        values = tmp_path / "values.json"
        values.write_text('{"v0": 0, "v2": ' + token + "}")
        self.assert_one_line_exit_2(
            *run(capsys, "harmonic", path3_file, "--values", str(values)),
            "values file: value for 'v2' must be finite",
        )

    def test_integer_too_long_to_read(self, capsys, tmp_path, path3_file):
        # Python refuses to read integers of more than 4300 digits
        values = tmp_path / "values.json"
        values.write_text('{"v0": 0, "v2": ' + "9" * 5000 + "}")
        self.assert_one_line_exit_2(
            *run(capsys, "harmonic", path3_file, "--values", str(values)),
            "values file: malformed JSON",
        )
        graph = tmp_path / "graph.json"
        graph.write_text('{"vertices": [{"id": "a", "m": ' + "9" * 5000
                         + ', "boundary": true}], "edges": []}')
        self.assert_one_line_exit_2(*run(capsys, "spectrum", str(graph)),
                                    "malformed JSON")

    @pytest.mark.parametrize("teeth, where", [
        ({"vertices": [{"id": "t", "m": HUGE}],
          "attachments": [{"v": "t", "path_index": 1, "w": 2}]},
         "teeth file: vertices[0]: m"),
        ({"vertices": [{"id": "s", "m": 1}, {"id": "t", "m": 1}],
          "edges": [{"u": "s", "v": "t", "w": HUGE}],
          "attachments": [{"v": "s", "path_index": 1, "w": 2}]},
         "teeth file: edges[0]: w"),
        ({"vertices": [{"id": "t", "m": 1}],
          "attachments": [{"v": "t", "path_index": 1, "w": -HUGE}]},
         "teeth file: attachments[0]: w"),
    ])
    def test_teeth_file(self, capsys, tmp_path, teeth, where):
        p = tmp_path / "teeth.json"
        p.write_text(json.dumps(teeth))
        self.assert_one_line_exit_2(
            *run(capsys, "generate-comb", "--path-len", "2", "--path-weight", "1",
                 "--endpoint-mass", "1", "--teeth", str(p)),
            where, "too large for binary64",
        )

    @pytest.mark.parametrize("m, w, commands, message", [
        (1.0, 1e308, ("spectrum", "bounds", "rigidity"),
         "weighted degree of vertex 'b' is not finite"),
        (1e308, 1.0, ("bounds", "rigidity"), "VB = inf is out of binary64 range"),
        (1e-308, 1.0, ("bounds", "rigidity"),
         "(V_B - m0)^2 = 0.0 is out of binary64 range"),
        (5e-324, 1.0, ("spectrum", "bounds", "rigidity"),
         "mass-reduced Steklov matrix is not finite"),
        (1e200, 1.0, ("bounds", "rigidity"),
         "(V_B - m0)^2 = inf is out of binary64 range"),
    ])
    def test_values_beyond_binary64(self, capsys, tmp_path, m, w, commands, message):
        """On the path a-b-c with B = {a, c}, every measure m and every
        weight w: a weighted degree, V_B or (V_B - m0)^2 that binary64
        cannot hold is exit 2, not a traceback or "inf" with exit 0."""
        doc = {"vertices": [{"id": v, "m": m, "boundary": v != "b"} for v in "abc"],
               "edges": [{"u": "a", "v": "b", "w": w}, {"u": "b", "v": "c", "w": w}]}
        p = tmp_path / "graph.json"
        p.write_text(json.dumps(doc))
        for command in commands:
            self.assert_one_line_exit_2(*run(capsys, command, str(p)), message)

    @pytest.mark.parametrize("side", [4, 16])
    def test_subnormal_weights_exit_2(self, capsys, tmp_path, side):
        """Every weight 5e-324 on a side x side grid whose boundary is two
        opposite corners: the Cholesky gate passes on the subnormal blocks,
        but their solves are not finite, so every command, harmonic included,
        is one line and exit 2 (one interior block at side 4, level blocks at
        side 16)."""
        vid = lambda i, j: i * side + j  # noqa: E731
        edges = [(vid(i, j), vid(i, j + 1)) for i in range(side) for j in range(side - 1)]
        edges += [(vid(i, j), vid(i + 1, j)) for i in range(side - 1) for j in range(side)]
        g = graph_from_arrays([1.0] * side**2, [0, side**2 - 1],
                              [(a, b, 5e-324) for a, b in edges])
        graph, values = tmp_path / "graph.json", tmp_path / "values.json"
        graph.write_text(graph_to_json(g))
        values.write_text(json.dumps({g.labels[0]: 1.0, g.labels[-1]: -1.0}))
        for argv in (["spectrum", str(graph)], ["bounds", str(graph)],
                     ["rigidity", str(graph)],
                     ["harmonic", str(graph), "--values", str(values)]):
            self.assert_one_line_exit_2(*run(capsys, *argv),
                                        "interior block factorization failed: ", "not finite")

    def test_harmonic_right_hand_side_beyond_binary64(self, capsys, tmp_path):
        """Weights 6e307 on the path a-b-c keep every degree finite, but the
        boundary values 4 and 0 make L_OB f overflow."""
        doc = {"vertices": [{"id": v, "m": 1, "boundary": v != "b"} for v in "abc"],
               "edges": [{"u": "a", "v": "b", "w": 6e307}, {"u": "b", "v": "c", "w": 6e307}]}
        graph, values = tmp_path / "graph.json", tmp_path / "values.json"
        graph.write_text(json.dumps(doc))
        values.write_text(json.dumps({"a": 4, "c": 0}))
        self.assert_one_line_exit_2(
            *run(capsys, "harmonic", str(graph), "--values", str(values)),
            "interior right-hand side L_OB f is not finite")


@pytest.mark.parametrize("check, tolerance", [
    ("schur_symmetry", "SYMMETRY_TOL"),
    ("kernel_constants", "KERNEL_TOL"),
    ("psd", "PSD_TOL"),
    ("sigma1_zero", "SIGMA1_TOL"),
])
def test_failed_operator_row_is_named_by_both_engines(capsys, monkeypatch, path3, path3_file,
                                                      check, tolerance):
    """With its tolerance at -1 an invariant row of the Steklov matrix fails
    on any graph: the per-graph route exits 2 with one line naming it, and the
    corpus kernel reports it, so both read the one table."""
    monkeypatch.setattr(spectral, tolerance, -1.0)
    code, out, err = run(capsys, "bounds", path3_file)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"steklov: Steklov matrix fails {check}: ")
    assert check in [name for name, _ in check_instance(path3)]


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning is a second line
@settings(max_examples=300, deadline=None, derandomize=True)
@given(cli_documents(), st.sampled_from(["spectrum", "bounds", "rigidity", "harmonic"]))
def test_every_document_ends_in_json_or_one_line(docs, command):
    """Valid graphs with values anywhere in binary64, and documents with
    malformed values: exit 0 with strict JSON, or exit 2 with one line."""
    doc, values = docs
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp, "graph.json")
        graph.write_text(json.dumps(doc))
        argv = [command, str(graph)]
        if command == "harmonic":
            argv += ["--values", str(Path(tmp, "values.json"))]
            Path(argv[-1]).write_text(json.dumps(values))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert (code, out.getvalue()) == (2, "")
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("steklov: ")
