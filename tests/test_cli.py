import json

import pytest

from steklov import comb_graph, graph_to_json, parse_graph
from steklov.cli import main
from conftest import unit_path


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
        monkeypatch.setattr(cli, "verify_corpus", lambda spec: fake)
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
        import numpy as np
        import steklov.spectral

        def failing_cho_factor(*args, **kwargs):
            raise np.linalg.LinAlgError("leading minor not positive definite")

        monkeypatch.setattr(steklov.spectral, "cho_factor", failing_cho_factor)
        code, out, err = run(capsys, command, path3_file)
        assert code == 2
        assert out == ""
        assert err.startswith("steklov: ") and "factorization failed" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


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
