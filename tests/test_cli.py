"""End-to-end command-line runs plus in-process report/render checks."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from quadladder import cli
from quadladder.cli import render_text, run_report
from quadladder.errors import NotQuadraticError, ValidationError

CMD = [sys.executable, "-m", "quadladder.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["QUADLADDER_NO_COLOR"] = "1"
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=env)


class TestJsonReports:
    def test_byte_identical_runs(self):
        args = ("--bateman", "b=1", "--ladder-states", "2", "--format", "json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.endswith("\n")

    def test_report_content(self):
        result = run_cli("--bateman", "b=1/2", "--format", "json")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["schema"] == "quadladder.report/1"
        assert doc["model"]["kind"] == "bateman"
        assert doc["model"]["b"] == [1, 2]
        assert doc["adjoint_matrix"]["dim"] == 4
        assert [lad["text"] for lad in doc["ladders"]["ladders"]] == [
            "x - y + i*px + i*py",
            "x + y + i*px - i*py",
            "x - y - i*px - i*py",
            "x + y - i*px + i*py",
        ]
        assert doc["families"] is None

    def test_families_section(self):
        result = run_cli("--bateman", "b=1", "--ladder-states", "1",
                         "--format", "json")
        doc = json.loads(result.stdout)
        fams = doc["families"]
        assert [f["family"] for f in fams] == ["vacuum0", "vacuum1"]
        assert fams[0]["vacuum_energy_exact"] == [1, 1, 0, 1]
        assert fams[1]["vacuum_energy_exact"] == [-1, 1, 0, 1]
        assert len(fams[0]["states"]) == 4
        assert len(fams[0]["annihilated_by"]) == 2
        energies = {(s["n"], s["m"]): s["energy_exact"] for s in fams[0]["states"]}
        assert energies[(1, 1)] == [3, 1, 0, 1]
        assert energies[(0, 1)] == [2, 1, 1, 2]

    def test_physical_parameter_form(self):
        via_b = run_cli("--bateman", "b=1/2", "--format", "json")
        via_params = run_cli("--bateman", "m=2,gamma=1,omega=1", "--format", "json")
        assert via_params.stdout == via_b.stdout

    def test_expression_model(self):
        result = run_cli("--expr", "1/2*(p1^2 + x1^2)", "--format", "json")
        doc = json.loads(result.stdout)
        assert doc["model"]["kind"] == "expression"
        assert doc["model"]["num_modes"] == 1
        assert [lad["lambda_exact"] for lad in doc["ladders"]["ladders"]] == [
            [-1, 1, 0, 1], [1, 1, 0, 1]]

    def test_float_ladders_have_null_exact_forms(self):
        result = run_cli("--expr", "1/2*p1^2 + x1^2", "--format", "json")
        assert result.returncode == 0
        doc = json.loads(result.stdout)["ladders"]
        assert [lad["lambda_exact"] for lad in doc["ladders"]] == [None, None]
        assert [lad["coefficients_exact"] for lad in doc["ladders"]] == [None, None]
        assert doc["commutator_table"] is None
        assert "Commutator table" not in run_cli("--expr", "1/2*p1^2 + x1^2").stdout

    def test_table_built_only_for_exact_ladders(self, monkeypatch):
        calls = []
        table = cli.commutator_table

        def counting_table(ladders):
            calls.append(len(ladders))
            return table(ladders)

        monkeypatch.setattr(cli, "commutator_table", counting_table)
        float_doc = run_report(expression="1/2*p1^2 + x1^2")["ladders"]
        assert calls == []
        assert list(float_doc) == ["ladders", "commutator_table"]
        assert float_doc["commutator_table"] is None
        exact_doc = run_report(expression="1/2*(p1^2 + x1^2)")["ladders"]
        assert calls == [2]
        assert exact_doc["commutator_table"] == [
            [[0, 1, 0, 1], [2, 1, 0, 1]], [[-2, 1, 0, 1], [0, 1, 0, 1]]]

    def test_defective_model_reports_without_ladders(self):
        result = run_cli("--expr", "1/2*p1^2", "--format", "json")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["spectral"]["defective"] is True
        assert doc["ladders"] is None


class TestExactFrequencies:
    """Close and large-denominator frequencies come out exact, and float
    frequencies carry no rounding residue in an exactly zero part."""

    @staticmethod
    def report(expr, tmp_path, fmt="json"):
        out = tmp_path / f"report.{fmt}"
        assert cli.main(["--expr", expr, "--format", fmt, "--out", str(out)]) == 0
        text = out.read_text()
        return json.loads(text) if fmt == "json" else text

    @pytest.mark.parametrize("expr, positive", [
        ("1/2*(p1^2+p2^2+p3^2+p4^2) + 2*x1^2 + 121/50*x2^2 + 49/18*x3^2"
         " + 98/25*x4^2", ["2", "11/5", "7/3", "14/5"]),
        ("1/2*(p1^2+p2^2+p3^2) + 176787152753689/200000000000000*x1^2"
         " + 178328968796169/200000000000000*x2^2 + 1/8*x3^2",
         ["13296133/10000000", "13353987/10000000", "1/2"]),
        ("1/2*p1^2 + 1/2000012000018*x1^2", ["1/1000003"]),
    ])
    def test_frequencies_are_exact(self, expr, positive, tmp_path):
        freqs = self.report(expr, tmp_path)["spectral"]["frequencies"]
        want = sorted(sign * Fraction(v) for v in positive for sign in (1, -1))
        assert [f["lambda_exact"] for f in freqs] == [
            [w.numerator, w.denominator, 0, 1] for w in want]
        assert [f["lambda"] for f in freqs] == [[float(w), 0.0] for w in want]

    def test_large_denominator_prints_exact(self, tmp_path):
        text = self.report("1/2*p1^2 + 1/2000012000018*x1^2", tmp_path, "text")
        assert "lambda = 1/1000003 (exact)" in text
        assert "lambda = -1/1000003 (exact)" in text

    def test_real_float_frequency_has_zero_imaginary_part(self, tmp_path):
        freqs = self.report("1/2*p1^2 + x1^2", tmp_path)["spectral"]["frequencies"]
        assert [f["lambda"][1] for f in freqs] == [0.0, 0.0]
        assert "i   (algebraic" not in self.report("1/2*p1^2 + x1^2", tmp_path, "text")

    def test_frequency_below_the_float_range_fails(self, tmp_path, capsys):
        expr = "1/2*p1^2 + 1/2" + "0" * 401 + "*x1^2"  # s = 10^-401, not a square
        assert cli.main(["--expr", expr, "--out", str(tmp_path / "report")]) == 3
        assert "underflows" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", [
        "1/2*p1^2 + x1^2",
        "1/2*p1^2 + 1/2*p2^2 + 5/4*x1^2 - 3/4*x1*x2 + 5/4*x2^2"
        " - 1/4*x1*p2 + 1/4*x2*p1",
    ])
    def test_float_ladder_text_has_no_fractions(self, expr, tmp_path):
        ladders = self.report(expr, tmp_path)["ladders"]["ladders"]
        floats = [lad for lad in ladders if lad["lambda_exact"] is None]
        assert floats
        assert not any("/" in lad["text"] for lad in floats)


class TestModelFiles:
    def test_bateman_file_forms(self, tmp_path):
        for payload in (
                {"bateman": {"b": "1/2"}},
                {"bateman": {"b": [1, 2]}},
                {"bateman": {"m": 2, "gamma": 1, "omega": 1}},
        ):
            path = tmp_path / "model.json"
            path.write_text(json.dumps(payload))
            result = run_cli("--model", str(path), "--format", "json")
            assert result.returncode == 0, result.stderr
            assert json.loads(result.stdout)["model"]["b"] == [1, 2]

    def test_expression_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"expression": "x1^2 + p1^2"}))
        result = run_cli("--model", str(path), "--format", "json")
        assert result.returncode == 0
        assert json.loads(result.stdout)["model"]["kind"] == "expression"

    def test_bad_files(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        assert run_cli("--model", str(path)).returncode == 2
        path.write_text(json.dumps({"nonsense": 1}))
        assert run_cli("--model", str(path)).returncode == 2
        assert run_cli("--model", str(tmp_path / "missing.json")).returncode == 2


class TestSweep:
    def test_json_sweep(self):
        result = run_cli("--sweep", "b=0..2:1/2", "--format", "json")
        doc = json.loads(result.stdout)
        assert doc["schema"] == "quadladder.sweep/1"
        assert doc["values"] == [[0, 1], [1, 2], [1, 1], [3, 2], [2, 1]]
        assert [run["model"]["b"] for run in doc["runs"]] == doc["values"]

    def test_text_sweep_has_separators(self):
        result = run_cli("--sweep", "b=1..2:1")
        assert result.stdout.count("Model") == 2
        assert "=" * 64 in result.stdout

    def test_sweep_conflicts(self):
        assert run_cli("--sweep", "b=0..1:1", "--expr", "x1^2").returncode == 2
        assert run_cli("--sweep", "b=0..1:1", "--bateman", "b=1").returncode == 2
        assert run_cli("--sweep", "b=1..0:1").returncode == 2
        assert run_cli("--sweep", "b=0..1:0").returncode == 2
        assert run_cli("--sweep", "x=0..1:1").returncode == 2


class TestInputBounds:
    """Each cap is refused with exit 2 before the oversized job starts."""

    def test_mode_index_cap(self, capsys):
        assert cli.main(["--expr", "x99999^2 + p99999^2"]) == 2
        assert cli.main(["--expr", "x" + "1" * 5000 + "^2 + p1^2"]) == 2
        assert "exceeds the limit of 16 modes" in capsys.readouterr().err

    def test_ladder_states_cap(self, monkeypatch, capsys):
        # Stub the family generation so the largest allowed N costs nothing.
        monkeypatch.setattr(cli, "_families_doc", lambda *args: [])
        report = run_report(b=Fraction(1), ladder_states=cli.MAX_LADDER_STATES)
        assert report["families"] == []
        with pytest.raises(ValidationError, match="between 0 and 16"):
            run_report(b=Fraction(1), ladder_states=cli.MAX_LADDER_STATES + 1)
        assert cli.main(["--bateman", "b=1", "--ladder-states", "17"]) == 2
        assert cli.main(["--bateman", "b=1", "--ladder-states", "-1"]) == 2
        assert "--ladder-states must be between 0 and 16" in capsys.readouterr().err

    def test_expression_size_caps(self, capsys):
        assert cli.main(["--expr", "*".join(["(x+y+px+py)"] * 10)]) == 2
        assert cli.main(["--expr", "p1^400*x1^400 - x1^400*p1^400"]) == 2
        err = capsys.readouterr().err
        assert "error [quadladder.dsl]: 1:60: product flattens to 4096 terms" in err
        assert "error [quadladder.dsl]: 1:1: term has degree 400" in err

    def test_sweep_value_cap(self, capsys):
        limit = cli.MAX_SWEEP_VALUES
        assert len(cli._parse_sweep_spec(f"b=0..{limit - 1}:1")) == limit
        assert len(cli._parse_sweep_spec("b=1/3..1:1/3")) == 3
        with pytest.raises(ValidationError, match=f"{limit + 1} values"):
            cli._parse_sweep_spec(f"b=0..{limit}:1")
        # A trillion values: counted, never listed.
        assert cli.main(["--sweep", "b=0..1:1/1000000000000"]) == 2
        assert "1000000000001 values; the limit is 1000" in capsys.readouterr().err


class TestTextOutput:
    def test_sections(self):
        result = run_cli("--bateman", "b=1", "--ladder-states", "1")
        for title in ("Model", "Adjoint matrix", "Characteristic polynomial",
                      "Natural frequencies", "Ladder operators",
                      "Commutator table", "Ladder family vacuum0",
                      "Ladder family vacuum1"):
            assert title in result.stdout
        assert "\033[" not in result.stdout

    def test_color_toggle_in_renderer(self):
        report = run_report(b=Fraction(1))
        assert "\033[1m" in render_text(report, color=True)
        assert "\033[" not in render_text(report, color=False)

    def test_out_file(self, tmp_path):
        path = tmp_path / "report.json"
        result = run_cli("--bateman", "b=1", "--format", "json",
                         "--out", str(path))
        assert result.returncode == 0
        assert result.stdout == ""
        piped = run_cli("--bateman", "b=1", "--format", "json")
        assert path.read_text() == piped.stdout


class TestFailures:
    def test_validation_exit_codes(self):
        checks = [
            ("--expr", "x1^3"),
            ("--expr", "x1*p1"),
            ("--expr", "2x"),
            ("--bateman", "b=-1"),
            ("--bateman", "q=1"),
            ("--expr", "x1^2+p1^2", "--ladder-states", "1"),
            ("--expr", "1/2*p1^2", "--ladder-states", "1"),
        ]
        for args in checks:
            result = run_cli(*args)
            assert result.returncode == 2, args
            assert result.stderr.startswith("error [quadladder."), args

    def test_rewrapped_input_errors_exit_2(self, tmp_path):
        result = run_cli("--bateman", "m=0,gamma=1,omega=1")
        assert result.returncode == 2
        assert result.stderr.startswith("error [quadladder.bateman]:")
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"bateman": {"gamma": -1}}))
        assert run_cli("--model", str(path)).returncode == 2
        assert run_cli("--expr", "1" * 5000 + "*x1^2 + p1^2").returncode == 2

    @pytest.mark.parametrize("text", ["1", "0", "5/2 + i*(x1*p1 - p1*x1)"])
    def test_expression_without_quadratic_part(self, text, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"expression": text}))
        for source in (["--expr", text], ["--model", str(path)]):
            assert cli.main(source + ["--format", "json"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error [quadladder.cli]:")
            assert "no degree-2 part" in err
        with pytest.raises(NotQuadraticError):
            run_report(expression=text)

    def test_internal_value_error_is_not_user_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal bug")

        monkeypatch.setattr(cli, "eigen_decompose", broken)
        with pytest.raises(ValueError, match="internal bug"):
            cli.main(["--bateman", "b=1", "--format", "json"])

    def test_error_provenance_module(self):
        result = run_cli("--expr", "2x")
        assert result.stderr.startswith("error [quadladder.dsl]:")
        result = run_cli("--expr", "x1^3")
        assert result.stderr.startswith("error [quadladder.adjoint]:")

    def test_missing_model_source(self):
        assert run_cli().returncode == 2
        assert run_cli("--format", "json").returncode == 2

    def test_run_report_needs_exactly_one_source(self):
        with pytest.raises(ValidationError):
            run_report()
        with pytest.raises(ValidationError):
            run_report(b=Fraction(1), expression="x1^2")

    def test_tolerance_flag_is_gone(self):
        """The rank tolerance is the constant spectral.RANK_TOL."""
        result = run_cli("--bateman", "b=1", "--tol-rank", "1e-9",
                         "--format", "json")
        assert result.returncode == 2
        assert "unrecognized arguments: --tol-rank" in result.stderr

    def test_unwritable_out_path(self, tmp_path):
        target = tmp_path / "missing" / "r.txt"
        result = run_cli("--bateman", "b=1/2", "--out", str(target))
        assert result.returncode == 2
        assert result.stderr.startswith(
            f"error [quadladder.cli]: cannot write report to {target}:")
        assert "Traceback" not in result.stderr


class TestWithoutNumpy:
    """The package runs on the standard library alone; numpy is a test
    dependency only."""

    SCRIPT = """
import json, os, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from quadladder import cli
for argv in json.loads(sys.argv[1]):
    code = cli.main([*argv, "--out", os.devnull])
    if code != 0:
        sys.exit(f"exit {code} for {argv}")
"""

    def test_cli_runs_with_numpy_blocked(self):
        from test_golden import MODELS
        argvs = [["--bateman", "b=1/2", "--ladder-states", "2"],
                 MODELS["gyroscopic_float"]]
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(argvs)],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_import_does_not_load_numpy(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, quadladder.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True)
        assert result.stdout == "False\n", result.stderr
