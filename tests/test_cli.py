"""End-to-end command-line runs plus in-process report/render checks."""

import decimal
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quadladder import cli, ladders
from quadladder.cli import render_text, run_report
from quadladder.errors import NotQuadraticError, ValidationError

CMD = [sys.executable, "-m", "quadladder.cli"]
GOLDEN = Path(__file__).resolve().parent / "golden"


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

    @pytest.mark.parametrize("renderer, source", [
        ("render_terms", {"b": Fraction(1, 2), "ladder_states": 2}),
        ("_float_ladder_text", {"expression": "1/2*p1^2 + x1^2"}),
    ])
    def test_each_ladder_text_is_rendered_once(self, renderer, source, monkeypatch):
        # the families read the ladders' cached text, so none renders twice
        calls = []
        render = getattr(ladders, renderer)
        monkeypatch.setattr(ladders, renderer,
                            lambda *args: calls.append(args) or render(*args))
        report = run_report(**source)
        assert len(calls) == len(report["ladders"]["ladders"])

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


class TestWideCoefficientRange:
    """Small frequencies beside huge ones converge on their own scale."""

    @pytest.mark.parametrize("expr", [
        "1/2*p1^2 + 1/2*x1^2 + 1/2*p2^2 + 1" + "0" * 15 + "*x2^2 + 1/2*p3^2"
        " + 2*x3^2 + x1*x3",
        "1/2*p1^2 + 1" + "0" * 100 + "*x1^2 + 1/2*p2^2 + x2^2 + x1*x2",
        # r^deg of the largest root r of q passes the float range, which the
        # fixed-point root iteration never enters
        "1/2*p1^2 + 1/2*x1^2 + 1/2*p2^2 + 1" + "0" * 105 + "*x2^2 + 1/2*p3^2"
        " + 2*x3^2 + x1*x3",
        "1/2*p1^2 + 1" + "0" * 156 + "*x1^2 + 1/2*p2^2 + x2^2 + x1*x2",
    ], ids=["15-zeros", "100-zeros", "105-zeros", "156-zeros"])
    def test_frequencies_match_numpy(self, expr, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["--expr", expr, "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        dim = doc["adjoint_matrix"]["dim"]
        matrix = np.array([complex(*e) for e in doc["adjoint_matrix"]["entries"]])
        want = sorted(np.linalg.eigvals(matrix.reshape(dim, dim)),
                      key=lambda z: (z.real, z.imag))
        freqs = doc["spectral"]["frequencies"]
        assert [f["algebraic_multiplicity"] for f in freqs] == [1] * dim
        for f, w in zip(freqs, want):
            assert abs(complex(*f["lambda"]) - w) <= 1e-9 * abs(w)

    @pytest.mark.parametrize("zeros", [154, 200, 300])
    def test_small_frequencies_beside_huge_ones(self, zeros, tmp_path):
        # q = (s^2 - 5 s + 3)(s - 2*10^z) up to signs: |lambda|^2 is (5 +- sqrt(13))/2
        # or 2*10^z, each for +-lambda; numpy cannot resolve the small ones here
        expr = ("1/2*p1^2 + 1/2*x1^2 + 1/2*p2^2 + 1" + "0" * zeros
                + "*x2^2 + 1/2*p3^2 + 2*x3^2 + x1*x3")
        out = tmp_path / "report.json"
        assert cli.main(["--expr", expr, "--format", "json", "--out", str(out)]) == 0
        freqs = json.loads(out.read_text())["spectral"]["frequencies"]
        assert [f["algebraic_multiplicity"] for f in freqs] == [1] * 6
        want = sorted([(5 - 13 ** 0.5) / 2, (5 + 13 ** 0.5) / 2, 2.0 * 10.0 ** zeros] * 2)
        got = sorted(abs(complex(*f["lambda"])) ** 2 for f in freqs)
        assert got == pytest.approx(want, rel=1e-14)

    def test_a_small_frequency_beside_a_large_one_keeps_its_significant_bits(self, tmp_path):
        # q = s^2 - (10^20 + 2) s + 1: |lambda| = 10^-10 (1 - 10^-20 + ...) and
        # 10^10 (1 + 10^-20 + ...), each to a relative error of at most 1e-15
        expr = ("1/2*p1^2 + 100000000000000000001/2*x1^2 + 1/2*p2^2 + 1/2*x2^2"
                " + 10000000000*x1*x2")
        out = tmp_path / "report.json"
        assert cli.main(["--expr", expr, "--format", "json", "--out", str(out)]) == 0
        freqs = json.loads(out.read_text())["spectral"]["frequencies"]
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            b = decimal.Decimal(10 ** 20 + 2)
            large = ((b + (b * b - 4).sqrt()) / 2).sqrt()  # the roots of q multiply to 1
            small = 1 / large
        want = [-float(large), -float(small), float(small), float(large)]
        got = [complex(*f["lambda"]) for f in freqs]
        assert [z.imag for z in got] == [0.0] * 4
        for z, w in zip(got, want):
            assert abs(z.real - w) <= 1e-15 * abs(w)


def chain(num_modes, c):
    """The K-mode chain sum_i (1/2 p_i^2 + c*i/2 x_i^2) + sum_(i<K) 1/7 x_i x_(i+1)."""
    terms = [f"1/2*p{i}^2 + {c * i}/2*x{i}^2" for i in range(1, num_modes + 1)]
    terms += [f"1/7*x{i}*x{i + 1}" for i in range(1, num_modes)]
    return " + ".join(terms)


class TestCoupledChains:
    """Many-mode models run the float path end to end: the root iteration
    (seed radius, stalled steps), float eigenvectors of simple roots, and
    float ladder checks on eigenvectors that are tiny at x1."""

    @pytest.mark.parametrize("c", [1, 10])
    @pytest.mark.parametrize("num_modes", [6, 8, 12, 16])
    def test_report(self, num_modes, c):
        report = run_report(expression=chain(num_modes, c))
        freqs = report["spectral"]["frequencies"]
        assert sum(f["algebraic_multiplicity"] for f in freqs) == 2 * num_modes
        dim = report["adjoint_matrix"]["dim"]
        m = np.array([complex(*z) for z in report["adjoint_matrix"]["entries"]])
        want = np.linalg.eigvals(m.reshape(dim, dim))
        for f in freqs:
            lam = complex(*f["lambda"])
            assert min(abs(want - lam)) <= 1e-9 * abs(lam)
        assert len(report["ladders"]["ladders"]) == 2 * num_modes

    def test_cli_exit_code(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["--expr", chain(14, 10), "--format", "json",
                         "--out", str(out)]) == 0

    def test_repeated_irrational_pair(self):
        """lambda = +-sqrt(3), each twice: the exact kernel of M^2 - 3 decides
        the rank here."""
        report = run_report(
            expression="1/2*p1^2 + 1/2*p2^2 + 3/2*x1^2 + 3/2*x2^2")
        spectral = report["spectral"]
        assert not spectral["defective"]
        root3 = 3 ** 0.5
        assert [f["lambda"] for f in spectral["frequencies"]] == [
            pytest.approx([-root3, 0.0]), pytest.approx([root3, 0.0])]
        assert [(f["lambda_exact"], f["algebraic_multiplicity"],
                 f["geometric_multiplicity"])
                for f in spectral["frequencies"]] == [(None, 2, 2)] * 2
        assert len(report["ladders"]["ladders"]) == 4


def shifted(expr, offset):
    """expr with every mode index raised by offset."""
    return re.sub(r"([xp])(\d+)", lambda m: f"{m[1]}{int(m[2]) + offset}", expr)


class TestExactRanks:
    """A repeated irrational frequency takes its geometric multiplicity from
    the exact kernel of f(M^2), f the square-free factor of q holding lambda^2."""

    NEAR_DOUBLE = ("1/2*p1^2 + 1/2*p2^2 - 499999999999/1000000000000*x1^2"
                   " - 500000000001/1000000000000*x2^2 + 1/1000000000000*x1*p2"
                   " - 1/1000000000000*x2*p1")

    @staticmethod
    def ranks(spectral):
        return [(f["lambda_exact"] is None, f["algebraic_multiplicity"],
                 f["geometric_multiplicity"]) for f in spectral["frequencies"]]

    def test_coupling_far_below_float_rounding_is_defective(self, tmp_path):
        # chi = (t^2 + 1 - 10^-24)^2, one eigenvector per root
        out = tmp_path / "report.json"
        assert cli.main(["--expr", self.NEAR_DOUBLE, "--format", "json",
                         "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["spectral"]["defective"] is True
        assert self.ranks(doc["spectral"]) == [(True, 2, 1)] * 2
        assert doc["ladders"] is None

    @pytest.mark.parametrize("expr, lam", [
        ("1/2*p1^2 + 1/2*p2^2 - 3/4*x1^2 + 1/2*x2^2 + 5/4*x1*p2 - 5/4*x2*p1",
         21 ** 0.5 / 4),
        ("1/2*p1^2 + 1/2*p2^2 - 9/2*x1^2 + 1/2*x2^2 + 5/4*x1*p2 - 5/4*x2*p1",
         39 ** 0.5 / 4 * 1j),
    ], ids=["real", "imaginary"])
    def test_coupling_five_quarters_is_defective(self, expr, lam):
        spectral = run_report(expression=expr)["spectral"]
        assert spectral["defective"] is True
        assert self.ranks(spectral) == [(True, 2, 1)] * 2
        assert [complex(*f["lambda"]) for f in spectral["frequencies"]] \
            == [pytest.approx(-lam), pytest.approx(lam)]

    def test_sixteen_identical_oscillators(self):
        report = run_report(expression=" + ".join(
            f"1/2*p{i}^2 + x{i}^2" for i in range(1, 17)))
        spectral = report["spectral"]
        assert not spectral["defective"]
        assert self.ranks(spectral) == [(True, 16, 16)] * 2
        assert [complex(*f["lambda"]) for f in spectral["frequencies"]] \
            == [pytest.approx(-2 ** 0.5), pytest.approx(2 ** 0.5)]
        assert len(report["ladders"]["ladders"]) == 32

    def test_one_factor_holds_exact_and_irrational_roots(self):
        # q = (s - 1)^2 (s - 2)^2: lambda = +-1 exact, +-sqrt(2) irrational
        spectral = run_report(expression=(
            "1/2*p1^2 + 1/2*x1^2 + 1/2*p2^2 + 1/2*x2^2"
            " + 1/2*p3^2 + x3^2 + 1/2*p4^2 + x4^2"))["spectral"]
        assert not spectral["defective"]
        assert self.ranks(spectral) == [(True, 2, 2), (False, 2, 2),
                                        (False, 2, 2), (True, 2, 2)]

    def test_factor_with_a_zero_root(self):
        # q = s^2 (s - 3)^2: f(M^2) = M^2 (M^2 - 3), whose kernel adds the
        # nilpotent block of the two free particles at 0
        spectral = run_report(expression=(
            "1/2*p1^2 + 1/2*p2^2 + 3/2*x2^2 + 1/2*p3^2 + 1/2*p4^2 + 3/2*x4^2"))["spectral"]
        assert spectral["defective"] is True
        assert self.ranks(spectral) == [(True, 2, 2), (False, 4, 2), (True, 2, 2)]

    def test_twin_chains(self):
        report = run_report(expression=chain(8, 1) + " + " + shifted(chain(8, 1), 8))
        spectral = report["spectral"]
        assert not spectral["defective"]
        assert self.ranks(spectral) == [(True, 2, 2)] * 16
        assert len(report["ladders"]["ladders"]) == 32


class TestJsonWriter:
    """cli._json_text writes what json.dumps(doc, indent=2) writes."""

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")),
                             ids=lambda path: path.name)
    def test_golden_documents(self, path):
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert cli._json_text(doc) == json.dumps(doc, indent=2)
        assert cli._json_text(doc) + "\n" == text

    def test_sweep_report(self):
        report = cli.run_sweep([Fraction(0), Fraction(1, 2)], ladder_states=1)
        assert cli._json_text(report) == json.dumps(report, indent=2)

    @pytest.mark.parametrize("doc", [
        float("nan"), float("inf"), -0.0, 10 ** 400 + 7, "x", None, True, 0,
        [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e-320, 2.5e300],
        [1.5, float("nan")],
        [-(10 ** 400) - 3, 10 ** 400],
        [True, False, 1, 0], [True, True], [0, 1], {"t": True, "one": 1, "f": False},
        [None, None], [None, 1, "a"], {"n": None},
        [], {}, [[]], [{}], {"a": {}}, [{}, []], {"a": [[], {}], "b": {"c": []}},
        ['say "hi"\n\u00e9 \u2603 \\ / \t\x00', {"k\u00e9y \"q\"": "v\n"}],
        {"deep": [[[1, [2.0, {"x": [None]}]]]]},
    ])
    def test_edge_documents(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2)

    # json.dumps would write a tuple as a list and an int key as a string;
    # the writer refuses both, like any value outside the report's types.
    @pytest.mark.parametrize("doc", [
        object(), {"a": 1 + 2j}, [1, Fraction(1, 2)], [Fraction(1, 2)],
        (1, 2), {1: "int key"}, [{1, 2}],
    ])
    def test_non_json_values_raise(self, doc):
        with pytest.raises(TypeError):
            cli._json_text(doc)


class TestParserReuse:
    def test_two_calls_in_one_process_match_fresh_runs(self, tmp_path, capsys):
        first = ("--bateman", "b=1/2", "--ladder-states", "1", "--format", "json")
        second = ("--expr", "1/2*p1^2 + x1^2")
        out = tmp_path / "first.json"
        assert cli.main([*first, "--out", str(out)]) == 0
        assert cli.main(list(second)) == 0
        assert out.read_text(encoding="utf-8") == run_cli(*first).stdout
        assert capsys.readouterr().out == run_cli(*second).stdout

    def test_main_builds_no_parser(self, monkeypatch, capsys):
        def refuse():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert cli.main(["--bateman", "b=1", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["model"]["b"] == [1, 1]


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


def assert_one_error_line(result, label="quadladder.cli"):
    assert result.returncode == 2
    assert result.stderr.startswith(f"error [{label}]:")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr


class TestStrictBatemanFields:
    @pytest.mark.parametrize("doc", [
        {"bateman": {"gama": 1}},
        {"bateman": {"b": 1, "m": 3}},
        {"bateman": {"gamma": -1}},
        {"bateman": {"b": 1}, "expression": "x1^2 + p1^2"},
        {"bateman": {"b": "1e10000000"}},
        {"bateman": {"b": "1_000"}},
    ])
    def test_misread_model_files_exit_2(self, doc, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert_one_error_line(run_cli("--model", str(path)))

    @pytest.mark.parametrize("pair", [[True, 2], [1, False]])
    def test_boolean_pair_members_exit_2(self, pair, tmp_path):
        # JSON true is no integer: [true, 2] is not read as 1/2
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"bateman": {"b": pair}}))
        result = run_cli("--model", str(path))
        assert_one_error_line(result)
        assert f"not a rational number: {pair!r}" in result.stderr

    def test_long_model_file_values_are_abbreviated(self, tmp_path):
        # 3,000 ones: the refused value is quoted by its first 7 characters
        # and its length, as a long flag value is
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"bateman": {"b": [1] * 3000}}))
        result = run_cli("--model", str(path))
        assert_one_error_line(result)
        assert "not a rational number: [1, 1, ... (9000 characters)" in result.stderr
        assert len(result.stderr) < 120

    @pytest.mark.parametrize("content, message", [
        # 5,000 digits: past the interpreter's limit on integer text
        (b'{"bateman": {"b": 1' + b"1" * 4999 + b"}}", "has an integer past 4,300 digits"),
        (b'{"bateman": {"b": "1/2"}}\xff', "is not UTF-8 (byte 25)"),
        (b"\xfe\xff{}", "is not UTF-8 (byte 0)"),
    ])
    def test_unreadable_model_files_exit_2(self, content, message, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        result = run_cli("--model", str(path))
        assert_one_error_line(result)
        assert result.stderr.rstrip().endswith(message)

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                      '{"a": ' * 100_000 + "1" + "}" * 100_000],
                             ids=["arrays", "objects"])
    def test_deeply_nested_model_files_exit_2(self, text, tmp_path):
        # past the decoder's recursion limit: one line, not a RecursionError
        path = tmp_path / "model.json"
        path.write_text(text)
        result = run_cli("--model", str(path))
        assert_one_error_line(result)
        assert result.stderr.rstrip().endswith("nests too deeply for the JSON decoder")
        assert len(result.stderr.encode()) < 120

    @pytest.mark.parametrize("text, key", [
        ('{"bateman": {"b": 1, "b": 2}}', "b"),
        ('{"bateman": {"b": 1}, "bateman": {"b": 2}}', "bateman"),
        ('{"expression": "x1^2 + p1^2", "expression": "x1^2"}', "expression"),
    ])
    def test_repeated_model_file_keys_exit_2(self, text, key, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(text)
        result = run_cli("--model", str(path))
        assert_one_error_line(result)
        assert f"repeated model file key {key!r}" in result.stderr

    @pytest.mark.parametrize("spec", ["b=1,b=2", "gama=1",
                                      "m=1,gamma=1,omega=1,omega=2"])
    def test_misread_specs_exit_2(self, spec):
        assert_one_error_line(run_cli("--bateman", spec))

    @pytest.mark.parametrize("doc, key", [
        ({"bateman": {"b": "1/2"}, "ladder_states": 3}, "ladder_states"),
        ({"expression": "x1^2 + p1^2", "format": "json"}, "format"),
        ({"bateman": {"b": 1}, "Bateman": {"b": 2}}, "Bateman"),
    ])
    def test_extra_model_file_keys_exit_2(self, doc, key, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        result = run_cli("--model", str(path))
        assert_one_error_line(result)
        assert f"unknown model file key {key!r}" in result.stderr

    def test_physical_fields_are_checked_by_the_model(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"bateman": {"m": 1, "gamma": -1, "omega": 1}}))
        result = run_cli("--model", str(path))
        assert_one_error_line(result, "quadladder.bateman")
        assert "gamma must be nonnegative" in result.stderr

    def test_both_sources_read_the_same_fields(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(
            {"bateman": {"m": 3, "gamma": "3/2", "omega": 1, "hbar": 2}}))
        from_file = run_cli("--model", str(path), "--format", "json")
        from_spec = run_cli("--bateman", "m=3,gamma=3/2,omega=1,hbar=2",
                            "--format", "json")
        assert from_file.returncode == from_spec.returncode == 0
        assert from_file.stdout == from_spec.stdout
        assert json.loads(from_file.stdout)["model"]["b"] == [1, 2]


class TestStdoutFailures:
    ARGS = ("--bateman", "b=1/2", "--ladder-states", "16", "--format", "json")

    def run_to(self, stdout):
        env = dict(os.environ, QUADLADDER_NO_COLOR="1")
        return subprocess.run(CMD + list(self.ARGS), stdout=stdout,
                              stderr=subprocess.PIPE, text=True, env=env)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_2(self):
        with open("/dev/full", "w") as full:
            result = self.run_to(full)
        assert_one_error_line(result)
        assert "cannot write report to stdout" in result.stderr

    def test_closed_pipe_exits_2(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = self.run_to(write_end)
        finally:
            os.close(write_end)
        assert_one_error_line(result)
        assert "cannot write report to stdout" in result.stderr


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

    def test_sweep_conflicts(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"bateman": {"b": 1}}))
        for other in (("--expr", "x1^2"), ("--bateman", "b=1"), ("--model", str(path))):
            result = run_cli("--sweep", "b=0..1:1", *other)
            assert result.returncode == 2
            assert f"argument {other[0]}: not allowed with argument --sweep" in result.stderr
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

    def test_ladder_states_misuse_is_refused_before_model_work(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("model work ran before a usage error")
        for name in ("parse_to_polynomial", "build_hd", "eigen_decompose"):
            monkeypatch.setattr(cli, name, unreachable)
        kind = (r"^--ladder-states requires a --bateman model \(its vacuum "
                r"wavefunctions seed the families\)$")
        # The free particle's spectrum is defective; the model kind is refused first.
        for text in ("x1^2 + p1^2", "1/2*p1^2", "x1^"):
            with pytest.raises(ValidationError, match=kind):
                run_report(expression=text, ladder_states=1)
        for n in (-1, cli.MAX_LADDER_STATES + 1):
            with pytest.raises(ValidationError,
                               match=f"^--ladder-states must be between 0 and 16, got {n}$"):
                run_report(b=Fraction(1), ladder_states=n)

    def test_expression_size_caps(self, capsys):
        assert cli.main(["--expr", "*".join(["(x+y+px+py)"] * 10)]) == 2
        assert cli.main(["--expr", "p1^400*x1^400 - x1^400*p1^400"]) == 2
        err = capsys.readouterr().err
        assert "error [quadladder.dsl]: 1:60: product flattens to 4096 terms" in err
        assert "error [quadladder.dsl]: 1:1: term has degree 400" in err

    @pytest.mark.parametrize("args", [
        ("--bateman", "b=1e10000000"),
        ("--bateman", "m=1,gamma=1E2,omega=1"),
        ("--sweep", "b=0..1e10000000:1"),
    ])
    def test_exponent_notation_exit_2(self, args, capsys):
        # Fraction() would build a 33-million-bit numerator for 1e10000000
        assert cli.main(list(args)) == 2
        assert "exponent notation is not accepted" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ("--bateman", "b=1_000"),
        ("--bateman", "m=1,gamma=1_0,omega=1"),
        ("--sweep", "b=0..1:1_0"),
    ])
    def test_underscores_exit_2(self, args, capsys):
        # Fraction() reads 1_000 on Python 3.11 and later but not on 3.10
        assert cli.main(list(args)) == 2
        assert "underscores are not accepted" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("1" * 5000 + "x", "not a rational number: '1111111... (5001 characters)'"),
        ("1" * 5000 + "e5", "exponent notation is not accepted: "
                            "'1111111... (5002 characters)'"),
        ("1/" + "2" * 37 + "x", "not a rational number: '1/" + "2" * 37 + "x'"),
    ])
    def test_long_inputs_are_abbreviated(self, text, message):
        with pytest.raises(ValidationError) as failure:
            cli._parse_rational(text)
        assert str(failure.value) == message
        assert len(str(failure.value)) < 80

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

    @pytest.mark.parametrize("zeros", [310, 400])
    def test_value_beyond_the_float_range_exits_3(self, zeros, tmp_path, capsys):
        expr = f"1/2*p1^2 + 1{'0' * zeros}*x1^2 + 1/2*p2^2 + x2^2 + x1*x2"
        assert cli.main(["--expr", expr, "--out", str(tmp_path / "report")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error [quadladder.")
        assert "float range" in err

    def test_missing_model_source(self):
        for args in ((), ("--format", "json")):
            result = run_cli(*args)
            assert result.returncode == 2
            assert ("one of the arguments --bateman --expr --model --sweep is required"
                    in result.stderr)

    def test_run_report_needs_exactly_one_source(self):
        with pytest.raises(ValidationError):
            run_report()
        with pytest.raises(ValidationError):
            run_report(b=Fraction(1), expression="x1^2")

    def test_tolerance_flag_is_gone(self):
        """No rank tolerance is left: ranks are decided exactly."""
        result = run_cli("--bateman", "b=1", "--tol-rank", "1e-9",
                         "--format", "json")
        assert result.returncode == 2
        assert "unrecognized arguments: --tol-rank" in result.stderr

    def test_out_file_is_rewritten_in_place(self, tmp_path):
        # a long report, then a short one, to one path: no tail survives
        out = tmp_path / "report.json"
        long_args = ("--bateman", "b=1/2", "--ladder-states", "4", "--format", "json")
        short_args = ("--bateman", "b=1/2", "--ladder-states", "0", "--format", "json")
        assert run_cli(*long_args, "--out", str(out)).returncode == 0
        long_size = out.stat().st_size
        assert run_cli(*short_args, "--out", str(out)).returncode == 0
        assert out.read_bytes() == run_cli(*short_args).stdout.encode("utf-8")
        assert out.stat().st_size < long_size

    def test_out_to_a_device_is_not_truncated(self):
        # ftruncate fails on a character device, so only regular files are cut
        result = run_cli("--bateman", "b=1/2", "--out", os.devnull)
        assert result.returncode == 0
        assert result.stderr == ""

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
