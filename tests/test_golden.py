"""Golden reports: the CLI output of six models, byte for byte.

Each model below has a JSON and a text report under ``tests/golden/``,
written by ``cli.main([*argv, "--format", fmt, "--out", path])``.  They
cover two exact Bateman models with ladder families (b = 3/7 puts a
denominator of 14 into H's sector map and raises states to degree 8), an
exact two-mode coupled oscillator, an exact seven-digit frequency (its
square has a fifteen-digit denominator), a gyroscopic model with irrational
frequencies (the float path), and a defective spectrum.  Speed work must leave every
report byte-identical: a golden file may only change in a change that
explains why its report had to change.
"""

from pathlib import Path

import pytest

from quadladder import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

MODELS = {
    "bateman_b1_2_states2": ["--bateman", "b=1/2", "--ladder-states", "2"],
    "bateman_b3_7_states4": ["--bateman", "b=3/7", "--ladder-states", "4"],
    "coupled_k2_exact": [
        "--expr", "1/2*p1^2 + 1/2*p2^2 + 5/4*x1^2 + 3/2*x1*x2 + 5/4*x2^2"],
    "measured_frequency_exact": [
        "--expr", "1/2*p1^2 + 325247554613641/200000000000000*x1^2"],
    "gyroscopic_float": [
        "--expr", "1/2*p1^2 + 1/2*p2^2 + 5/4*x1^2 - 3/4*x1*x2 + 5/4*x2^2"
                  " - 1/4*x1*p2 + 1/4*x2*p1"],
    "free_particle_defective": ["--expr", "1/2*p1^2"],
}


@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("text", "txt")])
@pytest.mark.parametrize("name", MODELS)
def test_report_matches_golden(name, fmt, ext, tmp_path):
    out = tmp_path / f"{name}.{ext}"
    assert cli.main([*MODELS[name], "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.{ext}").read_bytes()


def test_every_golden_file_is_checked():
    expected = {f"{name}.{ext}" for name in MODELS for ext in ("json", "txt")}
    assert {path.name for path in GOLDEN.iterdir()} == expected
