"""Tests of the benchmark itself: generators, output checks, tracing.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import math
import random
import shutil
import warnings
from fractions import Fraction
from itertools import islice
from time import perf_counter

import pytest

from perfbench import checks, models, run, trace
from quadladder import adjoint, cli, dsl


def _first_models(workload, seed, count):
    stream = (m for block in models.blocks(workload, seed) for m in block)
    return list(islice(stream, count))


def _cheap(workload, seed=3):
    """A model of the workload's cheapest stratum, for running the program."""
    stratum = {"families": "N1", "exact-modes": "K2-small",
               "float-modes": "K2"}[workload]
    return next(m for m in _first_models(workload, seed, 40) if m.stratum == stratum)


def _report(model, tmp_path):
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main([*model.argv, "--format", "json", "--out", str(out)]) == 0
    return json.loads(out.read_bytes())


def _charpoly(r):
    """Exact ascending coefficients of det(t I - R) for a rational matrix R."""
    q = math.lcm(*(x.denominator for row in r for x in row))
    coeffs = models._charpoly_by_interpolation([[int(x * q) for x in row] for row in r])
    n = len(coeffs) - 1
    return [Fraction(c, q ** (n - k)) for k, c in enumerate(coeffs)]


def _expand(roots):
    """Ascending coefficients of prod (t - z) over Gaussian rationals (re, im)."""
    poly = [(Fraction(1), Fraction(0))]
    for re, im in roots:
        shifted = [(Fraction(0), Fraction(0))] + poly
        for k, (pr, pi) in enumerate(poly):
            sr, si = shifted[k]
            shifted[k] = (sr - (re * pr - im * pi), si - (re * pi + im * pr))
        poly = shifted
    return poly


@pytest.mark.parametrize("workload", models.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    first = _first_models(workload, 7, 25)
    assert first == _first_models(workload, 7, 25)
    assert first != _first_models(workload, 8, 25)


@pytest.mark.parametrize("workload", models.WORKLOADS)
def test_blocks_hold_every_stratum_in_fixed_counts(workload):
    stream = models.blocks(workload, 5)
    for block in islice(stream, 2):
        assert sorted(m.stratum for m in block) == sorted(models.BLOCKS[workload])


@pytest.mark.parametrize("workload", models.WORKLOADS)
def test_adjoint_builder_matches_the_program(workload):
    for model in _first_models(workload, 2, 12):
        if model.b is not None:
            from quadladder.bateman import build_hd
            ham = build_hd(model.b)
        else:
            ham = adjoint.validate_quadratic(dsl.parse_to_polynomial(model.argv[1]))
        exact = adjoint.adjoint_matrix(ham).exact
        r = models.adjoint_real_part(model.a, model.v, model.g)
        assert [[(z.re, z.im) for z in row] for row in exact] == \
               [[(Fraction(0), x) for x in row] for row in r]


def test_exact_modes_frequencies_are_rational_and_exact():
    for model in _first_models("exact-modes", 4, 40):
        r = models.adjoint_real_part(model.a, model.v, model.g)
        mus = [(im, -re) for (re, im), mult in model.frequencies   # lambda = i mu
               for _ in range(mult)]
        assert _expand(mus) == [(c, Fraction(0)) for c in _charpoly(r)]
        if model.stratum.endswith("measured"):
            assert all(re.denominator == models.MEASURED_DEN
                       for (re, _), _ in model.frequencies)


def test_float_modes_have_no_rational_frequency():
    for model in _first_models("float-modes", 4, 40):
        assert model.frequencies is None
        r = models.adjoint_real_part(model.a, model.v, model.g)
        assert models.gaussian_rational_root_free(r)


def test_rationality_test_finds_rational_roots():
    one, zero = Fraction(1), Fraction(0)
    rational = models.adjoint_real_part(((one,),), ((Fraction(9, 4),),), ((zero,),))
    irrational = models.adjoint_real_part(((one,),), ((Fraction(2),),), ((zero,),))
    assert not models.gaussian_rational_root_free(rational)
    assert models.gaussian_rational_root_free(irrational)


@pytest.mark.parametrize("workload", models.WORKLOADS)
def test_checks_accept_the_programs_reports(workload, tmp_path):
    model = _cheap(workload)
    assert checks.check_report(model, _report(model, tmp_path)) == []


def _corrupt_quad(quad):
    return [quad[0] + quad[1], quad[1], quad[2], quad[3]]


def _spectral_lambda(report):
    f = report["spectral"]["frequencies"][0]
    f["lambda"] = [f["lambda"][0] + 1e-6, f["lambda"][1]]


def _spectral_lambda_exact(report):
    f = report["spectral"]["frequencies"][0]
    f["lambda_exact"] = _corrupt_quad(f["lambda_exact"] or [0, 1, 0, 1])


def _family_energy(report):
    state = report["families"][0]["states"][-1]
    state["energy_exact"] = _corrupt_quad(state["energy_exact"])


def _ladder_coefficient(report):
    lad = report["ladders"]["ladders"][0]
    lad["coefficients"][1] = [lad["coefficients"][1][0] + 1e-3, lad["coefficients"][1][1]]


def _commutator_entry(report):
    table = report["ladders"]["commutator_table"]
    table[0][1] = _corrupt_quad(table[0][1])


def _matrix_entry(report):
    m = report["adjoint_matrix"]
    m["entries_exact"][1] = _corrupt_quad(m["entries_exact"][1])


def _drop_partner(report):
    report["spectral"]["frequencies"][0]["lambda"][0] *= 1.5


CORRUPTIONS = {
    "families": [_family_energy, _spectral_lambda, _spectral_lambda_exact,
                 _ladder_coefficient, _commutator_entry, _matrix_entry],
    "exact-modes": [_spectral_lambda, _spectral_lambda_exact, _ladder_coefficient,
                    _commutator_entry, _matrix_entry, _drop_partner],
    "float-modes": [_spectral_lambda, _spectral_lambda_exact, _ladder_coefficient,
                    _commutator_entry, _matrix_entry, _drop_partner],
}


@pytest.mark.parametrize("workload,corrupt", [
    (w, c) for w, cs in CORRUPTIONS.items() for c in cs],
    ids=lambda x: getattr(x, "__name__", x))
def test_checks_reject_a_corrupted_report(workload, corrupt, tmp_path):
    model = _cheap(workload)
    report = _report(model, tmp_path)
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert checks.check_report(model, bad)


def test_checks_accept_null_exact_forms_only_where_exactness_is_lost(tmp_path):
    model = _cheap("float-modes")
    report = _report(model, tmp_path)
    for lad in report["ladders"]["ladders"]:
        lad["coefficients_exact"] = None
    assert checks.check_report(model, report) == []    # table checked in floats
    bad = copy.deepcopy(report)
    _commutator_entry(bad)
    assert checks.check_report(model, bad)
    report["ladders"]["commutator_table"] = None
    assert checks.check_report(model, report) == []

    model = _cheap("exact-modes")
    report = _report(model, tmp_path)
    no_table = copy.deepcopy(report)
    no_table["ladders"]["commutator_table"] = None
    assert checks.check_report(model, no_table)
    report["ladders"]["ladders"][0]["coefficients_exact"] = None
    assert checks.check_report(model, report)


def test_exactness_counts(tmp_path):
    exact = _cheap("exact-modes")
    assert checks.frequency_counts(exact, _report(exact, tmp_path)) == (4, 4, 4)
    floats = _cheap("float-modes")
    assert checks.frequency_counts(floats, _report(floats, tmp_path)) == (4, 0, 4)


def test_runner_flags_a_changed_digest(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    model = _cheap("exact-modes")
    runner = run.Runner(cli, checks)
    runner.run(model)
    assert not runner.failures
    runner.digests[model.index] = "0" * 64           # an earlier, different output
    runner.run(model)
    assert model.index in runner.failures

    fresh = run.Runner(cli, checks)
    fresh.run(model)
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({str(model.index): "f" * 64}))
    fresh.compare_digests(path)
    assert model.index in fresh.failures


def test_digests_are_kept_per_source_tree(tmp_path, monkeypatch):
    src = tmp_path / "src"
    shutil.copytree(run.SRC / "quadladder", src / "quadladder",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(run, "SRC", src)
    monkeypatch.setattr(run, "WORK", tmp_path)
    before = run.digest_path("families", 1)
    assert run.digest_path("families", 1) == before
    assert run.digest_path("families", 2) != before
    with open(src / "quadladder" / "cli.py", "a") as f:
        f.write("\n# changed\n")
    assert run.digest_path("families", 1) != before


def test_runner_counts_an_uncheckable_report_as_failed(tmp_path, monkeypatch):
    class Raising:
        digest = staticmethod(checks.digest)
        frequency_counts = staticmethod(checks.frequency_counts)

        @staticmethod
        def check_report(model, report):
            raise TypeError("malformed")

    monkeypatch.setattr(run, "WORK", tmp_path)
    model = _cheap("exact-modes")
    runner = run.Runner(cli, Raising)
    runner.run(model)
    assert "malformed" in runner.failures[model.index]


def test_tracer_bookkeeping_and_uninstall_restores(tmp_path):
    originals = {(m, a): getattr(__import__(m, fromlist=[a]), a)
                 for m, a, _ in trace.PATCHES}
    model = _cheap("families")
    out = str(tmp_path / "r.json")
    with trace.Tracer() as tracer:
        tracer.model = model.index
        start = perf_counter()
        cli.main([*model.argv, "--format", "json", "--out", out])
        latency = perf_counter() - start
    assert all(getattr(__import__(m, fromlist=[a]), a) is fn
               for (m, a), fn in originals.items())
    assert tracer.problems({model.index: latency}) == []
    assert tracer.problems({model.index: latency / 2})    # spans exceed the call
    assert set(tracer.self_times()) <= set(trace.SELF_TIME_METRICS)
    layer = tracer.per_layer(1)
    assert layer["wavefn.eigencheck_calls"] == 2 * (model.ladder_states + 1) ** 2 + 4
    assert layer["weyl.commutator_calls"] == 4 + 4 + 16
    assert layer["spectral.exact_lift_ratio"] == 1.0

    wrong = copy.deepcopy(tracer)                  # a span moved to a sibling
    child = next(i for i, s in enumerate(wrong.spans)
                 if s[trace.NAME] == "wavefn.eigencheck")
    wrong.spans[child][trace.PARENT] = next(
        i for i, s in enumerate(wrong.spans) if s[trace.NAME] == "bateman.build")
    assert wrong.problems({model.index: latency})


def test_metric_names_match_benchmark_json(tmp_path, monkeypatch):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "WORK", tmp_path)
    runner = run.Runner(cli, checks)
    block = next(models.blocks("families", 1))[:2]
    e2e = run.end_to_end(runner, [runner.run(m) for m in block], [len(block)], 0.3)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert all(unit == m["unit"] for (_, unit), m in zip(e2e.values(), spec["end_to_end"]))
    problems = []
    layer = run.per_layer(runner, [block], 0.0, problems)
    assert not problems and not runner.failures
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(unit == units[name] for name, (_, unit) in layer.items())


def test_rescale_uses_the_local_reference_speed():
    times = [0.1] * 20 + [0.2] * 20              # the machine halves its speed
    refs = [run.REFERENCE_S] * 20 + [2 * run.REFERENCE_S] * 20
    scaled = run.rescale(times, refs)
    assert scaled[0] == pytest.approx(0.1) and scaled[-1] == pytest.approx(0.1)
    assert run.rescale([0.1], [run.REFERENCE_S / 2]) == [pytest.approx(0.2)]


# Close mode frequencies stall the program's root iteration, which is why the
# generators keep them MIN_RATIO apart.  These two inputs fail at the commit
# the benchmark was written against; a fix turns them into XPASS.
CLOSE_FREQUENCIES = {
    "small": [Fraction(2), Fraction(11, 5), Fraction(7, 3), Fraction(14, 5)],
    "measured": [Fraction(13296133, 10 ** 7), Fraction(13353987, 10 ** 7),
                 Fraction(1, 2)],
}


@pytest.mark.xfail(reason="root iteration did not converge within 500 sweeps")
@pytest.mark.parametrize("kind", sorted(CLOSE_FREQUENCIES))
def test_close_frequencies(kind, tmp_path):
    omegas = CLOSE_FREQUENCIES[kind]
    rotation = models._coupling_rotation(len(omegas), random.Random(0))
    model = models.oscillators(0, f"K{len(omegas)}-{kind}", omegas, rotation)
    assert checks.check_report(model, _report(model, tmp_path)) == []
