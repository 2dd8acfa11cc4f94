"""quadladder benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload families --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``, nothing needs installing.  The run generates the workload's models
from the seed and sends them, one at a time, through the real entry point
``quadladder.cli.main([..., "--format", "json", "--out", <file>])`` in this
process: a closed loop with one client, the next model only after the
previous call returns.  Every report is checked (``checks.py``) and its
SHA-256 recorded; a model that raises, exits non-zero, fails a check or
changes its digest between two runs of the same sources counts as failed.

``--trace 0`` prints the end-to-end metrics, with latencies rescaled to a
fixed machine speed (``reference``, ``rescale``), ``--trace 1`` the per-layer
metrics of a separate traced pass (``trace.py``), the tracing overhead and
the stage rows of the baseline table.  Human-readable lines come first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results, digests and spans are also written to
``perfbench/.work/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from itertools import chain
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

SETUP_SPAWNS = 9        # fresh interpreters per run for setup_s (median)
MIN_MODELS = 100        # so that at least ten samples lie beyond the p90
WARMUP_MODELS = 5       # run once untimed first; the timed loop repeats them
# Machine speed: time reference() after every model and rescale latencies to
# the speed at which reference() takes REFERENCE_S, about its time on the
# 2-core x86-64 VM the bounds were set on.
REFERENCE_S = 0.003
REFERENCE_WINDOW = 5
BASELINE_REPEATS = 3
BASELINE_STAGES = {
    "cli.run_report": "baseline.run_report_ms",
    "bateman.build": "baseline.build_ms",
    "adjoint.matrix": "baseline.adjoint_ms",
    "spectral.eigen": "baseline.eigen_ms",
    "ladders.build": "baseline.ladders_ms",
    "ladders.table": "baseline.table_ms",
}
BASELINE_LADDER_STATES = range(5)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("families", "exact-modes", "float-modes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Runs models through cli.main, checks them and keeps the tallies."""

    def __init__(self, cli, checks):
        self.cli = cli
        self.checks = checks
        self.out = WORK / f"report-{os.getpid()}.json"
        self.attempted = 0
        self.failures: dict[int, str] = {}     # model index -> first problem
        self.digests: dict[int, str] = {}
        self.frequencies = [0, 0, 0]     # reported, exact, exact status right

    def run(self, model, tracer=None) -> float:
        """One closed-loop call; returns its latency in seconds."""
        argv = [*model.argv, "--format", "json", "--out", str(self.out)]
        if tracer is not None:
            tracer.model = model.index
        self.attempted += 1
        stderr = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except Exception:
            latency = perf_counter() - start
            self._fail(model, traceback.format_exc(limit=-2))
            return latency
        latency = perf_counter() - start
        if code != 0:
            self._fail(model, f"exit code {code}: {stderr.getvalue().strip()}")
            return latency
        payload = self.out.read_bytes()
        try:
            report = json.loads(payload)
            problems = self.checks.check_report(model, report)
            counts = self.checks.frequency_counts(model, report)
        except Exception:                  # a malformed report
            self._fail(model, "report could not be checked: "
                              + traceback.format_exc(limit=-2))
            return latency
        digest = self.checks.digest(payload)
        if self.digests.setdefault(model.index, digest) != digest:
            problems.append("report differs from an earlier run of the same model")
        if problems:
            self._fail(model, "; ".join(problems[:3]))
            return latency
        for i, n in enumerate(counts):
            self.frequencies[i] += n
        return latency

    def _fail(self, model, why: str) -> None:
        self.failures.setdefault(
            model.index, f"model {model.index} ({model.stratum}, "
                         f"{' '.join(model.argv)}): {why}")

    def compare_digests(self, path: Path) -> None:
        """Check digests against an earlier run of this seed and these
        sources (``digest_path``), then store them."""
        earlier = json.loads(path.read_text()) if path.exists() else {}
        for key, digest in earlier.items():
            if self.digests.get(int(key), digest) != digest:
                self.failures.setdefault(
                    int(key), f"model {key}: digest differs from an earlier run")
        merged = {**earlier, **{str(k): v for k, v in self.digests.items()}}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(merged, sort_keys=True))
        tmp.replace(path)


def digest_path(workload: str, seed: int) -> Path:
    """Where the digests of one workload and seed are kept between runs.

    The name carries a hash of the program's sources and of the model
    generator, so only runs of the same code on the same models are compared:
    a change that alters reports is not a failure.
    """
    sources = hashlib.sha256()
    paths = sorted((SRC / "quadladder").rglob("*.py"))
    for path in [*paths, Path(__file__).with_name("models.py")]:
        sources.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return WORK / f"digests-{workload}-{seed}-{sources.hexdigest()[:16]}.json"


def reference() -> float:
    """Seconds taken by a fixed pure-Python workload akin to the program's.

    Fraction arithmetic on growing big integers and dict traffic.  Timed next
    to every measurement, it tracks how fast the machine runs Python code at
    that moment.
    """
    start = perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 300):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        seen[i, i % 7] = acc.numerator % 97
    return perf_counter() - start


def rescale(times: list[float], refs: list[float]) -> list[float]:
    """Each time at the machine speed of REFERENCE_S.

    A time is multiplied by REFERENCE_S over the median reference time of the
    REFERENCE_WINDOW measurements on either side of it, so a phase in which
    the shared machine runs slower does not read as a slower program.
    """
    out = []
    for i, t in enumerate(times):
        window = refs[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 1]
        out.append(t * REFERENCE_S / statistics.median(window))
    return out


def closed_loop(runner, blocks, seconds: float):
    """Whole blocks until ``seconds`` passed and MIN_MODELS ran.

    Returns each model's latency, the reference time taken right after it,
    and the size of each block run.
    """
    latencies, refs, sizes = [], [], []
    start = perf_counter()
    for block in blocks:
        for model in block:
            latencies.append(runner.run(model))
            refs.append(reference())
        sizes.append(len(block))
        if perf_counter() - start >= seconds and len(latencies) >= MIN_MODELS:
            break
    return latencies, refs, sizes


def measure_setup() -> float:
    """Median wall time for a fresh interpreter to import quadladder.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import quadladder.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)  # bytecode
    times = []
    for _ in range(SETUP_SPAWNS):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        times.append(perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def latency_metrics(latencies: list[float], sizes: list[int]) -> dict:
    """p50 and p90 of the per-model latencies, and throughput: models per
    second of time in cli.main, as the median over blocks."""
    per_block, at = [], 0
    for size in sizes:
        per_block.append(size / sum(latencies[at:at + size]))
        at += size
    return {
        "report_ms_p50": (1000.0 * statistics.median(latencies), "ms"),
        "report_ms_p90": (1000.0 * statistics.quantiles(latencies, n=10)[-1], "ms"),
        "models_per_s": (statistics.median(per_block), "1/s"),
    }


def end_to_end(runner, latencies: list[float], sizes: list[int],
               setup_s: float) -> dict:
    reported, exact, status_ok = runner.frequencies
    return {
        "setup_s": (setup_s, "s"),
        **latency_metrics(latencies, sizes),
        "exact_status_rate": (status_ok / reported if reported else 0.0, "ratio"),
        "success_rate": (1.0 - len(runner.failures) / runner.attempted, "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def baseline_rows() -> dict:
    """The stage split of run_report(b=1/2) and run_report(b=1/2,
    ladder_states=N), N = 0..4, in-process: the ROADMAP baseline table."""
    from perfbench import trace
    from quadladder import cli
    b = Fraction(1, 2)
    stages: dict[str, list[float]] = {metric: [] for metric in BASELINE_STAGES.values()}
    for _ in range(BASELINE_REPEATS):
        with trace.Tracer() as tracer:
            cli.run_report(b=b)
        inclusive = tracer.inclusive_times()
        for span, metric in BASELINE_STAGES.items():
            stages[metric].append(1000.0 * inclusive[span])
    rows = {metric: statistics.median(v) for metric, v in stages.items()}
    for n in BASELINE_LADDER_STATES:
        times = []
        for _ in range(BASELINE_REPEATS):
            start = perf_counter()
            cli.run_report(b=b, ladder_states=n)
            times.append(perf_counter() - start)
        rows[f"baseline.ladder_states_{n}_ms"] = 1000.0 * statistics.median(times)
    return rows


def per_layer(runner, blocks, seconds: float, problems: list) -> dict:
    """Each model untraced, then again traced; layer metrics from the spans.

    Pairing the two calls model by model exposes both to the same machine
    state, so their ratio is the tracing overhead and not machine drift.
    """
    from perfbench import trace
    tracer = trace.Tracer()
    untraced = 0.0
    latencies: dict[int, float] = {}      # traced call of each model
    start = perf_counter()
    for block in blocks:
        for model in block:
            untraced += runner.run(model)
            with tracer:
                latencies[model.index] = runner.run(model, tracer)
        if perf_counter() - start >= seconds:
            break
    n, traced = len(latencies), sum(latencies.values())
    metrics = tracer.per_layer(n)
    problems += tracer.problems(latencies)
    # The self-time metrics must cover every span: their sum, plus the time
    # in the timed calls outside any span, is the traced wall time.
    outside = traced - tracer.root_time()
    accounted = n * sum(metrics[m] for m in trace.SELF_TIME_METRICS.values()) / 1000.0
    if outside < 0 or abs(accounted + outside - traced) > 1e-6 * traced:
        problems.append(
            f"self-time metrics ({accounted:.6f} s) plus time outside spans "
            f"({outside:.6f} s) do not add up to the traced wall time ({traced:.6f} s)")
    reported, exact, _ = runner.frequencies
    metrics.update({
        "cli.exact_fraction": exact / reported if reported else 0.0,
        "trace.outside_ms": 1000.0 * outside / n,
        "trace.models_per_s": n / traced,
        "trace.untraced_models_per_s": n / untraced,
        "trace.overhead_ratio": traced / untraced,
    })
    metrics.update(baseline_rows())
    spans_path = WORK / f"spans-{os.getpid()}.json"
    spans_path.write_text(json.dumps(tracer.spans))
    print(f"# traced pass: {n} models, {len(tracer.spans)} spans "
          f"(written to {spans_path.name})")
    print(f"# tracing overhead: {n / untraced:.3f} models/s untraced, "
          f"{n / traced:.3f} models/s traced, ratio {traced / untraced:.4f}")
    return {name: (value, _unit(name)) for name, value in metrics.items()}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_calls"):
        return "count"
    if name.endswith("models_per_s"):
        return "1/s"
    return "ratio"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quadladder" / "cli.py").is_file():
        print(f"error: no quadladder sources under {SRC}; run from a source "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import checks, models
    from quadladder import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported quadladder from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = environment()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# env: " + ", ".join(f"{k} {v}" for k, v in env.items()))

    runner = Runner(cli, checks)
    stream = models.blocks(args.workload, args.seed)
    first = next(stream)
    for model in first[:WARMUP_MODELS]:    # warm-up and digest reference
        runner.run(model)
    runner.frequencies = [0, 0, 0]         # count the measured models only
    blocks = chain([first], stream)

    problems: list[str] = []           # run-level, beside failed models
    raw: dict = {}                     # latency metrics before rescaling
    digests = digest_path(args.workload, args.seed)
    if args.trace:
        metrics = per_layer(runner, blocks, args.seconds, problems)
        runner.compare_digests(digests)
    else:
        setup_s = measure_setup()
        latencies, refs, sizes = closed_loop(runner, blocks, args.seconds)
        runner.compare_digests(digests)
        raw = latency_metrics(latencies, sizes)
        metrics = end_to_end(runner, rescale(latencies, refs), sizes, setup_s)
        p90 = raw["report_ms_p90"][0] / 1000.0
        print(f"# closed loop, one client: {len(latencies)} models in {len(sizes)} blocks, "
              f"{sum(latencies):.2f} s in cli.main, "
              f"{sum(t > p90 for t in latencies)} samples above p90; "
              f"setup_s is the median of {SETUP_SPAWNS} fresh interpreters")
        print("# as measured: " + ", ".join(
            f"{name} = {value:.6g} {unit}" for name, (value, unit) in raw.items()))
        print(f"# machine speed: reference() took {statistics.median(refs) * 1e3:.3f} ms "
              f"(median), {REFERENCE_S * 1e3:g} ms at the reference speed; the "
              "latency metrics below are rescaled to that speed")
        reported, exact, _ = runner.frequencies
        print(f"# exact_fraction = {exact / max(reported, 1):.4f} ({exact} of {reported} "
              f"frequencies reported exact); error_rate = "
              f"{len(runner.failures) / runner.attempted:.4f}")

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for failure in problems + list(runner.failures.values())[:5]:
        print(f"# FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not runner.failures and not problems,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=env,
                  as_measured={name: value for name, (value, _) in raw.items()})
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
