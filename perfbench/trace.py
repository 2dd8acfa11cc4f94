"""Span tracing from outside the program.

``Tracer.install`` replaces public functions of quadladder with wrappers at
the module attribute their callers look them up by, so nothing under ``src/``
changes.  Each wrapper records a span (name, start, end, parent span, model)
in memory; ``per_layer`` turns the spans into self times per layer.  A span's
self time is its duration minus the durations of its child spans.
"""

import importlib
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  Every span name maps to one layer metric.
PATCHES = (
    ("quadladder.cli", "main", "cli.main"),
    ("quadladder.cli", "run_report", "cli.run_report"),
    ("quadladder.cli", "parse_to_polynomial", "dsl.parse"),
    ("quadladder.cli", "validate_quadratic", "adjoint.validate"),
    ("quadladder.cli", "build_hd", "bateman.build"),
    ("quadladder.cli", "adjoint_matrix", "adjoint.matrix"),
    ("quadladder.cli", "eigen_decompose", "spectral.eigen"),
    ("quadladder.spectral", "characteristic_polynomial", "spectral.charpoly"),
    ("quadladder.spectral", "roots", "spectral.roots"),
    ("quadladder.cli", "build_ladders", "ladders.build"),
    ("quadladder.cli", "commutator_table", "ladders.table"),
    ("quadladder.adjoint", "commutator", "weyl.commutator"),
    ("quadladder.ladders", "commutator", "weyl.commutator"),
    ("quadladder.cli", "ladder_spectrum", "wavefn.spectrum"),
    ("quadladder.cli", "eigencheck", "wavefn.eigencheck"),
    ("quadladder.wavefn", "eigencheck", "wavefn.eigencheck"),
    ("quadladder.wavefn", "_apply_to_function", "wavefn.apply"),
)

# eigencheck applies H to the state itself; that application is part of the
# check, so it opens no span of its own and stays in eigencheck's self time.
_NOT_UNDER = {"wavefn.apply": "wavefn.eigencheck"}

# Self time per span name -> the per-layer metric it is reported as.
SELF_TIME_METRICS = {
    "cli.main": "cli.render_ms",
    "cli.run_report": "cli.assemble_ms",
    "dsl.parse": "dsl.parse_ms",
    "adjoint.validate": "adjoint.validate_ms",
    "bateman.build": "bateman.build_ms",
    "adjoint.matrix": "adjoint.matrix_ms",
    "spectral.eigen": "spectral.eigvec_ms",
    "spectral.charpoly": "spectral.charpoly_ms",
    "spectral.roots": "spectral.roots_ms",
    "ladders.build": "ladders.build_ms",
    "ladders.table": "ladders.table_ms",
    "weyl.commutator": "weyl.commutator_ms",
    "wavefn.spectrum": "wavefn.spectrum_ms",
    "wavefn.eigencheck": "wavefn.eigencheck_ms",
    "wavefn.apply": "wavefn.apply_ms",
}

CALL_COUNT_METRICS = {
    "weyl.commutator": "weyl.commutator_calls",
    "wavefn.eigencheck": "wavefn.eigencheck_calls",
}

NAME, START, END, PARENT, MODEL = range(5)


class Tracer:
    """Collects spans while installed; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.model: int | None = None
        self.frequencies = [0, 0]      # eigen_decompose results: [all, exact]
        self.ladders = [0, 0]          # build_ladders results: [all, exact]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, span in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        not_under = _NOT_UNDER.get(name)

        def traced(*args, **kwargs):
            if not_under and stack and spans[stack[-1]][NAME] == not_under:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          stack[-1] if stack else -1, self.model])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = perf_counter()
            self._count(name, result)
            return result

        return traced

    def _count(self, name: str, result) -> None:
        if name == "spectral.eigen":
            self.frequencies[0] += len(result.frequencies)
            self.frequencies[1] += sum(f.lam_exact is not None for f in result.frequencies)
        elif name == "ladders.build":
            self.ladders[0] += len(result)
            self.ladders[1] += sum(lad.lam_exact is not None for lad in result)

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[NAME]] += span[END] - span[START]
            if span[PARENT] >= 0:
                out[self.spans[span[PARENT]][NAME]] -= span[END] - span[START]
        return dict(out)

    def problems(self, latencies: dict[int, float]) -> list[str]:
        """Bookkeeping errors, given each traced model's measured latency.

        Every span must lie inside its parent and have a self time >= 0 (a
        span attributed to the wrong parent breaks one or the other), and a
        model's root spans must fit inside the latency timed around its call.
        """
        out = []
        children = [0.0] * len(self.spans)
        roots: dict[int, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            duration = span[END] - span[START]
            if span[PARENT] < 0:
                roots[span[MODEL]] += duration
                continue
            parent = self.spans[span[PARENT]]
            if not (span[PARENT] < i and parent[START] <= span[START]
                    and span[END] <= parent[END]):
                out.append(f"span {i} ({span[NAME]}) is not inside its parent "
                           f"{span[PARENT]} ({parent[NAME]})")
            children[span[PARENT]] += duration
        for i, span in enumerate(self.spans):
            if span[END] - span[START] - children[i] < -1e-9:
                out.append(f"span {i} ({span[NAME]}) has a negative self time")
        for model, root in roots.items():
            if model not in latencies or root > latencies[model]:
                out.append(f"model {model}: spans cover {root:.6f} s, more than "
                           f"its call took")
        return out[:5]

    def root_time(self) -> float:
        """Seconds covered by spans without a parent."""
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[NAME]] += 1
        return dict(out)

    def inclusive_times(self) -> dict[str, float]:
        """Total seconds per span name, children included."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[NAME]] += span[END] - span[START]
        return dict(out)

    def per_layer(self, models: int) -> dict[str, float]:
        """Per-model mean self time (ms) and call count, plus exact ratios."""
        selfs, calls = self.self_times(), self.calls()
        out = {metric: 1000.0 * selfs.get(span, 0.0) / models
               for span, metric in SELF_TIME_METRICS.items()}
        out.update({metric: calls.get(span, 0) / models
                    for span, metric in CALL_COUNT_METRICS.items()})
        out["spectral.exact_lift_ratio"] = _ratio(self.frequencies)
        out["ladders.exact_ratio"] = _ratio(self.ladders)
        return out


def _ratio(pair: list[int]) -> float:
    return pair[1] / pair[0] if pair[0] else 0.0
