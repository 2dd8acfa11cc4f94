"""Command-line pipeline: Hamiltonian in, full ladder analysis out.

One invocation runs model construction, validation, adjoint matrix,
characteristic polynomial, natural frequencies, ladder operators, the
commutator table, and (on request) symbolic ladder-state families, emitting
a deterministic text or JSON report.  The JSON text is byte-identical to
``json.dumps(report, indent=2)`` plus a newline.  Exit codes: 0 on success,
2 for validation errors (bad expressions, non-quadratic or non-Hermitian
input, bad flags, a report that cannot be written), 3 for numeric failures
(non-convergence, residuals out of tolerance, values beyond the float range).

Model sources (exactly one, which argparse enforces):
  --bateman b=<rat>  |  --bateman m=<rat>,gamma=<rat>,omega=<rat>[,hbar=<rat>]
  --expr "<expression>"         (see the dsl module for the grammar)
  --model <path.json>           {"bateman": {...}} or {"expression": "..."}
  --sweep b=<start>..<end>:<step>
The sweep fans the Bateman pipeline out over a range of b values and merges
the runs, in order, into one report.

Set QUADLADDER_NO_COLOR=1 (or pipe the output) to disable ANSI styling.
"""

import argparse
import json
import os
import stat
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .adjoint import QuadraticHamiltonian, adjoint_matrix, matrix_to_json, validate_quadratic
from .bateman import BatemanParams, build_hd, dimensionless_b, vacuum_functions
from .dsl import parse_to_polynomial
from .errors import (
    NotQuadraticError,
    NumericFailureError,
    QuadladderError,
    ValidationError,
    abbreviated,
)
from .ladders import build_ladders, commutator_table, ladders_to_json
from .spectral import eigen_decompose, spectral_to_json
from .wavefn import (
    annihilation_check,
    eigencheck,  # not called here; perfbench/trace.py wraps cli.eigencheck
    function_to_json,
    ladder_spectrum,
    spectrum_to_json,
)
from .weyl import ComplexRational, render_terms

__all__ = ["main", "run_report", "render_text", "build_parser"]

REPORT_SCHEMA = "quadladder.report/1"
SWEEP_SCHEMA = "quadladder.sweep/1"

# Input bounds, each refused with a ValidationError (exit 2) before the work
# it bounds starts.  A families report raises no state: run_report(b=1/2)
# takes 2-3.5 ms at N = 8 and 3.5-4.5 ms at N = 16 on a 2-core x86-64 VM.
MAX_LADDER_STATES = 16
MAX_SWEEP_VALUES = 1000


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _parse_rational(text: str) -> Fraction:
    # Fraction() reads an exponent such as 1e10000000 past the digit limit
    # that bounds integers, and underscores only from Python 3.11 on.
    shown = abbreviated(text)
    for mark, what in (("e", "exponent notation is"), ("_", "underscores are")):
        if mark in text.lower():
            raise ValidationError(f"{what} not accepted: {shown!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational number: {shown!r}") from exc


def _bateman_b(fields: dict[str, Fraction]) -> Fraction:
    """b from exactly {b}, or {m, gamma, omega} plus an optional hbar."""
    keys = set(fields)
    if keys == {"b"}:
        b = fields["b"]
    elif {"m", "gamma", "omega"} <= keys <= {"m", "gamma", "omega", "hbar"}:
        try:
            b = dimensionless_b(BatemanParams(**fields))
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
    else:
        raise ValidationError("a Bateman model takes b, or m, gamma, omega and "
                              f"an optional hbar; got {sorted(keys)}")
    if b < 0:
        raise ValidationError(f"b must be nonnegative, got {b}")
    return b


def _parse_bateman_spec(spec: str) -> Fraction:
    """'b=<rat>' or 'm=<rat>,gamma=<rat>,omega=<rat>[,hbar=<rat>]' -> b."""
    fields: dict[str, Fraction] = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ValidationError(
                f"bad --bateman field {part!r}; expected key=value")
        key, _, value = part.partition("=")
        key = key.strip()
        if key in fields:
            raise ValidationError(f"repeated --bateman field {key!r}")
        fields[key] = _parse_rational(value)
    return _bateman_b(fields)


def _parse_sweep_spec(spec: str) -> list[Fraction]:
    """'b=<start>..<end>:<step>' -> inclusive list of exact values."""
    if not spec.startswith("b="):
        raise ValidationError("--sweep supports only the form b=<start>..<end>:<step>")
    body = spec[2:]
    if ".." not in body or ":" not in body:
        raise ValidationError("--sweep expects b=<start>..<end>:<step>")
    range_part, _, step_part = body.rpartition(":")
    start_txt, _, end_txt = range_part.partition("..")
    start = _parse_rational(start_txt)
    end = _parse_rational(end_txt)
    step = _parse_rational(step_part)
    if step <= 0:
        raise ValidationError(f"sweep step must be positive, got {step}")
    if start > end:
        raise ValidationError(f"sweep range is empty: {start} > {end}")
    if start < 0:
        raise ValidationError(f"b must be nonnegative, got {start}")
    count = (end - start) // step + 1
    if count > MAX_SWEEP_VALUES:
        raise ValidationError(
            f"sweep has {count} values; the limit is {MAX_SWEEP_VALUES}")
    values = []
    value = start
    while value <= end:
        values.append(value)
        value += step
    return values


def _rational_from_json(value) -> Fraction:
    # type() is int, not isinstance(): JSON true and false are no numbers.
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        return _parse_rational(value)
    if (isinstance(value, list) and len(value) == 2
            and all(type(v) is int for v in value)):
        if value[1] == 0:
            raise ValidationError("zero denominator in rational pair")
        return Fraction(value[0], value[1])
    raise ValidationError(f"not a rational number: {abbreviated(repr(value))} "
                          "(use int, 'a/b', or [num, den])")


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict, refusing a repeated key."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValidationError(f"repeated model file key {max(keys, key=keys.count)!r}")
    return dict(pairs)


def _load_model_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ValidationError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model file {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"model file {path} is not UTF-8 (byte {exc.start})") from exc
    except ValueError as exc:  # int() refuses integer text past 4,300 digits
        raise ValidationError(f"model file {path} has an integer past 4,300 digits") from exc
    except RecursionError as exc:
        raise ValidationError("model file nests too deeply for the JSON decoder") from exc
    if not isinstance(doc, dict):
        raise ValidationError("model file must hold a JSON object")
    extra = sorted(set(doc) - {"bateman", "expression"})
    if extra:
        raise ValidationError(f"unknown model file key {extra[0]!r}; a model file "
                              "holds one 'bateman' or 'expression' entry")
    if ("bateman" in doc) == ("expression" in doc):
        raise ValidationError(
            "model file needs exactly one of a 'bateman' and an 'expression' entry")
    if "bateman" in doc:
        fields = doc["bateman"]
        if not isinstance(fields, dict):
            raise ValidationError("'bateman' must be an object")
        return {"b": _bateman_b(
            {key: _rational_from_json(value) for key, value in fields.items()})}
    if not isinstance(doc["expression"], str):
        raise ValidationError("'expression' must be a string")
    return {"expression": doc["expression"]}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadladder",
        description="Ladder-operator analysis of quadratic Hamiltonians "
                    "via the adjoint matrix representation.")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--bateman", metavar="SPEC",
        help="b=<rat> or m=<rat>,gamma=<rat>,omega=<rat>[,hbar=<rat>]")
    source.add_argument(
        "--expr", metavar="TEXT",
        help="Hamiltonian expression, e.g. '1/2*(p1^2 + x1^2)'")
    source.add_argument(
        "--model", metavar="PATH",
        help="JSON model file with a 'bateman' or 'expression' entry")
    source.add_argument(
        "--sweep", metavar="SPEC",
        help="b=<start>..<end>:<step>; runs the Bateman pipeline per value")
    parser.add_argument(
        "--ladder-states", metavar="N", type=int, default=None,
        help="also generate both ladder-state families up to n, m <= N "
             "(Bateman models only)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)")
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the report to PATH instead of stdout")
    return parser


_PARSER = build_parser()  # parse_args keeps no state between calls


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def run_report(*, b: Fraction | None = None, expression: str | None = None,
               ladder_states: int | None = None) -> dict:
    """Run the full pipeline for one model and return the JSON-able report.

    Exactly one of ``b`` (Bateman damping ratio) and ``expression`` selects
    the model.  A defective spectrum is not an error here: the report then
    carries the spectral section with ``defective`` true and no ladders.
    """
    if (b is None) == (expression is None):
        raise ValidationError("exactly one model source is required")
    if ladder_states is not None:
        # Usage errors go before any model work; only the defective-spectrum
        # refusal below waits, because it needs the spectrum.
        if b is None:
            raise ValidationError(
                "--ladder-states requires a --bateman model (its vacuum "
                "wavefunctions seed the families)")
        if not 0 <= ladder_states <= MAX_LADDER_STATES:
            raise ValidationError(
                f"--ladder-states must be between 0 and {MAX_LADDER_STATES}, "
                f"got {ladder_states}")
    if b is not None:
        ham = build_hd(b)
    else:
        ham = validate_quadratic(parse_to_polynomial(expression))
        if ham.op.degree != 2:
            # validate_quadratic lets constants through (split_h0_h1 needs
            # the zero operator), but a model needs a quadratic part.
            raise NotQuadraticError(
                "operator has no degree-2 part; a Hamiltonian must have "
                "total degree exactly 2")
    model_doc = {
        "kind": "expression" if b is None else "bateman",
        "b": None if b is None else [b.numerator, b.denominator],
        "num_modes": ham.num_modes,
        "hamiltonian": str(ham.op),
        "energy_offset": list(ham.energy_offset.as_quad()),
    }
    matrix = adjoint_matrix(ham)
    spectrum = eigen_decompose(matrix)
    report: dict = {
        "schema": REPORT_SCHEMA,
        "model": model_doc,
        "adjoint_matrix": matrix_to_json(matrix),
        "spectral": spectral_to_json(spectrum),
        "ladders": None,
        "families": None,
    }
    if spectrum.defective:
        if ladder_states is not None:
            raise ValidationError(
                "--ladder-states is unavailable: the spectrum is defective")
        return report
    ladders = build_ladders(ham, spectrum)
    exact = all(lad.lam_exact is not None for lad in ladders)
    # The exact table is null once a ladder is inexact; skip building it.
    report["ladders"] = ladders_to_json(
        ladders, commutator_table(ladders) if exact else None)
    if ladder_states is not None:
        report["families"] = _families_doc(ham, ladders, ladder_states)
    return report


def _families_doc(ham: QuadraticHamiltonian, ladders, n_max: int) -> list[dict]:
    """Both families, each ladder named by its cached text."""
    psi0, psi1 = vacuum_functions()
    lowering = [lad for lad in ladders if lad.lam.real < 0]
    raising = [lad for lad in ladders if lad.lam.real >= 0]
    docs = []
    for family, vacuum, raisers, killers in (
            ("vacuum0", psi0, raising, lowering),
            ("vacuum1", psi1, lowering, raising)):
        raise_a, raise_b = raisers[0], raisers[1]
        entries = ladder_spectrum(
            ham, vacuum, raise_a, raise_b, n_max, n_max, family=family)
        doc = spectrum_to_json(entries)
        doc["vacuum"] = function_to_json(vacuum)
        # ladder_spectrum found the vacuum energy as the (0, 0) entry's.
        doc["vacuum_energy_exact"] = list(entries[0].energy.as_quad())
        doc["raising"] = [raise_a.text, raise_b.text]
        doc["annihilated_by"] = [
            lad.text for lad in killers if annihilation_check(lad, vacuum)]
        docs.append(doc)
    return docs


def run_sweep(values: list[Fraction], *, ladder_states: int | None) -> dict:
    runs = [run_report(b=value, ladder_states=ladder_states) for value in values]
    return {
        "schema": SWEEP_SCHEMA,
        "parameter": "b",
        "values": [[v.numerator, v.denominator] for v in values],
        "runs": runs,
    }


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

def _quad_str(quad) -> str:
    re = Fraction(quad[0], quad[1])
    im = Fraction(quad[2], quad[3])
    return str(ComplexRational(re, im))


def _complex_str(pair) -> str:
    re, im = pair
    if im == 0:
        return repr(re)
    sign = "+" if im >= 0 else "-"
    return f"{re!r} {sign} {abs(im)!r}i"


def _value_str(float_pair, quad) -> str:
    if quad is not None:
        return f"{_quad_str(quad)} (exact)"
    return _complex_str(float_pair)


def _char_poly_str(quads) -> str:
    parts = []
    for k in range(len(quads) - 1, -1, -1):
        coeff = ComplexRational(
            Fraction(quads[k][0], quads[k][1]), Fraction(quads[k][2], quads[k][3]))
        if not coeff:
            continue
        mono = "" if k == 0 else ("lambda" if k == 1 else f"lambda^{k}")
        parts.append((coeff, mono))
    return render_terms(parts)


def render_text(report: dict, color: bool = False) -> str:
    """Human-readable report; sections mirror the JSON structure."""
    def head(title: str) -> str:
        return f"\033[1m{title}\033[0m" if color else title

    lines: list[str] = []
    if report.get("schema") == SWEEP_SCHEMA:
        for i, run in enumerate(report["runs"]):
            if i:
                lines.append("")
                lines.append("=" * 64)
                lines.append("")
            lines.append(render_text(run, color).rstrip("\n"))
        return "\n".join(lines) + "\n"

    model = report["model"]
    lines.append(head("Model"))
    lines.append(f"  kind: {model['kind']}")
    if model["b"] is not None:
        lines.append(f"  b = {Fraction(*model['b'])}")
    lines.append(f"  modes: {model['num_modes']}")
    lines.append(f"  H = {model['hamiltonian']}")
    offset = _quad_str(model["energy_offset"])
    if offset != "0":
        lines.append(f"  constant energy offset: {offset}")
    lines.append("")

    matrix = report["adjoint_matrix"]
    dim = matrix["dim"]
    lines.append(head(f"Adjoint matrix ({dim}x{dim}, basis x1..xK, p1..pK)"))
    exact = matrix.get("entries_exact")
    for r in range(dim):
        if exact is not None:
            row = [_quad_str(exact[r * dim + c]) for c in range(dim)]
        else:
            row = [_complex_str(matrix["entries"][r * dim + c]) for c in range(dim)]
        lines.append("  [ " + ", ".join(row) + " ]")
    lines.append("")

    spectral = report["spectral"]
    lines.append(head("Characteristic polynomial"))
    lines.append(f"  {_char_poly_str(spectral['char_poly_exact'])}")
    lines.append("")
    lines.append(head("Natural frequencies"))
    for freq in spectral["frequencies"]:
        value = _value_str(freq["lambda"], freq["lambda_exact"])
        lines.append(
            f"  lambda = {value}   "
            f"(algebraic {freq['algebraic_multiplicity']}, "
            f"geometric {freq['geometric_multiplicity']})")
    if spectral["defective"]:
        lines.append("  spectrum is defective: no complete ladder set exists")
    lines.append("")

    if report["ladders"] is not None:
        lines.append(head("Ladder operators"))
        for idx, lad in enumerate(report["ladders"]["ladders"], start=1):
            value = _value_str(lad["lambda"], lad["lambda_exact"])
            lines.append(f"  Z{idx}: lambda = {value}")
            lines.append(f"      Z{idx} = {lad['text']}")
        table = report["ladders"].get("commutator_table")
        if table is not None:
            lines.append("")
            lines.append(head("Commutator table [Zi, Zj]"))
            for row in table:
                lines.append("  [ " + ", ".join(_quad_str(v) for v in row) + " ]")
        lines.append("")

    if report["families"] is not None:
        for fam in report["families"]:
            lines.append(head(f"Ladder family {fam['family']}"))
            lines.append(f"  vacuum: {fam['vacuum']['text']}")
            lines.append(f"  vacuum energy: {_quad_str(fam['vacuum_energy_exact'])}")
            lines.append(f"  raising: {fam['raising'][0]}  |  {fam['raising'][1]}")
            for killer in fam["annihilated_by"]:
                lines.append(f"  annihilated by: {killer}")
            lines.append("  n  m  energy            annihilated  square-integrable")
            for state in fam["states"]:
                energy = _quad_str(state["energy_exact"])
                flag = state["square_integrable"]
                flag_txt = "-" if flag is None else str(flag).lower()
                lines.append(
                    f"  {state['n']:<2} {state['m']:<2} {energy:<17} "
                    f"{str(state['annihilated']).lower():<12} {flag_txt}")
            lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


# ---------------------------------------------------------------------------
# JSON rendering
# ---------------------------------------------------------------------------

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


# The text json.dumps writes for each scalar type.
_SCALAR_TEXT = {
    int: int.__repr__,
    float: _float_text,
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, written directly.

    json uses its C encoder only without ``indent``.  Only dict (with str
    keys), list, str, int, float, bool and None are written; any other type
    raises TypeError.  A list of one scalar type is written by one join.
    """
    kind = type(value)
    if kind is not dict and kind is not list:
        write = _SCALAR_TEXT.get(kind)
        if write is None:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        return write(value)
    if not value:
        return "{}" if kind is dict else "[]"
    inner = pad + "  "
    sep = "," + inner
    if kind is dict:
        return "{" + inner + sep.join([
            encode_basestring_ascii(key) + ": " + _json_text(item, inner)
            for key, item in value.items()]) + pad + "}"
    kinds = set(map(type, value))
    write = _SCALAR_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
    body = sep.join(map(write, value) if write else
                    [_json_text(item, inner) for item in value])
    return "[" + inner + body + pad + "]"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _provenance(exc: BaseException) -> str:
    """Deepest package frame on the traceback, as the error's module label.

    A chained error is labelled by the frames of its cause, so an input the
    CLI rewraps is still attributed to the module that rejected it.
    """
    module = "quadladder.cli"
    tb = (exc.__cause__ or exc).__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name == "__main__":
            name = "quadladder.cli"
        if name.startswith("quadladder"):
            module = name
        tb = tb.tb_next
    return module


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)  # exits 2 unless exactly one model source
    try:
        if args.sweep is not None:
            values = _parse_sweep_spec(args.sweep)
            report = run_sweep(values, ladder_states=args.ladder_states)
        else:
            b = None
            expression = None
            if args.bateman is not None:
                b = _parse_bateman_spec(args.bateman)
            elif args.expr is not None:
                expression = args.expr
            else:
                model = _load_model_file(args.model)
                b = model.get("b")
                expression = model.get("expression")
            report = run_report(
                b=b, expression=expression, ladder_states=args.ladder_states)
    except NumericFailureError as exc:
        print(f"error [{_provenance(exc)}]: {exc}", file=sys.stderr)
        return 3
    except QuadladderError as exc:
        print(f"error [{_provenance(exc)}]: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        payload = _json_text(report) + "\n"
    else:
        color = (
            args.out is None
            and sys.stdout.isatty()
            and not os.environ.get("QUADLADDER_NO_COLOR"))
        payload = render_text(report, color=color)
    target = "stdout" if args.out is None else args.out
    try:
        if args.out is None:
            sys.stdout.write(payload)
            sys.stdout.flush()
        else:
            # Rewritten in place: truncating a file that holds data to zero
            # makes ext4 and XFS start writeback on close.
            fd = os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666)
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    fh.truncate()
    except OSError as exc:
        print(f"error [quadladder.cli]: cannot write report to {target}: {exc}",
              file=sys.stderr)
        if args.out is None:
            # The interpreter flushes stdout again at exit; let that succeed.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.close(devnull)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
