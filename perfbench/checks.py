"""Output checks on quadladder JSON reports.

Each check compares a report with what the generator knows about its model,
or with an identity the report must satisfy on its own data; none of them
calls the program under test.  ``check_report`` returns the list of problems
found, empty when the report passes.
"""

import hashlib
from fractions import Fraction

import numpy as np

from .models import Model, adjoint_real_part

FLOAT_TOL = 1e-9          # relative agreement of float values
Exact = tuple[Fraction, Fraction]


def digest(payload: bytes) -> str:
    """The fingerprint recorded per model for the determinism check."""
    return hashlib.sha256(payload).hexdigest()


def _q(quad) -> Exact:
    return Fraction(quad[0], quad[1]), Fraction(quad[2], quad[3])


def _mul(a: Exact, b: Exact) -> Exact:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))


def frequency_counts(model: Model, report: dict) -> tuple[int, int, int]:
    """(frequencies reported, reported exact, exact status right).

    The status is right when a frequency is reported exactly if and only if
    it is rational: all of them on ``families`` and ``exact-modes``, none on
    ``float-modes``.
    """
    freqs = report["spectral"]["frequencies"]
    exact = sum(f["lambda_exact"] is not None for f in freqs)
    rational = model.frequencies is not None
    return len(freqs), exact, exact if rational else len(freqs) - exact


def check_report(model: Model, report: dict) -> list[str]:
    problems: list[str] = []
    k = model.num_modes
    dim = 2 * k
    if report.get("schema") != "quadladder.report/1":
        return [f"unexpected schema {report.get('schema')!r}"]
    if report["model"]["num_modes"] != k:
        return [f"num_modes {report['model']['num_modes']} != {k}"]

    matrix = report["adjoint_matrix"]
    r = adjoint_real_part(model.a, model.v, model.g)
    if matrix["dim"] != dim or matrix.get("entries_exact") is None:
        return problems + ["adjoint matrix has the wrong size or no exact entries"]
    expected = [(Fraction(0), r[i][j]) for i in range(dim) for j in range(dim)]
    if [_q(e) for e in matrix["entries_exact"]] != expected:
        problems.append("adjoint matrix differs from i*R built from the model")
    m_float = np.array([complex(*e) for e in matrix["entries"]]).reshape(dim, dim)

    spectral = report["spectral"]
    freqs = spectral["frequencies"]
    problems += _check_pairing(freqs)
    if sum(f["algebraic_multiplicity"] for f in freqs) != dim:
        problems.append("algebraic multiplicities do not add up to the dimension")
    if model.frequencies is not None:
        problems += _check_known_frequencies(freqs, model.frequencies)
    else:
        problems += _check_against_numpy(freqs, r)
    if spectral["defective"] != model.defective:
        problems.append(f"defective is {spectral['defective']}, expected {model.defective}")

    ladders = report["ladders"]
    if model.defective:
        if ladders is not None:
            problems.append("a defective spectrum reported ladders")
    elif ladders is None or len(ladders["ladders"]) != dim:
        problems.append("ladder set missing or incomplete")
    else:
        problems += _check_ladders(ladders, m_float, matrix["entries_exact"], k)

    if model.ladder_states is None:
        if report["families"] is not None:
            problems.append("families reported without --ladder-states")
    else:
        problems += _check_families(report["families"], model)
    return problems


def _check_pairing(freqs: list[dict]) -> list[str]:
    """Every lambda has a partner -conj(lambda) of the same multiplicity."""
    out = []
    for f in freqs:
        lam = complex(*f["lambda"])
        target = -lam.conjugate()
        partners = [o for o in freqs if _close(complex(*o["lambda"]), target)
                    and o["algebraic_multiplicity"] == f["algebraic_multiplicity"]]
        if not partners:
            out.append(f"lambda={lam} has no partner -conj(lambda)")
            continue
        if f["lambda_exact"] is not None:
            re, im = _q(f["lambda_exact"])
            exact_partners = [o for o in partners if o["lambda_exact"] is not None]
            if exact_partners and all(_q(o["lambda_exact"]) != (-re, im)
                                      for o in exact_partners):
                out.append(f"exact lambda={re}+{im}i pairs with no exact partner")
    return out


def _check_known_frequencies(freqs: list[dict],
                             truth: tuple[tuple[Exact, int], ...]) -> list[str]:
    out = []
    unused = list(truth)
    for f in freqs:
        lam = complex(*f["lambda"])
        match = next((t for t in unused
                      if _close(lam, complex(float(t[0][0]), float(t[0][1])))), None)
        if match is None:
            out.append(f"lambda={lam} is not a frequency of the model")
            continue
        unused.remove(match)
        if f["algebraic_multiplicity"] != match[1]:
            out.append(f"lambda={lam} has multiplicity "
                       f"{f['algebraic_multiplicity']}, expected {match[1]}")
        if f["lambda_exact"] is not None and _q(f["lambda_exact"]) != match[0]:
            out.append(f"exact lambda {_q(f['lambda_exact'])} != {match[0]}")
    if unused:
        out.append(f"{len(unused)} model frequencies were not reported")
    return out


def _check_against_numpy(freqs: list[dict], r) -> list[str]:
    """Irrational spectra: lambda must match numpy's eigenvalues of i*R."""
    out = []
    eig = list(1j * np.linalg.eigvals(np.array(r, dtype=float)))
    for f in freqs:
        lam = complex(*f["lambda"])
        if f["lambda_exact"] is not None:
            out.append(f"irrational lambda={lam} reported as exact")
        for _ in range(f["algebraic_multiplicity"]):
            best = min(range(len(eig)), key=lambda i: abs(eig[i] - lam), default=None)
            if best is None or not _close(lam, eig[best]):
                out.append(f"lambda={lam} does not match numpy.linalg.eigvals")
                break
            eig.pop(best)
    return out


def _check_ladders(doc: dict, m_float: np.ndarray, m_exact: list, k: int) -> list[str]:
    """M c = lambda c on the report's own matrix, and the commutator table.

    A ladder whose lambda is exact must have exact coefficients that satisfy
    M c = lambda c exactly; one whose lambda is not may leave them null.
    Commutator-table entries must equal [Z_a, Z_b] = i sum_m (a_xm b_pm -
    a_pm b_xm): exactly where both ladders have exact coefficients, within
    FLOAT_TOL of the float coefficients otherwise.  The table may be null (or
    hold null entries) only where a ladder lost its exactness.
    """
    out = []
    dim = 2 * k
    scale = max(1.0, float(np.max(np.abs(m_float))))
    floats, exacts = [], []
    for idx, lad in enumerate(doc["ladders"]):
        lam = complex(*lad["lambda"])
        c = np.array([complex(*z) for z in lad["coefficients"]])
        floats.append(c)
        resid = float(np.max(np.abs(m_float @ c - lam * c)))
        if resid > FLOAT_TOL * dim * (scale + abs(lam)) * max(1.0, float(np.max(np.abs(c)))):
            out.append(f"ladder {idx + 1}: |M c - lambda c| = {resid:.3e}")
        ce = lad.get("coefficients_exact")
        ce = None if ce is None else [_q(z) for z in ce]
        exacts.append(ce)
        if ce is None:
            if lad["lambda_exact"] is not None:
                out.append(f"ladder {idx + 1}: exact lambda without exact coefficients")
            continue
        if not all(_close(complex(float(re), float(im)), z) for (re, im), z in zip(ce, c)):
            out.append(f"ladder {idx + 1}: exact and float coefficients differ")
        if lad["lambda_exact"] is not None:
            lam_e = _q(lad["lambda_exact"])
            for i in range(dim):
                acc = (Fraction(0), Fraction(0))
                for j in range(dim):
                    t = _mul(_q(m_exact[i * dim + j]), ce[j])
                    acc = (acc[0] + t[0], acc[1] + t[1])
                if acc != _mul(lam_e, ce[i]):
                    out.append(f"ladder {idx + 1}: M c != lambda c exactly")
                    break
    all_exact = all(lad["lambda_exact"] is not None for lad in doc["ladders"])
    table = doc.get("commutator_table")
    if table is None:
        return out + (["commutator table missing"] if all_exact else [])
    for a in range(dim):
        for b in range(dim):
            entry = table[a][b]
            if entry is None:
                if exacts[a] is not None and exacts[b] is not None:
                    out.append(f"commutator table entry ({a + 1}, {b + 1}) is null")
                continue
            if exacts[a] is not None and exacts[b] is not None:
                va, vb = exacts[a], exacts[b]
                re, im = Fraction(0), Fraction(0)
                for m in range(k):
                    s = _mul(va[m], vb[k + m])
                    t = _mul(va[k + m], vb[m])
                    re, im = re + s[0] - t[0], im + s[1] - t[1]
                ok = _q(entry) == (-im, re)         # i * (re + i im)
            else:
                va, vb = floats[a], floats[b]
                want = 1j * sum(va[m] * vb[k + m] - va[k + m] * vb[m] for m in range(k))
                got = complex(*(float(x) for x in _q(entry)))
                norm = float(np.max(np.abs(va)) * np.max(np.abs(vb)))
                ok = abs(got - want) <= FLOAT_TOL * dim * max(1.0, norm)
            if not ok:
                out.append(f"commutator table entry ({a + 1}, {b + 1}) is wrong")
    return out


def _check_families(families: list[dict] | None, model: Model) -> list[str]:
    """E(n, m) = s (n + m + 1) + i (m - n) b / 2, s = +1 / -1 per family."""
    if families is None or [f["family"] for f in families] != ["vacuum0", "vacuum1"]:
        return ["ladder families missing"]
    out = []
    n_max, b = model.ladder_states, model.b
    for fam, sign in zip(families, (1, -1)):
        if _q(fam["vacuum_energy_exact"]) != (Fraction(sign), Fraction(0)):
            out.append(f"{fam['family']}: vacuum energy is not {sign}")
        grid = sorted((s["n"], s["m"]) for s in fam["states"])
        if grid != [(n, m) for n in range(n_max + 1) for m in range(n_max + 1)]:
            out.append(f"{fam['family']}: state grid is not 0..{n_max} squared")
        for s in fam["states"]:
            n, m = s["n"], s["m"]
            want = (Fraction(sign * (n + m + 1)), Fraction(m - n) * b / 2)
            if _q(s["energy_exact"]) != want:
                out.append(f"{fam['family']}: E({n},{m}) = {_q(s['energy_exact'])}, "
                           f"expected {want}")
    return out
