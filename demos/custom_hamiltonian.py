"""Analyze user-supplied Hamiltonians written in the expression language.

Any Hermitian operator with terms of degree 0 and 2 in positions and momenta
works: the same pipeline yields its natural frequencies and ladders.  The
script runs a coupled two-mode oscillator, then shows how a defective case
(the free particle, whose matrix is a Jordan block) is reported.

Run:  python3 demos/custom_hamiltonian.py
"""

from quadladder import (
    DefectiveSpectrumError,
    adjoint_matrix,
    build_ladders,
    eigen_decompose,
    parse_to_polynomial,
    validate_quadratic,
)

text = "1/2*(p1^2 + p2^2) + x1^2 + x2^2 + 1/2*(x1*x2 + x2*x1)"
print(f"Input:  {text}")
ham = validate_quadratic(parse_to_polynomial(text))
print(f"Normal ordered:  H = {ham.op}")
print()

def show(lam_exact, lam):
    """Exact form when available, a rounded float otherwise."""
    if lam_exact is not None:
        return str(lam_exact)
    if abs(lam.imag) < 1e-12:
        return f"{lam.real:.10g}"
    return f"{lam.real:.10g}{lam.imag:+.10g}i"


spectrum = eigen_decompose(adjoint_matrix(ham))
print("Natural frequencies (lambda = +-1 exact, +-sqrt(3) as floats):")
for f in spectrum.frequencies:
    print(f"  lambda = {show(f.lam_exact, f.lam)}")
print()

print("Ladders (10-digit float coefficients where the eigendata is irrational):")
for lad in build_ladders(ham, spectrum):
    print(f"  Z = {lad.text}")
    print(f"      [H, Z] = ({show(lad.lam_exact, lad.lam)}) Z")
print()

free = validate_quadratic(parse_to_polynomial("1/2*p1^2"))
free_spectrum = eigen_decompose(adjoint_matrix(free))
print("Free particle: spectrum defective?", free_spectrum.defective)
try:
    build_ladders(free, free_spectrum)
except DefectiveSpectrumError as exc:
    print(f"  build_ladders refused: {exc}")
