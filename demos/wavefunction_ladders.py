"""Apply ladder operators to symbolic wavefunctions and read off energies.

Wavefunctions here are exact objects poly(x, y) * exp(quadratic form): the
momentum operators act as derivatives, so a polynomial-times-Gaussian stays
in that class.  Starting from the two Gaussian vacua, the raising pairs
generate two infinite eigenstate families with complex energies; this script
builds a corner of each grid and verifies every energy exactly.

Run:  python3 demos/wavefunction_ladders.py
"""

import json
from fractions import Fraction

from quadladder import (
    adjoint_matrix,
    annihilation_check,
    apply_operator,
    build_hd,
    build_ladders,
    eigen_decompose,
    eigencheck,
    is_square_integrable,
    ladder_spectrum,
    spectrum_to_json,
    vacuum_functions,
)

b = Fraction(1, 2)
ham = build_hd(b)
ladders = build_ladders(ham, eigen_decompose(adjoint_matrix(ham)))
z1, z2, z3, z4 = ladders
psi0, psi1 = vacuum_functions()

print(f"Vacua at b = {b}:")
for name, psi in (("psi0", psi0), ("psi1", psi1)):
    print(f"  {name} = {psi}")
    print(f"    H {name} = {eigencheck(ham, psi)} * {name}")
    killers = [f"Z{k}" for k, lad in enumerate(ladders, start=1)
               if annihilation_check(lad, psi)]
    print(f"    annihilated by: {', '.join(killers)}")
    print(f"    square integrable: {is_square_integrable(psi)}")
print()

print("First raised states above psi0:")
for name, lad in (("Z3", z3), ("Z4", z4)):
    state = apply_operator(lad, psi0)
    print(f"  {name} psi0 = {state}")
print()

print("Family grid from psi0 (raising with Z3, Z4), energies exact:")
entries = ladder_spectrum(ham, psi0, z3, z4, 3, 3, family="vacuum0")
for e in entries:
    if e.m == 0:
        print()
    print(f"  E({e.n},{e.m}) = {str(e.energy):>10}", end="")
print("\n")

print("Mirror family from psi1 (raising with Z1, Z2):")
entries1 = ladder_spectrum(ham, psi1, z1, z2, 2, 2, family="vacuum1")
for row in spectrum_to_json(entries1)["states"]:
    print(f"  {json.dumps(row)}")
