"""
Quantum homogeneous spaces and bicolinear averaging
===================================================

Given a Hopf algebra A and a coproduct-stable unital subalgebra B, the
span of (counit-killed B) times A is a coideal; the quotient C carries
a coalgebra structure, A carries induced C-coactions, and any linear
section i of the projection pi averages, through a cointegral on C,
into a bicolinear section iota.

The running example is kZ_4 over B = span{1, g^2}: a noncommutative
model of the double cover Z_4 -> Z_2.
"""

from strongconn import (
    bicolinear_section_iota,
    build_homogeneous_z4_z2,
    extension_from_homogeneous,
    galois_check,
    solve_cointegral,
)
from strongconn.linmaps import LinMap
from strongconn.scalars import Field

QQ = Field.rationals()

datum = build_homogeneous_z4_z2()
print("quotient dimension:", datum.quotient.dim)
print("pi columns (g^j -> class):",
      [[str(s) for s in datum.pi.column(j)] for j in range(4)])

# The deterministic section prefers low-index representatives:
# i([1]) = 1 and i([g]) = g.
i_map = datum.section
print("i([g]) =", [str(s) for s in i_map.column(1)])

# Average through the Kronecker cointegral on the (grouplike) quotient.
delta = solve_cointegral(datum.quotient)
iota, rep = bicolinear_section_iota(datum, delta)
for c in rep.checks:
    print(f"  {c.status:>4}  {c.name}")
print("iota fixes the canonical section:", iota == i_map)

# Perturb the section by a coideal element: i'([g]) = g + (g^2 - 1).
# Averaging kills the perturbation and returns the same bicolinear map.
perturbed = [list(r) for r in i_map.entries]
perturbed[2][1] = QQ.one
perturbed[0][1] = -QQ.one
i2 = LinMap(QQ, i_map.domain, i_map.codomain, perturbed)
iota2, rep2 = bicolinear_section_iota(datum, delta, section=i2)
print("perturbed section repaired:", iota2 == i_map, "| checks pass:",
      rep2.passed)

# The datum wires into a full entwined extension (the entwining sends
# c (x) a to a_1 (x) pi(i(c) a_2)); from here the entire connection
# pipeline of demo 03 applies verbatim.
ext, _ = extension_from_homogeneous(datum)
print("\nderived extension coinvariants dim:", ext.coinvariants.dim)
print("galois:", galois_check(ext).named("galois").status)
