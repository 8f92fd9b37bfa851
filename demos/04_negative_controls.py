"""
Negative controls: what failure looks like
==========================================

Three ways the hypotheses can fail, each with an exact certificate:

* Sweedler's H4 admits no normalised integral and no cointegral, so
  the averaging route to a connection is closed over any field where
  the defining system stays inconsistent.
* The graded extension with t = 0 (so x^n = 0) is a perfectly valid
  entwined extension whose canonical map is not surjective: the Galois
  condition fails and no strong connection exists at all.
* A doctored entwining can be caught by exactly one axiom, with the
  offending basis pair named.
"""

from strongconn import (
    build_graded_extension,
    build_group_self_extension,
    brute_force_connections,
    galois_check,
    self_extension,
    solve_cointegral,
    solve_integral,
    sweedler_hopf,
    validate_entwining_rr,
)
from strongconn.linmaps import Infeasible, LinMap
from strongconn.scalars import Field

QQ = Field.rationals()

# 1. Sweedler's H4: the solver returns an inconsistency certificate.
sw = sweedler_hopf()
lam = solve_integral(sw)
delta = solve_cointegral(sw.coalgebra)
print("H4 integral:  ", lam)
print("H4 cointegral:", delta)

# Interesting nuance: the H4 self-extension still HAS a strong
# connection (the oracle finds the unique one) -- it is only the
# cointegral formula that cannot produce it.
ext_sw = self_extension(sw)
oracle = brute_force_connections(ext_sw)
print("H4 self-extension oracle kernel dim:",
      oracle.kernel.dim if not isinstance(oracle, Infeasible) else oracle)

# 2. t = 0: x is nilpotent, 1 (x) g is not in the canonical image.
ext0 = build_graded_extension(2, 0)
rep = galois_check(ext0)
print("\ngraded t=0 galois:",
      rep.named("galois-canonical-surjective").witness)
print("oracle on t=0:", brute_force_connections(ext0).detail)

# 3. Doctor psi(c (x) g) into 1 (x) c on the kZ_2 self-extension.
# Multiplicativity, unitality and comultiplicativity all survive this
# particular corruption; counitality alone fails, first at (e, g).
ext = build_group_self_extension(2)
psi = ext.entwining.psi
entries = [list(r) for r in psi.entries]
for i in range(2):
    col = psi.domain.flatten((i, 1))
    for r in range(4):
        entries[r][col] = QQ.zero
    entries[psi.codomain.flatten((0, i))][col] = QQ.one
doctored = LinMap(QQ, psi.domain, psi.codomain, entries)
print("\ndoctored entwining:")
for c in validate_entwining_rr(doctored, ext.algebra, ext.coalgebra).checks:
    line = f"  {c.status:>4}  {c.name}"
    if c.witness:
        line += f"  witness {c.witness}"
    print(line)
