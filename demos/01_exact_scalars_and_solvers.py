"""
Exact scalars and deterministic linear algebra
==============================================

Everything in this library is computed over an exact field: the
rationals, or a number field presented as Q[x]/(p) for a monic integer
polynomial p.  No floats, no tolerances; every verdict is a polynomial
identity holding on the nose.
"""

from fractions import Fraction

from strongconn import Field, LinMap, SpaceLabel, parse_scalar, rref_solve

# The rationals, and the cyclotomic field of third roots of unity.
QQ = Field.rationals()
CYC = Field.number_field([1, 1, 1])  # x^2 + x + 1, low degree first

zeta = CYC.generator()
print("zeta        =", zeta)
print("zeta^3      =", zeta * zeta * zeta)          # back to 1, exactly
print("zeta^-1     =", zeta.inv())                  # = -1 - zeta
print("check       =", zeta * zeta.inv() == CYC.one)

# Scalars share one text grammar with the instance file format:
# a bare rational, or a bracketed coefficient list.
print("parse -3/6  =", parse_scalar("-3/6", QQ))
print("parse [0,1] =", parse_scalar("[0,1]", CYC))

# Linear maps live between labeled tensor products of named spaces.
# Labels make shape errors loud: composing C (x) A -> A (x) C maps in
# the wrong order is rejected, not silently reshaped.
A = SpaceLabel.base("A", 2)
C = SpaceLabel.base("C", 3)
print("\nA (x) C    =", A.tensor(C), "of dimension", A.tensor(C).dim)

# Flattening is row-major and frozen: (i, j) in [A:2, C:3] sits at 3i+j.
print("flat (1,2) =", A.tensor(C).flatten((1, 2)))

# The solver is deterministic: leftmost pivots, free variables zero.
# Solving x + y = 1 in two unknowns therefore returns (1, 0), always.
B1 = SpaceLabel.base("B", 1)
M = LinMap(QQ, A, B1, [[QQ.one, QQ.one]])
target = LinMap(QQ, B1, B1, [[QQ.one]])
sol = rref_solve(M, target)
print("\nsolve x+y=1 ->", [str(row[0]) for row in sol.particular.entries])
# The same elimination gives the rank of M and the basis of its kernel.
print("rank", sol.rank, "kernel", [[str(c) for c in v] for v in sol.kernel.basis])

# Singular systems come back with a certificate, not an exception.
bad = rref_solve(LinMap.zero(QQ, A, B1), target).particular
print("0 = 1 is    ", bad)
