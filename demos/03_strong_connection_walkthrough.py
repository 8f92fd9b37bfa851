"""
Building a strong connection, step by step
==========================================

The central construction: given an entwined extension whose lifted
canonical map can(a (x) a') = a rho(a') is surjective and whose
structure coalgebra admits a cointegral delta, any linear section sigma
of the canonical map averages into a strong connection form

    ell = (gamma (x) alpha) o (C (x) sigma (x) C) o (comul (x) C) o comul,

with gamma = (delta (x) A) o (C (x) left coaction) and
alpha = (A (x) delta) o (right coaction (x) C).

We walk the square-root extension: A = Q[x]/(x^2 - 2), graded over the
order-two cyclic coalgebra by deg(x) = 1.  The coinvariants are Q, so
this is a genuine quantum Z_2-bundle over a point whose total space is
a field extension.
"""

from strongconn import (
    brute_force_connections,
    build_connection,
    build_graded_extension,
    galois_check,
    membership_check,
    normalize_section,
    solve_cointegral,
    solve_section,
    splitting,
    verify_connection,
)



def column(m, c):
    """The nonzeros of m's column c, keyed by codomain multi-index."""
    return {m.codomain.unflatten(r): str(v) for (r, j), v in m.items() if j == c}


ext = build_graded_extension(2, 2)
print("coinvariant subalgebra dimension:", ext.coinvariants.dim)
print("galois:", galois_check(ext).named("galois").status)

# Step 1: cointegral on C (here C is spanned by grouplikes, so delta is
# the Kronecker pairing and the solver finds it as the unique solution).
delta = solve_cointegral(ext.coalgebra)
print("\ncointegral values:",
      {delta.delta.domain.unflatten(c): str(v) for (_, c), v in delta.delta.items()})

# Step 2: a section of the canonical map.  x*x = 2 forces
# sigma(g) = 1/2 x (x) x; normalisation pins sigma(e) = 1 (x) 1 at the
# extension's own grouplike e.
sigma = normalize_section(solve_section(ext), ext)
print("sigma(g):", column(sigma.sigma, 1))

# Step 3: assemble ell and re-verify the three defining conditions
# rather than trusting the construction.
conn = build_connection(sigma, delta, ext)
print("\nell(g):", column(conn.ell, 1))
print("ell(e):", column(conn.ell, 0))
for c in verify_connection(conn, ext).checks:
    print(f"  {c.status:>4}  {c.name}")

# Step 4: the splitting s(a) = a_0 ell(a_1) of the product B (x) A -> A
# certifies equivariant projectivity; here s(x) = 1 (x) x.
s_map, srep = splitting(conn, ext)
print("\ns(x):", column(s_map, 1))
for c in srep.checks:
    print(f"  {c.status:>4}  {c.name}")

# Step 5: cross-check against the oracle, which solves the three
# conditions as one linear system in the entries of ell.  Here the
# canonical map is injective, so condition (a) alone fixes ell: the
# oracle takes that map from the canonical map's own elimination and
# checks all three conditions on it.
oracle = brute_force_connections(ext)
print("\noracle solution-space dimension:", oracle.kernel.dim)
print("formula output in the oracle set:", membership_check(conn, oracle))
