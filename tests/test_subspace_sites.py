"""The subspace statements of the paper's hypotheses, checked through
Subspace.image, inclusion and first_outside, agree with the loops over
dense basis tuples that checked them before.

The loops are kept here as the reference: the relations of the Galois
condition, the closure of the coinvariants under the product, their
trivial coaction, and the two splitting checks with their witnesses.
The quotient checks of a quantum homogeneous space are pinned instead:
the check statuses and report digests of six choices of B in kZ_4.  On
seeded B in kZ_8 and Sweedler's H_4, not spanned by basis elements, the
first three quotient checks are compared with ranks.
"""

import hashlib
import random

import pytest

from strongconn import extensions
from strongconn.connection import (
    ConnectionForm,
    build_connection,
    solve_cointegral,
    solve_section,
    splitting,
)
from strongconn.errors import InternalContradiction
from strongconn.extensions import (EntwinedExtension, coinvariants, relation_subspace,
                                   validate_and_build)
from strongconn.golden import build_golden, instance_from_extension
from strongconn.homogeneous import build_quotient
from strongconn.instances import build_graded_extension, cyclic_group_hopf, sweedler_hopf
from strongconn.linmaps import (
    Infeasible,
    LinMap,
    Subspace,
    basis_vector,
    map_kron,
    precompose_at,
    vector,
)
from strongconn.pipeline import run_pipeline
from strongconn.scalars import Field

from basis_change import conjugate
from dense import column, contains_vector, full, vectorize
from test_subspace_form import first_outside_by_rank
from test_systems import CASES, extension_of

ZETA3 = Field.number_field([1, 1, 1])


def dense_cyclotomic_cases():
    """Graded instances over Q(zeta3) in seeded dense bases."""
    out = []
    for n, t, seed in [(2, 1, 3), (3, 1, 11), (3, 2, 5), (4, 1, 2)]:
        inst = instance_from_extension(f"graded_n{n}_t{t}",
                                       build_graded_extension(n, t, ZETA3))
        out.append((f"graded_n{n}_t{t}-conjugate-{seed}",
                    extension_of(conjugate(inst, seed))))
    return out


EXTENSIONS = [(name, ext) for name, ext, _ in CASES] + dense_cyclotomic_cases()
IDS = [name for name, _ in EXTENSIONS]


# -- the reference loops -------------------------------------------------


def looped_relation_subspace(alg, coinv):
    field = alg.field
    a_space = alg.space
    ia = alg.identity()
    ambient = a_space.tensor(a_space)
    vecs = []
    for b in coinv.basis:
        bv = vector(field, a_space, b)
        m = map_kron(precompose_at(alg.mul, bv, 1), ia) - \
            map_kron(ia, precompose_at(alg.mul, bv, 0))
        for c in range(m.ncols):
            col = column(m, c)
            if any(col):
                vecs.append(col)
    return Subspace.from_vectors(field, ambient, vecs)


def looped_closed(alg, sub):
    field, a_space = alg.field, alg.space
    for u in sub.basis:
        for v in sub.basis:
            prod = alg.mul @ map_kron(vector(field, a_space, u),
                                      vector(field, a_space, v))
            if not contains_vector(sub, column(prod, 0)):
                return False
    return True


def looped_coact_trivially(alg, rho, sub, grouplike):
    for b in sub.basis:
        bv = vector(alg.field, alg.space, b)
        if rho @ bv != map_kron(bv, grouplike):
            return False
    return True


def looped_splitting_witnesses(s, ext):
    """The witnesses of splitting-image-in-coinvariants and
    splitting-left-coinvariant-linear, None where the check passes."""
    alg, field = ext.algebra, ext.field
    ia = alg.identity()
    b_tensor_a = Subspace.from_vectors(
        field, alg.space.tensor(alg.space),
        [vectorize(map_kron(vector(field, alg.space, b),
                            basis_vector(field, alg.space, i)))
         for b in ext.coinvariants.basis
         for i in range(alg.dim)])
    image = next(({"basis": [j]} for j in range(alg.dim)
                  if not contains_vector(b_tensor_a, column(s, j))), None)
    linear = None
    for bi, b in enumerate(ext.coinvariants.basis):
        lm = precompose_at(alg.mul, vector(field, alg.space, b), 0)
        if s @ lm != map_kron(lm, ia) @ s:
            linear = {"coinvariant_basis_row": bi}
            break
    return image, linear


# -- doctored inputs -------------------------------------------------------


def seeded_vector(field, dim, rng):
    return [field.scalar([rng.randint(-2, 2) for _ in range(field.degree)])
            for _ in range(dim)]


def doctored_subspaces(ext, seed=0):
    """The coinvariants, and spans that contain the unit but need not be
    closed or coact trivially: B plus one basis element, B plus a seeded
    vector, and all of A."""
    rng = random.Random(seed)
    alg, field = ext.algebra, ext.field
    coinv = ext.coinvariants
    out = [coinv, full(field, alg.space)]
    for j in range(min(alg.dim, 3)):
        out.append(coinv.sum(Subspace.from_vectors(
            field, alg.space, [column(basis_vector(field, alg.space, j), 0)])))
    out.append(coinv.sum(Subspace.from_vectors(
        field, alg.space, [seeded_vector(field, alg.dim, rng)])))
    return out


# -- the Galois relations and the coinvariants -----------------------------


@pytest.mark.parametrize("name,ext", EXTENSIONS, ids=IDS)
def test_relation_subspace_equals_the_loop(name, ext):
    for sub in doctored_subspaces(ext):
        assert relation_subspace(ext.algebra, sub) == \
            looped_relation_subspace(ext.algebra, sub)


@pytest.mark.parametrize("name,ext", EXTENSIONS, ids=IDS)
def test_coinvariant_closure_equals_the_loop(name, ext, monkeypatch):
    """coinvariants() raises on a non-closed kernel exactly when the
    loop finds a product outside it."""
    alg, rho = ext.algebra, ext.coaction.rho
    outcomes = []
    for sub in doctored_subspaces(ext):
        monkeypatch.setattr(extensions, "stacked_kernel", lambda maps, sub=sub: sub)
        closed = looped_closed(alg, sub)
        outcomes.append(closed)
        if closed:
            assert coinvariants(alg, rho) is sub
        else:
            with pytest.raises(InternalContradiction, match="not closed"):
                coinvariants(alg, rho)
    assert outcomes[0]


@pytest.mark.parametrize("name,ext", [e for e in EXTENSIONS
                                      if e[1].grouplike is not None],
                         ids=[e[0] for e in EXTENSIONS if e[1].grouplike is not None])
def test_coact_trivially_equals_the_loop(name, ext, monkeypatch):
    alg, coa = ext.algebra, ext.coalgebra
    rho, grouplike = ext.coaction.rho, ext.grouplike
    for sub in doctored_subspaces(ext):
        monkeypatch.setattr(extensions, "coinvariants", lambda a, r, sub=sub: sub)
        _, rep = validate_and_build(alg, coa, ext.entwining.psi, rho, grouplike)
        ok = rep.named("coinvariants-coact-trivially").status == "pass"
        assert ok == looped_coact_trivially(alg, rho, sub, grouplike)


def test_doctored_subspaces_exercise_both_outcomes():
    """Some doctored subspaces are not closed and coact non-trivially, so
    the two tests above compare failing outcomes too."""
    _, ext = EXTENSIONS[IDS.index("graded_n3_t1-conjugate-11")]
    subs = doctored_subspaces(ext)
    alg, rho = ext.algebra, ext.coaction.rho
    assert not all(looped_closed(alg, s) for s in subs)
    assert not all(looped_coact_trivially(alg, rho, s, ext.grouplike) for s in subs)


# -- the splitting --------------------------------------------------------


def formula_connection(ext):
    delta = solve_cointegral(ext.coalgebra)
    if isinstance(delta, Infeasible):
        return None
    return build_connection(solve_section(ext), delta, ext)


def doctored_ells(ext, conn, seeds=range(3)):
    """ell plus a seeded perturbation: rank one, on one basis element of
    C, into one basis pair of A (x) A."""
    out = []
    for seed in seeds:
        rng = random.Random(seed)
        ell = conn.ell
        rows = [[ext.field.zero] * ell.ncols for _ in range(ell.nrows)]
        rows[rng.randrange(ell.nrows)][rng.randrange(ell.ncols)] = \
            ext.field.scalar(rng.randint(1, 3))
        out.append(ConnectionForm(ell + LinMap(ext.field, ell.domain,
                                               ell.codomain, rows)))
    return out


SPLIT_CASES = [(name, ext, conn) for name, ext in EXTENSIONS
               for conn in [formula_connection(ext)] if conn is not None]


def doctored_splittings(ext, conn):
    """The report of splitting for ell and its doctored copies, each with
    B and with the doctored subspaces in place of B.  s is left linear
    over the true coinvariants for every ell, so only a doctored B can
    break splitting-left-coinvariant-linear."""
    for ell in [conn] + doctored_ells(ext, conn):
        for sub in doctored_subspaces(ext):
            doctored = EntwinedExtension(ext.algebra, ext.coalgebra, ext.entwining,
                                         ext.coaction, ext.grouplike, sub)
            s, rep = splitting(ell, doctored)
            yield rep, looped_splitting_witnesses(s, doctored)


@pytest.mark.parametrize("name,ext,conn", SPLIT_CASES,
                         ids=[c[0] for c in SPLIT_CASES])
def test_splitting_witnesses_equal_the_loops(name, ext, conn):
    for rep, (image, linear) in doctored_splittings(ext, conn):
        got_image = rep.named("splitting-image-in-coinvariants")
        got_linear = rep.named("splitting-left-coinvariant-linear")
        assert got_image.status == ("pass" if image is None else "fail")
        assert got_image.witness == image
        assert got_linear.status == ("pass" if linear is None else "fail")
        assert got_linear.witness == linear


def test_doctored_splittings_break_both_checks():
    _, ext, conn = SPLIT_CASES[[c[0] for c in SPLIT_CASES].index("group_self_z4")]
    witnesses = [w for _, w in doctored_splittings(ext, conn)]
    assert any(image is not None and linear is not None
               for image, linear in witnesses)
    # witnesses other than the first basis element and the first row
    assert max(image["basis"][0] for image, _ in witnesses if image) > 0
    assert max(linear["coinvariant_basis_row"]
               for _, linear in witnesses if linear) > 0


# -- the quotient of a quantum homogeneous space ---------------------------


def z4_subspace(vectors):
    field = Field.rationals()
    hopf = cyclic_group_hopf(4, field, "A")
    return hopf, Subspace.from_vectors(
        field, hopf.space, [[field.scalar(c) for c in v] for v in vectors])


# A = kZ_4 with basis 1, g, g^2, g^3.  Statuses of build_quotient's checks
# and the sha256 of the JSON report, both computed with the loops.
GROUP = ["subalgebra-unital", "subalgebra-closed",
         "coproduct-stabilises-subalgebra"]
QUOTIENT = GROUP + ["coideal-coproduct", "coideal-counit",
                    "quotient-coalgebra-valid", "quotient-well-defined"]
B_VARIANTS = {
    "zero": ([], dict(zip(GROUP, ["fail", "pass", "pass"])),
             "03b77c3dd684ea5999d7be3f16398d28f896aeb11c2a451667aad068290754f8"),
    "unit": ([[1, 0, 0, 0]], dict.fromkeys(QUOTIENT, "pass"),
             "ce5254cbf6108b197cd394fd11769b09dda25db00375c4ef5c14890f0a539158"),
    "all": ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            dict.fromkeys(QUOTIENT, "pass"),
            "7b788a5ac1b6a3f77f472da8b5b3f9b104054cdfbeeb1284636b7f38788c6acb"),
    "1,g": ([[1, 0, 0, 0], [0, 1, 0, 0]], dict(zip(GROUP, ["pass", "fail", "pass"])),
            "3fb255d390f2bbc4352810df2c08ff4490cec3ede9d61bdc9ecf580fb4c13d5a"),
    "g": ([[0, 1, 0, 0]], dict(zip(GROUP, ["fail", "fail", "pass"])),
          "3b9f28b30e2c6d2cf2cb05494e864271f9123ae2b2539a91d64b533376ed8a35"),
    "1,g+g3": ([[1, 0, 0, 0], [0, 1, 0, 1]], dict(zip(GROUP, ["pass", "fail", "fail"])),
               "36eb98f9f5184ab892a0ac13737a8d3f3033a18ea0daa267b6da177e3c178475"),
}


@pytest.mark.parametrize("variant", sorted(B_VARIANTS))
def test_quotient_checks_and_reports_are_pinned(variant):
    vectors, statuses, digest = B_VARIANTS[variant]
    hopf, b_sub = z4_subspace(vectors)
    _, rep = build_quotient(hopf, b_sub)
    assert [(c.name, c.status) for c in rep.checks] == list(statuses.items())
    inst = build_golden("homogeneous_z4_z2")._replace(b_subspace=b_sub)
    report = run_pipeline(inst).to_json().encode("utf-8")
    assert hashlib.sha256(report).hexdigest() == digest


# B spanned by seeded vectors with entries -1, 0 and 1, in kZ_8 and in
# Sweedler's H_4: the first three checks against ranks of [K | column]
HOPFS = {"kZ8": lambda: cyclic_group_hopf(8, name="A"),
         "H4": lambda: sweedler_hopf(name="A")}


def seeded_b(hopf, seed):
    """The span of 1 to 3 seeded vectors; for even seeds the first is
    the unit, so half of them contain 1."""
    rng = random.Random(seed)
    field, dim = hopf.field, hopf.space.dim
    vectors = [[field.scalar(rng.choice((-1, 0, 1))) for _ in range(dim)]
               for _ in range(rng.randint(1, 3))]
    if seed % 2 == 0:
        vectors[0] = column(hopf.algebra.unit, 0)
    return Subspace.from_vectors(field, hopf.space, vectors)


def group_statuses_by_rank(hopf, b_sub):
    """1 in B, B B in B and Delta(B) in A (x) B, each as the columns of
    a map that must lie in the image of K."""
    alg, coa = hopf.algebra, hopf.coalgebra
    incl = b_sub.inclusion()
    statements = zip(GROUP, [(incl, alg.unit),
                             (incl, alg.mul @ map_kron(incl, incl)),
                             (map_kron(alg.identity(), incl), coa.comul @ incl)])
    return {name: "pass" if first_outside_by_rank(K, f) is None else "fail"
            for name, (K, f) in statements}


@pytest.mark.parametrize("hopf_name", HOPFS)
def test_quotient_group_checks_on_seeded_b_match_ranks(hopf_name):
    hopf = HOPFS[hopf_name]()
    seen = {name: set() for name in GROUP}
    for seed in range(40):
        b_sub = seeded_b(hopf, seed)
        _, rep = build_quotient(hopf, b_sub)
        statuses = {c.name: c.status for c in rep.checks if c.name in GROUP}
        assert statuses == group_statuses_by_rank(hopf, b_sub)
        for name, status in statuses.items():
            seen[name].add(status)
    assert all(outcomes == {"pass", "fail"} for outcomes in seen.values())
