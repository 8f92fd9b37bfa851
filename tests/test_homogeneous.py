import os
import subprocess
import sys
from pathlib import Path

import pytest

import strongconn
from strongconn.connection import solve_cointegral
from strongconn.errors import NotHomogeneous
from strongconn.homogeneous import (
    bicolinear_section_iota,
    extension_from_homogeneous,
    induced_coactions,
    quotient_coalgebra,
)
from strongconn.instances import (
    build_homogeneous_z4_z2,
    cyclic_group_hopf,
    sweedler_hopf,
)
from strongconn.linmaps import LinMap, Subspace
from strongconn.scalars import Field
from strongconn.structures import validate_coalgebra

QQ = Field.rationals()


def test_homogeneous_imports_first_in_a_fresh_interpreter():
    # homogeneous imports extensions at module level; no cycle may stop it
    src = str(Path(strongconn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import strongconn.homogeneous as h; print(h.validate_and_build.__module__)"],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, "strongconn.extensions\n", "")


@pytest.fixture(scope="module")
def z4z2():
    return build_homogeneous_z4_z2()


def test_quotient_dimension_and_coideal(z4z2):
    assert z4z2.quotient.dim == 2
    # B+A = span{g^2 - 1, g^3 - g}
    assert z4z2.bplus_a.dim == 2
    assert z4z2.bplus_a.contains_vector([-QQ.one, QQ.zero, QQ.one, QQ.zero])
    assert z4z2.bplus_a.contains_vector([QQ.zero, -QQ.one, QQ.zero, QQ.one])


def test_quotient_is_grouplike_coalgebra(z4z2):
    assert validate_coalgebra(z4z2.quotient).passed
    comul = z4z2.quotient.comul
    for i in range(2):
        col = comul.column(i)
        assert col[comul.codomain.flatten((i, i))] == QQ.one
        assert sum(1 for c in col if c) == 1


def test_projection_prefers_low_representatives(z4z2):
    # pi(g^2) = [1], pi(g^3) = [g]
    pi = z4z2.pi
    assert pi.column(2) == pi.column(0)
    assert pi.column(3) == pi.column(1)
    assert pi.column(0) == (QQ.one, QQ.zero)


def test_linear_section_representatives(z4z2):
    i_map = z4z2.section
    assert i_map.column(0) == (QQ.one, QQ.zero, QQ.zero, QQ.zero)
    assert i_map.column(1) == (QQ.zero, QQ.one, QQ.zero, QQ.zero)
    assert z4z2.pi @ i_map == LinMap.identity(QQ, z4z2.quotient.space)


def test_induced_coactions(z4z2):
    assert induced_coactions(z4z2).passed
    right = z4z2.right_coaction
    # g -> g (x) [g], g^2 -> g^2 (x) [1]
    col = right.column(1)
    assert col[right.codomain.flatten((1, 1))] == QQ.one
    col = right.column(2)
    assert col[right.codomain.flatten((2, 0))] == QQ.one


def test_trivial_subalgebra_gives_identity_projection():
    hopf = cyclic_group_hopf(4, name="A")
    b = Subspace.from_vectors(QQ, hopf.space, [[1, 0, 0, 0]])
    datum = quotient_coalgebra(hopf, b)
    assert datum.quotient.dim == 4
    assert datum.pi == LinMap.identity(QQ, hopf.space).relabel(
        codomain=datum.quotient.space)
    assert datum.right_coaction == hopf.coalgebra.comul.relabel(
        codomain=datum.right_coaction.codomain)
    # averaging the identity section through the Kronecker cointegral
    # returns a bicolinear section of the identity, i.e. the identity
    delta = solve_cointegral(datum.quotient)
    iota, rep = bicolinear_section_iota(datum, delta)
    assert rep.passed
    assert iota == datum.section


def test_full_subalgebra_gives_one_dimensional_quotient():
    hopf = cyclic_group_hopf(4, name="A")
    b = Subspace.full(QQ, hopf.space)
    datum = quotient_coalgebra(hopf, b)
    assert datum.quotient.dim == 1
    # trivial coaction: a -> a (x) [1]
    right = datum.right_coaction
    for j in range(4):
        col = right.column(j)
        assert col[right.codomain.flatten((j, 0))] == QQ.one


def test_sweedler_over_x_line_is_homogeneous():
    # B = span{1, x} is coproduct-stable; the quotient is a copy of kZ2
    # and the whole averaging pipeline goes through
    hopf = sweedler_hopf(name="A")
    b = Subspace.from_vectors(QQ, hopf.space, [[1, 0, 0, 0], [0, 0, 1, 0]])
    datum = quotient_coalgebra(hopf, b)
    assert datum.quotient.dim == 2
    delta = solve_cointegral(datum.quotient)
    _, rep = bicolinear_section_iota(datum, delta)
    assert rep.passed
    ext, erep = extension_from_homogeneous(datum)
    assert ext is not None and erep.passed


def test_non_stable_subalgebra_rejected():
    # comul(gx) = gx (x) g + 1 (x) gx has a second leg outside span{1, gx}
    hopf = sweedler_hopf(name="A")
    b = Subspace.from_vectors(QQ, hopf.space, [[1, 0, 0, 0], [0, 0, 0, 1]])
    with pytest.raises(NotHomogeneous):
        quotient_coalgebra(hopf, b)


def test_non_subalgebra_rejected():
    hopf = cyclic_group_hopf(4, name="A")
    b = Subspace.from_vectors(QQ, hopf.space, [[1, 0, 0, 0], [0, 1, 0, 0]])
    # closed under products? 1, g: g*g = g^2 not in span -> not closed
    with pytest.raises(NotHomogeneous):
        quotient_coalgebra(hopf, b)


def test_iota_on_canonical_section_is_fixed(z4z2):
    delta = solve_cointegral(z4z2.quotient)
    iota, rep = bicolinear_section_iota(z4z2, delta)
    assert rep.passed
    # grouplikes fix everything: iota([g]) = g, and iota = i here
    assert iota == z4z2.section


def test_iota_repairs_perturbed_section(z4z2):
    delta = solve_cointegral(z4z2.quotient)
    perturbed = [list(r) for r in z4z2.section.entries]
    # i'([g]) = g + (g^2 - 1)
    perturbed[2][1] = QQ.one
    perturbed[0][1] = -QQ.one
    i2 = LinMap(QQ, z4z2.section.domain, z4z2.section.codomain, perturbed)
    assert z4z2.pi @ i2 == LinMap.identity(QQ, z4z2.quotient.space)
    iota, rep = bicolinear_section_iota(z4z2, delta, section=i2)
    assert rep.passed
    assert iota == z4z2.section  # averaging kills the coideal part


def test_iota_returns_a_failing_report_instead_of_raising(z4z2):
    delta = solve_cointegral(z4z2.quotient)
    two = QQ.scalar(2)
    # twice a section is no section; the averaging is linear in it
    iota, rep = bicolinear_section_iota(z4z2, delta, z4z2.section.scale(two))
    assert iota == z4z2.section.scale(two)
    assert [c.name for c in rep.failures] == ["averaged-section-splits-projection"]


def test_extension_from_homogeneous(z4z2):
    ext, rep = extension_from_homogeneous(z4z2)
    assert rep.passed, rep.failures
    assert ext is not None
    # coinvariants recover B
    assert ext.coinvariants == z4z2.b_subalgebra
    from strongconn.extensions import galois_check
    assert galois_check(ext).named("galois").status == "pass"


def test_homogeneous_full_pipeline_connection(z4z2):
    from strongconn.connection import (
        brute_force_connections,
        build_connection,
        membership_check,
        normalize_section,
        solve_section,
        splitting,
        verify_connection,
    )
    ext, _ = extension_from_homogeneous(z4z2)
    delta = solve_cointegral(ext.coalgebra)
    sigma = normalize_section(solve_section(ext), ext)
    conn = build_connection(sigma, delta, ext)
    assert verify_connection(conn, ext).passed
    s, rep = splitting(conn, ext)
    assert rep.passed
    oracle = brute_force_connections(ext)
    assert membership_check(conn, oracle)
