"""The formula is an affine retraction of the sections onto the strong
connections.

On the two golden instances whose oracle kernel is positive, trivial_dim2
(kernel 2) and homogeneous_z4_z2 (kernel 4), over Q and Q(zeta3):

- each strong connection ell0 + k of the oracle's affine set, fed back
  as the section, is returned unchanged;
- each seeded section sigma0 + K o R, K the inclusion of the canonical
  map's kernel, gives a strong connection in that set;
- the image of sigma -> ell(sigma), read over a basis of the section
  space's kernel directions, is the oracle's kernel.
"""

import random

import pytest

from strongconn.connection import (
    SectionMap,
    brute_force_connections,
    build_connection,
    membership_check,
    normalize_section,
    solve_cointegral,
    solve_section,
    verify_connection,
)
from strongconn.homogeneous import extension_from_homogeneous
from strongconn.instances import build_homogeneous_z4_z2, build_trivial, \
    truncated_polynomial_algebra
from strongconn.linmaps import LinMap, Subspace, map_from_vector, map_vectorize
from strongconn.scalars import Field

DEFINING = ("connection-sections-canonical", "connection-right-colinear",
            "connection-left-colinear")


def cases():
    out = []
    for field in (Field.rationals(), Field.number_field([1, 1, 1])):
        tag = "Q" if field.degree == 1 else "Qzeta3"
        out.append((f"trivial_dim2-{tag}",
                    build_trivial(truncated_polynomial_algebra(2, 2, field)), 2))
        out.append((f"homogeneous_z4_z2-{tag}",
                    extension_from_homogeneous(build_homogeneous_z4_z2(field))[0], 4))
    return out


CASES = cases()
IDS = [name for name, _, _ in CASES]


def setting(ext):
    """(oracle, delta, sigma0, K): the oracle's affine set, the
    cointegral, the deterministic section and the inclusion of the
    canonical map's kernel."""
    return (brute_force_connections(ext), solve_cointegral(ext.coalgebra),
            solve_section(ext).sigma, ext.canonical_solution.kernel.inclusion())


def seeded_map(field, domain, codomain, rng):
    """Every coefficient seeded, over Q(zeta3) in both powers of zeta3."""
    return LinMap(field, domain, codomain,
                  [[field.scalar([rng.randint(-3, 3) for _ in range(field.degree)])
                    for _ in range(domain.dim)] for _ in range(codomain.dim)])


@pytest.mark.parametrize("name,ext,kernel_dim", CASES, ids=IDS)
def test_every_oracle_direction_is_a_fixed_point(name, ext, kernel_dim):
    oracle, delta, _, _ = setting(ext)
    ell0 = oracle.particular
    assert oracle.kernel.dim == kernel_dim
    for k in oracle.kernel.basis:
        ell = ell0 + map_from_vector(ext.field, ell0.domain, ell0.codomain, k)
        assert build_connection(SectionMap(ell), delta, ext).ell == ell


@pytest.mark.parametrize("name,ext,kernel_dim", CASES, ids=IDS)
def test_seeded_sections_give_strong_connections(name, ext, kernel_dim):
    """Any section gives ell satisfying the three defining conditions;
    connection-normalized, which seeded sections fail, holds once the
    section is normalised."""
    oracle, delta, sigma0, K = setting(ext)
    assert K.ncols == (2 if name.startswith("trivial") else 8)
    rng = random.Random(name)
    normalized = set()
    for _ in range(10):
        sigma = sigma0 + K @ seeded_map(ext.field, ext.coalgebra.space, K.domain, rng)
        conn = build_connection(SectionMap(sigma), delta, ext)
        rep = verify_connection(conn, ext)
        assert all(rep.named(c).status == "pass" for c in DEFINING)
        normalized.add(rep.named("connection-normalized").status)
        assert membership_check(conn, oracle)
        normal = build_connection(normalize_section(SectionMap(sigma), ext), delta, ext)
        assert verify_connection(normal, ext).passed
        assert membership_check(normal, oracle)
    assert "fail" in normalized


@pytest.mark.parametrize("name,ext,kernel_dim", CASES, ids=IDS)
def test_image_of_the_section_directions_is_the_oracle_kernel(name, ext, kernel_dim):
    oracle, delta, sigma0, K = setting(ext)
    field, c_space = ext.field, ext.coalgebra.space
    ell0 = build_connection(SectionMap(sigma0), delta, ext).ell
    directions = []
    for j in range(c_space.dim * K.ncols):
        e = [field.zero] * (c_space.dim * K.ncols)
        e[j] = field.one
        E = map_from_vector(field, c_space, K.domain, e)
        ell = build_connection(SectionMap(sigma0 + K @ E), delta, ext).ell
        directions.append(map_vectorize(ell - ell0))
    assert Subspace.from_vectors(field, oracle.kernel.ambient, directions) == oracle.kernel
