"""Dense reference views of maps and subspaces, shared by the tests.

The library reads and builds maps only through their nonzeros
(``LinMap.items`` and ``LinMap.from_items``); these helpers give the
dense tuples and the column-major vectorisation that tests compare
against, built from those two public operations alone.  vectorize
flattens entry (r, c) of an m-row map to position c * m + r, the order
in which connection.linear_system numbers a map's entries as unknowns.
"""

from strongconn.linmaps import LinMap, Subspace, vector


def column(m: LinMap, c: int) -> tuple:
    """Column c of m as a dense tuple of Scalars, zeros included."""
    out = [m.field.zero] * m.nrows
    for (r, j), v in m.items():
        if j == c:
            out[r] = v
    return tuple(out)


def vectorize(m: LinMap) -> tuple:
    """m's entries in column-major order: entry (r, c) at c * nrows + r."""
    rows = m.nrows
    out = [m.field.zero] * (rows * m.ncols)
    for (r, c), v in m.items():
        out[c * rows + r] = v
    return tuple(out)


def from_vector(field, domain, codomain, vec) -> LinMap:
    """The map whose column-major entries are vec, inverting vectorize."""
    rows = codomain.dim
    return LinMap.from_items(field, domain, codomain,
                             (((k % rows, k // rows), vec[k])
                              for k in range(domain.dim * rows) if vec[k]))


def scaled(m: LinMap, s) -> LinMap:
    """s * m, entry by entry."""
    return LinMap.from_items(m.field, m.domain, m.codomain,
                             ((key, p) for key, v in m.items() if (p := s * v)))


def full(field, ambient) -> Subspace:
    """The whole ambient space as a subspace."""
    return Subspace.image(LinMap.identity(field, ambient))


def contains(sub: Subspace, other: Subspace) -> bool:
    """other lies in sub (both in one ambient space)."""
    return sub.first_outside(other.inclusion()) is None


def contains_vector(sub: Subspace, coeffs) -> bool:
    """The vector with these dense coefficients lies in sub."""
    return sub.first_outside(vector(sub.field, sub.ambient, coeffs)) is None
