"""Linear maps between labeled tensor-product spaces, with exact solvers.

Conventions frozen here and shared with the instance file format:

* A space label is an ordered list of named base factors, e.g.
  ``[A:2, C:3]`` for A (x) C.  The empty list is the scalar line k, so
  functionals (counits, cointegrals) and elements (unit maps, vectors)
  are ordinary LinMaps with an empty codomain or domain label.
* Flattening is row-major: in ``[X:m, Y:n]`` the pair (i, j) sits at
  flat position i*n + j, zero-based.
* Matrices are dense, shape = dim(codomain) rows x dim(domain) columns;
  ``entries[r][c]`` is the coefficient of codomain basis r in the image
  of domain basis c.
* Solvers are deterministic: reduced row echelon form with leftmost
  pivots, free variables set to zero.  Identical inputs give identical
  outputs, bit for bit.

Everything is immutable after construction and safe for concurrent
reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ShapeError
from .scalars import Field, Scalar


class SpaceLabel:
    """Ordered tensor product of named base spaces."""

    __slots__ = ("factors", "dim")

    def __init__(self, factors):
        factors = tuple((str(n), int(d)) for n, d in factors)
        for name, d in factors:
            if d < 1:
                raise ShapeError(f"factor {name} has non-positive dimension {d}")
        self.factors = factors
        dim = 1
        for _, d in factors:
            dim *= d
        self.dim = dim

    @staticmethod
    def base(name: str, dim: int) -> "SpaceLabel":
        return SpaceLabel([(name, dim)])

    @staticmethod
    def scalar() -> "SpaceLabel":
        return SpaceLabel([])

    def tensor(self, other: "SpaceLabel") -> "SpaceLabel":
        return SpaceLabel(self.factors + other.factors)

    def __eq__(self, other):
        if not isinstance(other, SpaceLabel):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        if not self.factors:
            return "k"
        return "(x)".join(f"{n}:{d}" for n, d in self.factors)

    def flatten(self, indices) -> int:
        """Row-major flat position of a multi-index."""
        indices = tuple(indices)
        if len(indices) != len(self.factors):
            raise IndexError(
                f"expected {len(self.factors)} indices for {self!r}, got {len(indices)}"
            )
        flat = 0
        for idx, (name, d) in zip(indices, self.factors):
            if not 0 <= idx < d:
                raise IndexError(f"index {idx} out of range for factor {name}:{d}")
            flat = flat * d + idx
        return flat

    def unflatten(self, flat: int) -> tuple[int, ...]:
        if not 0 <= flat < self.dim:
            raise IndexError(f"flat index {flat} out of range for {self!r}")
        out = []
        for _, d in reversed(self.factors):
            out.append(flat % d)
            flat //= d
        return tuple(reversed(out))


def tensor_index(indices, space: SpaceLabel) -> int:
    return space.flatten(indices)


@dataclass(frozen=True)
class Infeasible:
    """Certificate that a linear system has no solution.

    ``row`` is the echelon row exhibiting 0 = nonzero; ``column`` the
    offending target column, when the system had several.
    """

    row: int
    column: int | None = None
    detail: str = ""


class LinMap:
    """Exact linear map between labeled spaces."""

    __slots__ = ("field", "domain", "codomain", "entries")

    def __init__(self, field: Field, domain: SpaceLabel, codomain: SpaceLabel, entries):
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != codomain.dim or any(len(r) != domain.dim for r in entries):
            raise ShapeError(
                f"entry grid {len(entries)}x{len(entries[0]) if entries else 0} "
                f"does not match {codomain.dim}x{domain.dim}"
            )
        self.field = field
        self.domain = domain
        self.codomain = codomain
        self.entries = entries

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(field: Field, domain: SpaceLabel, codomain: SpaceLabel) -> "LinMap":
        z = field.zero
        return LinMap(field, domain, codomain,
                      [[z] * domain.dim for _ in range(codomain.dim)])

    @staticmethod
    def identity(field: Field, space: SpaceLabel) -> "LinMap":
        z, o = field.zero, field.one
        n = space.dim
        return LinMap(field, space, space,
                      [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_rules(field: Field, domain: SpaceLabel, codomain: SpaceLabel, rule) -> "LinMap":
        """Build from a rule mapping a domain multi-index to (multi-index, coeff) pairs."""
        z = field.zero
        rows = [[z] * domain.dim for _ in range(codomain.dim)]
        for c in range(domain.dim):
            for cod_idx, coeff in rule(domain.unflatten(c)):
                if not isinstance(coeff, Scalar):
                    coeff = field.scalar(coeff)
                r = codomain.flatten(cod_idx)
                rows[r][c] = rows[r][c] + coeff
        return LinMap(field, domain, codomain, rows)

    # -- basic structure ----------------------------------------------

    @property
    def nrows(self) -> int:
        return self.codomain.dim

    @property
    def ncols(self) -> int:
        return self.domain.dim

    def column(self, c: int) -> tuple[Scalar, ...]:
        return tuple(row[c] for row in self.entries)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return (self.domain == other.domain and self.codomain == other.codomain
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.domain, self.codomain, self.entries))

    def __repr__(self):
        return f"LinMap({self.domain!r} -> {self.codomain!r})"

    def relabel(self, domain: SpaceLabel | None = None,
                codomain: SpaceLabel | None = None) -> "LinMap":
        dom = domain if domain is not None else self.domain
        cod = codomain if codomain is not None else self.codomain
        if dom.dim != self.domain.dim or cod.dim != self.codomain.dim:
            raise ShapeError("relabel must preserve dimensions")
        return LinMap(self.field, dom, cod, self.entries)

    # -- arithmetic ----------------------------------------------------

    def _check_parallel(self, other: "LinMap") -> None:
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ShapeError(f"{self!r} and {other!r} are not parallel")

    def __add__(self, other: "LinMap") -> "LinMap":
        self._check_parallel(other)
        return LinMap(self.field, self.domain, self.codomain,
                      [[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "LinMap") -> "LinMap":
        self._check_parallel(other)
        return LinMap(self.field, self.domain, self.codomain,
                      [[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self) -> "LinMap":
        return LinMap(self.field, self.domain, self.codomain,
                      [[-a for a in row] for row in self.entries])

    def scale(self, s: Scalar) -> "LinMap":
        return LinMap(self.field, self.domain, self.codomain,
                      [[s * a if a else a for a in row] for row in self.entries])

    def __matmul__(self, other: "LinMap") -> "LinMap":
        """Composition self o other (apply other first)."""
        if other.codomain != self.domain:
            raise ShapeError(f"cannot compose {self!r} after {other!r}")
        m, n, p = self.nrows, self.ncols, other.ncols
        z = self.field.zero
        out = [[z] * p for _ in range(m)]
        b = other.entries
        for i in range(m):
            row_a = self.entries[i]
            out_i = out[i]
            for k in range(n):
                aik = row_a[k]
                if aik:
                    row_b = b[k]
                    for j in range(p):
                        bkj = row_b[j]
                        if bkj:
                            out_i[j] = out_i[j] + aik * bkj
        return LinMap(self.field, other.domain, self.codomain, out)

    def rank(self) -> int:
        rows = [list(r) for r in self.entries]
        return len(_rref_inplace(rows, self.ncols))


def map_compose(f: LinMap, g: LinMap) -> LinMap:
    return f @ g


def map_kron(f: LinMap, g: LinMap) -> LinMap:
    """Kronecker product consistent with row-major flattening."""
    field = f.field
    dom = f.domain.tensor(g.domain)
    cod = f.codomain.tensor(g.codomain)
    mf, nf = f.nrows, f.ncols
    mg, ng = g.nrows, g.ncols
    z = field.zero
    out = [[z] * (nf * ng) for _ in range(mf * mg)]
    for i in range(mf):
        frow = f.entries[i]
        for k in range(nf):
            fik = frow[k]
            if fik:
                for j in range(mg):
                    grow = g.entries[j]
                    orow = out[i * mg + j]
                    base = k * ng
                    for l in range(ng):
                        gjl = grow[l]
                        if gjl:
                            orow[base + l] = fik * gjl
    return LinMap(field, dom, cod, out)


def kron_all(*maps: LinMap) -> LinMap:
    out = maps[0]
    for m in maps[1:]:
        out = map_kron(out, m)
    return out


def flip_map(field: Field, left: SpaceLabel, right: SpaceLabel) -> LinMap:
    """The tensor swap X (x) Y -> Y (x) X as a permutation matrix."""
    dom = left.tensor(right)
    cod = right.tensor(left)
    z, o = field.zero, field.one
    rows = [[z] * dom.dim for _ in range(cod.dim)]
    for i in range(left.dim):
        for j in range(right.dim):
            rows[j * left.dim + i][i * right.dim + j] = o
    return LinMap(field, dom, cod, rows)


def vector(field: Field, space: SpaceLabel, coeffs) -> LinMap:
    """An element of a space, as a map from the scalar line."""
    cs = [c if isinstance(c, Scalar) else field.scalar(c) for c in coeffs]
    if len(cs) != space.dim:
        raise ShapeError(f"expected {space.dim} coefficients, got {len(cs)}")
    return LinMap(field, SpaceLabel.scalar(), space, [[c] for c in cs])


def basis_vector(field: Field, space: SpaceLabel, flat: int) -> LinMap:
    z, o = field.zero, field.one
    return LinMap(field, SpaceLabel.scalar(), space,
                  [[o if r == flat else z] for r in range(space.dim)])


def vector_coeffs(v: LinMap) -> tuple[Scalar, ...]:
    if v.domain.dim != 1:
        raise ShapeError("not a vector")
    return tuple(row[0] for row in v.entries)


# -- echelon machinery -------------------------------------------------


def _rref_inplace(rows: list[list[Scalar]], ncols: int) -> list[int]:
    """Reduced row echelon form, leftmost pivots; returns pivot columns."""
    if not rows:
        return []
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if piv != piv.field.one:
            inv = piv.inv()
            rows[r] = [x * inv if x else x for x in rows[r]]
        rowr = rows[r]
        for i in range(nrows):
            if i != r:
                f = rows[i][c]
                if f:
                    rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rowr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


class Solution(NamedTuple):
    """What one elimination of a system [M | target] yields.

    ``particular`` is the solution with free variables zero, or the
    Infeasible certificate; ``rank`` and ``kernel`` are those of M.
    """

    particular: LinMap | Infeasible
    rank: int
    kernel: Subspace


def rref_solve(M: LinMap, target: LinMap) -> Solution:
    """One elimination of [M | target]: the deterministic X with
    M o X = target (or an Infeasible certificate), the rank of M and the
    canonical echelon basis of ker M.

    Pivots are chosen leftmost, free variables are zero.  The left block
    of the reduced form of [M | target] is the reduced form of M, so the
    rank and kernel need no second elimination.  The returned map is
    post-verified against the system exactly.
    """
    if M.codomain != target.codomain:
        raise ShapeError("target codomain must match the system codomain")
    n = M.ncols
    t = target.ncols
    rows = [list(mr) + list(tr) for mr, tr in zip(M.entries, target.entries)]
    pivots = _rref_inplace(rows, n + t)
    rank = sum(1 for p in pivots if p < n)
    kernel = _kernel(M.field, M.domain, rows, pivots[:rank])
    if rank < len(pivots):
        return Solution(Infeasible(row=rank, column=pivots[rank] - n,
                                   detail="echelon row reduces to 0 = nonzero"),
                        rank, kernel)
    z = M.field.zero
    xs = [[z] * t for _ in range(n)]
    for i, p in enumerate(pivots):
        row = rows[i]
        for j in range(t):
            xs[p][j] = row[n + j]
    X = LinMap(M.field, target.domain, M.domain, xs)
    if M @ X != target:
        raise AssertionError("solver post-check failed")  # pragma: no cover
    return Solution(X, rank, kernel)


def _kernel(field: Field, space: SpaceLabel, rows, pivots) -> "Subspace":
    """ker of a reduced system: one vector per free column of ``space``."""
    n = space.dim
    pivset = set(pivots)
    z, o = field.zero, field.one
    vecs = []
    for f in range(n):
        if f in pivset:
            continue
        v = [z] * n
        v[f] = o
        for i, p in enumerate(pivots):
            if rows[i][f]:
                v[p] = -rows[i][f]
        vecs.append(v)
    return Subspace.from_vectors(field, space, vecs)


def kernel_basis(M: LinMap) -> "Subspace":
    """Canonical echelon basis of ker M."""
    return stacked_kernel([M])


def stacked_kernel(maps: list[LinMap]) -> "Subspace":
    """Kernel of several maps out of a common domain, solved jointly."""
    if not maps:
        raise ShapeError("need at least one map")
    dom = maps[0].domain
    rows = []
    for m in maps:
        if m.domain != dom:
            raise ShapeError("stacked maps must share their domain")
        rows.extend(list(r) for r in m.entries)
    return _kernel(maps[0].field, dom, rows, _rref_inplace(rows, dom.dim))


class Subspace:
    """Subspace of a labeled space, held as the unique echelon basis."""

    __slots__ = ("field", "ambient", "basis", "_pivots")

    def __init__(self, field: Field, ambient: SpaceLabel, basis, pivots):
        self.field = field
        self.ambient = ambient
        self.basis = tuple(tuple(v) for v in basis)
        self._pivots = tuple(pivots)

    @staticmethod
    def from_vectors(field: Field, ambient: SpaceLabel, vectors) -> "Subspace":
        rows = []
        for v in vectors:
            v = list(v)
            if len(v) != ambient.dim:
                raise ShapeError("vector length does not match ambient dimension")
            rows.append([c if isinstance(c, Scalar) else field.scalar(c) for c in v])
        pivots = _rref_inplace(rows, ambient.dim)
        return Subspace(field, ambient, rows[: len(pivots)], pivots)

    @staticmethod
    def zero(field: Field, ambient: SpaceLabel) -> "Subspace":
        return Subspace(field, ambient, [], [])

    @staticmethod
    def full(field: Field, ambient: SpaceLabel) -> "Subspace":
        eye = LinMap.identity(field, ambient)
        return Subspace.from_vectors(field, ambient, [list(r) for r in eye.entries])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient!r})"

    def reduce(self, v) -> tuple[Scalar, ...]:
        """Remainder of v after eliminating this subspace's pivots."""
        v = [c if isinstance(c, Scalar) else self.field.scalar(c) for c in v]
        if len(v) != self.ambient.dim:
            raise ShapeError("vector length does not match ambient dimension")
        for row, p in zip(self.basis, self._pivots):
            f = v[p]
            if f:
                v = [a - f * b if b else a for a, b in zip(v, row)]
        return tuple(v)

    def contains_vector(self, v) -> bool:
        return not any(self.reduce(v))

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient != other.ambient:
            raise ShapeError("subspaces live in different ambient spaces")

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(v) for v in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_vectors(self.field, self.ambient,
                                     list(self.basis) + list(other.basis))

    def intersection(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        p, q = self.dim, other.dim
        if p == 0 or q == 0:
            return Subspace.zero(self.field, self.ambient)
        # Solve sum x_i u_i + sum y_j v_j = 0; each kernel vector gives
        # an intersection element sum x_i u_i.
        cols = SpaceLabel.base("_join", p + q)
        z = self.field.zero
        rows = []
        for k in range(self.ambient.dim):
            rows.append([self.basis[i][k] for i in range(p)]
                        + [other.basis[j][k] for j in range(q)])
        M = LinMap(self.field, cols, SpaceLabel.base("_amb", self.ambient.dim), rows)
        ker = kernel_basis(M)
        vecs = []
        for kv in ker.basis:
            v = [z] * self.ambient.dim
            for i in range(p):
                if kv[i]:
                    v = [a + kv[i] * b if b else a for a, b in zip(v, self.basis[i])]
            vecs.append(v)
        return Subspace.from_vectors(self.field, self.ambient, vecs)


def subspace_ops(op: str, U: Subspace, V: Subspace):
    if op == "equal":
        U._check_ambient(V)
        return U == V
    if op == "contains":
        return U.contains(V)
    if op == "sum":
        return U.sum(V)
    if op == "intersection":
        return U.intersection(V)
    raise ValueError(f"unknown subspace op {op!r}")


def try_inverse(M: LinMap):
    """Exact matrix inverse, or None when M is singular or not square."""
    if M.nrows != M.ncols:
        raise ShapeError("only square maps can be inverted")
    X = rref_solve(M, LinMap.identity(M.field, M.codomain)).particular
    if isinstance(X, Infeasible):
        return None
    return X.relabel(domain=M.codomain, codomain=M.domain)


def map_vectorize(M: LinMap) -> tuple[Scalar, ...]:
    """Flatten by domain basis element: entry (r, c) at c*nrows + r."""
    out = []
    for c in range(M.ncols):
        for r in range(M.nrows):
            out.append(M.entries[r][c])
    return tuple(out)


def map_from_vector(field: Field, domain: SpaceLabel, codomain: SpaceLabel, vec) -> LinMap:
    m = codomain.dim
    rows = [[vec[c * m + r] for c in range(domain.dim)] for r in range(m)]
    return LinMap(field, domain, codomain, rows)
