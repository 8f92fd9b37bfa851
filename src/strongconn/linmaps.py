"""Linear maps between labeled tensor-product spaces, with exact solvers.

Conventions frozen here and shared with the instance file format:

* A space label is an ordered list of named base factors, e.g.
  ``[A:2, C:3]`` for A (x) C.  The empty list is the scalar line k, so
  functionals (counits, cointegrals) and elements (unit maps, vectors)
  are ordinary LinMaps with an empty codomain or domain label.
* Flattening is row-major: in ``[X:m, Y:n]`` the pair (i, j) sits at
  flat position i*n + j, zero-based.
* Matrices are sparse, shape = dim(codomain) rows x dim(domain) columns.
  ``rows`` is a dict ``{r: {c: coefficient}}`` holding exactly the rows
  with a nonzero: ``rows[r]`` holds the nonzero coefficients of
  codomain basis r in the images of the domain basis elements c, and a
  row with none is absent.  Neither a zero nor an empty row is ever
  stored, not even a sum that cancels or a product of zero divisors in
  a reducible Q[x]/(p), so the rows are a canonical form, ``==`` and
  ``hash`` are exact, and a map's memory and every kernel's work follow
  its nonzeros, not its codomain's dimension.  ``entries`` is a dense
  grid of Scalars (``entries[r][c]``, zeros included) built on demand
  for display and tests; nothing on a hot path reads it.  Only this
  module reads or writes rows: other modules read a map's nonzeros as
  ``((r, c), value)`` pairs from ``items()`` and build one from such
  pairs with ``LinMap.from_items``.
* Solvers are deterministic: reduced row echelon form with leftmost
  pivots, free variables set to zero.  Identical inputs give identical
  outputs, bit for bit.  Every solve runs one elimination,
  ``_rref_inplace``, which keeps a column index (the row positions that
  hold each column) beside the sparse rows: the pivot search and the
  row sweep read that index instead of scanning the rows, so the cost
  is the arithmetic on the nonzeros and their fill-in, not
  rows x columns.  An elimination keeps row positions: it takes rows
  0..n-1, one shared ``{}`` for each absent row, because in a
  reducible Q[x]/(p) a row's position decides which entry becomes a
  pivot.  It writes only rows that hold a swept column, so never that
  ``{}``.
* There is one Field object per field, and parsing and arithmetic
  return its ``zero``, ``one`` and ``minus_one`` objects for 0 and +-1
  (see ``scalars``).  So the kernels here hoist those objects once per
  call and test identity, not truth: a result that ``is zero`` is
  dropped, with no call to ``Scalar.__bool__``; an entry that ``is
  one`` is copied instead of multiplied; and a factor that is one or
  minus one adds or subtracts a row (``_accumulate``, ``precompose_at``,
  the elimination's sweep) instead of scaling it first.
* Maps act on tensor legs: ``apply_at(f, g, at)`` is (I (x) f (x) I) o g
  and ``precompose_at(g, f, at)`` is g o (I (x) f (x) I), f on the
  factors from position ``at``, and the padded map is never formed.
  ``f @ g`` is the case with no legs around g; ``compose_legs`` folds a
  chain of steps from its narrower end.
* A subspace S is held as its reduced echelon rows with pivots at the
  right (each row's last nonzero is a 1 that no other row has), and is a
  map: ``Subspace.image(f)`` spans f's columns, ``inclusion()`` has the
  rows as its columns and ``quotient()`` reads the projection pi and a
  section off the rows.  ker pi = S, so membership in X (x) S (x) Y is
  the zero test of I (x) pi (x) I, ``first_outside(f, at)``.  A kernel
  read off a solve is already in this form, so a kernel or an image
  costs one elimination, and a quotient or a membership test none.

Everything is immutable after construction (the row dicts are never
modified once a map or subspace holds them, and maps may share them)
and safe for concurrent reads.
"""

from __future__ import annotations

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

    @classmethod
    def _of(cls, factors: tuple, dim: int) -> "SpaceLabel":
        """From factors taken from valid labels and their dimension,
        unchecked."""
        label = object.__new__(cls)
        label.factors = factors
        label.dim = dim
        return label

    @staticmethod
    def base(name: str, dim: int) -> "SpaceLabel":
        return SpaceLabel([(name, dim)])

    @staticmethod
    def scalar() -> "SpaceLabel":
        return SpaceLabel([])

    def tensor(self, other: "SpaceLabel") -> "SpaceLabel":
        return SpaceLabel._of(self.factors + other.factors, self.dim * other.dim)

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


class Infeasible(NamedTuple):
    """Certificate that a linear system has no solution.

    ``row`` is the echelon row exhibiting 0 = nonzero; ``column`` the
    offending target column, when the system had several.
    """

    row: int
    column: int | None = None
    detail: str = ""


# -- sparse rows -------------------------------------------------------


def _sparse(field: Field, coeffs) -> dict:
    """The nonzeros of a dense coefficient sequence; non-Scalars are
    converted in the field."""
    out = {}
    for i, c in enumerate(coeffs):
        if not isinstance(c, Scalar):
            c = field.scalar(c)
        if c:
            out[i] = c
    return out


def _sparse_in(field: Field, ambient: SpaceLabel, coeffs) -> dict:
    """_sparse of a vector that must have ambient's dimension."""
    coeffs = list(coeffs)
    if len(coeffs) != ambient.dim:
        raise ShapeError("vector length does not match ambient dimension")
    return _sparse(field, coeffs)


def _dense(row: dict, n: int, zero: Scalar) -> tuple[Scalar, ...]:
    out = [zero] * n
    for c, v in row.items():
        out[c] = v
    return tuple(out)


def _accumulate(acc: dict, row: dict, f: Scalar) -> dict:
    """acc += f * row in place and return acc.

    A factor that ``is`` one adds row and one that ``is`` minus one
    subtracts it; any other multiplies, and an entry of row that is the
    field's own one is replaced by f, no new Scalar.  A subtracted entry
    that is the field's one or minus one is swapped for the other, not
    negated.  An entry that cancels is removed, and so is a product of
    zero divisors, so acc stays free of zeros.
    """
    field = f.field
    zero, one, minus_one = field.zero, field.one, field.minus_one
    add = f is not minus_one
    if f is one or not add:
        terms = row.items()
    else:
        terms = [(j, p) for j, b in row.items()
                 if (p := f if b is one else f * b) is not zero]
    for j, b in terms:
        old = acc.get(j)
        if old is None:
            acc[j] = b if add else \
                minus_one if b is one else one if b is minus_one else -b
        else:
            b = old + b if add else old - b
            if b is zero:
                del acc[j]
            else:
                acc[j] = b
    return acc


def _transpose(rows: dict) -> dict:
    """Sparse rows {i: {j: x}}, transposed: {j: {i: x}}, one dict per
    column that some row holds."""
    out = {}
    for i, row in rows.items():
        for j, x in row.items():
            col = out.get(j)
            if col is None:
                out[j] = {i: x}
            else:
                col[i] = x
    return out


def _positions(rows: dict, n: int) -> list[dict]:
    """Sparse rows at positions 0..n-1 for an elimination, one shared {}
    for each absent row."""
    empty = {}
    return [rows.get(i, empty) for i in range(n)]


class LinMap:
    """Exact linear map between labeled spaces, held as sparse rows."""

    __slots__ = ("field", "domain", "codomain", "rows")

    def __init__(self, field: Field, domain: SpaceLabel, codomain: SpaceLabel, entries):
        """From a dense grid: ``entries[r][c]`` is the coefficient of
        codomain basis r in the image of domain basis c."""
        entries = [tuple(row) for row in entries]
        if len(entries) != codomain.dim or any(len(r) != domain.dim for r in entries):
            raise ShapeError(
                f"entry grid {len(entries)}x{len(entries[0]) if entries else 0} "
                f"does not match {codomain.dim}x{domain.dim}"
            )
        self.field = field
        self.domain = domain
        self.codomain = codomain
        self.rows = {r: row for r, coeffs in enumerate(entries)
                     if (row := _sparse(field, coeffs))}

    @classmethod
    def from_items(cls, field: Field, domain: SpaceLabel, codomain: SpaceLabel,
                   items) -> "LinMap":
        """From ((r, c), value) items with distinct keys in range,
        unchecked; the field's zero is dropped.  Inverts items()."""
        zero, rows = field.zero, {}
        for (r, c), v in items:
            if v is not zero:
                rows.setdefault(r, {})[c] = v
        return cls._from_rows(field, domain, codomain, rows)

    @classmethod
    def _from_rows(cls, field: Field, domain: SpaceLabel, codomain: SpaceLabel,
                   rows: dict) -> "LinMap":
        """From canonical sparse rows, unchecked: {r: {c: value}} with
        r below codomain.dim, c below domain.dim, no zero value and no
        empty row.  The map takes ownership of the dicts."""
        m = object.__new__(cls)
        m.field = field
        m.domain = domain
        m.codomain = codomain
        m.rows = rows
        return m

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(field: Field, domain: SpaceLabel, codomain: SpaceLabel) -> "LinMap":
        return LinMap._from_rows(field, domain, codomain, {})

    @staticmethod
    def identity(field: Field, space: SpaceLabel) -> "LinMap":
        o = field.one
        return LinMap._from_rows(field, space, space,
                                 {i: {i: o} for i in range(space.dim)})

    @staticmethod
    def from_rules(field: Field, domain: SpaceLabel, codomain: SpaceLabel, rule) -> "LinMap":
        """Build from a rule mapping a domain multi-index to (multi-index, coeff) pairs."""
        items = {}
        for c in range(domain.dim):
            for cod_idx, coeff in rule(domain.unflatten(c)):
                if not isinstance(coeff, Scalar):
                    coeff = field.scalar(coeff)
                key = (codomain.flatten(cod_idx), c)
                old = items.get(key)
                items[key] = coeff if old is None else old + coeff
        return LinMap.from_items(field, domain, codomain, items.items())

    # -- basic structure ----------------------------------------------

    @property
    def nrows(self) -> int:
        return self.codomain.dim

    @property
    def ncols(self) -> int:
        return self.domain.dim

    @property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        """Dense read-only view: entries[r][c], zeros included."""
        z, n, rows = self.field.zero, self.domain.dim, self.rows
        return tuple(_dense(rows.get(r, {}), n, z) for r in range(self.nrows))

    def column(self, c: int) -> tuple[Scalar, ...]:
        z, rows = self.field.zero, self.rows
        return tuple(rows[r].get(c, z) if r in rows else z for r in range(self.nrows))

    def items(self):
        """Each nonzero as ((r, c), value), row by row."""
        return (((r, c), v) for r, row in self.rows.items() for c, v in row.items())

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return (self.domain == other.domain and self.codomain == other.codomain
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.domain, self.codomain,
                     frozenset((r, frozenset(row.items())) for r, row in self.rows.items())))

    def __repr__(self):
        return f"LinMap({self.domain!r} -> {self.codomain!r})"

    def relabel(self, domain: SpaceLabel | None = None,
                codomain: SpaceLabel | None = None) -> "LinMap":
        dom = domain if domain is not None else self.domain
        cod = codomain if codomain is not None else self.codomain
        if dom.dim != self.domain.dim or cod.dim != self.codomain.dim:
            raise ShapeError("relabel must preserve dimensions")
        return LinMap._from_rows(self.field, dom, cod, self.rows)

    # -- arithmetic ----------------------------------------------------

    def _plus(self, other: "LinMap", sign: Scalar) -> "LinMap":
        """self + sign * other, sign the field's one or minus one."""
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ShapeError(f"{self!r} and {other!r} are not parallel")
        rows = dict(self.rows)
        for r, rb in other.rows.items():
            row = _accumulate(dict(rows.get(r, ())), rb, sign)
            if row:
                rows[r] = row
            else:  # a sum that cancels; sign is +-1, so rows held r
                del rows[r]
        return LinMap._from_rows(self.field, self.domain, self.codomain, rows)

    def __add__(self, other: "LinMap") -> "LinMap":
        return self._plus(other, self.field.one)

    def __sub__(self, other: "LinMap") -> "LinMap":
        return self._plus(other, self.field.minus_one)

    def __neg__(self) -> "LinMap":
        return LinMap._from_rows(self.field, self.domain, self.codomain,
                                 {r: {c: -a for c, a in row.items()}
                                  for r, row in self.rows.items()})

    def scale(self, s: Scalar) -> "LinMap":
        return LinMap._from_rows(self.field, self.domain, self.codomain,
                                 {r: out for r, row in self.rows.items()
                                  if (out := _accumulate({}, row, s))})

    def __matmul__(self, other: "LinMap") -> "LinMap":
        """Composition self o other: precompose_at with no legs around other."""
        if other.codomain != self.domain:
            raise ShapeError(f"cannot compose {self!r} after {other!r}")
        return precompose_at(self, other, 0)

    def rank(self) -> int:
        rows = {r: dict(row) for r, row in self.rows.items()}
        return len(_rref_inplace(_positions(rows, self.nrows), self.ncols))


def map_kron(f: LinMap, g: LinMap) -> LinMap:
    """Kronecker product consistent with row-major flattening."""
    one, zero = f.field.one, f.field.zero
    ng, mg = g.ncols, g.nrows
    g_rows = g.rows.items()
    out = {}
    for i, frow in f.rows.items():
        shifted = [(k * ng, fik) for k, fik in frow.items()]
        for j, grow in g_rows:
            row = {}
            for base, fik in shifted:
                if fik is one:  # a shifted copy of grow, which holds no zero
                    for l, gjl in grow.items():
                        row[base + l] = gjl
                    continue
                for l, gjl in grow.items():
                    p = fik if gjl is one else fik * gjl
                    if p is not zero:
                        row[base + l] = p
            if row:  # empty when every product is of zero divisors
                out[i * mg + j] = row
    return LinMap._from_rows(f.field, f.domain.tensor(g.domain),
                             f.codomain.tensor(g.codomain), out)


def kron_all(*maps: LinMap) -> LinMap:
    out = maps[0]
    for m in maps[1:]:
        out = map_kron(out, m)
    return out


def swap_legs(space: SpaceLabel, old: SpaceLabel, new: SpaceLabel,
              at: int) -> tuple[int, SpaceLabel]:
    """(q, swapped): q the dimension of the factors of space after
    ``old``'s, which must be its factors from position at, and swapped
    the space with ``new``'s factors in their place."""
    factors = space.factors
    end = at + len(old.factors)
    if not 0 <= at <= len(factors) - len(old.factors) or factors[at:end] != old.factors:
        raise ShapeError(f"{old!r} is not at factor {at} of {space!r}")
    rest = factors[end:]
    q = 1
    for _, d in rest:  # a loop: prod over a generator costs more on so few factors
        q *= d
    return q, SpaceLabel._of(factors[:at] + new.factors + rest,
                             space.dim // old.dim * new.dim)


def apply_at(f: LinMap, g: LinMap, at: int) -> LinMap:
    """(I (x) f (x) I) o g: f acts on g's codomain factors from position
    at, and its domain or codomain may be k (legs removed or inserted).

    Scatters: each row (p, y, q) of g goes, scaled, into the rows
    (p, z, q) that column y of f reaches; a target row's dict is made on
    its first write, a copy of the row when the factor is one, and a
    row that cancels is dropped.
    """
    q, codomain = swap_legs(g.codomain, f.domain, f.codomain, at)
    dy, dz = f.domain.dim, f.codomain.dim
    one = f.field.one
    f_cols = _transpose(f.rows)
    out = {}
    for r, row in g.rows.items():
        col = f_cols.get(r // q % dy)
        if col is None:
            continue
        base = r // (dy * q) * dz * q + r % q
        for z, fv in col.items():
            t = base + z * q
            acc = out.get(t)
            if acc is not None:
                _accumulate(acc, row, fv)
            elif fv is one:
                out[t] = dict(row)
            else:
                out[t] = _accumulate({}, row, fv)
    return LinMap._from_rows(f.field, g.domain, codomain,
                             {t: row for t, row in out.items() if row})


def precompose_at(g: LinMap, f: LinMap, at: int) -> LinMap:
    """g o (I (x) f (x) I): f feeds g's domain factors from position at,
    and its domain or codomain may be k.

    Gathers: each column (p, z, q) of g is read through row z of f into
    the columns (p, y, q).  An entry of g that is the field's own one or
    minus one adds or subtracts that row of f, and any other entry
    multiplies it, skipping the entries of f that are one; a subtracted
    one or minus one is swapped for the other, so identities and signed
    permutations make no new Scalar.  A column's place is worked out on
    its first use, and a row that cancels is dropped.
    """
    q, domain = swap_legs(g.domain, f.codomain, f.domain, at)
    dy, dz = f.domain.dim, f.codomain.dim
    one, minus_one, zero = g.field.one, g.field.minus_one, g.field.zero
    f_rows = f.rows if q == 1 else {z: {y * q: v for y, v in row.items()}
                                    for z, row in f.rows.items()}
    empty, split, out = {}, [None] * g.ncols, {}
    for r, grow in g.rows.items():
        acc = {}
        for c, gv in grow.items():
            s = split[c]
            if s is None:
                s = split[c] = (c // (dz * q) * dy * q + c % q,
                                f_rows.get(c // q % dz, empty))
            base, f_row = s
            add = gv is not minus_one
            if gv is one or not add:
                terms = f_row.items()
            else:
                terms = [(y, gv if fv is one else gv * fv) for y, fv in f_row.items()]
            for y, v in terms:
                y += base
                old = acc.get(y)
                if old is None:
                    acc[y] = v if add else \
                        minus_one if v is one else one if v is minus_one else -v
                else:
                    acc[y] = old + v if add else old - v
        row = {j: v for j, v in acc.items() if v is not zero}
        if row:
            out[r] = row
    return LinMap._from_rows(g.field, domain, g.codomain, out)


def compose_legs(domain: SpaceLabel, *steps) -> LinMap:
    """(I (x) f_1 (x) I) o ... o (I (x) f_n (x) I) out of domain, for
    steps (f_i, at_i) written leftmost first: f_i acts on the factors
    from position at_i of the space it is applied to.  Folded right to
    left by apply_at when the last step takes the whole domain at
    position 0, or when the steps' dimensions show the domain smaller
    than the codomain, or of the same size without a first step that
    gives the whole codomain at position 0; else left to right by
    precompose_at from the codomain's label.  A fold starts from the map
    of a step that spans its end at position 0.
    """
    taken = given = 1
    for f, _ in steps:
        taken *= f.domain.dim
        given *= f.codomain.dim
    (first, first_at), (last, at) = steps[0], steps[-1]
    forward = not (at == 0 and last.domain == domain) and (
        taken > given or taken == given and first_at == 0
        and first.codomain.dim == domain.dim)
    end = domain
    if forward:
        for f, at in reversed(steps):
            end = swap_legs(end, f.domain, f.codomain, at)[1]
    else:
        steps = steps[::-1]
    first, at = steps[0]
    start = at == 0 and (first.codomain if forward else first.domain) == end
    m = first if start else LinMap.identity(first.field, end)
    for f, at in steps[start:]:
        m = precompose_at(m, f, at) if forward else apply_at(f, m, at)
    return m


def flip_map(field: Field, left: SpaceLabel, right: SpaceLabel) -> LinMap:
    """The tensor swap X (x) Y -> Y (x) X as a permutation matrix."""
    o = field.one
    m, n = left.dim, right.dim
    rows = {j * m + i: {i * n + j: o} for j in range(n) for i in range(m)}
    return LinMap._from_rows(field, left.tensor(right), right.tensor(left), rows)


def vector(field: Field, space: SpaceLabel, coeffs) -> LinMap:
    """An element of a space, as a map from the scalar line."""
    return LinMap._from_rows(field, SpaceLabel.scalar(), space,
                             {r: {0: v} for r, v in _sparse_in(field, space, coeffs).items()})


def basis_vector(field: Field, space: SpaceLabel, flat: int) -> LinMap:
    if not 0 <= flat < space.dim:
        raise IndexError(f"flat index {flat} out of range for {space!r}")
    return LinMap._from_rows(field, SpaceLabel.scalar(), space, {flat: {0: field.one}})


def vector_coeffs(v: LinMap) -> tuple[Scalar, ...]:
    if v.domain.dim != 1:
        raise ShapeError("not a vector")
    return v.column(0)


# -- echelon machinery -------------------------------------------------


def _rref_inplace(rows: list[dict], ncols: int, right: bool = False) -> list[int]:
    """Reduced row echelon form of sparse rows, leftmost pivots (or, with
    right=True, pivots at the right: the columns are walked from the
    last down); returns the pivot columns in the order found.

    A column index maps each column to the set of row positions that
    hold it.  It is built once from the rows and kept in step on row
    swaps, fill-in and cancellation, so no step scans the rows.  The
    pivot for column c is the lowest position at or below the current
    row in c's set: the first remaining row that holds c, as in dense
    Gauss-Jordan elimination, so in a reducible Q[x]/(p) a zero-divisor
    pivot raises NotInvertible exactly where the dense elimination
    would.  The sweep updates only the rows in c's set, and each update
    visits the pivot row's nonzeros.  The cost is therefore the
    arithmetic of the elimination itself, nonzeros and their fill-in,
    not rows x columns.

    Rows at or below the current row hold no column walked before c, so
    the index of a column is dropped once its step is done.  Only a row
    that holds a swept column is written, so an empty row passes through
    untouched (swaps only move it) and may be shared.
    """
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            s = cols.get(j)
            if s is None:
                cols[j] = {i}
            else:
                s.add(i)
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols - 1, -1, -1) if right else range(ncols):
        holders = cols.get(c)
        if not holders:
            continue
        pr = min((i for i in holders if i >= r), default=None)
        if pr is None:
            continue
        if pr != r:
            a, b = rows[pr], rows[r]
            for j in a:
                if j not in b:
                    s = cols[j]
                    s.discard(pr)
                    s.add(r)
            for j in b:
                if j not in a:
                    s = cols[j]
                    s.discard(r)
                    s.add(pr)
            rows[r], rows[pr] = a, b
        del cols[c]
        rowr = rows[r]
        piv = rowr[c]
        field = piv.field
        one, zero = field.one, field.zero
        if piv is not one:
            inv = piv.inv()
            rowr = rows[r] = {j: x * inv for j, x in rowr.items()}
        # Column c cancels in every swept row: old - old * 1.
        rest = [(j, x) for j, x in rowr.items() if j != c]
        for i in holders:
            if i == r:
                continue
            row = rows[i]
            # row -= f * rowr: subtract rowr for f = 1, add it for
            # f = -1, else add the nonzero products of -f.
            f = row.pop(c)
            add = f is not one
            if not add or f is field.minus_one:
                terms = rest
            else:
                f = -f
                terms = [(j, p) for j, x in rest if (p := f * x) is not zero]
            for j, x in terms:
                old = row.get(j)
                if old is None:
                    row[j] = x if add else -x
                    cols[j].add(i)
                else:
                    x = old + x if add else old - x
                    if x is zero:
                        del row[j]
                        cols[j].discard(i)
                    else:
                        row[j] = x
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
    M o X = target (or an Infeasible certificate), the rank of M and
    ker M.

    Pivots are chosen leftmost, free variables are zero.  The left block
    of the reduced form of [M | target] is the reduced form of M, so the
    rank and kernel (see _kernel) need no second elimination.  The
    returned map is post-verified against the system exactly.  A 0 = 0
    row goes into the elimination as the shared {}, uncopied.
    """
    if M.codomain != target.codomain:
        raise ShapeError("target codomain must match the system codomain")
    n = M.ncols
    rows = {r: dict(row) for r, row in M.rows.items()}
    for r, tr in target.rows.items():
        row = rows.setdefault(r, {})
        for j, v in tr.items():
            row[n + j] = v
    rows = _positions(rows, M.nrows)
    pivots = _rref_inplace(rows, n + target.ncols)
    rank = sum(1 for p in pivots if p < n)
    kernel = _kernel(M.field, M.domain, rows, pivots[:rank])
    if rank < len(pivots):
        return Solution(Infeasible(row=rank, column=pivots[rank] - n,
                                   detail="echelon row reduces to 0 = nonzero"),
                        rank, kernel)
    xs = {p: x for row, p in zip(rows, pivots)
          if (x := {j - n: v for j, v in row.items() if j >= n})}
    X = LinMap._from_rows(M.field, target.domain, M.domain, xs)
    if M @ X != target:
        raise AssertionError("solver post-check failed")  # pragma: no cover
    return Solution(X, rank, kernel)


def _kernel(field: Field, space: SpaceLabel, rows, pivots) -> "Subspace":
    """ker of a system reduced with leftmost pivots: for each free column
    f of ``space``, 1 at f and minus each pivot row's entry in f at its
    pivot.  No pivot row holds a column left of its pivot, so these are
    already a Subspace's basis, pivots at the right, and need no
    elimination."""
    pivset = set(pivots)
    free = {f: {f: field.one} for f in range(space.dim) if f not in pivset}
    for row, p in zip(rows, pivots):
        for f, x in row.items():
            v = free.get(f)
            if v is not None:
                v[p] = -x
    return Subspace(field, space, free.values())


def kernel_basis(M: LinMap) -> "Subspace":
    """ker M, from one elimination of M."""
    return stacked_kernel([M])


def stacked_kernel(maps: list[LinMap]) -> "Subspace":
    """Kernel of several maps out of a common domain, solved jointly."""
    if not maps:
        raise ShapeError("need at least one map")
    dom = maps[0].domain
    rows, top = {}, 0
    for m in maps:
        if m.domain != dom:
            raise ShapeError("stacked maps must share their domain")
        rows.update((top + r, dict(row)) for r, row in m.rows.items())
        top += m.nrows
    rows = _positions(rows, top)
    return _kernel(maps[0].field, dom, rows, _rref_inplace(rows, dom.dim))


class Subspace:
    """Subspace of a labeled space, held as its unique reduced echelon
    rows alone, pivots at the right: sparse ``rows`` in ascending pivot
    order, each row's last nonzero a 1 that no other row holds.
    Membership is the zero test of the quotient projection, whose kernel
    is this subspace, so it costs no elimination."""

    __slots__ = ("field", "ambient", "rows")

    def __init__(self, field: Field, ambient: SpaceLabel, rows):
        """From reduced rows (sparse dicts) in that form; from_vectors
        spans arbitrary vectors."""
        self.field = field
        self.ambient = ambient
        self.rows = tuple(rows)

    @staticmethod
    def _span(field: Field, ambient: SpaceLabel, rows: list[dict]) -> "Subspace":
        """Span of sparse rows; reduces (and takes) the given dicts."""
        rank = len(_rref_inplace(rows, ambient.dim, right=True))
        return Subspace(field, ambient, reversed(rows[:rank]))

    @staticmethod
    def from_vectors(field: Field, ambient: SpaceLabel, vectors) -> "Subspace":
        return Subspace._span(field, ambient,
                              [_sparse_in(field, ambient, v) for v in vectors])

    @staticmethod
    def zero(field: Field, ambient: SpaceLabel) -> "Subspace":
        return Subspace(field, ambient, [])

    @staticmethod
    def full(field: Field, ambient: SpaceLabel) -> "Subspace":
        o = field.one
        return Subspace(field, ambient, [{i: o} for i in range(ambient.dim)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[tuple[Scalar, ...], ...]:
        """The echelon basis as dense coefficient tuples."""
        z, n = self.field.zero, self.ambient.dim
        return tuple(_dense(row, n, z) for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient, tuple(frozenset(r.items()) for r in self.rows)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient!r})"

    def contains_vector(self, v) -> bool:
        return self.first_outside(vector(self.field, self.ambient, v)) is None

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient != other.ambient:
            raise ShapeError("subspaces live in different ambient spaces")

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return self.first_outside(other.inclusion()) is None

    @staticmethod
    def image(f: LinMap) -> "Subspace":
        """The span of f's columns in its codomain."""
        return Subspace._span(f.field, f.codomain,
                              _positions(_transpose(f.rows), f.ncols))

    def inclusion(self) -> LinMap:
        """The basis as the columns of a map into the ambient space.

        A space label has no 0-dimensional factor, so the zero subspace
        is included as one zero column; image, containment and equality
        are unaffected by it.
        """
        dom = SpaceLabel.base("_sub", max(self.dim, 1))
        return LinMap._from_rows(self.field, dom, self.ambient,
                                 _transpose(dict(enumerate(self.rows))))

    def quotient(self, name: str = "_quot") -> tuple[LinMap, LinMap]:
        """(pi, section): the projection onto the quotient by this
        subspace, a base space ``name``, and its section; ker pi is this
        subspace.  Each row's pivot is its largest key, its last
        nonzero.  The representatives are the non-pivot coordinates,
        lowest first; pi keeps each and sends each pivot to minus the
        rest of its basis row.  A 0-dimensional quotient is one zero
        row, as inclusion() includes the zero subspace as one zero
        column."""
        n, one = self.ambient.dim, self.field.one
        row_of = {max(row): row for row in self.rows}
        at = {j: r for r, j in enumerate(j for j in range(n) if j not in row_of)}
        # column j of pi, and row j of the section for a representative j
        cols = {j: {at[k]: -x for k, x in row_of[j].items() if k != j}
                if j in row_of else {at[j]: one} for j in range(n)}
        space = SpaceLabel.base(name, max(len(at), 1))
        pi = LinMap._from_rows(self.field, self.ambient, space, _transpose(cols))
        section = LinMap._from_rows(self.field, space, self.ambient,
                                    {j: cols[j] for j in at})
        return pi, section

    def first_outside(self, f: LinMap, at: int = 0) -> int | None:
        """The first column of f outside X (x) self (x) Y, with self on
        f's codomain factors from position at, or None.  A column lies
        there exactly when I (x) pi (x) I sends it to 0, pi this
        subspace's projection, so no tensor-product subspace is built."""
        projected = apply_at(self.quotient()[0], f, at)
        return min((c for row in projected.rows.values() for c in row), default=None)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace._span(self.field, self.ambient,
                              [dict(r) for r in self.rows + other.rows])

    def intersection(self, other: "Subspace") -> "Subspace":
        """self's inclusion applied to the kernel of other's projection
        restricted to self."""
        self._check_ambient(other)
        incl = self.inclusion()
        pi = other.quotient()[0]
        return Subspace.image(incl @ kernel_basis(pi @ incl).inclusion())


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
    m = M.nrows
    out = [M.field.zero] * (m * M.ncols)
    for r, row in M.rows.items():
        for c, v in row.items():
            out[c * m + r] = v
    return tuple(out)


def map_from_vector(field: Field, domain: SpaceLabel, codomain: SpaceLabel, vec) -> LinMap:
    m = codomain.dim
    rows = {}
    for k in range(domain.dim * m):
        v = vec[k]
        if v:
            c, r = divmod(k, m)
            rows.setdefault(r, {})[c] = v
    return LinMap._from_rows(field, domain, codomain, rows)
