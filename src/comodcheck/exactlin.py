"""Exact linear algebra over Q and F_p.

Matrices are immutable flat row-major arrays of exact scalars (see
``fields``), the dense views of the stored columns.  Every solve, rank,
kernel and inverse is one ``rref_rows`` of sparse {column: value} rows in
the kernel module ``_backend.core``, ``Matrix``'s own included, and a row
with a zero in the pivot column is left as it is.  Over Q each row is
scaled to integers as it is read and updated fraction-free, then divided
by its content, so entries stay as short as the primitive row of each
Gauss step; over F_p it is Gauss-Jordan with modular inverses.  The
backward pass touches only the nonzeros it reaches.  A ``Subspace`` is
its canonical basis, the reduced rows of one ``rref_rows`` of a spanning
set read as rows, and a kernel is read off the reduced rows of its matrix
(``_null_space``), so neither is ever transposed or stored dense.

Every law that ``coalg`` and ``comod`` certify is an equation between
Kronecker-structured maps applied to sparse columns: ``_kron_cols``
evaluates each side from the column dicts of its factors (the stored
columns of a structure map or a morphism, a ``Subspace``'s ``columns``),
``_swapped`` permutes tensor factors, and ``_difference`` compares the
two over Q or F_p.  A composite of morphisms is ``_kron_cols(a, 1, 1, b)``
and an inverse is one ``rref_rows`` of [A | I] (``_inverse``), so no
product of two dense matrices is ever formed.  Membership is one such
equation too: ``Subspace.coords`` and ``Chart.coords`` take column dicts
and return column dicts, read candidates at the pivot rows, where the
basis E is the identity, and check E x = y from nonzeros.  A ``Chart``
stores E as reduced column dicts (compressed-column storage, Gustavson
1978).

Tensor bookkeeping fixes one global convention used by every module
downstream: the basis vector e_i (x) e_j of a tensor product of spaces of
dimensions (m, n) sits at flat index ``i*n + j`` (left factor major).
Structure maps and morphisms are column dicts, and every constructor
builds its columns with ``_kron_cols`` and ``_swapped``.  There is no
solver for unknown matrices: a space of linear maps V -> W is a subspace
of W (x) V*, so callers describe it either cut out as a kernel (from the
rows of its matrix, ``_null_space``, or as the columns of a system that
``_solve`` solves) or spanned by the columns of an idempotent, which
``Subspace`` puts in canonical form.
"""

from __future__ import annotations

from ._backend import core
from .fields import Field

__all__ = ["ShapeError", "Matrix", "Subspace", "Chart"]


class ShapeError(ValueError):
    """Dimension mismatch in a matrix or subspace operation."""


class Matrix:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimension")
        data = list(data)
        if len(data) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, "
                f"got {len(data)}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ShapeError("ragged rows")
        data = [field.of(x) for r in rows for x in r]
        return cls(field, len(rows), n, data)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        data = [0] * (n * n)
        for i in range(n):
            data[i * n + i] = 1
        return cls(field, n, n, data)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, [0] * (rows * cols))

    # -- access ----------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def is_zero(self) -> bool:
        return not any(self.data)

    def __eq__(self, other):
        if other is self:
            return True
        return (isinstance(other, Matrix) and other.field == self.field
                and other.rows == self.rows and other.cols == self.cols
                and other.data == self.data)

    def __hash__(self):
        raise TypeError("matrices are not hashable")

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"

    # -- arithmetic --------------------------------------------------------

    def _check_field(self, other: "Matrix"):
        if self.field != other.field:
            raise ShapeError("field mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in addition")
        p = self.field.char
        return Matrix(self.field, self.rows, self.cols,
                      [(x + y) % p for x, y in zip(self.data, other.data)]
                      if p else
                      [x + y for x, y in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in subtraction")
        p = self.field.char
        return Matrix(self.field, self.rows, self.cols,
                      [(x - y) % p for x, y in zip(self.data, other.data)]
                      if p else
                      [x - y for x, y in zip(self.data, other.data)])

    def scale(self, a) -> "Matrix":
        a = self.field.of(a)
        mul = self.field.mul
        return Matrix(self.field, self.rows, self.cols,
                      [mul(a, x) for x in self.data])

    def hstack(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.rows != other.rows:
            raise ShapeError("row mismatch in hstack")
        data = []
        for i in range(self.rows):
            data.extend(self.data[i * self.cols:(i + 1) * self.cols])
            data.extend(other.data[i * other.cols:(i + 1) * other.cols])
        return Matrix(self.field, self.rows, self.cols + other.cols, data)

    def vstack(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.cols != other.cols:
            raise ShapeError("column mismatch in vstack")
        return Matrix(self.field, self.rows + other.rows, self.cols,
                      self.data + other.data)

    # -- elimination -------------------------------------------------------

    def _rows(self):
        """The nonzero rows as {column: value} dicts."""
        return core._sparse_rows(self.data, self.rows, self.cols)

    def _columns(self):
        """Every column as a {row: value} dict."""
        c = self.cols
        return [{i: x for i in range(self.rows) if (x := self.data[i * c + j])}
                for j in range(c)]

    def rank(self) -> int:
        return len(core.rref_rows(self._rows(), self.cols,
                                  self.field.char)[1])

    def rref(self):
        """Fully reduced row echelon form, returned as (Matrix, pivots)."""
        rows, pivots = core.rref_rows(self._rows(), self.cols,
                                      self.field.char)
        return Matrix(self.field, self.rows, self.cols,
                      core._dense(rows, self.rows, self.cols)), pivots

    def kernel(self) -> "Subspace":
        """Basis of the null space {x : A x = 0}."""
        return _null_space(self.field, self._rows(), self.cols)

    def solve_right(self, b: "Matrix"):
        """One exact solution X of A X = B (``_solve``: free variables 0),
        or None if inconsistent."""
        self._check_field(b)
        if b.rows != self.rows:
            raise ShapeError("right-hand side row mismatch")
        x = _solve(self.field.char, self.rows, self._columns(), b._columns())
        return None if x is None else _dense_columns(self.field, self.cols, x)


def _kron_cols(a, b, rb: int, columns):
    """(a (x) b) x for each sparse column x of ``columns``, as a list of
    unreduced {row: sum} dicts, never building a (x) b.

    A factor is an int n, standing for I_n, or a list of {row: value}
    column dicts; rb is b's row count.  Index i*cb + j of x is
    e_i (x) e_j, so an entry x adds x a[r, i] b[k, j] at row r*rb + k.
    Over F_p the sums are not reduced: ``_difference`` reduces only a
    column that differs.
    """
    cb = b if isinstance(b, int) else len(b)
    out = []
    if isinstance(a, int):
        if isinstance(b, int):
            return [dict(col) for col in columns]
        for col in columns:
            acc = {}
            get = acc.get
            for idx, x in col.items():
                off = idx // cb * rb
                for k, y in b[idx % cb].items():
                    key = off + k
                    cur = get(key)
                    acc[key] = x * y if cur is None else cur + x * y
            out.append(acc)
    elif isinstance(b, int):
        for col in columns:
            acc = {}
            get = acc.get
            for idx, x in col.items():
                j = idx % cb
                for r, y in a[idx // cb].items():
                    key = r * rb + j
                    cur = get(key)
                    acc[key] = x * y if cur is None else cur + x * y
            out.append(acc)
    else:
        for col in columns:
            acc = {}
            get = acc.get
            for idx, x in col.items():
                bj = b[idx % cb]
                for r, y in a[idx // cb].items():
                    off = r * rb
                    xy = x * y
                    for k, z in bj.items():
                        key = off + k
                        cur = get(key)
                        acc[key] = xy * z if cur is None else cur + xy * z
            out.append(acc)
    return out


def _difference(lhs, rhs, p: int):
    """None when two lists of {row: sum} columns are one matrix over Q
    (p = 0) or F_p, else the witness (column, least row where they differ).

    The whole lists are compared as they stand first; only a column that
    differs is reduced mod p and rid of zero sums.  The sides are summed
    apart, so over Q neither mixes in the other's denominators.
    """
    if lhs == rhs:
        return None
    for t, (x, y) in enumerate(zip(lhs, rhs)):
        if x != y:
            x, y = _reduced((x, y), p)
            if x != y:
                return t, min(k for k in x.keys() | y.keys()
                              if x.get(k) != y.get(k))
    return None


def _reduced(columns, p: int):
    """Each {row: sum} column reduced mod p (over F_p) and rid of zero
    sums."""
    return [{k: r for k, s in col.items() if (r := s % p if p else s)}
            for col in columns]


def _dense_columns(field: Field, rows: int, columns) -> Matrix:
    """The rows x len(columns) matrix with the given {row: value}
    columns, whose sums may be unreduced (over F_p each is reduced)."""
    c, p = len(columns), field.char
    data = [0] * (rows * c)
    for t, col in enumerate(columns):
        for r, x in col.items():
            data[r * c + t] = x % p if p else x
    return Matrix(field, rows, c, data)


def _checked_columns(columns, count: int, rows: int, p: int, what: str):
    """The {row: value} columns of a rows x count structure map (sums may
    be unreduced), reduced once (``_reduced``); a wrong column count or a
    row outside the map raises ``ShapeError``."""
    columns = _reduced(columns, p)
    if len(columns) != count or any(k < 0 or k >= rows
                                    for col in columns for k in col):
        raise ShapeError(f"{what} must be {rows}x{count}")
    return columns


def _transposed(columns, rows: int):
    """The transpose of the rows x len(columns) matrix with the given
    {row: value} columns, as its {row: value} columns."""
    out = [{} for _ in range(rows)]
    for t, col in enumerate(columns):
        for r, x in col.items():
            out[r][t] = x
    return out


def _member_coords(ambient: int, pivots, vectors, apply, p: int):
    """Coordinates x = y[pivots], as reduced {coordinate: value} columns,
    of the {row: value} columns y of ``vectors`` (sums may be unreduced)
    in a basis E of a subspace of k^ambient that is the identity at the
    rows ``pivots``, kept only if E x = y (E x by ``apply``, compared by
    ``_difference`` over Q or F_p), else None; a row outside the ambient
    raises ``ShapeError``."""
    if max((max(col) for col in vectors if col), default=-1) >= ambient:
        raise ShapeError("vectors do not live in the ambient space")
    at = {piv: q for q, piv in enumerate(pivots)}
    cand = [{at[k]: r for k, y in col.items()
             if k in at and (r := y % p if p else y)} for col in vectors]
    if _difference(apply(cand), vectors, p) is not None:
        return None
    return cand


def _solve(p: int, rows: int, lhs, rhs):
    """One exact solution X of E X = Y over Q (p = 0) or F_p, as reduced
    {row: value} columns, from the {row: value} columns of E and Y (each
    with ``rows`` rows, sums may be unreduced), or None when some column
    of Y is not in the image of E.  The rows of [E | Y] are reduced by one
    ``rref_rows``; a pivot in Y's half means no solution, else row r of
    X is the Y half of the pivot row of column r, and a free variable
    is 0."""
    k = len(lhs)
    reduced, pivots = core.rref_rows(_transposed(lhs + rhs, rows),
                                     k + len(rhs), p)
    if pivots and pivots[-1] >= k:
        return None
    out = [{} for _ in rhs]
    for c, row in zip(pivots, reduced):
        for j, x in row.items():
            if j >= k:
                out[j - k][c] = x
    return out


def _inverse(field: Field, n: int, columns):
    """The inverse of the n x n matrix with the given {row: value}
    columns, as its reduced columns (``_solve`` of A X = I), or None when
    the matrix is not square or is singular; inv A = I is checked from
    nonzeros."""
    if len(columns) != n:
        return None
    p = field.char
    inv = _solve(p, n, columns, [{t: 1} for t in range(n)])
    if inv is None or not _is_identity(_kron_cols(inv, 1, 1, columns), p):
        return None
    return inv


def _invertible(field: Field, n: int, columns) -> bool:
    """True when the {row: value} columns are those of an invertible
    n x n matrix: n of them, and one ``rref_rows`` finds n pivots."""
    return len(columns) == n and len(
        core.rref_rows(columns, n, field.char)[1]) == n


def _is_identity(columns, p: int) -> bool:
    """True when the {row: sum} columns are those of the identity over Q
    (p = 0) or F_p, compared by ``_difference``."""
    return _difference(columns, [{t: 1} for t in range(len(columns))],
                       p) is None


def _inverse_pair(a, b, p: int) -> bool:
    """a b = id and b a = id over Q (p = 0) or F_p, from the {row: value}
    columns of a and b."""
    return (_is_identity(_kron_cols(a, 1, 1, b), p)
            and _is_identity(_kron_cols(b, 1, 1, a), p))


def _swapped(columns, m: int, a: int, b: int, k: int):
    """(I_m (x) tau_{a,b} (x) I_k) x for each {row: value} column x of an
    m (x) a (x) b (x) k ambient, tau the swap: key ((i*a + s)*b + t)*k + r
    moves to ((i*b + t)*a + s)*k + r."""
    def moved(key):
        q, r = divmod(key, k)
        u, t = divmod(q, b)
        i, s = divmod(u, a)
        return ((i * b + t) * a + s) * k + r

    return [{moved(key): x for key, x in col.items()} for col in columns]


def _null_space(field: Field, rows, cols: int) -> "Subspace":
    """{x : R x = 0} for the {column: value} rows of R (sums may be
    unreduced), as a canonical ``Subspace``: for each free column t of the
    reduced rows, the vector e_t - sum_r R[r][t] e_{pivot r}."""
    p = field.char
    reduced, pivots = core.rref_rows(rows, cols, p)
    free = sorted(set(range(cols)).difference(pivots))
    basis = {t: {t: 1} for t in free}
    for c, row in zip(pivots, reduced):
        for t, x in row.items():
            if t != c:
                basis[t][c] = -x % p if p else -x
    return Subspace(field, cols, list(basis.values()), _canonical=False)


class Subspace:
    """Subspace of k^ambient, stored as its canonical basis ``columns``:
    the rows of the reduced row echelon form of any spanning set read as
    rows, one {row: value} dict per basis vector.  So equal subspaces store
    equal columns, and the pivot coordinates of a member vector are its
    coordinates in the basis.  The constructor reduces a spanning set of
    {row: value} columns (sums may be unreduced) by one ``rref_rows``,
    which with ``_canonical`` must find them independent; ``basis`` is a
    dense view built on each read.
    """

    __slots__ = ("field", "ambient", "columns", "pivots")

    def __init__(self, field: Field, ambient: int, columns,
                 _canonical: bool = True):
        if max((max(col) for col in columns if col), default=-1) >= ambient:
            raise ShapeError("basis does not live in the ambient space")
        reduced, pivots = core.rref_rows(columns, ambient, field.char)
        if _canonical and len(pivots) != len(columns):
            raise ShapeError("basis columns are not independent")
        self.field = field
        self.ambient = ambient
        self.columns = reduced
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return len(self.columns)

    @property
    def basis(self) -> Matrix:
        """The ambient x dim basis matrix, built on each read."""
        return _dense_columns(self.field, self.ambient, self.columns)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.field == self.field
                and other.ambient == self.ambient
                and other.columns == self.columns)

    def __hash__(self):
        raise TypeError("subspaces are not hashable")

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"

    def coords(self, vectors):
        """``_member_coords`` of {row: value} columns (sums may be
        unreduced) in the basis, the identity at its pivot rows."""
        return _member_coords(self.ambient, self.pivots, vectors,
                              self._apply, self.field.char)

    def _apply(self, cols):
        """B x for each sparse column x, as unreduced {row: sum} dicts."""
        return _kron_cols(self.columns, 1, 1, cols)


class Chart:
    """Coordinate chart of a subspace of an iterated tensor product.

    A chart knows its flat ambient dimension, the embedding E of its basis
    as ``columns`` (one reduced {flat row: value} dict per coordinate,
    with no zero entry), and the flat rows ``pivots`` at which E is the
    identity: all rows for an identity chart; i*n_b + j for i in a's
    pivots and j in b's for ``kron(a, b)``, in coordinate order; and the
    parent's pivots at the pivots of a canonical ``Subspace`` basis, which
    is the identity there, for a restriction.  So a member y = E x has
    x = y[pivots], and ``coords`` keeps those rows only if E applied to
    them gives y back.

    A restriction stores its columns (``_kron_cols`` of the parts' columns
    under a kron parent, else a sparse combination of the parent's).
    Identity and kron charts build theirs only when read, since ``_apply``
    applies a kron chart's E factor by factor.  No chart holds a dense E.
    """

    __slots__ = ("field", "flat_dim", "dim", "pivots", "_columns",
                 "_kind", "_parts")

    def __init__(self, field, flat_dim, dim, pivots, columns, kind,
                 parts):
        self.field = field
        self.flat_dim = flat_dim
        self.dim = dim
        self.pivots = pivots
        self._columns = columns
        self._kind = kind
        self._parts = parts

    @classmethod
    def identity(cls, field: Field, n: int) -> "Chart":
        return cls(field, n, n, list(range(n)), None, "id", None)

    @classmethod
    def kron(cls, a: "Chart", b: "Chart") -> "Chart":
        nb = b.flat_dim
        return cls(a.field, a.flat_dim * nb, a.dim * b.dim,
                   [i * nb + j for i in a.pivots for j in b.pivots],
                   None, "kron", (a, b))

    @classmethod
    def restrict(cls, parent: "Chart", sub: Subspace) -> "Chart":
        if sub.ambient != parent.dim:
            raise ShapeError("subspace does not live in the parent chart")
        return cls(parent.field, parent.flat_dim, sub.dim,
                   [parent.pivots[q] for q in sub.pivots],
                   _reduced(parent._apply(sub.columns), parent.field.char),
                   "restrict", None)

    @property
    def columns(self):
        """The embedding as reduced {flat row: value} columns; built on
        first read for identity and kron charts."""
        if self._columns is None:
            self._columns = _reduced(
                self._apply([{t: 1} for t in range(self.dim)]),
                self.field.char)
        return self._columns

    def _apply(self, cols):
        """E x for each sparse coordinate column x, as unreduced
        {row: sum} dicts; a kron chart's E as (E_a (x) E_b), from its
        parts' columns (their dim for an identity part)."""
        if self._kind == "id":
            return cols
        if self._kind == "kron":
            a, b = self._parts
            return _kron_cols(a._factor(), b._factor(), b.flat_dim, cols)
        return _kron_cols(self._columns, 1, 1, cols)

    def _factor(self):
        """This chart as a ``_kron_cols`` factor: its dim for identities."""
        return self.dim if self._kind == "id" else self.columns

    def coords(self, flat):
        """``_member_coords`` of flat {row: value} columns in this chart."""
        return _member_coords(self.flat_dim, self.pivots, flat, self._apply,
                              self.field.char)
