"""Dense exact matrices and the rank/kernel/solve kit everything reduces to.

All values are immutable after construction and all operations are pure, so
matrices can be shared freely.  Entries live in a Field context; arithmetic
is exact, residuals are compared against literal zero.

Each distinct product (`Matrix.__mul__`) and elimination (`rref`) of
operands with at most `STORED_ENTRIES` entries is computed once per field:
the field's insert-only tables hold the results, keyed by the operands'
shapes and entries, and hand the same objects to every equal operand.
Small blocks (corners of arrow matrices, vertex spaces) recur across
modules and algebras, while large operands do not.  Results may therefore
be shared between calls, and no code writes into the `entries` of a
matrix or into a pivot list.

A matrix without entries (no rows or no columns) is answered from its
shape: `Matrix.zeros` hands out one stored object per field and shape, so
the zero blocks of representations and maps at vertices outside their
support are shared, not built, and `rref` returns it as its own echelon
form with no pivot, neither eliminated nor stored.  `Matrix.identity`
hands out one stored identity per field and size.

The inner loops use the native operators and truthiness on the entries, and
reduce by the field's modulus ``p`` once per entry or row update over F_p
(whose elements are ints in [0, p)).  Over Q (``p == 0``) the results are
put in the int-or-Fraction normal form of `fields`; the tests of an entry
are ``==`` and truthiness, so they do not depend on it.
"""

from __future__ import annotations

from .fields import Field, _q

STORED_ENTRIES = 64  # operands up to this many entries have their results stored


def _normal(entries: list, p: int) -> list:
    """entries in the field's normal form: reduced mod p over F_p, and an
    int wherever integral over Q."""
    if p:
        return [x % p for x in entries]
    return [x if x.__class__ is int else _q(x) for x in entries]


class Matrix:
    """Row-major dense matrix over an exact field.

    Zero-row or zero-column matrices are legal and behave as expected under
    multiplication (m x 0 times 0 x n is the m x n zero matrix).

    The constructor takes ownership of `entries` when it is a `list` and
    copies anything else: a caller that passes a list must not change it
    afterwards.  No result shares its entries with an input, but a stored
    product or elimination is handed to every caller with equal operands
    (see the module docstring), so nobody may write into `entries`.
    """

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries):
        if entries.__class__ is not list:
            entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(field: Field, rows):
        if rows.__class__ is not list:
            rows = list(rows)
        n = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != n:
                raise ValueError("ragged rows")
        return Matrix(field, len(rows), n, [x for r in rows for x in r])

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        if not (rows and cols):  # one object per field and shape without entries
            return field.empty_table.get((rows, cols)) or field.empty_table.setdefault(
                (rows, cols), Matrix(field, rows, cols, []))
        return Matrix(field, rows, cols, [field.zero] * (rows * cols))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        """The n x n identity, one stored object per field and size."""
        out = field.identity_table.get(n)
        if out is None:
            e = [field.zero] * (n * n)
            e[::n + 1] = [field.one] * n
            out = field.identity_table[n] = Matrix(field, n, n, e)
        return out

    # -- access --------------------------------------------------------

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> list:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    # -- structure -----------------------------------------------------

    def transpose(self) -> "Matrix":
        e = [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        return Matrix(self.field, self.cols, self.rows, e)

    def hstack(self, other: "Matrix") -> "Matrix":
        assert self.rows == other.rows and self.field == other.field
        e = []
        for i in range(self.rows):
            e.extend(self.row(i))
            e.extend(other.row(i))
        return Matrix(self.field, self.rows, self.cols + other.cols, e)

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        e = [self.at(i, j) for i in row_idx for j in col_idx]
        return Matrix(self.field, len(row_idx), len(col_idx), e)

    def select_columns(self, col_idx) -> "Matrix":
        return self.submatrix(range(self.rows), col_idx)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix(self.field, self.rows, self.cols,
                      _normal([a + b for a, b in zip(self.entries, other.entries)], self.field.p))

    def __sub__(self, other: "Matrix") -> "Matrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix(self.field, self.rows, self.cols,
                      _normal([a - b for a, b in zip(self.entries, other.entries)], self.field.p))

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols,
                      _normal([-a for a in self.entries], self.field.p))

    def scale(self, c) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols,
                      _normal([c * a for a in self.entries], self.field.p))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        se, oe = self.entries, other.entries
        if len(se) > STORED_ENTRIES or len(oe) > STORED_ENTRIES:
            return self._product(other)
        key = (self.rows, self.cols, other.cols, tuple(se), tuple(oe))
        table = self.field.product_table
        out = table.get(key)
        return out if out is not None else table.setdefault(key, self._product(other))

    def _product(self, other: "Matrix") -> "Matrix":
        """self * other, computed."""
        n, k, m = self.rows, self.cols, other.cols
        se, oe = self.entries, other.entries
        other_rows = [None] * k  # the nonzero entries of each row of other, built on first use
        out = []
        for i in range(n):
            acc = [0] * m
            base = i * k
            for t in range(k):
                a = se[base + t]
                if not a:
                    continue
                nz = other_rows[t]
                if nz is None:
                    nz = other_rows[t] = [(j, b) for j, b in enumerate(oe[t * m:(t + 1) * m]) if b]
                for j, b in nz:
                    acc[j] += a * b
            out += acc
        return Matrix(self.field, n, m, _normal(out, self.field.p))

    def apply(self, vec: list) -> list:
        """Matrix times column vector (as a plain list)."""
        assert len(vec) == self.cols
        nonzero = [(j, v) for j, v in enumerate(vec) if v]
        e, k = self.entries, self.cols
        out = []
        for i in range(self.rows):
            s = 0
            base = i * k
            for j, v in nonzero:
                a = e[base + j]
                if a:
                    s += a * v
            out.append(s)
        return _normal(out, self.field.p)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and all(self.field.is_zero(self.field.sub(a, b))
                        for a, b in zip(self.entries, other.entries)))

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Matrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(self.field.to_str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix[{body}]"


def lincomb(field: Field, rows: int, cols: int, coeffs, mats) -> Matrix:
    """The rows x cols matrix sum c_i M_i, built in one pass that skips zero
    coefficients and zero entries."""
    out = [0] * (rows * cols)
    for c, m in zip(coeffs, mats):
        if not c:
            continue
        for k, a in enumerate(m.entries):
            if a:
                out[k] += c * a
    return Matrix(field, rows, cols, _normal(out, field.p))


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the (strictly increasing) pivot columns."""
    if not m.entries:  # no rows or no columns: its own rref, with no pivot
        return m, []
    if m.rows * m.cols > STORED_ENTRIES:
        return _rref(m)
    key = (m.rows, m.cols, tuple(m.entries))
    table = m.field.rref_table
    out = table.get(key)
    return out if out is not None else table.setdefault(key, _rref(m))


def _rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """`rref`, computed.  The rows start in normal form (the pivot search
    over F_p needs reduced entries), and every update keeps them in it, so
    equal operands give identical results."""
    F = m.field
    p = F.p
    nr, nc = m.rows, m.cols
    e = _normal(m.entries, p)
    rows = [e[i * nc:(i + 1) * nc] for i in range(nr)]
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = None
        for i in range(r, nr):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        if rows[r][c] != 1:
            inv = F.inv(rows[r][c])
            rows[r] = _normal([inv * x for x in rows[r]], p)
        rr = rows[r]
        nonzero = None  # the pivot row's nonzero columns, built on first use
        for i in range(nr):
            if i == r:
                continue
            ri = rows[i]
            f = ri[c]
            if not f:
                continue
            if nonzero is None:
                nonzero = [(j, x) for j, x in enumerate(rr) if x]
                integral = all(x.__class__ is int for _, x in nonzero)
            if p:
                for j, x in nonzero:
                    ri[j] = (ri[j] - f * x) % p
            else:
                for j, x in nonzero:
                    ri[j] -= f * x
                # an update by int multiples leaves the normal form as it was
                if not integral or f.__class__ is not int:
                    rows[i] = _normal(ri, 0)
        pivots.append(c)
        r += 1
    return Matrix(F, nr, nc, [x for row in rows for x in row]), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> Matrix:
    """Columns span the right kernel; column count = cols - rank."""
    F = m.field
    R, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    cols = []
    for fc in free:
        v = [F.zero] * m.cols
        v[fc] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(R.at(r, fc))
        cols.append(v)
    e = [cols[j][i] for i in range(m.cols) for j in range(len(cols))]
    return Matrix(F, m.cols, len(cols), e)


def solve(a: Matrix, b: Matrix):
    """A solution X of a·X = b, or None when b is outside the column space."""
    if a.rows != b.rows:
        raise ValueError("solve: row count mismatch")
    F = a.field
    R, pivots = rref(a.hstack(b))
    # a pivot inside the b-block certifies inconsistency
    for p in pivots:
        if p >= a.cols:
            return None
    X = [F.zero] * (a.cols * b.cols)
    for r, pc in enumerate(pivots):
        X[pc * b.cols:(pc + 1) * b.cols] = R.row(r)[a.cols:]
    return Matrix(F, a.cols, b.cols, X)


def column_space_basis(m: Matrix) -> Matrix:
    """The pivot columns of m: a deterministic basis of the column space."""
    return m.select_columns(rref(m)[1])


def complement_columns(basis: Matrix) -> list[int]:
    """Indices j of identity columns e_j completing the column space of
    basis (of any rank) to the whole space: the pivots past basis in
    rref([basis | I])."""
    pivots = rref(basis.hstack(Matrix.identity(basis.field, basis.rows)))[1]
    return [p - basis.cols for p in pivots if p >= basis.cols]


def invertible(m: Matrix) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    inv = solve(m, Matrix.identity(m.field, m.rows))
    if inv is None or not (m * inv == Matrix.identity(m.field, m.rows)):
        raise ValueError("matrix not invertible")
    return inv


class SpanSolver:
    """Repeated coordinate extraction against a fixed full-column-rank basis.

    Precomputes a row selection and the inverse of the selected square block,
    so each coords() call is two small matrix-vector products instead of a
    fresh elimination.
    """

    def __init__(self, basis: Matrix):
        self.basis = basis
        _, pivot_rows = rref(basis.transpose())
        self.rows = pivot_rows
        if len(pivot_rows) != basis.cols:
            raise ValueError("basis columns are dependent")
        self.inv = inverse(basis.submatrix(pivot_rows, range(basis.cols)))

    def coords(self, vec: list):
        """Coordinates of vec in the basis, or None if outside the span."""
        out = self.inv.apply([vec[r] for r in self.rows])
        back = self.basis.apply(out)
        for a, b in zip(back, vec):
            if a != b:
                return None
        return out


def block_diag(field: Field, blocks: list[Matrix]) -> Matrix:
    cols = sum(b.cols for b in blocks)
    z, out, co = field.zero, [], 0
    for b in blocks:
        left, right = [z] * co, [z] * (cols - co - b.cols)
        for i in range(b.rows):
            out += left
            out += b.entries[i * b.cols:(i + 1) * b.cols]
            out += right
        co += b.cols
    return Matrix(field, sum(b.rows for b in blocks), cols, out)

