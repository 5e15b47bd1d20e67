"""Dense exact matrices and the rank/kernel/solve kit everything reduces to.

All values are immutable after construction and all operations are pure, so
matrices can be shared freely.  Entries live in a Field context; arithmetic
is exact, residuals are compared against literal zero.
"""

from __future__ import annotations

from .fields import Field


class Matrix:
    """Row-major dense matrix over an exact field.

    Zero-row or zero-column matrices are legal and behave as expected under
    multiplication (m x 0 times 0 x n is the m x n zero matrix).
    """

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries):
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
        rows = [list(r) for r in rows]
        n = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != n:
                raise ValueError("ragged rows")
        return Matrix(field, len(rows), n, [x for r in rows for x in r])

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return Matrix(field, rows, cols, [z] * (rows * cols))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        e = [z] * (n * n)
        for i in range(n):
            e[i * n + i] = o
        return Matrix(field, n, n, e)

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

    def vstack(self, other: "Matrix") -> "Matrix":
        assert self.cols == other.cols and self.field == other.field
        return Matrix(self.field, self.rows + other.rows, self.cols, self.entries + other.entries)

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        e = [self.at(i, j) for i in row_idx for j in col_idx]
        return Matrix(self.field, len(row_idx), len(col_idx), e)

    def select_columns(self, col_idx) -> "Matrix":
        return self.submatrix(range(self.rows), col_idx)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        add = self.field.add
        return Matrix(self.field, self.rows, self.cols,
                      [add(a, b) for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        sub = self.field.sub
        return Matrix(self.field, self.rows, self.cols,
                      [sub(a, b) for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(self.field, self.rows, self.cols, [neg(a) for a in self.entries])

    def scale(self, c) -> "Matrix":
        mul = self.field.mul
        return Matrix(self.field, self.rows, self.cols, [mul(c, a) for a in self.entries])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        F = self.field
        add, mul, zero = F.add, F.mul, F.zero
        n, k, m = self.rows, self.cols, other.cols
        out = [zero] * (n * m)
        se, oe = self.entries, other.entries
        for i in range(n):
            base = i * k
            for t in range(k):
                a = se[base + t]
                if F.is_zero(a):
                    continue
                ob = t * m
                rb = i * m
                for j in range(m):
                    b = oe[ob + j]
                    if not F.is_zero(b):
                        out[rb + j] = add(out[rb + j], mul(a, b))
        return Matrix(F, n, m, out)

    def apply(self, vec: list) -> list:
        """Matrix times column vector (as a plain list)."""
        assert len(vec) == self.cols
        F = self.field
        out = []
        for i in range(self.rows):
            s = F.zero
            base = i * self.cols
            for j, v in enumerate(vec):
                if not F.is_zero(v):
                    s = F.add(s, F.mul(self.entries[base + j], v))
            out.append(s)
        return out

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return all(self.field.is_zero(a) for a in self.entries)

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


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the (strictly increasing) pivot columns."""
    F = m.field
    rows = m.to_rows()
    nr, nc = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = None
        for i in range(r, nr):
            if not F.is_zero(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        if not F.is_zero(F.sub(inv, F.one)):
            rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(nr):
            if i == r:
                continue
            f = rows[i][c]
            if F.is_zero(f):
                continue
            ri, rr = rows[i], rows[r]
            rows[i] = [F.sub(ri[j], F.mul(f, rr[j])) for j in range(nc)]
        pivots.append(c)
        r += 1
    return Matrix.from_rows(F, rows) if nr else Matrix(F, 0, nc, []), pivots


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
    X = Matrix.zeros(F, a.cols, b.cols).to_rows()
    for r, pc in enumerate(pivots):
        for j in range(b.cols):
            X[pc][j] = R.at(r, a.cols + j)
    return Matrix.from_rows(F, X) if a.cols else Matrix(F, 0, b.cols, [])


def column_space_basis(m: Matrix) -> Matrix:
    """The pivot columns of m: a deterministic basis of the column space."""
    _, pivots = rref(m)
    return m.select_columns(pivots)


def complement_columns(basis: Matrix) -> list[int]:
    """Indices of identity columns completing basis to a full basis.

    basis has full column rank; returns indices j with e_j extending it.
    """
    n = basis.rows
    aug = basis.hstack(Matrix.identity(basis.field, n))
    _, pivots = rref(aug)
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
        F = basis.field
        _, pivot_rows = rref(basis.transpose())
        self.rows = pivot_rows
        if len(pivot_rows) != basis.cols:
            raise ValueError("basis columns are dependent")
        if basis.cols:
            sq = basis.submatrix(pivot_rows, range(basis.cols))
            self.inv = inverse(sq)
        else:
            self.inv = Matrix(F, 0, 0, [])

    def coords(self, vec: list):
        """Coordinates of vec in the basis, or None if outside the span."""
        F = self.basis.field
        if self.basis.cols == 0:
            return [] if all(F.is_zero(v) for v in vec) else None
        sel = [vec[r] for r in self.rows]
        out = self.inv.apply(sel)
        back = self.basis.apply(out)
        for a, b in zip(back, vec):
            if not F.is_zero(F.sub(a, b)):
                return None
        return out


def block_diag(field: Field, blocks: list[Matrix]) -> Matrix:
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = Matrix.zeros(field, rows, cols).to_rows()
    ro = co = 0
    for b in blocks:
        for i in range(b.rows):
            out[ro + i][co : co + b.cols] = b.row(i)
        ro += b.rows
        co += b.cols
    return Matrix.from_rows(field, out) if rows else Matrix(field, 0, cols, [])


def vec(m: Matrix) -> list:
    """Column-major vectorization (columns stacked)."""
    return [m.at(i, j) for j in range(m.cols) for i in range(m.rows)]
