"""The zero-skipping kernels of `matrix`, the incremental echelon of
`quiver` and the sparse structure constants of `AbstractAlgebra` against
the plain kernels they replaced.

The reference functions below are the earlier dense versions of
`Matrix.apply`, `Matrix.__mul__` and `rref`, kept verbatim as an oracle,
and so are the dense `AbstractAlgebra.mul` over a full table, the
solve-based action of A on a piece A*e_j, which the projectives of the
quiver presentation must reproduce, and the corner certificate built from
dense products e*b_k*e.  The echelon keeps the pivot columns of `_rref`,
and the coordinates read off its labels are those of `solve`.  Every check
compares exact entries on seeded random matrices over Q and F_32003, most
of them sparse (at least 70% zeros, like the matrices the workloads build),
plus zero-row and zero-column shapes, or on the algebras the program
builds: path algebras and End(T).  The scalar kernels keep the normal form
of `fields`: every entry they return over Q is an int when it is integral
(never a float), every entry over F_p lies in range(p), and inputs that
are not in normal form give the same values.
"""

import collections
import json
import random
from fractions import Fraction

from pathlib import Path

import pytest
from helpers import (a2_algebra, basis_vector, cycle3_selfinjective, cycle3_verbatim, dense, mul,
                     products_table, solve_coords, structure_constants, unit, vstack)

from relhomalg.algebra import residue_certificate
from relhomalg.complexes import HomotopyHom, stalk_complex
from relhomalg.fields import QQ, PrimeField
from relhomalg.matrix import (STORED_ENTRIES, Matrix, _rref, column_space_basis,
                              kernel_basis, lincomb, rref, solve)
from relhomalg.quiver import _add, _axpy, _Echelon, _reduce, _sparse, _span
from relhomalg.rep import Representation, _induced_sub, projective
from relhomalg.schema import load_problem, parse_problem
from relhomalg.tilting import end_algebra

FIELDS = [QQ, PrimeField(32003)]
SHAPES = [(0, 0), (0, 4), (4, 0), (1, 1), (1, 7), (7, 1), (5, 5), (6, 9), (9, 6), (12, 12)]


# -- the reference kernels ---------------------------------------------------


def ref_apply(m, vec):
    F = m.field
    out = []
    for i in range(m.rows):
        s = F.zero
        base = i * m.cols
        for j, v in enumerate(vec):
            if not F.is_zero(v):
                s = F.add(s, F.mul(m.entries[base + j], v))
        out.append(s)
    return out


def ref_mul(a, b):
    F = a.field
    add, mul, zero = F.add, F.mul, F.zero
    n, k, m = a.rows, a.cols, b.cols
    out = [zero] * (n * m)
    se, oe = a.entries, b.entries
    for i in range(n):
        base = i * k
        for t in range(k):
            x = se[base + t]
            if F.is_zero(x):
                continue
            ob = t * m
            rb = i * m
            for j in range(m):
                y = oe[ob + j]
                if not F.is_zero(y):
                    out[rb + j] = add(out[rb + j], mul(x, y))
    return Matrix(F, n, m, out)


def ref_rref(m):
    F = m.field
    rows = m.to_rows()
    nr, nc = m.rows, m.cols
    pivots = []
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


def echelon_coords(basis, vec):
    """The coordinates of vec in the columns of basis, read off the labels
    of `quiver`'s echelon with column k labelled k; None outside their span."""
    F, echelon = basis.field, _Echelon()
    for k in range(basis.cols):
        rest, combo = _reduce(F, echelon, _sparse(F, basis.col(k)))
        assert rest
        _add(F, echelon, rest, combo, k)
    rest, combo = _reduce(F, echelon, _sparse(F, vec))
    return None if rest else [combo.get(k, F.zero) for k in range(basis.cols)]


class RefAlgebra:
    """The dense multiplication of the earlier AbstractAlgebra: table[i][j]
    is the full coordinate vector of b_i * b_j."""

    def __init__(self, field, dim, table):
        self.field = field
        self.dim = dim
        self.table = table
        self._left = {}
        self._right = {}

    def mul(self, u, v) -> list:
        F = self.field
        out = [F.zero] * self.dim
        for i, ci in enumerate(u):
            if F.is_zero(ci):
                continue
            for j, cj in enumerate(v):
                if F.is_zero(cj):
                    continue
                c = F.mul(ci, cj)
                for k, ck in enumerate(self.table[i][j]):
                    if not F.is_zero(ck):
                        out[k] = F.add(out[k], F.mul(c, ck))
        return out

    def left_mult(self, v: tuple) -> Matrix:
        """Matrix of x -> v * x."""
        key = tuple(v)
        if key not in self._left:
            F = self.field
            cols = []
            for j in range(self.dim):
                ej = [F.zero] * self.dim
                ej[j] = F.one
                cols.append(self.mul(list(v), ej))
            self._left[key] = Matrix(F, self.dim, self.dim,
                                     [cols[j][i] for i in range(self.dim) for j in range(self.dim)])
        return self._left[key]

    def right_mult(self, v: tuple) -> Matrix:
        """Matrix of x -> x * v."""
        key = tuple(v)
        if key not in self._right:
            F = self.field
            cols = []
            for j in range(self.dim):
                ej = [F.zero] * self.dim
                ej[j] = F.one
                cols.append(self.mul(ej, list(v)))
            self._right[key] = Matrix(F, self.dim, self.dim,
                                      [cols[j][i] for i in range(self.dim) for j in range(self.dim)])
        return self._right[key]

    def basis_vector(self, i: int) -> list:
        F = self.field
        v = [F.zero] * self.dim
        v[i] = F.one
        return v


def ref_piece_actions(algebra, basis):
    """The solve-based action of the basis of A on the piece spanned by the
    columns of basis."""
    actions = []
    for i in range(algebra.dim):
        L = algebra.left_mult(tuple(algebra.basis_vector(i)))
        coef = solve(basis, L * basis)
        if coef is None:
            raise ValueError("piece not closed under left multiplication")
        actions.append(coef)
    return actions


# -- random inputs -----------------------------------------------------------


def scalar(field, rng):
    """A nonzero scalar: a small fraction over Q, a residue over F_p."""
    if field is QQ:
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    return rng.randrange(1, field.p)


def sparse_list(field, rng, n, zeros=0.75):
    return [field.zero if rng.random() < zeros else scalar(field, rng) for _ in range(n)]


def sparse_matrix(field, rng, rows, cols, zeros=0.75):
    return Matrix(field, rows, cols, sparse_list(field, rng, rows * cols, zeros))


def cases(seed):
    rng = random.Random(seed)
    for field in FIELDS:
        for rows, cols in SHAPES:
            for zeros in (0.0, 0.75, 0.9):
                yield field, rng, rows, cols, zeros


# -- the checks ----------------------------------------------------------------


def test_apply_matches_reference():
    for field, rng, rows, cols, zeros in cases(1):
        m = sparse_matrix(field, rng, rows, cols, zeros)
        for _ in range(3):
            v = sparse_list(field, rng, cols, zeros)
            assert m.apply(v) == ref_apply(m, v)


def test_mul_matches_reference():
    for field, rng, rows, cols, zeros in cases(2):
        a = sparse_matrix(field, rng, rows, cols, zeros)
        for inner in (0, 1, 5):
            b = sparse_matrix(field, rng, cols, inner, zeros)
            assert (a * b).entries == ref_mul(a, b).entries
            c = sparse_matrix(field, rng, inner, rows, zeros)
            assert (c * a).entries == ref_mul(c, a).entries


def test_rref_matches_reference():
    for field, rng, rows, cols, zeros in cases(3):
        m = sparse_matrix(field, rng, rows, cols, zeros)
        # stack dependent rows so that eliminations really cancel
        m = vstack(m, Matrix(field, rows, cols, [field.add(x, y) for x, y in
                                                 zip(m.entries, m.entries[cols:] + m.entries[:cols])]))
        got, want = rref(m), ref_rref(m)
        assert got[1] == want[1]
        assert (got[0].rows, got[0].cols, got[0].entries) == (want[0].rows, want[0].cols,
                                                              want[0].entries)


def test_echelon_coordinates_match_solve_inside_and_outside_the_span():
    outside = 0
    for field, rng, rows, cols, zeros in cases(4):
        basis = column_space_basis(sparse_matrix(field, rng, rows, cols, zeros))
        for _ in range(3):
            coords = sparse_list(field, rng, basis.cols, zeros)
            inside = ref_apply(basis, coords)
            assert echelon_coords(basis, inside) == solve_coords(basis, inside) == coords
            v = sparse_list(field, rng, rows, zeros)
            want = solve_coords(basis, v)
            assert echelon_coords(basis, v) == want
            outside += want is None
    assert outside > 50  # the rejection path is exercised, not just the solve


def test_echelon_coordinates_on_an_empty_basis():
    for field in FIELDS:
        basis = Matrix(field, 3, 0, [])
        for v, want in (([field.zero] * 3, []), ([field.zero, field.one, field.zero], None)):
            assert echelon_coords(basis, v) == solve_coords(basis, v) == want


def echelon_cases(seed):
    """Sparse vectors over up to 8 coordinates, about a third of them
    combinations of earlier ones, so that some reduce to 0."""
    rng = random.Random(seed)
    for field in FIELDS:
        for _ in range(150):
            width, vectors = rng.randint(1, 8), []
            for _ in range(rng.randint(0, 10)):
                if vectors and rng.random() < 0.35:
                    v = {}
                    for _ in range(rng.randint(1, 3)):
                        _axpy(field, v, scalar(field, rng), rng.choice(vectors))
                else:
                    v = _sparse(field, sparse_list(field, rng, width, rng.choice((0.0, 0.5, 0.8))))
                vectors.append(v)
            yield field, rng, width, vectors


def echelon_run(F, vectors, pivot=None):
    """The indices of the vectors that one echelon keeps, each added with
    its index as label and its pivot chosen by pivot(rest) (by default
    `_add`'s), and the label combination of each vector that reduces to 0;
    rest plus the combination of the labelled vectors must rebuild every
    vector."""
    echelon, kept, combos = _Echelon(), [], {}
    for k, v in enumerate(vectors):
        rest, combo = _reduce(F, echelon, v)
        rebuilt = dict(rest)
        for label, c in combo.items():
            _axpy(F, rebuilt, c, vectors[label])
        assert rebuilt == v
        if rest:
            _add(F, echelon, rest, combo, k, None if pivot is None else pivot(rest))
            kept.append(k)
        else:
            combos[k] = combo
    return kept, combos


def test_the_echelon_keeps_the_pivot_columns_of_rref():
    seen = collections.Counter()
    for F, rng, width, vectors in echelon_cases(41):
        kept, combos = echelon_run(F, vectors)
        dense = Matrix(F, width, len(vectors), [v.get(r, F.zero) for r in range(width) for v in vectors])
        assert kept == _rref(dense)[1]
        # the pivots change the rows, not what is kept or the combinations
        assert echelon_run(F, vectors, max) == (kept, combos)
        assert echelon_run(F, vectors, lambda rest: rng.choice(sorted(rest))) == (kept, combos)
        # reduced by the echelon of a prefix, the rest keep what they kept
        cut, prefix = rng.randint(0, len(vectors)), _Echelon()
        _span(F, vectors[:cut], prefix)
        assert _span(F, vectors[cut:], modulo=prefix) == [vectors[k] for k in kept if k >= cut]
        seen["dependent"] += bool(combos)
        seen["nonzero combination"] += any(combos.values())
    assert seen["dependent"] > 100 and seen["nonzero combination"] > 100


def test_lincomb_matches_repeated_add_and_scale():
    for field, rng, rows, cols, zeros in cases(5):
        mats = [sparse_matrix(field, rng, rows, cols, zeros) for _ in range(4)]
        coeffs = sparse_list(field, rng, 4, 0.5)
        want = Matrix.zeros(field, rows, cols)
        for c, m in zip(coeffs, mats):
            if not field.is_zero(c):
                want = want + m.scale(c)
        assert lincomb(field, rows, cols, coeffs, mats).entries == want.entries


def normal(field, x):
    """x in the field's normal form, computed without the field's methods."""
    if field.p:
        return x % field.p
    return x.numerator if x.denominator == 1 else x


def in_normal_form(field, x) -> bool:
    if field.p:
        return type(x) is int and 0 <= x < field.p
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def kernel_outputs(field, rng, rows, cols, zeros, entries):
    """Every entry that the matrix operations return on one random case,
    built from entries(list) -> list, which may put the inputs out of normal
    form."""
    def mat(r, c):
        return Matrix(field, r, c, entries(sparse_list(field, rng, r * c, zeros)))

    m = mat(rows, cols)
    other = mat(cols, 3)
    same_shape = mat(rows, cols)
    v = entries(sparse_list(field, rng, cols, zeros))
    basis = column_space_basis(m)
    out = {"add": (m + same_shape).entries, "sub": (m - same_shape).entries,
           "neg": (-m).entries, "scale": m.scale(entries(sparse_list(field, rng, 1, 0))[0]).entries,
           "mul": (m * other).entries, "apply": m.apply(v), "rref": rref(m)[0].entries,
           "kernel_basis": kernel_basis(m).entries,
           "lincomb": lincomb(field, rows, cols, entries(sparse_list(field, rng, 3, 0.3)),
                              [m, mat(rows, cols), mat(rows, cols)]).entries,
           "coords": echelon_coords(basis, basis.apply(entries(sparse_list(field, rng, basis.cols,
                                                                            zeros)))),
           "solve": (solve(m, mat(rows, 2)) or Matrix(field, 0, 0, [])).entries}
    return out


def test_kernel_outputs_are_in_normal_form():
    seen_fraction = 0
    for field, rng, rows, cols, zeros in cases(9):
        for name, got in kernel_outputs(field, rng, rows, cols, zeros,
                                        lambda xs: [normal(field, x) for x in xs]).items():
            assert all(in_normal_form(field, x) for x in got), (field, name, got)
            seen_fraction += any(type(x) is Fraction for x in got)
    assert seen_fraction > 50  # the Fraction half of the normal form is exercised
    # a pivot that is already 1 and a row that no update touches
    m = Matrix(QQ, 1, 2, [Fraction(1), Fraction(3)])
    for name, got in {"rref": rref(m)[0].entries, "computed rref": _rref(m)[0].entries,
                      "kernel_basis": kernel_basis(m).entries}.items():
        assert all(in_normal_form(QQ, x) for x in got), (name, got)


def test_stored_results_match_the_computed_ones():
    stored = 0
    for field, rng, rows, cols, zeros in cases(12):
        m = sparse_matrix(field, rng, rows, cols, zeros)
        others = [sparse_matrix(field, rng, cols, inner, zeros) for inner in (0, 1, 3)]
        for _ in range(2):  # the second round reads what the first one stored
            again = Matrix(field, rows, cols, list(m.entries))
            got, want = rref(again), _rref(m)
            assert got[1] == want[1]
            assert (got[0].rows, got[0].cols, got[0].entries) == (want[0].rows, want[0].cols,
                                                                  want[0].entries)
            assert got[0].entries == ref_rref(m)[0].entries
            for b in others:
                assert (again * b).entries == m._product(b).entries == ref_mul(m, b).entries
        small = rows * cols <= STORED_ENTRIES
        # a matrix without entries is its own rref, answered from its shape
        assert (rref(m) is rref(again)) == (small and bool(m.entries))
        stored += small
    assert stored > 30  # both sides of the cap are exercised


def test_unnormalised_inputs_give_the_same_values():
    # Fraction(4, 2) is the Fraction 2, not the int 2; over F_p, p + 1 is 1
    def spread(field, xs):
        if field.p:
            return [x + field.p * (k % 3) for k, x in enumerate(xs)]
        return [Fraction(x) * Fraction(2, 2) if k % 2 else x for k, x in enumerate(xs)]

    for (field, rng, rows, cols, zeros), seed in zip(cases(10), range(1000)):
        want = kernel_outputs(field, random.Random(seed), rows, cols, zeros,
                              lambda xs: [normal(field, x) for x in xs])
        got = kernel_outputs(field, random.Random(seed), rows, cols, zeros,
                             lambda xs: spread(field, xs))
        assert got == want


def test_unnormalised_inputs_match_the_reference_kernels():
    rng = random.Random(11)
    for _ in range(20):
        entries = [Fraction(2 * x, 2) for x in sparse_list(QQ, rng, 36, 0.5)]
        m = Matrix(QQ, 6, 6, entries)
        v = [Fraction(4, 2), Fraction(0, 3), Fraction(-3, 3), Fraction(1, 2), 0, 1]
        assert m.apply(v) == ref_apply(m, v)
        assert (m * m).entries == ref_mul(m, m).entries
        got, want = rref(m), ref_rref(m)
        assert (got[0].entries, got[1]) == (want[0].entries, want[1])


def test_rational_field_arithmetic_is_exact_and_normal():
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert QQ.inv(3) == Fraction(1, 3) and type(QQ.inv(3)) is Fraction
    results = [QQ.add(half, half), QQ.sub(Fraction(5, 2), half), QQ.mul(third, 3),
               QQ.inv(third), QQ.inv(-1), QQ.div(6, 3), QQ.of_str("4/2"), QQ.of_int(7),
               QQ.add(2, 3), QQ.neg(4)]
    assert results == [1, 2, 1, 3, -1, 2, 2, 7, 5, -4]
    assert all(type(x) is int for x in results)
    assert [QQ.add(half, third), QQ.sub(half, 1), QQ.mul(half, third), QQ.inv(2),
            QQ.div(2, 4)] == [Fraction(5, 6), Fraction(-1, 2), Fraction(1, 6), half, half]
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0, 5))
    assert (QQ.zero, QQ.one, QQ.p) == (0, 1, 0)
    F = PrimeField(7)
    assert (F.zero, F.one, F.p) == (0, 1, 7)
    assert [F.add(5, 4), F.sub(2, 5), F.mul(3, 5), F.inv(3), F.neg(2)] == [2, 4, 1, 5, 5]


def test_equal_entries_give_one_canonical_module():
    def problem(entry):
        data = json.loads((DATA / "section7.json").read_text())
        data["modules"]["X"] = {"dims": [1, 1, 0], "matrices": {"a": [[entry]]}}
        return parse_problem(json.dumps(data))

    x = problem("2").modules["X"]
    assert type(x.mats[0].entries[0]) is int
    # two loads build two algebras; compare within one algebra
    alg = x.algebra
    y = Representation(alg, (1, 1, 0), [Matrix(QQ, 1, 1, [QQ.of_str("4/2")]),
                                        Matrix(QQ, 0, 1, []), Matrix(QQ, 1, 0, [])])
    z = Representation(alg, (1, 1, 0), [Matrix(QQ, 1, 1, [Fraction(4, 2)]),
                                        Matrix(QQ, 0, 1, []), Matrix(QQ, 1, 0, [])])
    assert x is y is z
    assert problem("4/2").modules["X"].mats[0].entries == [2]


def test_vector_to_chain_map_matches_repeated_add_and_scale(L7_modules):
    x, y = stalk_complex(L7_modules["P1"]), stalk_complex(L7_modules["M1"])
    hh = HomotopyHom(x, y, 0)
    rng = random.Random(7)
    for _ in range(5):
        vec = sparse_list(QQ, rng, hh.dim_total, 0.5)
        got = hh.vector_to_chain_map(vec)
        for i, (basis, off) in hh.blocks.items():
            if not basis:
                continue
            want = basis[0].scale(QQ.zero)
            for k, b in enumerate(basis):
                want = want + b.scale(vec[off + k])
            assert [m.entries for m in got.comps[i].mats] == [m.entries for m in want.mats]


# -- the Gamma side ------------------------------------------------------------

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"


def dense_table(field, dim, table):
    """The full table[i][j] of structure constants {(i, j): {k: c}}, or
    {(i, j): [(k, c)]} as `helpers.products_table` lists them."""
    out = [[[field.zero] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), prod in table.items():
        for k, c in dict(prod).items():
            out[i][j][k] = c
    return out


def path_algebra_pairs():
    for field in FIELDS:
        for build in (a2_algebra, cycle3_selfinjective, cycle3_verbatim):
            lam = build(field)
            table = {(i, j): lam.mul_basis(j, i) for i in range(lam.dim) for j in range(lam.dim)}
            yield f"{build.__name__}/{field!r}", structure_constants(lam), \
                RefAlgebra(field, lam.dim, dense_table(field, lam.dim, table))


def end_algebra_pairs():
    for name in ("section6", "section7"):
        gamma = end_algebra(load_problem(str(DATA / f"{name}.json")).tilting_sum())
        yield f"End(T) {name}", gamma, RefAlgebra(QQ, gamma.dim,
                                                  dense_table(QQ, gamma.dim, products_table(gamma)))


ALGEBRAS = list(path_algebra_pairs()) + list(end_algebra_pairs())


@pytest.mark.parametrize("label, algebra, ref", ALGEBRAS, ids=[a[0] for a in ALGEBRAS])
def test_sparse_products_match_the_dense_table(label, algebra, ref):
    F = algebra.field
    rng = random.Random(8)
    vectors = [basis_vector(algebra, b) for b in range(algebra.dim)]
    vectors += [sparse_list(F, rng, algebra.dim, zeros)
                for zeros in (0.0, 0.5, 0.9) for _ in range(3)]
    vectors += [unit(algebra)] + [dense(algebra, e) for e in algebra.idempotents]
    for u in vectors:
        for v in vectors[::3]:
            assert mul(algebra, u, v) == ref.mul(u, v)


@pytest.mark.parametrize("label, algebra, ref", ALGEBRAS, ids=[a[0] for a in ALGEBRAS])
def test_piece_actions_match_the_solves(label, algebra, ref):
    # the projective P_j of the quiver presentation is the piece A*e_j: its
    # basis words map to a basis of A*e_j, and each arrow acts on P_j as its
    # lift acts on A*e_j by the solves
    F = algebra.field
    pres = algebra.presentation()
    lifts = [[b.get(k, F.zero) for k in range(algebra.dim)] for b in algebra.arrow_lifts]
    for j, e in enumerate(dense(algebra, e) for e in algebra.idempotents):
        pj = projective(pres, j + 1)
        words = [pres.basis[k] for v in range(1, pres.quiver.n + 1)
                 for k, (src, _) in enumerate(pres.basis)
                 if src == j + 1 and pres.element_target(k) == v]
        images = []
        for _, word in words:
            x = list(e)
            for a in word:
                x = ref.mul(lifts[a], x)
            images.append(x)
        basis = Matrix(F, algebra.dim, len(images),
                       [x[r] for r in range(algebra.dim) for x in images])
        piece = column_space_basis(ref.right_mult(tuple(e)))
        assert len(images) == piece.cols == column_space_basis(basis.hstack(piece)).cols
        actions = ref_piece_actions(ref, basis)
        offsets = [sum(pj.dims[:v]) for v in range(len(pj.dims))]
        for a, arrow in enumerate(pres.quiver.arrows):
            want = lincomb(F, basis.cols, basis.cols, lifts[a], actions)
            got = Matrix.zeros(F, basis.cols, basis.cols).to_rows()
            block = pj.mats[a]
            for r in range(block.rows):
                for c in range(block.cols):
                    got[offsets[arrow.target - 1] + r][offsets[arrow.source - 1] + c] = block.at(r, c)
            assert [x for row in got for x in row] == want.entries


@pytest.mark.parametrize("label, algebra, ref", ALGEBRAS, ids=[a[0] for a in ALGEBRAS])
def test_unclosed_pieces_are_rejected_like_the_solves(label, algebra, ref):
    # e_i A e_j is the space at vertex i of the projective P_j of the
    # presentation; the rep layer accepts it as a subrepresentation exactly
    # when the solves find it closed under left multiplication
    F = algebra.field
    ident = Matrix.identity(F, algebra.dim)
    pres = algebra.presentation()
    rejected = 0
    for i in range(len(algebra.idempotents)):
        for j in range(len(algebra.idempotents)):
            indices = [b for b, c in enumerate(algebra.grading()) if c == (i, j)]
            if not indices:
                continue
            try:
                ref_piece_actions(ref, ident.select_columns(indices))
                closed = True
            except ValueError:
                closed = False
            pj = projective(pres, j + 1)
            assert pj.dims[i] == len(indices)
            cols = [Matrix.identity(F, d) if v == i else Matrix.zeros(F, d, 0)
                    for v, d in enumerate(pj.dims)]
            try:
                _induced_sub(pj, cols)
                assert closed
            except ValueError:
                assert not closed
                rejected += 1
    assert rejected or len(algebra.idempotents) == 1


def ref_corner_certificate(ref, e):
    """The earlier corner_certificate: e*b_k*e by two dense products per
    basis vector, and the residues over the dense multiplication."""
    F = ref.field
    ks, ys = [], []
    for k in range(ref.dim):
        y = ref.mul(ref.mul(e, ref.basis_vector(k)), e)
        if any(not F.is_zero(c) for c in y):
            ks.append(k)
            ys.append(y)
    Y = Matrix(F, ref.dim, len(ys), [y[r] for r in range(ref.dim) for y in ys])
    R, pivots = rref(Y)
    basis = Y.select_columns(pivots)

    def mul(u, v):
        return solve_coords(basis, ref.mul(basis.apply(u), basis.apply(v)))

    return (ks, R.submatrix(range(len(pivots)), range(len(ys))),
            residue_certificate(F, len(pivots), solve_coords(basis, e), mul))


BUNDLED = sorted(p.stem for p in DATA.glob("*.json"))


@pytest.mark.parametrize("name", BUNDLED)
def test_corner_certificates_match_the_dense_products(name):
    gamma = end_algebra(load_problem(str(DATA / f"{name}.json")).tilting_sum())
    ref = RefAlgebra(QQ, gamma.dim, dense_table(QQ, gamma.dim, products_table(gamma)))
    # the corner e_i·Γ·e_i has the basis vectors graded (i, i) as its basis,
    # so their residues are read without a change of basis
    for i, e in enumerate(dense(gamma, e) for e in gamma.idempotents):
        residues = gamma.corner_residues(i)
        ref_ks, ref_coords, ref_residues = ref_corner_certificate(ref, e)
        assert ref_ks == [b for b, c in enumerate(gamma.grading()) if c == (i, i)]
        assert ref_coords.entries == Matrix.identity(QQ, len(ref_ks)).entries
        assert residues is not None and residues == ref_residues
