"""The zero-skipping kernels of `matrix` against the plain kernels they
replaced.

The reference functions below are the earlier dense versions of
`Matrix.apply`, `Matrix.__mul__`, `rref`, `SpanSolver.coords` and
`AbstractModule.rho`, kept verbatim as an oracle.  Every check compares exact
entries on seeded random matrices over Q and F_32003, most of them sparse
(at least 70% zeros, like the matrices the workloads build), plus zero-row
and zero-column shapes.
"""

import random
from fractions import Fraction

import pytest
from helpers import cycle3_selfinjective

from relhomalg.algebra import quiver_to_abstract, regular_module, rep_to_abstract
from relhomalg.complexes import HomotopyHom, stalk_complex
from relhomalg.fields import QQ, PrimeField
from relhomalg.matrix import Matrix, SpanSolver, column_space_basis, lincomb, rref
from relhomalg.rep import projective

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


def ref_coords(solver, vec):
    F = solver.basis.field
    if solver.basis.cols == 0:
        return [] if all(F.is_zero(v) for v in vec) else None
    sel = [vec[r] for r in solver.rows]
    out = ref_apply(solver.inv, sel)
    back = ref_apply(solver.basis, out)
    for a, b in zip(back, vec):
        if not F.is_zero(F.sub(a, b)):
            return None
    return out


def ref_rho(module, v):
    F = module.algebra.field
    out = Matrix.zeros(F, module.dim, module.dim)
    for i, c in enumerate(v):
        if not F.is_zero(c):
            out = out + module.action[i].scale(c)
    return out


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
        m = m.vstack(Matrix(field, rows, cols, [field.add(x, y) for x, y in
                                                zip(m.entries, m.entries[cols:] + m.entries[:cols])]))
        got, want = rref(m), ref_rref(m)
        assert got[1] == want[1]
        assert (got[0].rows, got[0].cols, got[0].entries) == (want[0].rows, want[0].cols,
                                                              want[0].entries)


def test_coords_matches_reference_inside_and_outside_the_span():
    outside = 0
    for field, rng, rows, cols, zeros in cases(4):
        basis = column_space_basis(sparse_matrix(field, rng, rows, cols, zeros))
        solver = SpanSolver(basis)
        for _ in range(3):
            inside = ref_apply(basis, sparse_list(field, rng, basis.cols, zeros))
            assert solver.coords(inside) == ref_coords(solver, inside)
            assert solver.coords(inside) is not None
            v = sparse_list(field, rng, rows, zeros)
            want = ref_coords(solver, v)
            assert solver.coords(v) == want
            outside += want is None
    assert outside > 50  # the rejection path is exercised, not just the solve


def test_coords_on_an_empty_basis():
    for field in FIELDS:
        solver = SpanSolver(Matrix(field, 3, 0, []))
        assert solver.coords([field.zero] * 3) == []
        assert solver.coords([field.zero, field.one, field.zero]) is None


def test_lincomb_matches_repeated_add_and_scale():
    for field, rng, rows, cols, zeros in cases(5):
        mats = [sparse_matrix(field, rng, rows, cols, zeros) for _ in range(4)]
        coeffs = sparse_list(field, rng, 4, 0.5)
        want = Matrix.zeros(field, rows, cols)
        for c, m in zip(coeffs, mats):
            if not field.is_zero(c):
                want = want + m.scale(c)
        assert lincomb(field, rows, cols, coeffs, mats).entries == want.entries


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rho_matches_reference(field):
    lam = cycle3_selfinjective(field)
    a = quiver_to_abstract(lam)
    rng = random.Random(6)
    modules = [regular_module(a), rep_to_abstract(projective(lam, 2), a)]
    for module in modules:
        for zeros in (0.0, 0.75):
            v = sparse_list(field, rng, a.dim, zeros)
            assert module.rho(v).entries == ref_rho(module, v).entries


def test_vector_to_chain_map_matches_repeated_add_and_scale(L7_modules):
    x, y = stalk_complex(L7_modules["P1"]), stalk_complex(L7_modules["M1"])
    hh = HomotopyHom(x, y, 0)
    rng = random.Random(7)
    for _ in range(5):
        vec = sparse_list(QQ, rng, hh.dim_total, 0.5)
        got = hh.vector_to_chain_map(vec)
        for (i, _, _), (basis, off) in hh.blocks.items():
            if not basis:
                continue
            want = basis[0].scale(QQ.zero)
            for k, b in enumerate(basis):
                want = want + b.scale(vec[off + k])
            assert [m.entries for m in got.comps[i].mats] == [m.entries for m in want.mats]
