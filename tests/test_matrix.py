import itertools
import random
from fractions import Fraction

from relhomalg.fields import QQ, PrimeField
from relhomalg.matrix import (
    STORED_ENTRIES,
    Matrix,
    kernel_basis,
    rank,
    rref,
    solve,
)


def mat(field, rows):
    return Matrix.from_rows(field, [[field.of_int(x) for x in r] for r in rows])


def rand_matrix(field, rng, rows, cols, span=5):
    return Matrix(
        field, rows, cols, [field.of_int(rng.randint(-span, span)) for _ in range(rows * cols)]
    )


def minor_rank_oracle(m):
    """Rank by brute-force expansion of all square minors (exact determinants)."""
    F = m.field

    def det(rows_idx, cols_idx):
        k = len(rows_idx)
        if k == 0:
            return F.one
        total = F.zero
        for perm in itertools.permutations(range(k)):
            sign = 1
            seen = list(perm)
            # count inversions for the signature
            inv = sum(1 for i in range(k) for j in range(i + 1, k) if seen[i] > seen[j])
            sign = -1 if inv % 2 else 1
            prod = F.one
            for i in range(k):
                prod = F.mul(prod, m.at(rows_idx[i], cols_idx[perm[i]]))
            total = F.add(total, prod if sign == 1 else F.neg(prod))
        return total

    for k in range(min(m.rows, m.cols), 0, -1):
        for ri in itertools.combinations(range(m.rows), k):
            for ci in itertools.combinations(range(m.cols), k):
                if not F.is_zero(det(ri, ci)):
                    return k
    return 0


def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    r, pivots = rref(m)
    assert r == m
    assert pivots == [0, 1]


def test_rref_rank_one():
    m = mat(QQ, [[1, 2], [2, 4]])
    r, pivots = rref(m)
    assert r == mat(QQ, [[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_rank_matches_minor_oracle_over_f5():
    F = PrimeField(5)
    rng = random.Random(20240501)
    for _ in range(6):
        m = Matrix.from_rows(F, [[rng.randrange(5) for _ in range(7)] for _ in range(5)])
        assert rank(m) == minor_rank_oracle(m)


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(10):
        m = rand_matrix(QQ, rng, rng.randint(1, 5), rng.randint(1, 5))
        r, _ = rref(m)
        r2, _ = rref(r)
        assert r == r2


def test_kernel_zero_matrix():
    k = kernel_basis(Matrix.zeros(QQ, 3, 3))
    assert k.cols == 3
    assert k == Matrix.identity(QQ, 3)


def test_kernel_identity_empty():
    k = kernel_basis(Matrix.identity(QQ, 3))
    assert k.cols == 0


def test_kernel_hand_oracle():
    # [[1,1,0],[0,1,1]] x = 0 forces x2 = -x3, x1 = -x2 = x3: span (1,-1,1)
    m = mat(QQ, [[1, 1, 0], [0, 1, 1]])
    k = kernel_basis(m)
    assert k.cols == 1
    v = k.col(0)
    scale = v[0]
    assert scale != 0
    assert [x / scale for x in v] == [QQ.of_int(1), QQ.of_int(-1), QQ.of_int(1)]


def test_rank_nullity_random():
    rng = random.Random(20240502)
    for _ in range(40):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = rand_matrix(QQ, rng, rows, cols)
        assert rank(m) + kernel_basis(m).cols == cols
        assert (m * kernel_basis(m)).is_zero()


def test_solve_identity():
    b = mat(QQ, [[3], [5]])
    x = solve(Matrix.identity(QQ, 2), b)
    assert x == b


def test_solve_zero_inconsistent():
    assert solve(Matrix.zeros(QQ, 2, 2), mat(QQ, [[1], [0]])) is None


def test_solve_exhaustive_f7():
    F = PrimeField(7)
    rng = random.Random(99)
    for _ in range(8):
        a = Matrix.from_rows(F, [[rng.randrange(7) for _ in range(2)] for _ in range(2)])
        b = Matrix.from_rows(F, [[rng.randrange(7)] for _ in range(2)])
        got = solve(a, b)
        # enumerate all 49 candidate vectors
        witnesses = [
            (x, y)
            for x in range(7)
            for y in range(7)
            if a.apply([x, y]) == b.col(0)
        ]
        if witnesses:
            assert got is not None
            assert a * got == b
        else:
            assert got is None


def test_solve_residual_exact():
    rng = random.Random(11)
    for _ in range(20):
        a = rand_matrix(QQ, rng, 4, 3)
        xs = rand_matrix(QQ, rng, 3, 2)
        b = a * xs
        x = solve(a, b)
        assert x is not None
        assert (a * x - b).is_zero()


def test_results_do_not_alias_their_inputs():
    # the constructor takes ownership of a list, so every operation must
    # hand it a list of its own; results may be stored and shared, so the
    # check is by identity and writes nothing
    F = QQ
    rows = [[F.of_int(1), F.of_int(2)], [F.of_int(3), F.of_int(6)]]
    a = Matrix.from_rows(F, rows)
    empty_rows, empty_cols = Matrix(F, 0, 2, []), Matrix(F, 2, 0, [])
    identity = mat(F, [[1, 0], [0, 1]])
    results = {
        "from_rows": (Matrix.from_rows(F, rows), [a]),
        "vstack": (a.vstack(empty_rows), [a, empty_rows]),
        "vstack_empty": (empty_rows.vstack(a), [a, empty_rows]),
        "hstack": (a.hstack(empty_cols), [a, empty_cols]),
        "hstack_empty": (empty_cols.hstack(a), [a, empty_cols]),
        "transpose": (a.transpose(), [a]),
        "mul": (a * identity, [a, identity]),
        "mul_identity": (identity * identity, [identity]),
        "rref": (rref(a)[0], [a]),
        "rref_reduced": (rref(identity)[0], [identity]),
        "kernel_basis": (kernel_basis(a), [a]),
    }
    for name, (out, inputs) in results.items():
        assert all(out.entries is not x.entries for x in inputs), name
        assert all(out.entries is not r for r in rows), name
    lst = [F.one, F.zero]
    assert Matrix(F, 1, 2, lst).entries is lst
    tup = (F.one, F.zero)
    assert Matrix(F, 1, 2, tup).entries == list(tup)


def test_equal_operands_get_the_stored_result():
    F, G = QQ, PrimeField(7)
    a, b = mat(F, [[1, 2], [3, 6]]), mat(F, [[2, 0], [1, 1]])
    # equal entries in other lists, one of them a Fraction equal to an int
    a2 = Matrix(F, 2, 2, [Fraction(1), 2, 3, 6])
    assert rref(a) is rref(a2)
    assert a * b is a2 * mat(F, [[2, 0], [1, 1]])
    assert (F.rref_table[(2, 2, (1, 2, 3, 6))] is rref(a)
            and F.product_table[(2, 2, 2, (1, 2, 3, 6), (2, 0, 1, 1))] is a * b)
    # the tables of Q and of F_7 are separate
    a7, b7 = mat(G, [[1, 2], [3, 6]]), mat(G, [[2, 0], [1, 1]])
    assert rref(a7) is not rref(a) and rref(a7)[0].field is G
    assert (a7 * b7).field is G and a7 * b7 is not a * b
    assert G.rref_table is not F.rref_table and G.product_table is not F.product_table
    assert rref(a7) is G.rref_table[(2, 2, (1, 2, 3, 6))]
    assert PrimeField(7).rref_table == {}
    # an operand above STORED_ENTRIES entries is computed every time
    n = 9
    assert n * n > STORED_ENTRIES
    big = Matrix.identity(F, n)
    assert rref(big) is not rref(Matrix.identity(F, n)) and rref(big)[0] == big
    assert big * big is not big * big and big * big == big
    assert (n, n, tuple(big.entries)) not in F.rref_table
    assert not any(key[:3] == (n, n, n) for key in F.product_table)
    # one small operand does not store a product with a large one
    row = Matrix(F, 1, n, [1] * n)
    assert row * big is not row * big
