"""The residue map of a local algebra and the certificate built on it: the
radical in every characteristic, certified negative isomorphisms, and the
fail-closed verdicts on decomposable summands of G and T."""

from fractions import Fraction
from functools import partial

import pytest

from relhomalg.algebra import residue, residue_certificate
from relhomalg.complexes import stalk_complex
from relhomalg.fields import PrimeField, QQ
from relhomalg.relative import SubbifunctorF, SummandDecl
from relhomalg.rep import direct_sum, endo_indecomposability_check, is_isomorphic, projective
from relhomalg.tilting import ComplexSum, verify_f_tilting

from helpers import cycle3_selfinjective, dual_numbers, mul, radical_matrix, table_algebra, unit, validated


def product_k_k(F, idempotents, layout=None):
    """k × k on the basis e1, e2 of its two idempotents."""
    return validated(table_algebra(F, {(0, 0): {0: F.one}, (1, 1): {1: F.one}}, idempotents, layout))


def test_char_p_radical_is_the_residue_kernel():
    F5 = PrimeField(5)
    rad = radical_matrix(dual_numbers(F5))
    assert rad.cols == 1 and rad.col(0)[0] == F5.zero and rad.col(0)[1] != F5.zero
    # 1 + x has minimal polynomial t^2 + 1 = (t - 1)^2 over F_2: p divides k
    F2 = PrimeField(2)
    A = dual_numbers(F2)
    assert residue(F2, [F2.one, F2.one], unit(A), partial(mul, A)) == F2.one
    assert residue(F2, [F2.zero, F2.one], unit(A), partial(mul, A)) == F2.zero


@pytest.mark.parametrize("F", [QQ, PrimeField(3)], ids=["Q", "F3"])
def test_residue_reads_the_eigenvalue(F):
    A = dual_numbers(F)
    two = F.of_int(2)
    assert residue(F, [two, F.of_int(7)], unit(A), partial(mul, A)) == two
    assert residue_certificate(F, A.dim, unit(A), partial(mul, A)) == [F.one, F.zero]


def test_radical_rejects_k_times_k_given_only_its_unit():
    A = product_k_k(QQ, [[QQ.one, QQ.one]])
    # e1 has minimal polynomial t(t - 1): two eigenvalues, no residue
    assert residue(QQ, [QQ.one, QQ.zero], unit(A), partial(mul, A)) is None
    assert residue_certificate(QQ, A.dim, unit(A), partial(mul, A)) is None
    with pytest.raises(ValueError):
        radical_matrix(A)
    # with its idempotents supplied, both corners are k and rad = 0
    B = product_k_k(QQ, [[QQ.one, QQ.zero], [QQ.zero, QQ.one]], [(0, 0), (1, 1)])
    assert B.radical_dim() == 0
    assert B.idempotents_split_basic()


@pytest.mark.parametrize("p", [2, 5, 7])
def test_certified_negative_isomorphism_over_small_fields(p):
    alg = cycle3_selfinjective(PrimeField(p))
    p1, p2 = projective(alg, 1), projective(alg, 2)
    assert p1.dims == p2.dims == (1, 1, 1)
    assert endo_indecomposability_check(p1)
    assert is_isomorphic(p1, p2).isomorphic is False


def test_decomposable_g_summand_gets_a_validation_note(L7, L7_modules):
    mn = direct_sum([L7_modules["S2"], L7_modules["S3"]])
    assert not endo_indecomposability_check(mn)
    summands = [SummandDecl(f"P{i}", L7_modules[f"P{i}"]) for i in (1, 2, 3)]
    f = SubbifunctorF(L7, summands + [SummandDecl("MN", mn)])
    assert [n for n in f.validation_notes if n.startswith("summand MN:")]
    assert not any(n.startswith("summand P") for n in f.validation_notes)


def test_decomposable_t_summand_fails_the_spot_check(F7, L7_modules):
    mn = direct_sum([L7_modules["S2"], L7_modules["S3"]])
    names = ["P1", "P2", "P3", "M2", "MN"]
    modules = [L7_modules[n] for n in names[:4]] + [mn]
    ts = ComplexSum([stalk_complex(m, 0, label=n) for n, m in zip(names, modules)], names)
    rep = verify_f_tilting(ts, F7, declared_count=5)
    assert rep.summand_spot_checks == {"P1": True, "P2": True, "P3": True, "M2": True,
                                       "MN": False}
    assert [m for m in rep.failures if m.startswith("summand MN:")]


M2_BASIS = [((1, 0), (0, 1)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((1, 1), (-1, -1))]


def m2_mul(u, v):
    """The product of M_2(Q) in coordinates on M2_BASIS = I, E12, E21, N."""
    a, b = ([[sum(c * m[r][s] for c, m in zip(w, M2_BASIS)) for s in (0, 1)] for r in (0, 1)]
            for w in (u, v))
    p = [[a[r][0] * b[0][s] + a[r][1] * b[1][s] for s in (0, 1)] for r in (0, 1)]
    n = Fraction(p[0][0] - p[1][1], 2)
    return [Fraction(p[0][0] + p[1][1], 2), p[0][1] - n, p[1][0] + n, n]


def test_single_eigenvalues_without_a_multiplicative_residue_map_fail():
    # every basis element of M_2(Q) on I, E12, E21, N = [[1, 1], [-1, -1]]
    # has one eigenvalue, but E12·E21 = E11 has ε = 1/2, not 0·0
    unit = [QQ.one, QQ.zero, QQ.zero, QQ.zero]
    basis = [[QQ.one if r == a else QQ.zero for r in range(4)] for a in range(4)]
    assert [residue(QQ, b, unit, m2_mul) for b in basis] == [1, 0, 0, 0]
    assert residue_certificate(QQ, 4, unit, m2_mul) is None
