import pytest

from relhomalg.fields import QQ
from relhomalg.relative import (
    SummandDecl,
    ext_f,
    f_resolution,
    gldim,
    id_f,
    is_gorenstein,
    ordinary_f,
    ordinary_pd,
)
from relhomalg.reports import Dim
from relhomalg.rep import injective, projective, simple, zero_representation

from helpers import (
    a2_algebra,
    cycle3_selfinjective,
    dual_numbers,
    ext_by_injectives,
    loop_dual_numbers,
    radical_matrix,
    structure_constants,
    table_algebra,
    validated,
)


def field_algebra():
    return validated(table_algebra(QQ, {(0, 0): {0: QQ.one}}, [[QQ.one]]))


def test_field_has_zero_radical():
    assert field_algebra().radical_dim() == 0


def test_dual_numbers_radical_is_x():
    A = dual_numbers()
    rad = radical_matrix(A)
    assert rad.cols == 1
    v = rad.col(0)
    assert QQ.is_zero(v[0]) and not QQ.is_zero(v[1])


def test_bad_associativity_rejected():
    z, o = QQ.zero, QQ.one
    # x*x = 1 but then unit laws break associative chain
    table = {(0, 0): {0: o}, (0, 1): {1: o}, (1, 0): {1: o}, (1, 1): {0: o}}
    with pytest.raises(ValueError):
        # x * x = 1 is fine (k[x]/(x^2-1)) so corrupt a different entry
        bad = {key: dict(vec) for key, vec in table.items()}
        bad[(1, 1)] = {1: o}  # x*x = x while 1*x = x: (xx)x = xx = x, x(xx) = xx = x ... tweak more
        bad[(0, 1)] = {0: o}  # 1*x = 1 breaks the unit law
        validated(table_algebra(QQ, bad, [[o, z]]))


def test_a_unit_that_is_not_idempotent_is_rejected():
    # 1 + x in k[x]/(x^2) is a unit of the algebra but not its identity:
    # (1 + x)^2 = 1 + 2x, so it is no idempotent and grades nothing
    z, o = QQ.zero, QQ.one
    table = {(0, 0): {0: o}, (0, 1): {1: o}, (1, 0): {1: o}}
    A = table_algebra(QQ, table, [[o, o]])
    with pytest.raises(ValueError, match="not orthogonal"):
        A.grading()
    with pytest.raises(ValueError):
        A.radical()
    with pytest.raises(ValueError):
        A.presentation()


def test_a_nilpotent_idempotent_is_not_orthogonal():
    # x in k[x]/(x^2) has x^2 = 0, not x
    z, o = QQ.zero, QQ.one
    table = {(0, 0): {0: o}, (0, 1): {1: o}, (1, 0): {1: o}}
    with pytest.raises(ValueError, match="not orthogonal"):
        table_algebra(QQ, table, [[z, o]]).grading()


def test_free_module_pd_zero():
    # the unit alone is the only vertex, so the projective there is A itself
    P = dual_numbers().presentation()
    assert P.quiver.n == 1 and P.dim == 2
    assert ordinary_pd(projective(P, 1), 10) == Dim(0)


def test_dual_numbers_simple_is_periodic():
    P = dual_numbers().presentation()
    k = simple(P, 1)
    res = f_resolution(k, ordinary_f(P), 4)
    # every syzygy is k again, so every term is the free module of rank one
    assert [m.dims for m in res.modules] == [(2,)] * 5
    assert res.truncated
    assert ordinary_pd(k, 10) == Dim(10, censored=True)


def test_zero_module_resolution():
    P = dual_numbers().presentation()
    assert ordinary_pd(zero_representation(P), 5) == Dim(0)


def test_semisimple_gldim_zero():
    assert gldim(field_algebra().presentation(), 10).dim == Dim(0)


def test_dual_numbers_gldim_infinite_but_gorenstein():
    P = dual_numbers().presentation()
    g = gldim(P, 6)
    assert g.dim.censored
    status, left, right = is_gorenstein(P, 6)
    assert status is True
    assert left.dim.value == 0 and right.dim.value == 0  # self-injective


def test_ext_resolution_independence_dual_numbers():
    # Ext^i(k, k) from the minimal projective resolution of the first
    # argument and from the minimal injective coresolution of the second
    P = dual_numbers().presentation()
    k = simple(P, 1)
    res = f_resolution(k, ordinary_f(P), 6)
    by_projectives = [ext_f(k, k, i, ordinary_f(P), resolution=res) for i in range(6)]
    assert by_projectives == ext_by_injectives(k, k, 5) == [1] * 6


def test_quiver_bridge_left_module_property():
    # presenting the structure constants of a path algebra gives back its
    # quiver, and the projectives of the presentation are those of the path
    # algebra, not of its opposite: representations are left modules
    for L in (cycle3_selfinjective(), a2_algebra()):
        A = structure_constants(L)
        validated(A)
        assert A.idempotents_split_basic()
        P = A.presentation()
        assert (P.quiver.n, len(P.quiver.arrows), P.dim) == (L.quiver.n, len(L.quiver.arrows), L.dim)
        for v in range(1, L.quiver.n + 1):
            assert projective(P, v).dims == projective(L, v).dims


def test_quiver_bridge_radical_and_gldim():
    L = cycle3_selfinjective()
    A = structure_constants(L)
    assert A.radical_dim() == 6
    P = A.presentation()
    assert gldim(P, 6).dim.censored  # self-injective non-semisimple
    status, left, right = is_gorenstein(P, 6)
    assert status is True and left.dim.value == 0


def test_a2_bridge_gldim_one():
    P = structure_constants(a2_algebra()).presentation()
    assert gldim(P, 10).dim == Dim(1)
    status, left, right = is_gorenstein(P, 10)
    assert status is True
    assert left.dim.value == 1


def test_gldim_consistent_with_max_over_simples():
    # gldim = pd(A/rad A) must agree with the largest pd of a simple
    P = structure_constants(a2_algebra()).presentation()
    per_simple = max(ordinary_pd(simple(P, 1), 10).value, ordinary_pd(simple(P, 2), 10).value)
    assert gldim(P, 10).dim.value == per_simple == 1


def test_bridge_ext_matches_hand_value():
    # over A_2: Ext^1(S1, S2) = 1, Ext^1(S1, S1) = 0
    P = structure_constants(a2_algebra()).presentation()
    f = ordinary_f(P)
    s1, s2 = simple(P, 1), simple(P, 2)
    assert ext_f(s1, s2, 1, f) == 1
    assert ext_f(s1, s1, 1, f) == 0
    assert ext_f(s1, s2, 0, f) == 0
    assert ext_f(s1, s1, 0, f) == 1


def test_injdim_of_a2_projectives():
    P = structure_constants(a2_algebra()).presentation()
    injectives = [SummandDecl(f"I{v}", injective(P, v)) for v in (1, 2)]
    p1 = projective(P, 1)  # P1 = I2 injective
    p2 = projective(P, 2)  # S2 has id 1
    assert id_f(p1, ordinary_f(P), injectives, 10).dim == Dim(0)
    assert id_f(p2, ordinary_f(P), injectives, 10).dim == Dim(1)


def test_loop_algebra_matches_dual_numbers():
    A = structure_constants(loop_dual_numbers())
    validated(A)
    assert A.radical_dim() == 1
    assert gldim(A.presentation(), 5).dim.censored
