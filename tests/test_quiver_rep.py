import gc

import pytest

from relhomalg.fields import QQ
from relhomalg.quiver import PathAlgebra, Quiver
from relhomalg.rep import (
    ModuleMap,
    Representation,
    cokernel,
    direct_sum,
    hom_coordinates,
    hom_space,
    injective,
    is_isomorphic,
    kernel,
    projective,
    radical,
    simple,
    socle,
    zero_representation,
)
from relhomalg.relative import dtr, projective_cover

from helpers import (
    DirectSum,
    a2_algebra,
    cycle3_selfinjective,
    cycle3_verbatim,
    dual,
    dual_to_main,
    transpose,
    uniserials,
)


@pytest.fixture(scope="module")
def L7():
    return cycle3_selfinjective()


def M_module(algebra, i):
    """P_i / soc(P_i)."""
    p = projective(algebra, i)
    _, incl = socle(p)
    return cokernel(incl)[0]


def test_one_vertex_no_arrows():
    alg = PathAlgebra(QQ, Quiver(1, []), [], 2)
    assert alg.dim == 1


def test_cycle3_dimension_nine(L7):
    # paths of length < 3: three trivial, three arrows, three length-2
    assert L7.dim == 9


def test_verbatim_section6_finite_basis():
    alg = cycle3_verbatim()
    assert alg.dim == 11  # 3 + 4 + 4 over the three start vertices


def test_projective_dimension_vectors(L7):
    assert projective(L7, 1).dims == (1, 1, 1)
    assert projective(L7, 2).dims == (1, 1, 1)


def test_simple(L7):
    s = simple(L7, 2)
    assert s.dims == (0, 1, 0)
    assert all(m.is_zero() for m in s.mats)


def test_injective_is_shifted_projective(L7):
    # self-injective Nakayama: I_1 has the same uniserial shape as P_2
    i1 = injective(L7, 1)
    assert i1.dims == (1, 1, 1)
    res = is_isomorphic(i1, projective(L7, 2))
    assert res.isomorphic is True


def test_hom_from_projective_counts_dimension(L7):
    for x in [projective(L7, 1), simple(L7, 3), M_module(L7, 2)]:
        for i in (1, 2, 3):
            assert len(hom_space(projective(L7, i), x)) == x.dims[i - 1]


def test_hom_between_distinct_simples(L7):
    assert len(hom_space(simple(L7, 1), simple(L7, 2))) == 0


def test_end_of_projective_one_dimensional(L7):
    assert len(hom_space(projective(L7, 1), projective(L7, 1))) == 1


def test_kernel_of_identity(L7):
    p = projective(L7, 1)
    k, _ = kernel(ModuleMap.identity(p))
    assert k.is_zero()


def test_cokernel_of_zero_map(L7):
    m = M_module(L7, 1)
    c, proj = cokernel(ModuleMap.zero(zero_representation(L7), m))
    assert c.dims == m.dims
    assert proj.is_isomorphism()


def test_kernel_of_top_cover(L7):
    p1 = projective(L7, 1)
    _, proj = cokernel(radical(p1)[1])
    k, _ = kernel(proj)
    assert k.dims == (0, 1, 1)


def test_direct_sum_dims_and_hom_additivity(L7):
    p1, s2 = projective(L7, 1), simple(L7, 2)
    ds = direct_sum([p1, s2])
    assert ds.dims == (1, 2, 1)
    m2 = M_module(L7, 2)
    assert len(hom_space(m2, ds)) == len(hom_space(m2, p1)) + len(hom_space(m2, s2))


def test_radical_top_socle(L7):
    p1 = projective(L7, 1)
    r, _ = radical(p1)
    assert r.dims == (0, 1, 1)
    t, _ = cokernel(radical(p1)[1])
    assert is_isomorphic(t, simple(L7, 1)).isomorphic is True
    s, _ = socle(p1)
    assert is_isomorphic(s, simple(L7, 3)).isomorphic is True
    assert radical(simple(L7, 1))[0].is_zero()


def test_rad_p1_is_m2(L7):
    r, _ = radical(projective(L7, 1))
    assert is_isomorphic(r, M_module(L7, 2)).isomorphic is True


def test_projective_cover_of_projective_is_iso(L7):
    p = projective(L7, 2)
    cover = projective_cover(p)
    assert cover.map.is_isomorphism()
    assert cover.is_identity and cover.map.source is p


def test_cover_of_zero_module(L7):
    cover = projective_cover(zero_representation(L7))
    assert cover.map.source.is_zero() and cover.pieces == []


def test_minimal_presentation_of_s2(L7):
    # the covers of S2 and of its syzygy: P3 -> P2 -> S2 -> 0
    c0 = projective_cover(simple(L7, 2))
    ker, incl = kernel(c0.map)
    c1 = projective_cover(ker)
    d = c1.map.compose(incl)
    assert c0.pieces == [1]
    assert c1.pieces == [2]
    assert d.compose(c0.map).is_zero()


def test_dual_is_involutive(L7):
    for m in [projective(L7, 1), simple(L7, 2), M_module(L7, 3)]:
        dd = dual_to_main(dual(m))
        assert is_isomorphic(dd, m).isomorphic is True


def test_dtr_kills_projectives(L7):
    assert dtr(projective(L7, 1)).is_zero()


def test_dtr_on_section7_modules(L7):
    assert is_isomorphic(dtr(simple(L7, 2)), simple(L7, 3)).isomorphic is True
    assert is_isomorphic(dtr(simple(L7, 3)), simple(L7, 1)).isomorphic is True
    assert is_isomorphic(dtr(M_module(L7, 2)), M_module(L7, 3)).isomorphic is True


def test_dtr_additivity_modulo_projectives(L7):
    s1 = simple(L7, 1)
    ds = direct_sum([s1, projective(L7, 1)])
    assert is_isomorphic(dtr(ds), dtr(s1)).isomorphic is True


def test_transpose_additive(L7):
    m, n = simple(L7, 1), M_module(L7, 2)
    t_sum = transpose(direct_sum([m, n]))
    t_parts = direct_sum([transpose(m), transpose(n)], t_sum.algebra)
    assert is_isomorphic(t_sum, t_parts).isomorphic is True


def test_is_isomorphic_negative_on_dim_mismatch(L7):
    assert is_isomorphic(projective(L7, 1), simple(L7, 1)).isomorphic is False


def test_uniserial_corpus_count(L7):
    assert len(uniserials(L7)) == 9
    assert len(uniserials(a2_algebra())) == 3


def test_non_admissible_relation_rejected():
    q = Quiver(2, [("a", 1, 2)])
    with pytest.raises(ValueError):
        PathAlgebra(QQ, q, [[(QQ.one, (0,))]], 2)  # single arrow: length 1


def test_vertex_out_of_range(L7):
    with pytest.raises(ValueError):
        projective(L7, 4)
    with pytest.raises(ValueError):
        simple(L7, 0)


def test_nilpotency_bound_too_small_rejected():
    with pytest.raises(ValueError):
        PathAlgebra(QQ, Quiver(1, []), [], 1)


def test_hom_caches_do_not_pin_representations():
    alg = cycle3_verbatim()

    def churn():
        for i in (1, 2, 3):
            p, s = projective(alg, i), simple(alg, i)
            basis = hom_space(p, p)
            assert hom_space(p, p) is basis
            assert hom_coordinates(basis, basis[0])
            hom_space(p, s)

    def live() -> int:
        gc.collect()
        return sum(isinstance(o, Representation) for o in gc.get_objects())

    churn()
    before = live()
    for _ in range(5):
        churn()
    assert live() == before


@pytest.mark.parametrize("names", [[], ["S1"], ["P1", "S2", "P1"], ["Z", "P2", "Z", "S1", "Z"]],
                         ids=["empty", "one", "repeat", "zero-parts"])
def test_direct_sum_maps_are_built_on_read_and_split(L7, names):
    mods = {"Z": zero_representation(L7), "S1": simple(L7, 1), "S2": simple(L7, 2),
            "P1": projective(L7, 1), "P2": projective(L7, 2)}
    ds = DirectSum([mods[n] for n in names], L7)
    assert ds.rep is direct_sum(ds.parts, L7)
    assert "injections" not in vars(ds) and "projections" not in vars(ds)
    inj, proj = ds.injections, ds.projections
    assert ds.injections is inj and ds.projections is proj
    for k, pk in enumerate(proj):
        for j, ij in enumerate(inj):
            got = ij.compose(pk)  # π_k ∘ ι_j
            want = ModuleMap.identity(ds.parts[k]) if j == k else ModuleMap.zero(ds.parts[j], ds.parts[k])
            assert got.mats == want.mats
    total = ModuleMap.zero(ds.rep, ds.rep)
    for ik, pk in zip(inj, proj):
        ModuleMap(ik.source, ik.target, ik.mats)  # intertwines
        ModuleMap(pk.source, pk.target, pk.mats)
        total = total + pk.compose(ik)  # ι_k ∘ π_k
    assert total.mats == ModuleMap.identity(ds.rep).mats
