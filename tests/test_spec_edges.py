"""Coverage for the remaining contract corners: prime-field behavior, Prop
3.7 at desk scale, homotopy-class composition, window symmetry, and pd
agreement between projective resolutions and injective coresolutions."""

import pytest

from relhomalg.complexes import Complex, HomotopyHom, Part, hom_k, stalk_complex
from relhomalg.fields import PrimeField, QQ
from relhomalg.relative import SubbifunctorF, SummandDecl, pd_f
from relhomalg.rep import hom_space, is_isomorphic, projective, simple
from relhomalg.reports import Dim
from relhomalg.tilting import ComplexSum

from helpers import compose_chain, cycle3_selfinjective, ext_by_injectives, hom_df


def test_prime_field_algebra_and_homs():
    F5 = PrimeField(5)
    alg = cycle3_selfinjective(F5)
    assert alg.dim == 9
    p1 = projective(alg, 1)
    assert p1.dims == (1, 1, 1)
    assert len(hom_space(p1, p1)) == 1


def test_small_prime_field_iso_unknown_is_possible():
    # over F_2 a true isomorphism is still found among the basis maps, a
    # dimension mismatch is a certain negative, and the result type allows
    # "unknown" for pairs where neither End is certified local
    F2 = PrimeField(2)
    alg = cycle3_selfinjective(F2)
    r = is_isomorphic(projective(alg, 1), projective(alg, 1))
    assert r.isomorphic is True
    r2 = is_isomorphic(projective(alg, 1), simple(alg, 1))
    assert r2.isomorphic is False  # dims differ: certain negative


def test_prop37_desk_scale(F7, corpus7, L7_modules):
    # a bounded complex of add(G) objects: hom_df = hom_k against stalks
    F = F7
    m2, p1 = L7_modules["M2"], L7_modules["P1"]
    d = [f for f in hom_space(m2, p1) if not f.is_zero()][0]
    x = Complex(F.algebra, {-1: m2, 0: p1}, {-1: d},
                parts={-1: [Part("M2", m2)], 0: [Part("P1", p1)]})
    for yname in ("S1", "M3"):
        y = stalk_complex(L7_modules[yname], 0, label=yname)
        for n in range(-4, 5):
            assert hom_df(x, y, n, F) == hom_k(x, y, n), (yname, n)


def test_null_homotopic_composition_stays_null(F7, L7_modules):
    # composing a null-homotopic representative with basis elements lands in
    # the null-homotopic subspace: class coordinates stay zero
    from relhomalg.complexes import chain_identity, cone
    m = L7_modules["P2"]
    contractible = cone(chain_identity(stalk_complex(m, 0, label="P2")))
    base = stalk_complex(L7_modules["M2"], 0, label="M2")
    from relhomalg.complexes import sum_complexes
    t = sum_complexes([base, contractible], F7.algebra)
    hh = HomotopyHom(t, t, 0)
    F = hh.field
    # a null-homotopic cycle: any boundary column
    if hh.boundaries.cols:
        null_vec = hh.boundaries.col(0)
        null_map = hh.vector_to_chain_map(null_vec)
        assert all(F.is_zero(c) for c in hh.class_coordinates(null_map.comps))
        for rep in hh.representatives():
            comp = compose_chain(null_map, rep)
            assert all(F.is_zero(c) for c in hh.class_coordinates(comp))
            assert all(F.is_zero(c) for c in hh.product_coordinates(null_map, rep))


def test_hom_window_symmetry(F7):
    parts = [stalk_complex(s.module, 0, label=s.name) for s in F7.summands]
    ts = ComplexSum(parts, [s.name for s in F7.summands])
    w = ts.total.width()
    for i in (2 * w + 2, -(2 * w + 2), 2 * w + 5):
        assert hom_k(ts.total, ts.total, i) == 0


def test_pd_agreement_between_engines(L7, corpus7):
    # ordinary pd: minimal F-resolutions vs Ext(M, top) vanishing, with Ext
    # from injective coresolutions of the simples; pd M = n exactly when
    # Ext^(n+1)(M, S) = 0 for every simple S and n is the least such
    ordinary = SubbifunctorF(
        L7, [SummandDecl(f"P{i}", projective(L7, i)) for i in (1, 2, 3)])
    for name, m in corpus7:
        lhs = pd_f(m, ordinary, 6).dim
        exts = [sum(e) for e in zip(*(ext_by_injectives(m, simple(L7, v), 7) for v in (1, 2, 3)))]
        first_zero = next((i for i in range(1, 8) if exts[i] == 0), None)
        rhs = Dim(6, censored=True) if first_zero is None else Dim(first_zero - 1)
        assert (lhs.value, lhs.censored) == (rhs.value, rhs.censored), name


def test_field_element_canonical_strings():
    assert QQ.to_str(QQ.of_str("2/4")) == "1/2"
    assert QQ.to_str(QQ.of_str("-6/4")) == "-3/2"
    assert QQ.to_str(QQ.of_int(5)) == "5"
    F7f = PrimeField(7)
    assert F7f.to_str(F7f.of_str("1/2")) == "4"
    with pytest.raises(ValueError):
        PrimeField(6)
