"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
All assertions are exact; there are no numeric tolerances anywhere.
"""

from pathlib import Path

import pytest

from relhomalg.bounds import gorenstein_check, prop63_64_counts, theorem73_check
from relhomalg.complexes import stalk_complex, Complex
from relhomalg.relative import (
    SubbifunctorF,
    SummandDecl,
    ext_f,
    f_resolution,
    gldim_f,
    relative_injectives,
)
from relhomalg.rep import hom_space, is_isomorphic, projective
from relhomalg.reports import VERIFIED
from relhomalg.schema import load_problem
from relhomalg.tilting import ComplexSum, end_algebra, verify_f_tilting

from helpers import a2_algebra, ext_by_injectives, hom_df, loop_dual_numbers, uniserials

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"


@pytest.fixture(scope="module")
def sec7():
    return load_problem(str(DATA / "section7.json"))


@pytest.fixture(scope="module")
def sec6():
    return load_problem(str(DATA / "section6.json"))


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_ifset(sec7):
    injs, validated, notes = relative_injectives(
        sec7.subbifunctor, [m for _, m in sec7.corpus()])
    assert validated, notes
    expected = ["P1", "P2", "P3", "S3", "S1", "M3"]
    assert len(injs) == 6
    matched = set()
    for c in injs:
        hits = [e for e in expected
                if is_isomorphic(c.module, sec7.modules[e]).isomorphic]
        assert hits, f"unexpected member {c.name}"
        matched.add(hits[0])
    assert matched == set(expected)
    for wrong in ("S2", "M1", "M2"):
        assert not any(is_isomorphic(c.module, sec7.modules[wrong]).isomorphic
                       for c in injs)
    report(1, "I(F) = {P1, P2, P3, S3, S1, M3} exactly, up to isomorphism")


def test_criterion_2_gldim(sec7):
    rep = gldim_f(sec7.corpus(), sec7.subbifunctor, 10, complete=True)
    assert not rep.dim.censored and rep.dim.value <= 1
    ordinary = SubbifunctorF(
        sec7.algebra,
        [SummandDecl(f"P{i}", projective(sec7.algebra, i)) for i in (1, 2, 3)])
    rep2 = gldim_f(sec7.corpus(), ordinary, 10, complete=True)
    assert rep2.dim.censored and rep2.dim.value == 10
    report(2, f"gldim_F = {rep.dim} with the section-7 F; '>= 10' with G = Lambda")


def test_criterion_3_theorem73_upper(sec7):
    ts = sec7.tilting_sum()
    rep = theorem73_check(sec7.subbifunctor, sec7.corpus(), ts, 10, complete=True)
    gg = rep.values["gldim(Gamma)"]
    assert not gg.dim.censored and gg.dim.value <= 3
    upper = [c for c in rep.checks if c.label.startswith("gldim(Gamma) <=")][0]
    assert upper.status == VERIFIED
    report(3, f"gldim(Gamma) = {gg.dim} <= 3 and the upper bound is verified")


def test_criterion_4_section6_tilting(sec6):
    ts = sec6.tilting_sum()
    rep = verify_f_tilting(ts, sec6.subbifunctor, sec6.tilting.declared_count,
                           witnesses=sec6.tilting.witnesses,
                           witness_env=sec6.complexes)
    assert rep.self_orthogonal_ok, rep.failures
    assert all(v == 0 for v in rep.self_orthogonal.values())
    assert rep.count_criterion_ok and rep.declared_count == 4
    assert rep.generation == "witnessed", rep.generation_log
    report(4, "section-6 T = T1 + T2 self-orthogonal, count 4, generation witnessed")


def _specialization_case(algebra, corpus):
    """ext_f with G = Lambda versus ordinary Ext from injective coresolutions."""
    ordinary = SubbifunctorF(
        algebra,
        [SummandDecl(f"P{i}", projective(algebra, i))
         for i in range(1, algebra.quiver.n + 1)])
    for x in corpus:
        res_f = f_resolution(x, ordinary, 7)
        for y in corpus:
            balanced = ext_by_injectives(x, y, 5)
            for i in range(6):
                lhs = ext_f(x, y, i, ordinary, resolution=res_f)
                assert lhs == balanced[i], (x.dims, y.dims, i, lhs, balanced[i])


def test_criterion_5_specialization(sec7):
    _specialization_case(sec7.algebra, [m for _, m in sec7.corpus()])
    a2 = a2_algebra()
    _specialization_case(a2, uniserials(a2))
    loop = loop_dual_numbers()
    _specialization_case(loop, uniserials(loop))
    report(5, "ext_F(G=Lambda) equals Ext from injective coresolutions on three algebras, degrees <= 5")


def test_criterion_6_property_suites(F7, corpus7):
    import test_properties as props

    props.test_composite_of_f_epis_is_f_epi(F7, corpus7)
    props.test_composite_of_f_monos_is_f_mono(F7, corpus7)
    props.test_pushout_stability(F7, corpus7)
    props.test_lemma32_acyclicity_definitions_agree(F7, corpus7)
    props.test_ext_resolution_independence(F7, corpus7)
    props.test_hom_k_homotopy_invariance(F7, corpus7)
    props.test_rank_nullity_random_matrices()
    report(6, "closure axioms (200 sequences), Lemma 3.2 agreement (100 complexes), "
              "resolution independence, homotopy invariance, rank-nullity: 0 counterexamples")


def test_criterion_7_counts(sec7, sec6):
    rep7 = prop63_64_counts(sec7.subbifunctor, sec7.tilting.declared_count,
                            end_algebra(sec7.tilting_sum()))
    assert rep7.counts["indecomposables in P(F)"] == 6
    assert rep7.counts["dim(Gamma/rad Gamma)"] == 6
    assert rep7.counts["split_basic_verified"] is True
    assert rep7.worst_status == VERIFIED
    rep6 = prop63_64_counts(sec6.subbifunctor, sec6.tilting.declared_count,
                            end_algebra(sec6.tilting_sum()))
    assert rep6.counts["indecomposables in P(F)"] == 4
    assert rep6.counts["dim(Gamma/rad Gamma)"] == 4
    assert rep6.counts["split_basic_verified"] is True
    assert rep6.worst_status == VERIFIED
    report(7, "|ind P(F)| = dim(Gamma/rad) with split status: 6 (section 7), 4 (section 6)")


def test_criterion_8_lemma76_vanishing(sec7):
    F = sec7.subbifunctor
    mods = sec7.modules
    d = 2  # gldim_F <= 1, so Ext_F^l vanishes for l >= 2 on all pairs
    instances = [
        (0, 0, ("S1", "M1"), ("M2", "P1")),
        (-1, 1, ("M3", "S1"), ("S2", "M2")),
        (1, 0, ("P1", "S3"), ("M1", "S1")),
    ]
    for m, t, xs, ys in instances:
        x = _two_term(sec7, xs, m)
        y = _two_term(sec7, ys, t - 1)
        bound = d + t - m
        for l in range(bound, bound + 4):
            val = hom_df(x, y, l, F)
            assert val == 0, (m, t, l, val)
    # sharpness sanity: below the bound the hom can be nonzero
    x0 = stalk_complex(mods["S1"], 0, label="S1")
    y0 = stalk_complex(mods["M2"], 0, label="M2")
    assert hom_df(x0, y0, 1, F) == 1
    report(8, "hom_DF(X, Y, l) = 0 for all l >= d + t - m on the constructed instances")


def _two_term(problem, names, lo):
    a, b = problem.modules[names[0]], problem.modules[names[1]]
    basis = hom_space(a, b)
    f = basis[0] if basis else None
    from relhomalg.rep import ModuleMap
    diff = f if f is not None else ModuleMap.zero(a, b)
    return Complex(problem.algebra, {lo: a, lo + 1: b}, {lo: diff})


def test_criterion_9_gorenstein(sec7, sec6):
    # G = Lambda on the self-injective section-7 algebra
    ordinary = SubbifunctorF(
        sec7.algebra,
        [SummandDecl(f"P{i}", projective(sec7.algebra, i)) for i in (1, 2, 3)])
    parts = [stalk_complex(s.module, 0, label=s.name) for s in ordinary.summands]
    ts_l = ComplexSum(parts, [s.name for s in ordinary.summands])
    rep = gorenstein_check(ordinary, sec7.corpus(), ts_l, 10)
    assert rep.values["Lambda F-Gorenstein"] == "yes"
    assert rep.values["Gamma Gorenstein"] == "yes"
    assert not rep.violated
    # A_2: both sides Gorenstein with finite dimensions
    a2 = load_problem(str(DATA / "a2_apr.json"))
    rep_a2 = gorenstein_check(a2.subbifunctor, a2.corpus(), a2.tilting_sum(), 10)
    assert rep_a2.values["Lambda F-Gorenstein"] == "yes"
    assert rep_a2.values["Gamma Gorenstein"] == "yes"
    assert not rep_a2.values["id(Gamma left regular)"].dim.censored
    assert not rep_a2.violated
    # no non-censored violation on any bundled quadruple
    for prob in (sec7, sec6):
        r = gorenstein_check(prob.subbifunctor, prob.corpus(), prob.tilting_sum(), 10)
        assert not r.violated
        t = theorem73_check(prob.subbifunctor, prob.corpus(), prob.tilting_sum(), 10,
                            complete=prob.corpus_complete)
        assert not t.violated
    report(9, "Gorenstein biconditional holds on both sides; no non-censored violations")
