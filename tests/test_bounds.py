import pytest

from relhomalg.bounds import (
    corollary710_check,
    gorenstein_check,
    prop63_64_counts,
    theorem73_check,
)
from relhomalg.complexes import Complex, stalk_complex
from relhomalg.relative import SubbifunctorF, SummandDecl
from relhomalg.rep import projective, simple
from relhomalg.reports import VACUOUS, VERIFIED, VIOLATED, Dim, DimensionReport, dim_max
from relhomalg.tilting import ComplexSum, end_algebra
from helpers import a2_algebra


def stalk_sum(F):
    parts = [stalk_complex(s.module, 0, label=s.name) for s in F.summands]
    return ComplexSum(parts, [s.name for s in F.summands])


def test_theorem73_section7(F7, corpus7):
    ts = stalk_sum(F7)
    rep = theorem73_check(F7, corpus7, ts, cutoff=10, complete=True)
    assert rep.values["t(T)"] == 0
    assert rep.values["gldim_F(Lambda)"].dim.value <= 1
    assert not rep.values["gldim(Gamma)"].dim.censored
    assert rep.values["gldim(Gamma)"].dim.value <= 3
    upper = [c for c in rep.checks if c.label.startswith("gldim(Gamma) <=")][0]
    assert upper.status == VERIFIED
    assert not rep.violated


def test_theorem73_deterministic(F7, corpus7):
    ts = stalk_sum(F7)
    a = theorem73_check(F7, corpus7, ts, cutoff=10, complete=True).to_json()
    b = theorem73_check(F7, corpus7, ts, cutoff=10, complete=True).to_json()
    assert a == b


def test_theorem73_self_equivalence(F7_ordinary, corpus7):
    # G = Lambda, T = stalk Lambda: Gamma is Lambda again, inequalities collapse
    ts = stalk_sum(F7_ordinary)
    rep = theorem73_check(F7_ordinary, corpus7, ts, cutoff=6, complete=True)
    assert rep.values["t(T)"] == 0
    assert rep.values["gldim_F(Lambda)"].dim.censored
    assert rep.values["gldim(Gamma)"].dim.censored
    assert not rep.violated
    assert rep.worst_status == VACUOUS


def a2_two_term_tilting(alg):
    """T = (P2 -a-> P1 in degrees -1,0) ⊕ P2[1], the APR-style complex."""
    from relhomalg.complexes import Part
    from relhomalg.rep import hom_space
    p1, p2 = projective(alg, 1), projective(alg, 2)
    d = hom_space(p2, p1)[0]
    t1 = Complex(alg, {-1: p2, 0: p1}, {-1: d},
                 parts={-1: [Part("P2", p2)], 0: [Part("P1", p1)]})
    t2 = stalk_complex(p2, -1, label="P2")
    return ComplexSum([t1, t2], ["T1", "T2"])


def test_corollary710_a2():
    alg = a2_algebra()
    F = SubbifunctorF(alg, [SummandDecl(f"P{i}", projective(alg, i)) for i in (1, 2)])
    corpus = [("P1", projective(alg, 1)), ("P2", projective(alg, 2)),
              ("S1", simple(alg, 1))]
    ts = a2_two_term_tilting(alg)
    rep = corollary710_check(F, corpus, ts, cutoff=10, complete=True)
    assert rep.values["l(T)"] == 1
    assert rep.values["gldim(Lambda)"].dim.value == 1
    assert rep.values["gldim(Gamma)"].dim.value == 1
    assert rep.values["id(Lambda)"].dim.value == 1
    assert not rep.violated
    for c in rep.checks:
        assert c.status in (VERIFIED, VACUOUS)


def test_corollary710_self_equivalence(F7_ordinary, corpus7):
    ts = stalk_sum(F7_ordinary)
    rep = corollary710_check(F7_ordinary, corpus7, ts, cutoff=5, complete=True)
    assert not rep.violated
    # self-injective: id(Lambda) = 0 on both sides, equalities collapse
    assert rep.values["id(Lambda)"].dim.value == 0
    assert rep.values["id(Gamma)"].dim.value == 0


def test_corollary710_rejects_relative_case(F7, corpus7):
    ts = stalk_sum(F7)
    with pytest.raises(ValueError):
        corollary710_check(F7, corpus7, ts, cutoff=5)


def test_counts_section7(F7):
    ts = stalk_sum(F7)
    rep = prop63_64_counts(F7, len(ts.parts), end_algebra(ts))
    assert rep.counts["indecomposables in P(F)"] == 6
    assert rep.counts["dim(Gamma/rad Gamma)"] == 6
    assert rep.counts["split_basic_verified"] is True
    assert rep.worst_status == VERIFIED


def test_counts_ordinary_three_vertices(F7_ordinary):
    ts = stalk_sum(F7_ordinary)
    rep = prop63_64_counts(F7_ordinary, 3, end_algebra(ts))
    assert rep.counts["dim(Gamma/rad Gamma)"] == 3
    assert rep.worst_status == VERIFIED


@pytest.mark.parametrize("split, status", [(True, VIOLATED), (False, VACUOUS)])
def test_count_disagreement_refutes_only_a_split_gamma(F7_ordinary, monkeypatch, split, status):
    # unless Gamma/rad is split, its dimension only bounds the number of simples
    gamma = end_algebra(stalk_sum(F7_ordinary))
    monkeypatch.setattr(type(gamma), "idempotents_split_basic", lambda self: split)
    rep = prop63_64_counts(F7_ordinary, 4, gamma)
    assert [c.status for c in rep.checks] == [status]
    assert rep.worst_status == status


def test_exact_dimension_above_cutoff_is_rejected():
    with pytest.raises(ValueError, match="exact value above cutoff"):
        DimensionReport("pd", Dim(11), 10)
    assert DimensionReport("pd", Dim(11, censored=True), 10).dim == Dim(11, True)


def test_dim_is_a_value():
    assert Dim(3) == Dim(3, False) and Dim(3) != Dim(3, True)
    assert {Dim(3), Dim(3, False), Dim(3, True)} == {Dim(3), Dim(3, True)}
    assert {Dim(2): "a"}[Dim(2, censored=False)] == "a"
    assert str(Dim(3)) == "3" and str(Dim(3, True)) == ">= 3"


def test_dim_max_prefers_the_censored_value_on_a_tie():
    assert dim_max([Dim(4, True), Dim(4)]) == Dim(4, True)
    assert dim_max([Dim(4), Dim(4, True)]) == Dim(4, True)
    assert dim_max([Dim(5), Dim(4, True)]) == Dim(5)


def test_gorenstein_ordinary_selfinjective(F7_ordinary, corpus7):
    ts = stalk_sum(F7_ordinary)
    rep = gorenstein_check(F7_ordinary, corpus7, ts, cutoff=6)
    assert rep.values["id_F(P(F))"].dim.value == 0
    assert rep.values["Lambda F-Gorenstein"] == "yes"
    assert rep.values["Gamma Gorenstein"] == "yes"
    bic = [c for c in rep.checks if "<=>" in c.label][0]
    assert bic.status == VERIFIED
    assert not rep.violated


def test_gorenstein_a2():
    alg = a2_algebra()
    F = SubbifunctorF(alg, [SummandDecl(f"P{i}", projective(alg, i)) for i in (1, 2)])
    corpus = [("P1", projective(alg, 1)), ("P2", projective(alg, 2)),
              ("S1", simple(alg, 1))]
    ts = a2_two_term_tilting(alg)
    rep = gorenstein_check(F, corpus, ts, cutoff=10)
    assert rep.values["Lambda F-Gorenstein"] == "yes"
    assert rep.values["Gamma Gorenstein"] == "yes"
    assert not rep.violated


def test_gorenstein_section7_relative(F7, corpus7):
    ts = stalk_sum(F7)
    rep = gorenstein_check(F7, corpus7, ts, cutoff=10)
    assert rep.values["Lambda F-Gorenstein"] == "yes"
    assert rep.values["Gamma Gorenstein"] == "yes"
    assert not rep.violated
