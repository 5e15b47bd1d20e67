"""Gamma = End_K(T) as a bound quiver algebra kQ/I: the presentation is
certified (its basis words map to a basis of Gamma), its relations generate
I and dropping one that is needed breaks the certificate, the quiver of an
Auslander algebra is its AR quiver, and the arrows count Ext^1 between
simples (Gabriel)."""

from pathlib import Path

import pytest
from helpers import cycle3_selfinjective, matrix_algebra_2, uniserials

from relhomalg.complexes import stalk_complex
from relhomalg.quiver import PathAlgebra
from relhomalg.relative import ext_f, ordinary_f
from relhomalg.rep import simple
from relhomalg.schema import load_problem
from relhomalg.tilting import ComplexSum

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"
BUNDLED = ["section7", "section6", "a2_apr", "section6_symmetric"]


def nakayama33_gamma():
    """The Auslander algebra of the Nakayama algebra (3, 3): End of the sum of
    every uniserial."""
    modules = uniserials(cycle3_selfinjective())
    parts = [stalk_complex(m, 0, label=f"U{k}") for k, m in enumerate(modules)]
    return ComplexSum(parts, [f"U{k}" for k in range(len(parts))]).gamma()


GAMMAS = [(name, lambda name=name: load_problem(str(DATA / f"{name}.json")).tilting_sum().gamma())
          for name in BUNDLED]
GAMMAS += [("nakayama(3,3) all", nakayama33_gamma)]


@pytest.mark.parametrize("label, build", GAMMAS, ids=[g[0] for g in GAMMAS])
def test_presentation_is_certified(label, build):
    gamma = build()
    pres = gamma.presentation()
    assert pres.dim == gamma.dim
    assert pres.quiver.n == len(gamma.idempotents)
    assert gamma.presentation() is pres
    gamma.certify_presentation(pres)


@pytest.mark.parametrize("label", ["section7", "section6", "section6_symmetric", "nakayama(3,3) all"])
def test_dropping_a_needed_relation_breaks_the_certificate(label):
    gamma = dict(GAMMAS)[label]()
    pres = gamma.presentation()
    # the relations (a reduced Gröbner basis) and J^N generate I: the path
    # algebra on them is the presentation
    again = PathAlgebra(pres.field, pres.quiver, pres.relations, pres.N)
    assert again.basis == pres.basis
    assert all(again.mul_basis(i, j) == pres.mul_basis(i, j)
               for i in range(pres.dim) for j in range(pres.dim))
    needed = 0
    for k in range(len(pres.relations)):
        fewer = PathAlgebra(pres.field, pres.quiver, pres.relations[:k] + pres.relations[k + 1:],
                            pres.N)
        if fewer.dim == pres.dim:  # a redundant rule: the same ideal
            assert fewer.basis == pres.basis
            continue
        needed += 1
        with pytest.raises(ValueError, match="certificate"):
            gamma.certify_presentation(fewer)
    assert needed


def test_auslander_algebra_quiver_is_the_ar_quiver():
    # Nakayama (3, 3) has 9 indecomposables; its AR quiver has the 6 arrows
    # between non-projectives and their neighbours plus 2 at each of the 3
    # projective-injectives, 12 in all
    pres = nakayama33_gamma().presentation()
    assert (pres.quiver.n, len(pres.quiver.arrows)) == (9, 12)


@pytest.mark.parametrize("label, build", GAMMAS, ids=[g[0] for g in GAMMAS])
def test_arrows_count_ext1_between_simples(label, build):
    pres = build().presentation()
    f = ordinary_f(pres)
    n = pres.quiver.n
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            arrows = sum(1 for a in pres.quiver.arrows if (a.source, a.target) == (j, i))
            assert ext_f(simple(pres, j), simple(pres, i), 1, f) == arrows, (j, i)


def test_a_non_basic_algebra_fails_the_certificate():
    # M_2(Q) with the two diagonal idempotents: they are isomorphic, so two
    # vertices and no arrows present k x k, not M_2(Q)
    m2 = matrix_algebra_2()
    assert m2.radical_dim() == 0
    with pytest.raises(ValueError, match="certificate"):
        m2.presentation()


def test_nilpotency_bound_is_the_loewy_length_not_the_longest_normal_word():
    """Γ of section6 has Loewy length 4, while its longest normal word has
    length 2: a relation sets a path of length 3 equal to a normal word of
    length 2, so that path is a nonzero element of rad³Γ.  The first length
    with no normal word (3) is therefore no nilpotency bound: J³ = 0 would
    lose that product, and the bound comes from the radical layers."""
    pres = load_problem(str(DATA / "section6.json")).tilting_sum().gamma().presentation()
    assert pres.N == 4
    assert max(len(word) for _, word in pres.basis) == 2
    mixed = [rel for rel in pres.relations if {len(w) for _, w in rel} == {2, 3}]
    assert mixed
    for rel in mixed:
        for _, w in rel:
            assert len(w) == 3 or (pres.quiver.word_source(w), w) in pres.basis_index
