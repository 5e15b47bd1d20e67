"""Gamma = End_K(T) as a bound quiver algebra kQ/I: the presentation is
certified (its basis words map to a basis of Gamma), its relations generate
I and dropping one that is needed breaks the certificate, the quiver of an
Auslander algebra is its AR quiver, and the arrows count Ext^1 between
simples (Gabriel)."""

import copy
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from helpers import (cycle3_selfinjective, dense_span, full_span_quiver, matrix_algebra_2,
                     nakayama_problem, uniserials)

from relhomalg import algebra
from relhomalg.complexes import stalk_complex
from relhomalg.fields import QQ, PrimeField
from relhomalg.matrix import Matrix
from relhomalg.quiver import PathAlgebra
from relhomalg.relative import ext_f, ordinary_f
from relhomalg.rep import simple
from relhomalg.schema import load_problem, parse_problem
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


def nakayama_gamma(n, length, every, field, drop=()):
    """Γ of the stalk sum of `nakayama_problem`'s G without the summands
    named in drop."""
    data = nakayama_problem(n, length, every_indecomposable=every, tilting=True)
    ts = parse_problem(json.dumps(data), field_override=field).tilting_sum()
    keep = [k for k, name in enumerate(ts.names) if name[1:] not in drop]
    return ComplexSum([ts.parts[k] for k in keep], [ts.names[k] for k in keep]).gamma()


STOPPED = [(name, lambda field, name=name: load_problem(str(DATA / f"{name}.json"), field)
            .tilting_sum().gamma()) for name in BUNDLED]
STOPPED += [("nakayama(3,3) all", lambda field: nakayama_gamma(3, 3, True, field)),
            ("nakayama(4,4) P+S2..S4", lambda field: nakayama_gamma(4, 4, False, field, ("U1_1",))),
            ("nakayama(5,5) all", lambda field: nakayama_gamma(5, 5, True, field))]


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["q", "fp:32003"])
@pytest.mark.parametrize("label, build", STOPPED, ids=[g[0] for g in STOPPED])
def test_rad_square_stopped_at_the_radical_gives_the_same_quiver(label, build, field):
    """Each corner's rad² span stops once it is as large as the corner of
    rad: the arrows, their lifts and the Loewy length are those of spanning
    every product of radical bases (`helpers.full_span_quiver`)."""
    gamma = build(field)
    quiver, lifts, loewy = gamma._gabriel_quiver()
    assert ([(a.source, a.target) for a in quiver.arrows], lifts, loewy) == full_span_quiver(gamma)


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


def test_a_zero_arrow_lift_breaks_the_certificate():
    # the same number of basis words, but the words through the zeroed arrow
    # map to 0, so the images do not span Gamma
    gamma = nakayama33_gamma()
    pres = gamma.presentation()
    broken = copy.copy(gamma)
    broken.arrow_lifts = [{}] + gamma.arrow_lifts[1:]
    assert pres.dim == gamma.dim
    with pytest.raises(ValueError, match="certificate"):
        broken.certify_presentation(pres)
    gamma.certify_presentation(pres)


def test_presentation_builds_no_matrix_larger_than_a_corner(monkeypatch):
    """The radical, the quiver, the Loewy layers and the certificate of a
    fresh Gamma work corner by corner: no dense matrix spans two corners.
    A matrix has at most d·(d + 1) entries, d the largest corner dimension:
    a corner's square, and one more column for the right-hand side of a
    solve (`residue`)."""
    text = json.dumps(nakayama_problem(4, 4, every_indecomposable=True, tilting=True))
    gamma = parse_problem(text).tilting_sum().gamma()
    largest = []
    init = Matrix.__init__

    def recorded(self, field, rows, cols, entries):
        init(self, field, rows, cols, entries)
        largest.append(rows * cols)

    monkeypatch.setattr(Matrix, "__init__", recorded)
    gamma.presentation()
    monkeypatch.undo()
    corner = max(Counter(gamma.grading()).values())
    assert gamma.dim > corner * (corner + 1)
    assert largest and max(largest) <= corner * (corner + 1)


def random_vectors(F, rng, count, width):
    """Sparse vectors with no zero entries over `width` coordinates: random
    ones, empty ones and combinations of earlier ones."""
    out = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.1:
            out.append({})
            continue
        if kind < 0.5 and out:
            terms = [(F.of_int(rng.randint(-3, 3)), rng.choice(out)) for _ in range(rng.randint(1, 3))]
        else:
            terms = [(F.one, {k: F.of_int(rng.choice([-2, -1, 1, 2, 5]))
                              for k in rng.sample(range(width), rng.randint(1, width))})]
        v = {}
        for c, x in terms:
            for k, a in x.items():
                v[k] = F.add(v.get(k, F.zero), F.mul(c, a))
        out.append({k: a for k, a in v.items() if not F.is_zero(a)})
    return out


@pytest.mark.parametrize("F", [QQ, PrimeField(32003)], ids=["q", "fp:32003"])
def test_sparse_span_keeps_the_pivot_columns(F):
    """`algebra._span` keeps the vectors that the dense elimination keeps as
    pivot columns, alone and after the rows of a filled echelon form."""
    rng = random.Random(32)
    for _ in range(200):
        width = rng.randint(1, 8)
        prefix = random_vectors(F, rng, rng.randint(0, 5), width)
        vectors = random_vectors(F, rng, rng.randint(0, 10), width)
        assert algebra._span(F, vectors) == dense_span(F, vectors)
        echelon = {}
        assert algebra._span(F, prefix, echelon) == dense_span(F, prefix)
        assert algebra._span(F, vectors, echelon) == dense_span(F, vectors, prefix)


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
