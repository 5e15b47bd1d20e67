"""Sums, cones and radical normalization built and read as block matrices,
against the routes that compose whole maps with the injections and
projections of each direct sum (`helpers.composed_*`)."""

import json
import random
from pathlib import Path

import pytest

from relhomalg.complexes import (
    ChainMap,
    Complex,
    chain_identity,
    cone,
    radical_normalize,
    stalk_complex,
    sum_complexes,
    term_length,
)
from relhomalg.fields import PrimeField
from relhomalg.rep import ModuleMap, hom_space
from relhomalg.relative import f_resolution, ordinary_f
from relhomalg.schema import load_problem, parse_problem

from helpers import (
    DirectSum,
    composed_cone,
    composed_radical_normalize,
    composed_sum_complexes,
    nakayama_problem,
    resolution_as_complex,
)

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"


def section7():
    return load_problem(str(DATA / "section7.json"))


def nakayama33():
    """Nakayama (3,3) with G = every indecomposable, over F_32003."""
    return parse_problem(json.dumps(nakayama_problem(3, 3, every_indecomposable=True)),
                         PrimeField(32003))


PROBLEMS = {"section7": section7, "nakayama33": nakayama33}


def random_map(rng, src, tgt):
    F = src.algebra.field
    basis = hom_space(src, tgt)
    return ModuleMap.combination(src, tgt, [F.of_int(rng.randint(-3, 3)) for _ in basis], basis)


def random_complex(rng, problem):
    """The projective or F-resolution of a corpus module, truncated at
    length 4 and laid out as a complex, or the cone of a random map between
    stalks of two corpus modules."""
    corpus = [m for _, m in problem.corpus()]
    if rng.randrange(2):
        f = rng.choice([problem.subbifunctor, ordinary_f(problem.algebra)])
        return resolution_as_complex(f_resolution(rng.choice(corpus), f, 4), 0, f).complex
    a, b = rng.choice(corpus), rng.choice(corpus)
    return cone(ChainMap(stalk_complex(a, 0, label="A"), stalk_complex(b, 0, label="B"),
                         {0: random_map(rng, a, b)}).validate())


def disguised(rng, x, p, i):
    """x ⊕ (p -id-> p) in degrees i, i+1, conjugated by the automorphisms
    (y, q) -> (y, q + h y) of X^i ⊕ p and (y, q) -> (y + k q, q) of
    X^{i+1} ⊕ p, for random module maps h: X^i -> p and k: p -> X^{i+1}:
    an isomorphic complex whose block δ = ±id of d^i has the nonzero
    blocks γ = ∓h beside it and β = ±k below it; d^{i-1} gains rows into p
    and d^{i+1} columns out of p.  None when h or k is zero."""
    pad = cone(chain_identity(stalk_complex(p, i + 1, label="pad")))
    s = sum_complexes([x, pad])
    h, k = random_map(rng, x.component(i), p), random_map(rng, p, x.component(i + 1))
    if h.is_zero() or k.is_zero():
        return None
    auts = {}
    for j, (m, into_pad) in ((i, (h, True)), (i + 1, (k, False))):
        ds = DirectSum([x.component(j), p])
        mix = (ds.projections[0].compose(m).compose(ds.injections[1]) if into_pad
               else ds.projections[1].compose(m).compose(ds.injections[0]))
        one = ModuleMap.identity(ds.rep)
        auts[j] = (one + mix, one - mix)  # the automorphism and its inverse
    diffs = {}
    for j, d in s.diffs.items():
        if j in auts:
            d = auts[j][1].compose(d)
        if (j + 1) in auts:
            d = d.compose(auts[j + 1][0])
        diffs[j] = d
    return Complex(s.algebra, s.comps, diffs, parts=s.parts)


def same_complex(a, b):
    assert a.parts == b.parts
    assert a.diffs.keys() == b.diffs.keys()
    for i, d in a.diffs.items():
        assert d.source is b.diffs[i].source and d.target is b.diffs[i].target
        assert [m.entries for m in d.mats] == [m.entries for m in b.diffs[i].mats], i


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_radical_normalize_matches_the_composed_elimination(name):
    problem = PROBLEMS[name]()
    summands = [s.module for s in problem.subbifunctor.summands]
    rng = random.Random(25)
    checked = deep = 0
    while checked < 12:
        x = random_complex(rng, problem)
        i = rng.choice([j for j in x.degrees() if (j + 1) in x.comps] or [x.lo])
        y = disguised(rng, x, rng.choice(summands), i)
        deep += y is not None and (i - 1) in x.diffs and (i + 1) in x.diffs
        if y is None:
            continue
        norm = radical_normalize(y)
        same_complex(norm, composed_radical_normalize(y))
        assert len([p for pl in norm.parts.values() for p in pl]) <= \
            len([p for pl in x.parts.values() for p in pl])
        checked += 1
    assert deep  # some eliminations also cut rows of d^{i-1} and columns of d^{i+1}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_sums_and_cones_match_the_composed_routes(name):
    problem = PROBLEMS[name]()
    rng = random.Random(2014)
    for _ in range(8):
        xs = [random_complex(rng, problem) for _ in range(rng.randint(1, 3))]
        same_complex(sum_complexes(xs), composed_sum_complexes(xs))
        x = rng.choice(xs)
        for f in (chain_identity(x), ChainMap(x, x, {})):
            m = cone(f)
            oracle, alpha, beta = composed_cone(f)
            same_complex(m, oracle)
            # the canonical triangle maps are chain maps into and out of the cone
            ChainMap(alpha.source, m, alpha.comps).validate()
            ChainMap(m, beta.target, beta.comps).validate()


def test_a_parts_less_contractible_complex_has_term_length_zero(L7_modules):
    p = L7_modules["P2"]
    x = Complex(p.algebra, {-1: p, 0: p}, {-1: ModuleMap.identity(p)})
    assert [[q.module for q in x.parts[i]] for i in x.degrees()] == [[p], [p]]
    assert radical_normalize(x).is_zero()
    assert term_length(x) == 0

