"""Seeded randomized property suites: closure axioms, acyclicity-definition
agreement, resolution independence, homotopy invariance, rank-nullity."""

import random

from relhomalg.complexes import (
    Complex,
    chain_identity,
    cone,
    hom_k,
    is_f_acyclic,
    stalk_complex,
    sum_complexes,
)
from relhomalg.fields import QQ
from relhomalg.matrix import Matrix, kernel_basis, rank
from relhomalg.relative import ext_f, f_resolution, is_f_exact, projective_cover
from relhomalg.rep import (
    ModuleMap,
    ShortExactSeq,
    cokernel,
    direct_sum,
    hom_space,
    kernel,
)

from helpers import (
    f_acyclic_definitional,
    hom_g_surjective,
    image,
    pushout_ses,
    resolution_as_complex,
    ses_from_sub,
)

SEED = 0x5EC7


def f_exact(f, ses):
    """is_f_exact, the count, checked against the composite route."""
    out = is_f_exact(ses, f)
    assert out == hom_g_surjective(f, ses.g)
    return out


def f_epi(f, g):
    """Is the epimorphism g an F-epi: is 0 -> ker g -> source -> target -> 0 F-exact?"""
    return f_exact(f, ShortExactSeq(kernel(g)[1], g))


def random_sum(rng, corpus, algebra, max_parts=2):
    parts = [rng.choice(corpus) for _ in range(rng.randint(1, max_parts))]
    return direct_sum(parts, algebra)


def random_map(rng, src, tgt, span=2):
    basis = hom_space(src, tgt)
    out = ModuleMap.zero(src, tgt)
    for b in basis:
        out = out + b.scale(QQ.of_int(rng.randint(-span, span)))
    return out


def random_proper_quotient_ses(rng, corpus, algebra, tries=8):
    """A short exact sequence 0 -> A -> B -> B/A -> 0 with 0 < A < B."""
    for _ in range(tries):
        b = random_sum(rng, corpus, algebra)
        seed_mod = rng.choice(corpus)
        f = random_map(rng, seed_mod, b)
        a, incl = image(f)
        if a.total_dim == 0 or a.total_dim == b.total_dim:
            continue
        return ses_from_sub(b, incl)
    return None


def test_composite_of_f_epis_is_f_epi(F7, corpus7):
    corpus = [m for _, m in corpus7]
    algebra = F7.algebra
    rng = random.Random(SEED)
    checked = 0
    while checked < 60:
        ses1 = random_proper_quotient_ses(rng, corpus, algebra)
        if ses1 is None or not f_exact(F7, ses1):
            continue
        c = ses1.quotient
        seed_mod = rng.choice(corpus)
        f2 = random_map(rng, seed_mod, c)
        a2, incl2 = image(f2)
        if a2.total_dim in (0, c.total_dim):
            continue
        ses2 = ses_from_sub(c, incl2)
        if not f_exact(F7, ses2):
            continue
        composite = ses1.g.compose(ses2.g)
        assert f_epi(F7, composite), "closure axiom 1 violated"
        checked += 1


def test_composite_of_f_monos_is_f_mono(F7, corpus7):
    corpus = [m for _, m in corpus7]
    algebra = F7.algebra
    rng = random.Random(SEED ^ 0xA)
    checked = 0
    while checked < 40:
        ses1 = random_proper_quotient_ses(rng, corpus, algebra)
        if ses1 is None or not f_exact(F7, ses1):
            continue
        a = ses1.sub
        seed_mod = rng.choice(corpus)
        f2 = random_map(rng, seed_mod, a)
        a2, incl2 = image(f2)
        if a2.total_dim in (0, a.total_dim):
            continue
        ses2 = ses_from_sub(a, incl2)
        if not f_exact(F7, ses2):
            continue
        composite = incl2.compose(ses1.f)  # A2 -> A -> B, an F-mono composite
        _, proj = cokernel(composite)
        assert f_exact(F7, ShortExactSeq(composite, proj)), "closure axiom 2 violated"
        checked += 1


def test_pushout_stability(F7, corpus7):
    corpus = [m for _, m in corpus7]
    algebra = F7.algebra
    rng = random.Random(SEED ^ 0xB)
    checked = 0
    while checked < 100:
        ses = random_proper_quotient_ses(rng, corpus, algebra)
        if ses is None or not f_exact(F7, ses):
            continue
        target = random_sum(rng, corpus, algebra, max_parts=1)
        h = random_map(rng, ses.sub, target)
        pushed = pushout_ses(ses, h)
        assert f_exact(F7, pushed), "pushout stability violated"
        checked += 1


def random_complex(rng, F, corpus, algebra):
    kind = rng.randrange(4)
    if kind == 0:
        # cone of a random map between stalks
        a = rng.choice(corpus)
        b = rng.choice(corpus)
        f = random_map(rng, a, b)
        sa = stalk_complex(a, 0, label="A")
        sb = stalk_complex(b, 0, label="B")
        from relhomalg.complexes import ChainMap
        return cone(ChainMap(sa, sb, {0: f}).validate())
    if kind == 1:
        # an augmented F-resolution complex: genuinely F-acyclic
        x = rng.choice(corpus)
        res = f_resolution(x, F, 6)
        rep = resolution_as_complex(res, -1, F)
        comps = dict(rep.complex.comps)
        diffs = dict(rep.complex.diffs)
        comps[0] = x
        if -1 in comps:
            diffs[-1] = res.augmentation
        return Complex(algebra, comps, diffs)
    if kind == 2:
        # two-term complex from any map
        a = rng.choice(corpus)
        b = rng.choice(corpus)
        f = random_map(rng, a, b)
        return Complex(algebra, {-1: a, 0: b}, {-1: f})
    sa = stalk_complex(rng.choice(corpus), rng.randint(-1, 1), label="S")
    return sa


def test_lemma32_acyclicity_definitions_agree(F7, corpus7):
    corpus = [m for _, m in corpus7]
    algebra = F7.algebra
    rng = random.Random(SEED ^ 0xC)
    agree_true = 0
    for _ in range(100):
        x = random_complex(rng, F7, corpus, algebra)
        lhs = is_f_acyclic(x, F7)
        rhs = f_acyclic_definitional(x, F7)
        assert lhs == rhs, f"acyclicity definitions disagree on {x}"
        if lhs:
            agree_true += 1
    assert agree_true >= 10  # the corpus generates genuinely acyclic cases too


def ext_from_complex(p: Complex, y, i: int) -> int:
    """H^i of Hom(P, y) for a resolution-shaped complex P in degrees <= 0."""
    bases = {d: hom_space(p.component(d), y) for d in range(-(i + 1), 1)}
    mats = {}
    for d in range(-(i + 1), 0):
        src = bases[d + 1]
        tgt = bases[d]
        dmap = p.differential(d)
        from relhomalg.rep import hom_coordinates
        cols = [hom_coordinates(tgt, dmap.compose(phi)) for phi in src]
        mats[d] = Matrix(QQ, len(tgt), len(cols),
                         [cols[c][r] for r in range(len(tgt)) for c in range(len(cols))])
    dim_i = len(bases[-i]) if -i in bases else 0
    r_out = rank(mats[-i - 1]) if (-i - 1) in mats else 0
    r_in = rank(mats[-i]) if i >= 1 and (-i) in mats else 0
    return dim_i - r_out - r_in


def test_ext_resolution_independence(F7, corpus7):
    # pad the minimal resolution with a contractible two-term add(G) complex
    corpus = dict(corpus7)
    rng = random.Random(SEED ^ 0xD)
    pairs = [("M1", "S2"), ("S1", "M2"), ("M3", "P1")]
    for xn, yn in pairs:
        x, y = corpus[xn], corpus[yn]
        res = f_resolution(x, F7, 6)
        base = resolution_as_complex(res, 0, F7).complex
        gj = rng.choice(F7.summands).module
        pad_at = -rng.randint(0, 3)
        pad = cone(chain_identity(stalk_complex(gj, pad_at, label="pad")))
        padded = sum_complexes([base, pad], F7.algebra)
        for i in range(0, 5):
            assert ext_from_complex(padded, y, i) == ext_f(x, y, i, F7), (xn, yn, i)


def test_hom_k_homotopy_invariance(F7, corpus7):
    corpus = dict(corpus7)
    x = stalk_complex(corpus["M1"], 0, label="M1")
    two = Complex(F7.algebra, {-1: corpus["P2"], 0: corpus["M2"]},
                  {-1: _cover_onto(corpus["P2"], corpus["M2"])})
    pad = cone(chain_identity(stalk_complex(corpus["P3"], 0, label="P3")))
    for a, b in ((x, two), (two, x)):
        padded_a = sum_complexes([a, pad], F7.algebra)
        padded_b = sum_complexes([b, pad], F7.algebra)
        for n in range(-4, 5):
            base = hom_k(a, b, n)
            assert hom_k(padded_a, b, n) == base
            assert hom_k(a, padded_b, n) == base


def _cover_onto(p, m):
    cover = projective_cover(m)
    return ModuleMap(p, m, cover.map.mats)


def test_lemma71_consistency(F7, corpus7):
    corpus = [m for _, m in corpus7]
    for name, x in corpus7:
        from relhomalg.relative import pd_f
        rep = pd_f(x, F7, 10)
        if rep.dim.censored:
            continue
        m = rep.dim.value
        assert all(ext_f(x, y, m + 1, F7) == 0 for y in corpus)
        if m >= 1:
            assert any(ext_f(x, y, m, F7) != 0 for y in corpus), name


def test_rank_nullity_random_matrices():
    rng = random.Random(SEED ^ 0xE)
    for _ in range(60):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = Matrix(QQ, rows, cols,
                   [QQ.of_int(rng.randint(-4, 4)) for _ in range(rows * cols)])
        assert rank(m) + kernel_basis(m).cols == cols
