import collections
from pathlib import Path

import pytest

from relhomalg import relative
from relhomalg.fields import QQ, PrimeField
from relhomalg.rep import (
    ModuleMap,
    cokernel,
    direct_sum,
    hom_space,
    injective,
    is_isomorphic,
    kernel,
    projective,
    radical,
    simple,
    zero_representation,
)
from relhomalg.relative import (
    SubbifunctorF,
    SummandDecl,
    TruncationError,
    coresolution_step,
    dtr,
    ext_f,
    f_resolution,
    findim_f,
    gldim_f,
    id_f,
    is_f_exact,
    left_approximation,
    pd_f,
    projective_cover,
    relative_injectives,
    right_approximation,
)
from relhomalg.schema import load_problem

from helpers import DirectSum, a2_algebra, glue, hom_g_surjective, ses_from_sub

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"


def ses_cover(m):
    """0 -> rad m -> P(top) -> ... no: the cover sequence 0 -> K -> P -> m -> 0."""
    cover = projective_cover(m)
    k, incl = kernel(cover.map)
    from relhomalg.rep import ShortExactSeq
    return ShortExactSeq(incl, cover.map)


def test_split_sequence_is_f_exact(F7, L7_modules):
    a, c = L7_modules["S1"], L7_modules["M2"]
    ds = DirectSum([a, c])
    ses = ses_from_sub(ds.rep, ds.injections[0])
    assert is_f_exact(ses, F7)


def test_socle_sequence_of_p1_not_f_exact(F7, L7, L7_modules):
    # 0 -> S3 -> P1 -> M1 -> 0: the socle map S2 -> M1 does not lift
    from relhomalg.rep import socle
    _, incl = socle(L7_modules["P1"])
    ses = ses_from_sub(L7_modules["P1"], incl)
    assert is_isomorphic(ses.quotient, L7_modules["M1"]).isomorphic is True
    assert not is_f_exact(ses, F7)


def test_ordinary_f_every_ses_exact(F7_ordinary, L7_modules):
    from relhomalg.rep import socle
    for name in ("P1", "P2", "M2", "M3"):
        m = L7_modules[name]
        _, incl = socle(m)
        ses = ses_from_sub(m, incl)
        assert is_f_exact(ses, F7_ordinary)


def test_approximation_of_summand_is_identity(F7, L7_modules):
    app = right_approximation(L7_modules["M2"], F7)
    assert app.is_identity
    assert app.map.is_isomorphism()


def test_approximation_of_zero(F7, L7):
    app = right_approximation(zero_representation(L7), F7)
    assert app.map.source.is_zero()


def test_approximation_of_m1_source(F7, L7_modules):
    # oracle: exhaustive summand-removal forces P1 ⊕ S2
    app = right_approximation(L7_modules["M1"], F7)
    assert sorted(F7.summands[k].name for k in app.pieces) == ["P1", "S2"]
    ker, _ = kernel(app.map)
    assert is_isomorphic(ker, L7_modules["M2"]).isomorphic is True


def test_resolution_of_summand_has_length_zero(F7, L7_modules):
    res = f_resolution(L7_modules["S2"], F7, 10)
    assert res.length == 0 and not res.truncated


def test_ordinary_resolution_of_simple_is_periodic(F7_ordinary, L7, L7_modules):
    res = f_resolution(L7_modules["S1"], F7_ordinary, 10)
    assert res.truncated
    # syzygy dims alternate (0,1,1) / (1,0,0): self-injective, infinite pd
    dims = [m.dims for m in res.modules]
    assert all(d == (1, 1, 1) for d in dims)  # covers by single projectives
    assert len(res.syzygies) == len(res.modules)
    s = res.syzygies[0]
    r, _ = radical(L7_modules["P1"])
    assert is_isomorphic(s, r).isomorphic is True


def test_section7_resolution_of_m1_short(F7, L7_modules):
    res = f_resolution(L7_modules["M1"], F7, 10)
    assert res.length <= 1 and not res.truncated


def test_ext0_is_hom(F7, L7_modules, corpus7):
    for xn, x in corpus7[:4]:
        for yn, y in corpus7[3:6]:
            assert ext_f(x, y, 0, F7) == len(hom_space(x, y))


def test_ext2_vanishes_for_section7_f(F7, corpus7):
    for _, x in corpus7:
        for _, y in corpus7:
            assert ext_f(x, y, 2, F7) == 0


def test_ordinary_ext1_s1_s2(F7_ordinary, L7_modules):
    assert ext_f(L7_modules["S1"], L7_modules["S2"], 1, F7_ordinary) == 1


def test_ext_from_a_supplied_shallow_resolution(F7_ordinary, L7_modules):
    # Ext^1 needs P^0 and the first syzygy only; Ext^2 needs one step more
    s1, s2 = L7_modules["S1"], L7_modules["S2"]
    res = f_resolution(s1, F7_ordinary, 0)
    assert res.truncated and res.length == 0
    assert ext_f(s1, s2, 1, F7_ordinary, resolution=res) == 1
    with pytest.raises(TruncationError):
        ext_f(s1, s2, 2, F7_ordinary, resolution=res)


def test_pd_of_generator_summand_zero(F7, L7_modules):
    assert pd_f(L7_modules["S3"], F7, 10).dim.value == 0


def test_pd_m1_at_most_one(F7, L7_modules):
    rep = pd_f(L7_modules["M1"], F7, 10)
    assert not rep.dim.censored and rep.dim.value <= 1


def test_ordinary_pd_censored(F7_ordinary, L7_modules):
    rep = pd_f(L7_modules["S1"], F7_ordinary, 10)
    assert rep.dim.censored and rep.dim.value == 10


def test_gldim_section7(F7, corpus7):
    rep = gldim_f(corpus7, F7, 10, complete=True)
    assert not rep.dim.censored and rep.dim.value <= 1


def test_gldim_ordinary_censored(F7_ordinary, corpus7):
    rep = gldim_f(corpus7, F7_ordinary, 10, complete=True)
    assert rep.dim.censored and rep.dim.value == 10


def test_findim_semisimple_style(F7, corpus7):
    rep = findim_f(gldim_f(corpus7, F7, 10, complete=True), complete=True)
    assert rep.dim.value <= 1


def test_relative_injectives_section7(F7, L7_modules, corpus7):
    injs, validated, notes = relative_injectives(F7, [m for _, m in corpus7])
    assert validated, notes
    expected = ["P1", "P2", "P3", "S3", "S1", "M3"]
    assert len(injs) == len(expected)
    for name in expected:
        assert any(is_isomorphic(c.module, L7_modules[name]).isomorphic for c in injs)


def test_injective_count_matches_projective_count(F7, corpus7):
    injs, _, _ = relative_injectives(F7, [m for _, m in corpus7])
    assert len(injs) == len(F7.summands)


def test_ordinary_relative_injectives_are_injectives(F7_ordinary, L7, corpus7):
    from relhomalg.rep import injective
    injs, validated, _ = relative_injectives(F7_ordinary, [m for _, m in corpus7])
    assert validated
    assert len(injs) == 3
    for v in (1, 2, 3):
        assert any(is_isomorphic(c.module, injective(L7, v)).isomorphic for c in injs)


def test_cosyzygy_of_relative_injective_vanishes(F7, corpus7, L7):
    injs, _, _ = relative_injectives(F7, [m for _, m in corpus7])
    assert coresolution_step(injs[0].module, F7, injs).cosyzygy is None


def test_syzygy_of_generator_summand_vanishes(F7, L7_modules):
    assert f_resolution(L7_modules["M2"], F7, 0).syzygies[0].is_zero()


def is_f_frobenius(f, corpus):
    """P(F) = I(F) up to isomorphism."""
    injs, _, _ = relative_injectives(f, corpus)
    return len(injs) == len(f.summands) and all(
        any(is_isomorphic(c.module, s.module).isomorphic for s in f.summands) for c in injs)


def test_frobenius_predicates(F7, F7_ordinary, corpus7, L7_modules):
    corpus = [m for _, m in corpus7]
    assert is_f_frobenius(F7_ordinary, corpus)  # self-injective algebra
    assert not is_f_frobenius(F7, corpus)       # S2 is not F-injective


def test_a2_ordinary_not_frobenius():
    alg = a2_algebra()
    F = SubbifunctorF(alg, [SummandDecl(f"P{i}", projective(alg, i)) for i in (1, 2)])
    mods = [projective(alg, 1), projective(alg, 2), simple(alg, 1)]
    assert not is_f_frobenius(F, mods)


def test_projective_cover_rejects_a_non_minimal_cover(L7, L7_modules, monkeypatch):
    # one extra copy of P1 mapped by 0 keeps the cover onto, but its kernel
    # leaves the radical: the copies of P1 outnumber dim top(M2) at vertex 1
    m = L7_modules["M2"]
    real = relative.right_approximation

    def padded(x, f):
        app = real(x, f)
        extra = projective(L7, 1)
        copies = DirectSum([f.summands[k].module for k in app.pieces], L7)
        maps = [inj.compose(app.map) for inj in copies.injections] + [ModuleMap.zero(extra, x)]
        return relative.Approximation(glue(maps, x), app.pieces + [0])

    assert projective_cover(m).pieces == [1]
    monkeypatch.setattr(relative, "right_approximation", padded)
    assert padded(m, relative.ordinary_f(L7)).map.is_surjective()
    with pytest.raises(ValueError, match="radical"):
        projective_cover(m)


def test_dtr_builds_each_cover_once(monkeypatch):
    # DTr m needs the covers of m and of its syzygy; each approximation is
    # built once per module and stored on it, so a second DTr builds none
    problem = load_problem(str(DATA / "section7.json"))
    builds = collections.Counter()
    real = relative._build_approximation

    def counted(x, summands, algebra, left):
        builds[(x, left, tuple(s.module for s in summands))] += 1
        return real(x, summands, algebra, left)

    monkeypatch.setattr(relative, "_build_approximation", counted)
    modules = [m for m in problem.modules.values() if not m.is_zero()]
    first = [dtr(m) for m in modules]
    assert builds and set(builds.values()) == {1}
    covered = {x for x, left, _ in builds}
    for m in modules:
        ker, _ = kernel(projective_cover(m).map)
        assert m in covered and (ker.is_zero() or ker in covered)
    seen = dict(builds)
    assert [dtr(m) for m in modules] == first
    assert builds == seen


def count_kernels(monkeypatch) -> collections.Counter:
    """Count the kernels the relative layer takes (through `rep.kernel`)."""
    calls = collections.Counter()
    real = relative.kernel

    def counted(f):
        calls[f.target] += 1
        return real(f)

    monkeypatch.setattr(relative, "kernel", counted)
    return calls


def test_a_second_resolution_takes_no_kernel(monkeypatch):
    # each F-syzygy is stored with the approximation it is the kernel of
    problem = load_problem(str(DATA / "section7.json"))
    f = problem.subbifunctor
    calls = count_kernels(monkeypatch)
    first = {name: f_resolution(x, f, 3) for name, x in problem.modules.items()}
    assert calls and set(calls.values()) == {1}
    seen = dict(calls)
    for name, x in problem.modules.items():
        again = f_resolution(x, f, 3)
        assert again.syzygies == first[name].syzygies and again.modules == first[name].modules
    assert calls == seen
    app = right_approximation(problem.modules["M1"], f)
    assert app.kernel is app.kernel


def test_transpose_reuses_the_stored_cover_kernel(monkeypatch):
    problem = load_problem(str(DATA / "section7.json"))
    modules = [m for m in problem.modules.values() if not m.is_zero()]
    for m in modules:
        projective_cover(m).kernel
    calls = count_kernels(monkeypatch)
    for m in modules:
        dtr(m)
    # the one kernel each takes is of ν d, into ⊕I_v over the cover's pieces:
    # the cover's own kernel is never taken again
    alg = problem.algebra
    assert calls == collections.Counter(
        direct_sum([injective(alg, v + 1) for v in projective_cover(m).pieces], alg)
        for m in modules if not projective_cover(m).is_identity)


def whole_middle_ext_f(x, y, i, f):
    """dim Ext_F^i(x, y) with dim Hom(P, y) solved on the sum P itself."""
    res = f_resolution(x, f, i - 1)
    if i - 1 > res.length:
        return 0
    before = res.syzygies[i - 2] if i >= 2 else x
    return (len(hom_space(res.syzygies[i - 1], y)) - len(hom_space(res.modules[i - 1], y))
            + len(hom_space(before, y)))


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["q", "fp32003"])
@pytest.mark.parametrize("name", ["section6", "section7", "a2_apr"])
def test_ext_f_from_pieces_matches_the_whole_middle_term(name, field):
    problem = load_problem(str(DATA / f"{name}.json"), field)
    f = problem.subbifunctor
    modules = list(problem.modules.values())
    nonzero = 0
    for x in modules:
        for y in modules:
            for i in (1, 2, 3):
                want = whole_middle_ext_f(x, y, i, f)
                assert ext_f(x, y, i, f) == want, (name, x, y, i)
                nonzero += want != 0
    assert name == "a2_apr" or nonzero


NOT_F_EXACT = "coresolution step is not F-exact: I(F) list invalid"


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["q", "fp32003"])
@pytest.mark.parametrize("name, failing", [("section7", {"S1", "S3", "M1", "M3"}),
                                           ("section6", {"S1", "U12", "U31", "U312"}),
                                           ("a2_apr", set())])
def test_ordinary_injectives_are_no_i_f_list_under_g(name, failing, field):
    # the step x -> I' -> C by the injectives I_v is exact, and F-exact
    # exactly when Hom(G, I') -> Hom(G, C) is onto, tested here on the
    # composite blocks of a right add(G)-approximation
    problem = load_problem(str(DATA / f"{name}.json"), field)
    f, alg = problem.subbifunctor, problem.algebra
    injectives = [SummandDecl(f"I{v}", injective(alg, v)) for v in range(1, alg.quiver.n + 1)]
    failed = set()
    for n, x in problem.modules.items():
        step = coresolution_step(x, f, injectives)
        if step.cosyzygy is None:
            assert step.failure is None
            continue
        onto = hom_g_surjective(f, cokernel(left_approximation(x, injectives, alg).map)[1])
        assert step.failure == (None if onto else NOT_F_EXACT), n
        if not onto:
            failed.add(n)
    assert failed == failing
    if name == "section7":
        report = id_f(problem.modules["S1"], f, injectives, problem.cutoff)
        assert report.dim.censored and report.caveats == [NOT_F_EXACT]


def test_the_generator_is_built_on_first_read(L7, F7):
    # only F-acyclicity reads it
    f = SubbifunctorF(L7, F7.summands)
    assert "generator" not in vars(f)
    assert f.generator is direct_sum([s.module for s in F7.summands], L7)
    assert "generator" in vars(f)
