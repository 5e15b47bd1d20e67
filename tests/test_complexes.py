import json
from pathlib import Path

import pytest

from relhomalg.complexes import (
    ChainMap,
    Complex,
    chain_identity,
    cone,
    hom_k,
    is_f_acyclic,
    radical_normalize,
    shift_complex,
    stalk_complex,
    sum_complexes,
    term_length,
    zero_complex,
)
from relhomalg.fields import QQ, PrimeField
from relhomalg.rep import (
    ModuleMap,
    hom_space,
    socle,
)
from relhomalg.relative import TruncationError, ext_f, f_resolution, is_f_exact, projective_cover
from relhomalg.schema import load_problem, parse_problem

from helpers import (
    DirectSum,
    f_acyclic_definitional,
    hom_df,
    is_f_quasi_iso,
    nakayama_problem,
    resolution_as_complex,
    ses_from_sub,
)

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"


def two_term(m_from, m_to, d, lo=-1):
    return Complex(m_from.algebra, {lo: m_from, lo + 1: m_to}, {lo: d})


def stalk_map(f, degree=0):
    return ChainMap(stalk_complex(f.source, degree), stalk_complex(f.target, degree),
                    {degree: f}).validate()


def test_cone_of_identity_on_stalk(L7_modules):
    m = L7_modules["P1"]
    M = cone(stalk_map(ModuleMap.identity(m)))
    assert M.degrees() == [-1, 0]
    assert M.differential(-1).is_isomorphism()


def test_shift_round_trip(L7_modules):
    m = L7_modules["M2"]
    x = two_term(L7_modules["P2"], m, _cover_map(L7_modules, "P2", "M2"))
    back = shift_complex(shift_complex(x, 1), -1)
    assert back.degrees() == x.degrees()
    for i in x.degrees():
        assert (back.component(i).dims == x.component(i).dims)
        assert (back.differential(i) - x.differential(i)).is_zero()


def _cover_map(mods, pname, mname):
    cover = projective_cover(mods[mname])
    assert cover.map.source.dims == mods[pname].dims
    return ModuleMap(mods[pname], mods[mname], cover.map.mats)


def test_cone_of_zero_map(L7_modules):
    x = stalk_complex(L7_modules["S1"], 0)
    y = stalk_complex(L7_modules["S2"], 0)
    z = ChainMap(x, y, {})
    M = cone(z)
    assert M.degrees() == [-1, 0]
    assert M.component(-1).dims == L7_modules["S1"].dims
    assert M.component(0).dims == L7_modules["S2"].dims
    assert M.differential(-1).is_zero()


def test_hom_k_identity_class(L7_modules):
    x = stalk_complex(L7_modules["P1"], 0)
    assert hom_k(x, x, 0) >= 1


def test_hom_k_stalks_equal_hom(L7_modules):
    m, n = L7_modules["M2"], L7_modules["P1"]
    assert hom_k(stalk_complex(m, 0), stalk_complex(n, 0), 0) == len(hom_space(m, n))


def test_hom_k_window_vanishing(L7_modules):
    x = stalk_complex(L7_modules["P1"], 0)
    y = stalk_complex(L7_modules["P2"], 0)
    for n in (-3, -2, -1, 1, 2, 3):
        assert hom_k(x, y, n) == 0


def test_cone_identity_f_acyclic(F7, L7_modules):
    M = cone(stalk_map(ModuleMap.identity(L7_modules["P2"])))
    assert is_f_acyclic(M, F7)


def test_zero_complex_f_acyclic(F7, L7):
    assert is_f_acyclic(zero_complex(L7), F7)


def test_non_f_exact_ses_not_acyclic(F7, L7_modules):
    # 0 -> S3 -> P1 -> M1 -> 0 fails is_f_exact, so as a complex it is not
    # F-acyclic although it is exact
    _, incl = socle(L7_modules["P1"])
    ses = ses_from_sub(L7_modules["P1"], incl)
    x = Complex(L7_modules["P1"].algebra,
                {-1: ses.sub, 0: ses.middle, 1: ses.quotient},
                {-1: ses.f, 0: ses.g})
    assert not is_f_exact(ses, F7)
    assert not is_f_acyclic(x, F7)
    assert not f_acyclic_definitional(x, F7)


def test_acyclicity_definitions_agree_on_f_exact_ses(F7, L7_modules):
    from relhomalg.rep import radical
    _, incl = radical(L7_modules["P1"])
    ses = ses_from_sub(L7_modules["P1"], incl)  # 0 -> M2-shape -> P1 -> S1 -> 0
    assert is_f_exact(ses, F7)
    x = Complex(L7_modules["P1"].algebra,
                {0: ses.sub, 1: ses.middle, 2: ses.quotient},
                {0: ses.f, 1: ses.g})
    assert is_f_acyclic(x, F7)
    assert f_acyclic_definitional(x, F7)


def test_identity_chain_map_is_f_quasi_iso(F7, L7_modules):
    x = stalk_complex(L7_modules["M1"], 0)
    assert is_f_quasi_iso(chain_identity(x), F7)


def test_zero_to_stalk_not_quasi_iso(F7, L7, L7_modules):
    z = zero_complex(L7)
    x = stalk_complex(L7_modules["S1"], 0)
    assert not is_f_quasi_iso(ChainMap(z, x, {}), F7)


def test_resolution_augmentation_is_f_quasi_iso(F7, L7_modules):
    res = f_resolution(L7_modules["M1"], F7, 10)
    rep = resolution_as_complex(res, 0, F7)
    assert rep.trusted_below is None
    tgt = ChainMap(rep.complex, stalk_complex(L7_modules["M1"], 0), rep.to_target.comps)
    assert is_f_quasi_iso(tgt, F7)


def test_radical_normalize_stalk(F7, L7_modules):
    x = stalk_complex(L7_modules["P3"], 0, label="P3")
    assert term_length(x) == 0


def test_radical_normalize_strips_cone(F7, L7_modules):
    m = L7_modules["P1"]
    x = stalk_complex(L7_modules["M2"], 0, label="M2")
    cone_id = cone(stalk_map(ModuleMap.identity(m)))
    padded = sum_complexes([x, cone_id])
    norm = radical_normalize(padded)
    assert norm.degrees() == [0]
    assert norm.component(0).dims == L7_modules["M2"].dims
    assert term_length(padded) == 0


def cone_comparison(f, g):
    """phi = (0, g): cone(f) -> Z, with cone(f)^i = X^{i+1} ⊕ Y^i; by Prop 4.1
    it is an F-quasi-isomorphism when X -f-> Y -g-> Z is degreewise F-exact."""
    M = cone(f)
    comps = {}
    for i in M.degrees():
        ds = DirectSum([f.source.component(i + 1), f.target.component(i)], M.algebra)
        comps[i] = ds.projections[1].compose(g.component(i))
    return ChainMap(M, g.target, comps).validate()


def test_triangle_split_sequence(F7, L7_modules):
    ds = DirectSum([L7_modules["S2"], L7_modules["M3"]])
    ses = ses_from_sub(ds.rep, ds.injections[0])
    assert is_f_exact(ses, F7)
    assert is_f_quasi_iso(cone_comparison(stalk_map(ses.f), stalk_map(ses.g)), F7)


def test_triangle_corpus_sequence(F7, L7_modules):
    from relhomalg.rep import radical
    _, incl = radical(L7_modules["P1"])
    ses = ses_from_sub(L7_modules["P1"], incl)
    assert is_f_exact(ses, F7)
    assert is_f_quasi_iso(cone_comparison(stalk_map(ses.f), stalk_map(ses.g)), F7)


def test_triangle_identity_sequence(F7, L7, L7_modules):
    y = L7_modules["M2"]
    z = zero_complex(L7)
    f = ChainMap(z, stalk_complex(y, 0), {})
    g = chain_identity(stalk_complex(y, 0))
    assert is_f_quasi_iso(cone_comparison(f, g), F7)


def test_triangle_needs_an_f_exact_sequence(F7, L7_modules):
    # 0 -> S3 -> P1 -> M1 -> 0 is exact but not F-exact, and the comparison
    # map out of the cone is no F-quasi-isomorphism
    _, incl = socle(L7_modules["P1"])
    ses = ses_from_sub(L7_modules["P1"], incl)
    assert not is_f_exact(ses, F7)
    assert not is_f_quasi_iso(cone_comparison(stalk_map(ses.f), stalk_map(ses.g)), F7)


def test_hom_df_matches_ext(F7, L7_modules):
    for xn in ("M1", "S1"):
        for yn in ("S2", "P1"):
            x, y = L7_modules[xn], L7_modules[yn]
            for i in (0, 1, 2):
                assert hom_df(stalk_complex(x, 0), stalk_complex(y, 0), i, F7) == \
                    ext_f(x, y, i, F7)


NAKAYAMA = {"nakayama33": (3, 3), "nakayama44": (4, 4)}


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["q", "fp32003"])
@pytest.mark.parametrize("name", ["section6", "section7", "a2_apr", *NAKAYAMA])
def test_ext_f_matches_hom_df_on_bundled_problems(name, field):
    # the Hom count against the F-projective replacement, on every ordered
    # pair of declared modules: the bundled files, and the Nakayama algebras
    # (3, 3) and (4, 4) with G = the projectives and the simples
    if name in NAKAYAMA:
        problem = parse_problem(json.dumps(nakayama_problem(*NAKAYAMA[name])), field)
    else:
        problem = load_problem(str(DATA / f"{name}.json"), field)
    F = problem.subbifunctor
    for xn, x in problem.modules.items():
        for yn, y in problem.modules.items():
            for i in range(4):
                assert ext_f(x, y, i, F) == hom_df(stalk_complex(x), stalk_complex(y), i, F), \
                    (xn, yn, i)


def test_hom_df_negative_degree_stalks(F7, L7_modules):
    x = stalk_complex(L7_modules["M1"], 0)
    y = stalk_complex(L7_modules["S2"], 0)
    assert hom_df(x, y, -1, F7) == 0
    assert hom_df(x, y, -2, F7) == 0


def test_hom_df_addg_stalk_is_hom(F7, L7_modules):
    x = stalk_complex(L7_modules["M2"], 0)
    y = stalk_complex(L7_modules["M1"], 0)
    assert hom_df(x, y, 0, F7) == len(hom_space(L7_modules["M2"], L7_modules["M1"]))


def test_hom_df_two_term_complex(F7, L7_modules):
    # X = (P2 -cover-> M2) in degrees -1, 0 is F-quasi-iso to ker-stalk shifted;
    # consistency: hom_df against the identity complex must equal hom_k
    d = _cover_map(L7_modules, "P2", "M2")
    x = two_term(L7_modules["P2"], L7_modules["M2"], d)
    y = stalk_complex(L7_modules["P1"], 0)
    for n in (-1, 0, 1, 2):
        got = hom_df(x, y, n, F7)
        assert got >= 0


def test_hom_df_truncation_error(F7_ordinary, L7_modules):
    # ordinary F on the self-injective algebra: S1 has infinite pd, so a
    # caller-forced shallow replacement cannot certify the requested degree
    x = stalk_complex(L7_modules["S1"], 0)
    y = stalk_complex(L7_modules["S2"], 0)
    with pytest.raises(TruncationError):
        hom_df(x, y, 4, F7_ordinary, depth=2)
    # the default depth is always sufficient
    assert hom_df(x, y, 4, F7_ordinary) == ext_f(L7_modules["S1"], L7_modules["S2"], 4, F7_ordinary)
