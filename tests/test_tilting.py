from pathlib import Path

import pytest

from relhomalg import cli, schema
from relhomalg.complexes import _TotalHom, hom_k, stalk_complex, term_length
from relhomalg.relative import SubbifunctorF, SummandDecl, gldim
from relhomalg.rep import direct_sum, hom_space, is_isomorphic, projective, radical
from relhomalg.schema import load_problem
from relhomalg.tilting import (
    ComplexSum,
    ConeWitness,
    SummandWitness,
    approximation_cone_complex,
    end_algebra,
    image_tilting_over_sigma,
    stalk_is_homotopy_summand,
    verify_f_tilting,
)

from helpers import cycle3_verbatim, validated

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"


@pytest.fixture(scope="module")
def stalk_tilting7(F7):
    parts = [stalk_complex(s.module, 0, label=s.name) for s in F7.summands]
    return ComplexSum(parts, [s.name for s in F7.summands])


@pytest.fixture(scope="module")
def section6():
    """The verbatim-relation algebra with its F and the paper's T = T1 ⊕ T2."""
    alg = cycle3_verbatim()
    P = {i: projective(alg, i) for i in (1, 2, 3)}
    M, _ = radical(P[1])
    summands = [SummandDecl("P1", P[1]), SummandDecl("P2", P[2]),
                SummandDecl("P3", P[3]), SummandDecl("M", M)]
    F6 = SubbifunctorF(alg, summands)
    by = [SummandDecl("P2", P[2]), SummandDecl("P3", P[3])]
    t1a = approximation_cone_complex(M, "M", by, alg)
    t1b = approximation_cone_complex(P[1], "P1", by, alg)
    t2a = stalk_complex(P[2], -1, label="P2")
    t2b = stalk_complex(P[3], -1, label="P3")
    ts = ComplexSum([t1a, t1b, t2a, t2b], ["T1a", "T1b", "T2a", "T2b"])
    return alg, F6, ts, {"T1a": t1a, "T1b": t1b, "T2a": t2a, "T2b": t2b}


def test_stalk_tilting_report(F7, stalk_tilting7):
    rep = verify_f_tilting(stalk_tilting7, F7, declared_count=6)
    assert rep.passed, rep.failures
    assert rep.term_length == 0
    assert rep.generation == "count-criterion passed"
    assert all(v == 0 for v in rep.self_orthogonal.values())


def test_stalk_end_algebra_dim(F7, stalk_tilting7):
    # dim End(G) = sum of pairwise hom dims
    expected = sum(len(hom_space(a.module, b.module))
                   for a in F7.summands for b in F7.summands)
    A = validated(end_algebra(stalk_tilting7))
    assert A.dim == expected == 22
    assert A.idempotents_split_basic()


def test_single_stalk_endo_one_dimensional(F7, L7_modules):
    t = ComplexSum([stalk_complex(L7_modules["P1"], 0, label="P1")], ["P1"])
    endo = end_algebra(t)
    assert endo.dim == 1


def test_cone_padding_preserves_endo_dim(F7, L7_modules, stalk_tilting7):
    from relhomalg.complexes import cone, chain_identity
    m = L7_modules["P2"]
    contractible = cone(chain_identity(stalk_complex(m, 0, label="P2")))
    padded = ComplexSum(stalk_tilting7.parts + [contractible],
                        stalk_tilting7.names + ["pad"])
    assert end_algebra(padded).dim == end_algebra(stalk_tilting7).dim


def test_section6_tilting(section6, L7):
    alg, F6, ts, env = section6
    wit = [
        SummandWitness("P2", -1, "T2a"),
        SummandWitness("P3", -1, "T2b"),
        ConeWitness("W_M", "T1a", "Q_M_stalk"),
        SummandWitness("M", -1, "W_M"),
        ConeWitness("W_P1", "T1b", "Q_P1_stalk"),
        SummandWitness("P1", -1, "W_P1"),
    ]
    env = dict(env)
    env["Q_M_stalk"] = stalk_complex(env["T1a"].comps[-1], -1, label="Q_M",
                                     parts=list(env["T1a"].parts[-1]))
    env["Q_P1_stalk"] = stalk_complex(env["T1b"].comps[-1], -1, label="Q_P1",
                                      parts=list(env["T1b"].parts[-1]))
    rep = verify_f_tilting(ts, F6, declared_count=4, witnesses=wit, witness_env=env)
    assert rep.passed, rep.failures
    assert rep.count_criterion_ok
    assert rep.generation == "witnessed", rep.generation_log
    assert rep.term_length == 1


def test_verify_f_tilting_assembles_each_differential_once(monkeypatch):
    # `bounds theorem73`: verify_f_tilting and end_algebra read one total Hom
    # engine per summand pair (T_i, T_j) of T, and no engine of the whole T
    # is built.  Each engine assembles each D^m of its window at most once,
    # and only where neither Hom^m nor Hom^{m+1} is zero, so the stalk T of
    # section7 assembles none
    sums, assembled = [], []
    tilting_sum = schema.Problem.tilting_sum

    def recorded(self):
        sums.append(tilting_sum(self))
        return sums[-1]

    monkeypatch.setattr(schema.Problem, "tilting_sum", recorded)
    assemble = _TotalHom._assemble

    def counted(self, m):
        assert self.blocks(m)[1] and self.blocks(m + 1)[1], m
        assembled.append((self, m))
        return assemble(self, m)

    monkeypatch.setattr(_TotalHom, "_assemble", counted)
    for name in ("section6", "section7"):
        sums.clear()
        assembled.clear()
        assert cli.main(["--quiet", "bounds", "theorem73", str(DATA / f"{name}.json")]) == 0
        [ts] = sums
        corners = [ts.engine(i, j) for i in range(len(ts.parts)) for j in range(len(ts.parts))]
        window = 2 * ts.total.width() + 1
        expected = sorted((id(e), m) for e in corners for m in range(-window - 1, window + 1)
                          if e.blocks(m)[1] and e.blocks(m + 1)[1])
        keys = [(id(e), m) for e, m in assembled]
        assert len(keys) == len(set(keys)), name
        assert sorted(keys) == expected, name
        if name == "section6":
            assert len(corners) == 16 and expected
        else:
            assert ts.total.degrees() == [0] and assembled == []


def test_section6_term_length(section6):
    _, _, ts, env = section6
    assert term_length(env["T1a"]) == 1
    assert term_length(ts.total) == 1


def test_image_tilting_over_sigma_stalk(F7, stalk_tilting7):
    image, sigma_dims = image_tilting_over_sigma(stalk_tilting7, F7)
    assert image.total.degrees() == [0]
    assert image.total.comps[0].total_dim == 22
    t = stalk_tilting7.total
    for n, rhs in sigma_dims.items():
        assert hom_k(t, t, n) == rhs, (n, rhs)


def test_image_tilting_over_sigma_section6(section6):
    alg, F6, ts, _ = section6
    _, sigma_dims = image_tilting_over_sigma(ts, F6)
    for n, rhs in sigma_dims.items():
        assert hom_k(ts.total, ts.total, n) == rhs, (n, rhs)


@pytest.mark.parametrize("name", sorted(p.stem for p in DATA.glob("*.json")))
def test_image_over_sigma_is_projective(name):
    # Yoneda: Hom(G, G_a) is the projective P_a of Σ = End(G), so the image of
    # T^i = ⊕ G_a is ⊕ P_a over the G-summands its parts match
    problem = load_problem(str(DATA / f"{name}.json"))
    f, ts = problem.subbifunctor, problem.tilting_sum()
    image, _ = image_tilting_over_sigma(ts, f)
    pres = image.total.algebra
    for x, y in zip(ts.parts, image.parts):
        assert x.degrees() == y.degrees()
        for i in x.degrees():
            vertices = [next(a for a, s in enumerate(f.summands, 1)
                             if is_isomorphic(p.module, s.module).isomorphic) for p in x.parts[i]]
            expected = direct_sum([projective(pres, v) for v in vertices], pres)
            assert is_isomorphic(y.comps[i], expected).isomorphic is True, (name, i, vertices)


def test_gamma_gldim_section7(F7, stalk_tilting7):
    A = end_algebra(stalk_tilting7)
    assert A.radical_dim() == 22 - 6
    g = gldim(A.presentation(), 10)
    assert not g.dim.censored
    assert g.dim.value <= 3


def test_summand_detection_negative(F7, L7_modules, stalk_tilting7):
    # S1 is not a summand of the stalk tilting complex
    assert not stalk_is_homotopy_summand(L7_modules["S1"], 0, stalk_tilting7.total)
    assert stalk_is_homotopy_summand(L7_modules["M2"], 0, stalk_tilting7.total)
