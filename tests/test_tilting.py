import pytest

from relhomalg.algebra import gldim
from relhomalg.complexes import _TotalHom, hom_k, stalk_complex, term_length
from relhomalg.relative import SubbifunctorF, SummandDecl
from relhomalg.rep import hom_space, projective, radical
from relhomalg.tilting import (
    ConeWitness,
    SummandWitness,
    approximation_cone_complex,
    end_algebra,
    image_tilting_over_sigma,
    stalk_is_homotopy_summand,
    sum_complexes_with_maps,
    verify_f_tilting,
)

from helpers import cycle3_verbatim


@pytest.fixture(scope="module")
def stalk_tilting7(F7):
    parts = [stalk_complex(s.module, 0, label=s.name) for s in F7.summands]
    return sum_complexes_with_maps(parts, [s.name for s in F7.summands])


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
    ts = sum_complexes_with_maps([t1a, t1b, t2a, t2b], ["T1a", "T1b", "T2a", "T2b"], alg)
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
    endo = end_algebra(stalk_tilting7)
    assert endo.dim == expected == 22
    A = endo.to_abstract(validate=True)
    assert A.idempotents_split_basic()


def test_single_stalk_endo_one_dimensional(F7, L7_modules):
    t = sum_complexes_with_maps([stalk_complex(L7_modules["P1"], 0, label="P1")], ["P1"])
    endo = end_algebra(t)
    assert endo.dim == 1


def test_cone_padding_preserves_endo_dim(F7, L7_modules, stalk_tilting7):
    from relhomalg.complexes import cone, chain_identity
    from relhomalg.tilting import compose_chain
    m = L7_modules["P2"]
    contractible, _, _ = cone(chain_identity(stalk_complex(m, 0, label="P2")))
    padded = sum_complexes_with_maps(
        stalk_tilting7.parts + [contractible],
        stalk_tilting7.names + ["pad"])
    assert end_algebra(padded).dim == end_algebra(stalk_tilting7).dim


def test_section6_tilting(section6, L7):
    alg, F6, ts, env = section6
    wit = [
        SummandWitness("P2", -1, "T2a"),
        SummandWitness("P3", -1, "T2b"),
        ConeWitness("W_M", "T1a", "Q_M_stalk", "identity"),
        SummandWitness("M", -1, "W_M"),
        ConeWitness("W_P1", "T1b", "Q_P1_stalk", "identity"),
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


def test_verify_f_tilting_assembles_each_differential_once(section6, monkeypatch):
    # one total Hom complex of (T, T) serves the whole self-orthogonality
    # window and endo_dim, and it keeps the rank of each D^m
    _, F6, ts, _ = section6
    t = ts.total
    components = [id(c) for c in t.comps.values()]
    assembled = []
    differential = _TotalHom.differential

    def counted(self, m):
        if [id(p) for ps in self.x_pieces.values() for p in ps] == components:
            assembled.append(m)
        return differential(self, m)

    monkeypatch.setattr(_TotalHom, "differential", counted)
    verify_f_tilting(ts, F6, declared_count=4)
    window = 2 * t.width() + 1
    assert sorted(assembled) == list(range(-window - 1, window + 1))


def test_section6_term_length(section6):
    _, _, ts, env = section6
    assert term_length(env["T1a"]) == 1
    assert term_length(ts.total) == 1


def test_image_tilting_over_sigma_stalk(F7, stalk_tilting7):
    sc, sigma_dims, dims_check = image_tilting_over_sigma(stalk_tilting7, F7)
    assert list(sc.comps) == [0]
    assert dims_check[0][0] == dims_check[0][1] == 22
    t = stalk_tilting7.total
    for n, rhs in sigma_dims.items():
        assert hom_k(t, t, n) == rhs, (n, rhs)


def test_image_tilting_over_sigma_section6(section6):
    alg, F6, ts, _ = section6
    sc, sigma_dims, dims_check = image_tilting_over_sigma(ts, F6)
    for i, (lhs, rhs) in dims_check.items():
        assert lhs == rhs, (i, lhs, rhs)
    for n, rhs in sigma_dims.items():
        assert hom_k(ts.total, ts.total, n) == rhs, (n, rhs)


def test_gamma_gldim_section7(F7, stalk_tilting7):
    endo = end_algebra(stalk_tilting7)
    A = endo.to_abstract()
    assert A.radical_dim() == 22 - 6
    g = gldim(A, 10)
    assert not g.dim.censored
    assert g.dim.value <= 3


def test_summand_detection_negative(F7, L7_modules, stalk_tilting7):
    # S1 is not a summand of the stalk tilting complex
    assert not stalk_is_homotopy_summand(L7_modules["S1"], 0, stalk_tilting7.total)
    assert stalk_is_homotopy_summand(L7_modules["M2"], 0, stalk_tilting7.total)
