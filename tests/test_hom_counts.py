"""F-exactness, Ext_F and DTr read as Hom dimensions and products.

`relative.hom_g_exact` decides F-exactness of an exact sequence by counting
dim Hom(G_k, -) over the summands of G, `rep.hom_dim` reads a Hom dimension
off vertex spaces where it can, and `relative.dtr` reads ν d at the top
columns of the minimal presentation.  Each is checked against the route it
replaced (`helpers.hom_g_surjective`, the Hom-space bases, the transpose
over the opposite algebra, `helpers.dtr_by_transpose` and
`helpers.transpose_by_coordinates`) on the bundled problems and two
generated Nakayama problems, over Q and over F_32003.
"""

import json
from pathlib import Path

import pytest

from relhomalg.fields import QQ, PrimeField
from relhomalg.matrix import Matrix
from relhomalg.quiver import PathAlgebra, Quiver
from relhomalg.relative import (
    coresolution_step,
    dtr,
    hom_g_exact,
    is_f_exact,
    left_approximation,
    projective_cover,
    relative_injectives,
)
from relhomalg.rep import (
    Representation,
    ShortExactSeq,
    cokernel,
    direct_sum,
    hom_dim,
    hom_space,
    injective,
    projective,
    proven_isomorphic,
)
from relhomalg.schema import parse_problem

from helpers import (
    dtr_by_transpose,
    dual_to_main,
    hom_g_surjective,
    hom_to_algebra,
    hom_to_algebra_at,
    nakayama_problem,
    opposite,
    solved_hom_space,
    transpose_by_coordinates,
)

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"
PROBLEMS = {
    **{name: (DATA / f"{name}.json").read_text() for name in ("section6", "section7", "a2_apr",
                                                                 "section6_symmetric")},
    "nakayama(4,3)": json.dumps(nakayama_problem(4, 3)),
    "nakayama(4,4)-all": json.dumps(nakayama_problem(4, 4, every_indecomposable=True)),
}
FIELDS = {"q": QQ, "fp:32003": PrimeField(32003)}


def load(field: str):
    return {name: parse_problem(text, field_override=FIELDS[field]) for name, text in PROBLEMS.items()}


def exactness(problem) -> list[tuple[str, bool, bool]]:
    """(what, count, composite route) on the projective-cover sequence of every
    module, as `relhom exact` builds it, and on every step of the
    coresolution of every corpus module by I(F), as `id_f` walks it."""
    f, alg = problem.subbifunctor, problem.algebra
    seen = []
    for name, m in problem.modules.items():
        cover = projective_cover(m)
        ses = ShortExactSeq(cover.kernel[1], cover.map)
        seen.append((f"cover {name}", is_f_exact(ses, f), hom_g_surjective(f, cover.map)))
    injectives, _, _ = relative_injectives(f, [m for _, m in problem.corpus()])
    for name, x in problem.corpus():
        for depth in range(problem.cutoff + 1):
            app = left_approximation(x, injectives, alg)
            if x.is_zero() or app.map.is_isomorphism() or not app.map.is_injective():
                break
            cok, proj = cokernel(app.map)
            count = hom_g_exact(f, x, [injectives[k].module for k in app.pieces], cok)
            # the step id_f takes says the same
            assert (coresolution_step(x, f, injectives).failure is None) == count
            seen.append((f"step {depth} from {name}", count, hom_g_surjective(f, proj)))
            x = cok
    return seen


@pytest.mark.parametrize("field", FIELDS)
def test_the_count_matches_the_composite_route(field):
    answers = set()
    for name, problem in load(field).items():
        for what, count, composite in exactness(problem):
            assert count == composite, (name, what)
            answers.add(count)
        if name == "section7":
            covers = dict((what, count) for what, count, _ in exactness(problem))
            assert covers["cover S1"] and not covers["cover S2"]
    assert answers == {True, False}


@pytest.mark.parametrize("field", FIELDS)
def test_hom_dim_is_the_length_of_the_basis(field):
    for name, problem in load(field).items():
        alg, n = problem.algebra, problem.algebra.quiver.n
        modules = {id(m): m for m in [
            *(m for _, m in problem.corpus()), *(s.module for s in problem.subbifunctor.summands),
            *(projective(alg, v) for v in range(1, n + 1)), *(injective(alg, v) for v in range(1, n + 1))]}
        for m in modules.values():
            for x in modules.values():
                assert hom_dim(m, x) == len(hom_space(m, x)) == len(solved_hom_space(m, x)), name


@pytest.mark.parametrize("field", FIELDS)
def test_transpose_matches_the_coordinate_route(field):
    checked = 0
    for name, problem in load(field).items():
        alg = problem.algebra
        for v in range(1, alg.quiver.n + 1):
            piece = hom_to_algebra_at(alg, v)
            assert proven_isomorphic(piece, hom_to_algebra(projective(alg, v))[0])
            assert proven_isomorphic(piece, projective(opposite(alg), v))  # e_v Λ
        modules = list(problem.modules.values())
        # sums of two modules have two top columns, so P0 and P1 have several pieces
        sums = [direct_sum([a, b], alg) for a, b in zip(modules, modules[1:] + modules[:1])]
        for m in modules + sums:
            if projective_cover(m).is_identity:
                assert dtr(m).is_zero()
                continue
            assert proven_isomorphic(dtr(m), dual_to_main(transpose_by_coordinates(m))), name
            assert proven_isomorphic(dtr(m), dtr_by_transpose(m)), name
            checked += 1
    assert checked > 40


@pytest.mark.parametrize("field", FIELDS)
def test_transpose_keeps_the_parameter_of_a_kronecker_module(field):
    # M_t = (k ⇉ k, arrows 1 and t) has the syzygy spanned by t·a - b, so d*
    # carries the scalar t, and M_t is regular simple in a homogeneous tube:
    # τ M_t ≅ M_t, and M_t ≇ M_s for s ≠ t
    F = FIELDS[field]
    alg = PathAlgebra(F, Quiver(2, [("a", 1, 2), ("b", 1, 2)]), [], 2)

    def kronecker(t):
        return Representation(alg, (1, 1), [Matrix(F, 1, 1, [F.one]), Matrix(F, 1, 1, [F.of_int(t)])])

    for t in (2, 3):
        m = kronecker(t)
        assert proven_isomorphic(dtr(m), m)
        assert proven_isomorphic(dtr(m), dual_to_main(transpose_by_coordinates(m)))
        assert not proven_isomorphic(dtr(m), kronecker(t + 1))
