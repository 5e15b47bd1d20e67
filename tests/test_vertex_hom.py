"""Hom from projectives and into injectives read off vertex spaces, and
covers and envelopes built from their kept maps alone.

`rep.hom_space` reads Hom(P_v, X) off X_v and Hom(X, I_v) off D(X_v) for the
stored projectives and injectives (`rep._vertex_hom`), and
`relative._build_approximation` builds a cover by the projectives from the
top columns of X and an envelope in the injectives from the rows completing
the arrows out of each vertex (`relative._vertex_generators`), with no
other map of those Hom spaces.  These tests check both against the
intertwining solve and against the greedy pass over the whole Hom bases
(`helpers.solved_hom_space`, `helpers.full_basis_approximation`) on every
Hom and approximation that real commands build, over Q and F_32003, and
count that those commands no longer solve or scan where the answer is
structural.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from relhomalg import relative, rep
from relhomalg.algebra import residue_certificate
from relhomalg.cli import main
from relhomalg.fields import QQ, PrimeField
from relhomalg.matrix import Matrix, kernel_basis, rank
from relhomalg.rep import (
    ModuleMap,
    _induced_sub,
    cokernel,
    endo_indecomposability_check,
    hom_coordinates,
    hom_space,
    injective,
    is_isomorphic,
    kernel,
    left_multiplication_map,
    projective,
    stack_maps,
    top_columns,
)
from relhomalg.schema import load_problem

from helpers import (cycle3_selfinjective, cycle3_verbatim, full_basis_approximation,
                     nakayama_problem, solved_hom_space, uniserials)

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"
BUNDLED = ["section6", "section6_symmetric", "section7", "a2_apr"]
FIELDS = ["q", "fp:32003"]
GENERATED = {"nakayama(4,4) P+S": (4, 4, False), "nakayama(3,3) all": (3, 3, True)}


def stored(m, kind):
    """Is m the stored projective (kind "projective") or injective of its
    algebra at some vertex?"""
    return any(m.algebra.vertex_modules.get((kind, v)) is m
               for v in range(1, m.algebra.quiver.n + 1))


def flat(basis):
    return [[a.entries for a in f.mats] for f in basis]


@pytest.fixture
def compared(monkeypatch):
    """Checks every Hom read off a vertex space against the intertwining
    solve, and every cover and envelope against the one the greedy pass
    keeps from the whole Hom bases (the same pieces, and a kernel or
    cokernel certified isomorphic); returns the counts of each."""
    seen = {"hom": 0, "cover": 0, "envelope": 0}
    vertex_hom, build = rep._vertex_hom, relative._build_approximation

    def hom_both(m, n):
        out = vertex_hom(m, n)
        if stored(m, "projective") or stored(n, "injective"):
            ref = solved_hom_space(m, n)
            assert flat(out) == flat(ref)
            seen["hom"] += 1
        return out

    def approximation_both(x, summands, algebra, left):
        kind = "injective" if left else "projective"
        if x.is_zero() or [s.module for s in summands] != [
                algebra.vertex_modules.get((kind, v)) for v in range(1, algebra.quiver.n + 1)]:
            return build(x, summands, algebra, left)
        with pytest.MonkeyPatch.context() as mp:  # no Hom basis on the vertex side is built
            mp.setattr(relative, "hom_space", None)
            out = build(x, summands, algebra, left)
        pieces, ref = full_basis_approximation(x, summands, left)
        if out.is_identity:
            assert ref.is_isomorphism()
        else:
            assert sorted(out.pieces) == sorted(pieces)
            end = cokernel if left else kernel
            assert is_isomorphic(end(out.map)[0], end(ref)[0]).isomorphic is True
        seen["envelope" if left else "cover"] += 1
        return out

    monkeypatch.setattr(rep, "_vertex_hom", hom_both)
    monkeypatch.setattr(relative, "_build_approximation", approximation_both)
    return seen


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["--quiet", *argv])


def generated(name, tmp_path):
    n, length, every = GENERATED[name]
    path = tmp_path / "nakayama.json"
    data = nakayama_problem(n, length, every_indecomposable=every, tilting=True)
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_vertex_homs_and_keeps_match_the_solve(compared, name, field):
    path = str(DATA / f"{name}.json")
    for argv in (["module", path], ["bounds", "theorem73", path], ["bounds", "gorenstein", path]):
        run("--field", field, *argv)  # section6_symmetric reports a violation (exit 2)
    assert compared["hom"] and compared["cover"] and compared["envelope"]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", GENERATED)
def test_nakayama_vertex_homs_and_keeps_match_the_solve(compared, name, field, tmp_path):
    path = generated(name, tmp_path)
    for argv in (["bounds", "theorem73", path], ["bounds", "gorenstein", path]):
        assert run("--field", field, *argv) == 0
    assert compared["hom"] and compared["cover"] and compared["envelope"]


def test_theorem73_solves_and_scans_nothing_structural(monkeypatch, tmp_path):
    """`bounds theorem73` and `bounds gorenstein` on Nakayama (4,4) solve no
    intertwining system for a stored projective source or injective target,
    and run the greedy pass for no cover by the projectives and no envelope
    by the injectives."""
    solved, greedy = [], []
    compute, subset = rep._hom_space_compute, relative._minimal_approximating_subset

    def counting_compute(m, n):
        solved.append(stored(m, "projective") or stored(n, "injective"))
        return compute(m, n)

    def counting_subset(x, maps, summands, left):
        kind = "injective" if left else "projective"
        every_map = [phi for s in summands
                     for phi in (hom_space(x, s.module) if left else hom_space(s.module, x))]
        greedy.append(maps == every_map and len(summands) == x.algebra.quiver.n
                      and all(stored(s.module, kind) for s in summands))
        return subset(x, maps, summands, left)

    monkeypatch.setattr(rep, "_hom_space_compute", counting_compute)
    monkeypatch.setattr(relative, "_minimal_approximating_subset", counting_subset)
    path = generated("nakayama(4,4) P+S", tmp_path)
    assert run("bounds", "theorem73", path) == 0
    assert run("bounds", "gorenstein", path) == 0
    assert solved and not any(solved)
    assert greedy and not any(greedy)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)])
@pytest.mark.parametrize("name", BUNDLED)
def test_every_pair_with_a_projective_or_injective(name, field):
    """Every declared module against every P_v and I_v, and the left
    multiplication maps against their path-by-path construction."""
    prob = load_problem(str(DATA / f"{name}.json"), field_override=field)
    alg = prob.algebra
    n = alg.quiver.n
    ends = [f(alg, v) for f in (projective, injective) for v in range(1, n + 1)]
    for x in list(prob.modules.values()) + ends:
        for v in range(1, n + 1):
            for a, b in ((projective(alg, v), x), (x, injective(alg, v))):
                assert flat(hom_space(a, b)) == flat(solved_hom_space(a, b))
    for ai, arrow in enumerate(alg.quiver.arrows):
        la = left_multiplication_map(alg, ai)
        ae = alg.arrow_element(ai)
        for v in range(n):
            src, tgt = ([k for k, (s, _) in enumerate(alg.basis)
                         if s == end and alg.element_target(k) == v + 1]
                        for end in (arrow.target, arrow.source))
            for c, k in enumerate(src):
                column = [alg.mul_basis(ae, k).get(k2, 0) for k2 in tgt]
                assert la.mats[v].col(c) == column


@pytest.mark.parametrize("name", BUNDLED)
def test_hom_coordinates_read_the_free_unknowns(name):
    prob = load_problem(str(DATA / f"{name}.json"))
    mods = list(prob.modules.values())
    F = prob.algebra.field
    for m in mods:
        for n in mods:
            basis = hom_space(m, n)
            assert len(basis.free()) == len(basis)
            for i, f in enumerate(basis):
                assert hom_coordinates(basis, f) == [int(i == j) for j in range(len(basis))]
            coeffs = [F.of_int(3 * j + 1) for j in range(len(basis))]
            assert hom_coordinates(basis, ModuleMap.combination(m, n, coeffs, basis)) == coeffs
            # the all-ones blocks, checked against the span by one rank
            ones = ModuleMap(m, n, [Matrix(F, a.rows, a.cols, [F.one] * (a.rows * a.cols))
                                    for a in ModuleMap.zero(m, n).mats], check=False)
            vecs = [[e for a in g.mats for e in a.entries] for g in list(basis) + [ones]]
            if rank(Matrix(F, len(vecs), len(vecs[0]), [e for v in vecs for e in v])) > len(basis):
                with pytest.raises(ValueError, match="outside"):
                    hom_coordinates(basis, ones)


@pytest.mark.parametrize("name", BUNDLED)
def test_kernels_read_at_free_rows_match_the_solve(name):
    """Every basis map between declared modules, the sum of each basis, and
    the fold m ⊕ m -> m, whose kernel columns (-e, e) are not coordinate
    vectors."""
    mods = list(load_problem(str(DATA / f"{name}.json")).modules.values())
    seen = 0
    for m in mods:
        fold = stack_maps([ModuleMap.identity(m)] * 2, m)
        for n in mods:
            basis = hom_space(m, n)
            for f in list(basis) + [ModuleMap.combination(m, n, [1] * len(basis), basis), fold]:
                sub, incl = kernel(f)
                ref_sub, ref_incl = _induced_sub(f.source, [kernel_basis(a) for a in f.mats])
                assert sub is ref_sub
                assert flat([incl]) == flat([ref_incl])
                seen += 1
    assert seen


def test_local_by_top_agrees_with_the_residue_certificate():
    """Modules with a one-dimensional top are proven local without End(m);
    the residue certificate over End(m) agrees on every uniserial."""
    for alg in (cycle3_selfinjective(), cycle3_verbatim(), cycle3_selfinjective(PrimeField(32003))):
        for m in uniserials(alg):
            assert len(top_columns(m)) == 1
            assert endo_indecomposability_check(m)
            assert m._homs is None or m not in m._homs  # End(m) was not computed
            basis = hom_space(m, m)

            def mul(u, v):
                return hom_coordinates(basis, ModuleMap.combination(m, m, u, basis).compose(
                    ModuleMap.combination(m, m, v, basis)))

            unit = hom_coordinates(basis, ModuleMap.identity(m))
            assert residue_certificate(alg.field, len(basis), unit, mul) is not None
