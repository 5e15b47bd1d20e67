"""Hom from projectives and into injectives read off vertex spaces, and
approximations kept from top-column and socle-row maps.

`rep.hom_space` reads Hom(P_v, X) off X_v and Hom(X, I_v) off D(X_v) for the
stored projectives and injectives (`rep._vertex_hom`).  When the summands
of an approximation hold every stored P_v (left: I_v),
`relative._build_approximation` takes from each P_v only the maps to the
top columns of X (left: from the rows completing the arrows out of each
vertex, into I_v), with no other map of those Hom spaces
(`relative._candidates`), and `relative._minimal_approximating_subset`
tests the blocks of P_v and I_v at their vertex.  These tests check both
against the intertwining solve and against the greedy pass over the whole
Hom bases read from coordinates (`helpers.solved_hom_space`,
`helpers.full_basis_approximation`) on every Hom and approximation that
real commands build, over Q and F_32003, and count that those commands no
longer solve or scan where the answer is structural.
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
    projective,
    socle_rows,
    top_columns,
)
from relhomalg.schema import load_problem

from helpers import (blocks_of, cycle3_selfinjective, cycle3_verbatim, full_basis_approximation, glue,
                     left_multiplication_map, maps_of, nakayama_problem, solved_hom_space, uniserials)

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"
BUNDLED = ["section6", "section6_symmetric", "section7", "a2_apr"]
FIELDS = ["q", "fp:32003"]
GENERATED = {  # (n, L, every uniserial in G, the commands run)
    "nakayama(4,4) P+S": (4, 4, False, (["bounds", "theorem73"], ["bounds", "gorenstein"])),
    "nakayama(3,3) all": (3, 3, True, (["bounds", "theorem73"], ["bounds", "gorenstein"])),
    "nakayama(6,5) P+S": (6, 5, False, (["module"],)),
}


def stored(m, kind):
    """Is m the stored projective (kind "projective") or injective of its
    algebra at some vertex?"""
    return any(m.algebra.vertex_modules.get((kind, v)) is m
               for v in range(1, m.algebra.quiver.n + 1))


def flat(basis):
    return [[a.entries for a in f.mats] for f in basis]


def holds_every_stored(summands, algebra, kind):
    """Do the summand modules include the stored P_v (kind "projective") or
    I_v of every vertex?"""
    return {s.module for s in summands} >= {
        algebra.vertex_modules.get((kind, v)) for v in range(1, algebra.quiver.n + 1)}


@pytest.fixture
def compared(monkeypatch):
    """Checks every Hom read off a vertex space against the intertwining
    solve, and every approximation whose summands hold every stored P_v
    (left: I_v) against the one the greedy pass keeps from the whole Hom
    bases by coordinates (the same pieces, and a kernel or cokernel
    certified isomorphic); returns the counts of each, and of the
    approximations with a summand besides the P_v (I_v)."""
    seen = {"hom": 0, "right": 0, "left": 0, "mixed": 0}
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
        if x.is_zero() or not holds_every_stored(summands, algebra, kind):
            return build(x, summands, algebra, left)

        def off_the_vertex_side(m, n):  # no Hom(P_v, -) (left: Hom(-, I_v)) basis is built
            assert not stored(n if left else m, kind)
            return hom_space(m, n)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(relative, "hom_space", off_the_vertex_side)
            out = build(x, summands, algebra, left)
        pieces, ref = full_basis_approximation(x, summands, left)
        if out.is_identity:
            assert ref.is_isomorphism()
        else:
            assert sorted(out.pieces) == sorted(pieces)
            end = cokernel if left else kernel
            assert is_isomorphic(end(out.map)[0], end(ref)[0]).isomorphic is True
        seen["left" if left else "right"] += 1
        seen["mixed"] += not all(stored(s.module, kind) for s in summands)
        return out

    monkeypatch.setattr(rep, "_vertex_hom", hom_both)
    monkeypatch.setattr(relative, "_build_approximation", approximation_both)
    return seen


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["--quiet", *argv])


def generated(name, tmp_path):
    n, length, every, _ = GENERATED[name]
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
    assert compared["hom"] and compared["right"] and compared["left"]
    assert bool(compared["mixed"]) == (name != "a2_apr")  # a2_apr has G = the projectives


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", GENERATED)
def test_nakayama_vertex_homs_and_keeps_match_the_solve(compared, name, field, tmp_path):
    path = generated(name, tmp_path)
    for argv in GENERATED[name][3]:
        assert run("--field", field, *argv, path) == 0
    assert compared["hom"] and compared["right"] and compared["left"] and compared["mixed"]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name, argv, sides", [  # sides: left, of the members met
    ("nakayama(6,5) P+S", ["module"], {False, True}),
    ("nakayama(3,3) all", ["bounds", "theorem73"], {False}),
])
def test_a_summand_is_its_own_approximation(monkeypatch, name, argv, sides, field, tmp_path):
    """No module that is one of the summands reaches `_candidates`: its
    approximation, on either side, is the identity with no pieces and zero
    kernel, and the greedy pass over the whole Hom bases keeps one copy of
    that summand, mapped isomorphically onto (left: from) it."""
    members = {False: 0, True: 0}
    candidates, build = relative._candidates, relative._build_approximation

    def no_member(x, summands, algebra, left):
        assert all(s.module is not x for s in summands)
        return candidates(x, summands, algebra, left)

    def member_checked(x, summands, algebra, left):
        out = build(x, summands, algebra, left)
        at = [k for k, s in enumerate(summands) if s.module is x]
        if at:
            assert out.is_identity and out.pieces is None
            assert "kernel" in vars(out) and out.kernel[0].is_zero()  # stored, not eliminated
            pieces, ref = full_basis_approximation(x, summands, left)
            assert pieces == at and ref.is_isomorphism()
            members[left] += 1
        return out

    monkeypatch.setattr(relative, "_candidates", no_member)
    monkeypatch.setattr(relative, "_build_approximation", member_checked)
    assert run("--field", field, *argv, generated(name, tmp_path)) == 0
    assert {left for left, met in members.items() if met} == sides


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

    def counting_subset(x, blocks, pieces, summands, left):
        kind = "injective" if left else "projective"
        every_map = [blocks_of(phi) for s in summands
                     for phi in (hom_space(x, s.module) if left else hom_space(s.module, x))]
        greedy.append(blocks == every_map and len(summands) == x.algebra.quiver.n
                      and all(stored(s.module, kind) for s in summands))
        return subset(x, blocks, pieces, summands, left)

    monkeypatch.setattr(rep, "_hom_space_compute", counting_compute)
    monkeypatch.setattr(relative, "_minimal_approximating_subset", counting_subset)
    path = generated("nakayama(4,4) P+S", tmp_path)
    assert run("bounds", "theorem73", path) == 0
    assert run("bounds", "gorenstein", path) == 0
    assert solved and not any(solved)
    assert greedy and not any(greedy)


def test_module_keeps_from_top_columns_and_tests_blocks_at_their_vertex(monkeypatch, tmp_path):
    """`module` on Nakayama (6,5) P+S hands the greedy pass no map out of a
    stored P_v but e_v -> e_j for a top column (v, j) of its target, and no
    map into a stored I_v but a functional e_j^T for a socle row (v, j) of
    its source, and the pass builds no Hom(P_v, -) or Hom(-, I_v) basis."""
    kept, strays, vertex_homs, inside = [], [], [], []
    subset, hom = relative._minimal_approximating_subset, relative.hom_space

    def counting_subset(x, blocks, pieces, summands, left):
        kind = "injective" if left else "projective"
        gens = socle_rows(x) if left else top_columns(x)
        for u in maps_of([summands[k].module for k in pieces], blocks, x, left):
            v = x.algebra.vertex_modules.get((kind, u.target if left else u.source))
            if v is not None:  # the trivial path e_v comes first at v
                at_e_v = u.mats[v - 1].row(0) if left else u.mats[v - 1].col(0)
                units = [[int(i == j) for i in range(x.dims[v - 1])] for w, j in gens if w == v - 1]
                (kept if at_e_v in units else strays).append(left)
        inside.append(kind)
        try:
            return subset(x, blocks, pieces, summands, left)
        finally:
            inside.pop()

    def counting_hom(m, n):
        if inside and stored(n if inside[-1] == "injective" else m, inside[-1]):
            vertex_homs.append((m, n))
        return hom(m, n)

    monkeypatch.setattr(relative, "_minimal_approximating_subset", counting_subset)
    monkeypatch.setattr(relative, "hom_space", counting_hom)
    assert run("module", generated("nakayama(6,5) P+S", tmp_path)) == 0
    assert set(kept) == {False, True}  # both sides ran with the stored P_v and I_v
    assert not vertex_homs
    assert not strays


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
        fold = glue([ModuleMap.identity(m)] * 2, m)
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
