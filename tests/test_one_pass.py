"""Minimal approximations built in one pass.

`relative._candidates` hands on the maps an approximation is kept from as
vertex blocks, `relative._minimal_approximating_subset` keeps one echelon
per summand row, and `rep.stack_maps` glues the kept blocks over the direct
sum that the algebra stores once per tuple of parts (`rep.direct_sum`).
These tests check every approximation that `module` builds against the
greedy pass over coordinates (`helpers.full_basis_approximation`), and
count, on the benchmark's `relative` input, the direct sums built, the
vectors the greedy pass reduces, the empty products of `rep.cokernel` and
the identity matrices built.
"""

import collections
import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from relhomalg import relative, rep
from relhomalg.cli import main
from relhomalg.fields import PrimeField
from relhomalg.matrix import Matrix
from relhomalg.rep import cokernel, direct_sum, is_isomorphic, kernel, simple
from relhomalg.schema import load_problem

from helpers import cycle3_selfinjective, full_basis_approximation, maps_of, nakayama_problem

ROOT = Path(__file__).parent.parent
DATA = ROOT / "src" / "relhomalg" / "data"
FIELDS = ["q", "fp:32003"]


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["--quiet", *map(str, argv)])


def relative_workload_input(tmp_path):
    """Nakayama (6,5) with G = the projectives and the simples, as the
    benchmark's `relative` workload generates it with seed 3 (the
    declaration order decides the counts below)."""
    spec = importlib.util.spec_from_file_location("nakayama", ROOT / "perfbench" / "nakayama.py")
    nakayama = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(nakayama)
    path = tmp_path / "relative.json"
    path.write_text(json.dumps(nakayama.problem(6, 5, nakayama.projectives_and_simples(6, 5, False), 3,
                                                tilting=False)))
    return path


def problem_path(name, tmp_path):
    if name == "section7":
        return DATA / "section7.json"
    path = tmp_path / "nakayama65.json"
    path.write_text(json.dumps(nakayama_problem(6, 5)))
    return path


def blocks(f):
    return [(a.rows, a.cols, a.entries) for a in f.mats]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", ["nakayama(6,5) P+S", "section7"])
def test_each_build_keeps_the_pieces_and_map_of_the_coordinate_pass(monkeypatch, tmp_path, name, field):
    """The greedy pass over coordinates, run on the same candidates, keeps
    the same pieces and glues the same map; over the whole Hom bases it
    keeps the same copies of each summand, with an isomorphic kernel (left:
    cokernel)."""
    handed, seen = {}, collections.Counter()
    candidates, build = relative._candidates, relative._build_approximation

    def recording(x, summands, algebra, left):
        handed[(x, left)] = out = candidates(x, summands, algebra, left)
        return out

    def compared(x, summands, algebra, left):
        out = build(x, summands, algebra, left)
        if (x, left) not in handed:  # zero, or one of the summands
            return out
        cands, pieces, _ = handed.pop((x, left))
        maps = maps_of([summands[k].module for k in pieces], cands, x, left)
        ref_pieces, ref = full_basis_approximation(x, summands, left, maps, pieces)
        whole_pieces, whole = full_basis_approximation(x, summands, left)
        if out.is_identity:
            assert ref.is_isomorphism() and whole.is_isomorphism()
        else:
            assert out.pieces == ref_pieces
            assert (out.map.source, out.map.target, blocks(out.map)) == (ref.source, ref.target, blocks(ref))
            assert sorted(out.pieces) == sorted(whole_pieces)
            end = cokernel if left else kernel
            assert is_isomorphic(end(out.map)[0], end(whole)[0]).isomorphic is True
        seen["left" if left else "right"] += 1
        return out

    monkeypatch.setattr(relative, "_candidates", recording)
    monkeypatch.setattr(relative, "_build_approximation", compared)
    assert run("--field", field, "module", problem_path(name, tmp_path)) == 0
    assert seen["left"] and seen["right"], seen


def test_a_direct_sum_of_the_same_parts_is_built_once_per_algebra(monkeypatch):
    built = []
    block_diag = rep.block_diag

    def counted(field, mats):
        built.append(field)
        return block_diag(field, mats)

    monkeypatch.setattr(rep, "block_diag", counted)
    for field in (None, PrimeField(32003)):
        alg = cycle3_selfinjective() if field is None else cycle3_selfinjective(field)
        parts = [simple(alg, 1), simple(alg, 2), simple(alg, 1)]
        total = direct_sum(parts)
        assert len(built) == len(alg.quiver.arrows)  # one block_diag per arrow, once
        assert direct_sum(list(parts), alg) is total and direct_sum(parts[:2] + parts[:1]) is total
        assert len(built) == len(alg.quiver.arrows)
        assert direct_sum(parts[:2]) is not total  # other parts, another sum
        assert len(built) == 2 * len(alg.quiver.arrows)
        built.clear()


def test_module_builds_each_direct_sum_once(monkeypatch, tmp_path):
    """On the `relative` input, `module` asks for 61 direct sums over Q and
    builds the 35 that differ (before they were stored, it built all 61)."""
    asked, built = [], [0]
    direct_sum_, block_diag = rep.direct_sum, rep.block_diag

    def asking(parts, algebra=None):
        asked.append((algebra or parts[0].algebra, tuple(parts)))
        return direct_sum_(parts, algebra)

    def building(field, mats):
        built[0] += 1
        return block_diag(field, mats)

    monkeypatch.setattr(rep, "direct_sum", asking)
    monkeypatch.setattr(relative, "direct_sum", asking)
    monkeypatch.setattr(rep, "block_diag", building)
    assert run("module", relative_workload_input(tmp_path)) == 0
    arrows = len(asked[0][0].quiver.arrows)
    assert (len(asked), len(set(asked)), built[0]) == (61, 35, 35 * arrows)


def test_the_greedy_pass_reduces_vectors_not_matrices(monkeypatch, tmp_path):
    """One `module` command over Q on the `relative` input runs the greedy
    pass 43 times; it reduced 290 freshly built matrices with `rank` when
    every trial eliminated the whole stacked block, and now reduces 283
    single vectors against its echelons, with no rank or rref."""
    counts = collections.Counter()
    subset, add = relative._minimal_approximating_subset, relative._echelon_add
    inside = []

    def counting_subset(*args):
        counts["calls"] += 1
        inside.append(1)
        try:
            return subset(*args)
        finally:
            inside.pop()

    def counting_add(F, echelon, vecs):
        counts["vectors"] += len(vecs)
        return add(F, echelon, vecs)

    def elimination(name, real):
        def counted(m):
            counts[name] += bool(inside)
            return real(m)
        return counted

    monkeypatch.setattr(relative, "_minimal_approximating_subset", counting_subset)
    monkeypatch.setattr(relative, "_echelon_add", counting_add)
    for name in ("rank", "rref"):
        if hasattr(relative, name):
            monkeypatch.setattr(relative, name, elimination(name, getattr(relative, name)))
    assert run("--field", "q", "module", relative_workload_input(tmp_path)) == 0
    assert counts == {"calls": 43, "vectors": 283}, counts


def test_cokernels_multiply_no_empty_block(monkeypatch, tmp_path):
    """`module` on the `relative` input, over a fresh F_32003: no arrow
    block of a quotient that is zero at an end of the arrow, and no
    projection check where f_v is onto, is multiplied (there were 216 and
    120 such products)."""
    empty, inside = [], []
    mul, cokernel_ = Matrix.__mul__, rep.cokernel

    def counting_mul(self, other):
        if inside:
            empty.append(not (self.entries and other.entries))
        return mul(self, other)

    def within(f):
        inside.append(1)
        try:
            return cokernel_(f)
        finally:
            inside.pop()

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    monkeypatch.setattr(relative, "cokernel", within)
    prob = load_problem(str(relative_workload_input(tmp_path)), field_override=PrimeField(32003))
    injs, _, _ = relative.relative_injectives(prob.subbifunctor, [m for _, m in prob.corpus()])
    for m in prob.modules.values():
        relative.id_f(m, prob.subbifunctor, injs, prob.cutoff)
    assert empty and not any(empty)


def test_module_builds_each_identity_once(monkeypatch, tmp_path):
    """`module` on the `relative` input over Q: `Matrix.identity` hands out
    one stored matrix per field and size, so it builds at most one identity
    of each size, where `rep.cokernel` built 270 at every vertex before."""
    built, calls = collections.Counter(), []
    init, identity = Matrix.__init__, Matrix.identity

    def counting_init(self, field, rows, cols, entries):
        if sys._getframe(1).f_code is identity.__code__:
            built[rows] += 1
        init(self, field, rows, cols, entries)

    def counting_identity(field, n):
        calls.append(n)
        return identity(field, n)

    monkeypatch.setattr(Matrix, "__init__", counting_init)
    monkeypatch.setattr(Matrix, "identity", staticmethod(counting_identity))
    assert run("--field", "q", "module", relative_workload_input(tmp_path)) == 0
    assert calls and all(k == 1 for k in built.values()), built
