"""Representations are canonical per algebra: one object per content (dims
and arrow-matrix entries), validated against the relations once, with the
hom-space and approximation caches on it serving every construction."""

import collections
import contextlib
import io
import json
import sys

import pytest

from helpers import a2_algebra, cycle3_selfinjective, dual, nakayama_problem, opposite

from relhomalg import relative, rep
from relhomalg.cli import main
from relhomalg.fields import PrimeField
from relhomalg.matrix import Matrix
from relhomalg.relative import left_approximation, right_approximation
from relhomalg.rep import (
    ModuleMap,
    Representation,
    cokernel,
    direct_sum,
    injective,
    kernel,
    projective,
    simple,
    socle,
)


@pytest.fixture
def check_calls(monkeypatch):
    """Counts `_check_relations` runs per (algebra, content)."""
    calls = collections.Counter()
    original = Representation._check_relations

    def counting(self):
        calls[(self.algebra, self.dims, tuple(tuple(m.entries) for m in self.mats))] += 1
        return original(self)

    monkeypatch.setattr(Representation, "_check_relations", counting)
    return calls


def _ones(algebra, dims):
    """The representation with every arrow acting by the all-ones matrix."""
    F = algebra.field
    mats = [Matrix(F, dims[a.target - 1], dims[a.source - 1],
                   [F.one] * (dims[a.target - 1] * dims[a.source - 1]))
            for a in algebra.quiver.arrows]
    return dims, mats


def test_repeated_constructions_return_one_object():
    alg = cycle3_selfinjective()
    p1, s1, s2 = projective(alg, 1), simple(alg, 1), simple(alg, 2)
    _, incl = socle(p1)
    assert cokernel(incl)[0] is cokernel(incl)[0]
    assert kernel(incl)[0] is kernel(incl)[0]
    assert direct_sum([s1, s2]) is direct_sum([s1, s2])
    # different constructions of one content meet in the same object
    zero = ModuleMap.zero(s1, s1)
    assert kernel(zero)[0] is s1
    assert cokernel(zero)[0] is s1
    assert direct_sum([s1]) is s1


def test_equal_content_over_other_algebras_is_a_different_object():
    alg = a2_algebra()
    dims, mats = _ones(alg, (1, 1))
    m = Representation(alg, dims, mats)
    assert Representation(alg, dims, mats) is m
    again = a2_algebra()
    assert Representation(again, *_ones(again, (1, 1))) is not m
    mod5 = a2_algebra(PrimeField(5))
    over_p = Representation(mod5, *_ones(mod5, (1, 1)))
    assert over_p is not m and over_p.algebra.field != m.algebra.field
    op = opposite(alg)
    over_op = Representation(op, *_ones(op, (1, 1)))
    assert over_op is not m and over_op.algebra is op


def test_unchecked_content_is_validated_when_a_checked_construction_asks(check_calls):
    alg = cycle3_selfinjective()
    dims, mats = _ones(alg, (1, 1, 0))  # a acts by 1; no relation is violated
    m = Representation(alg, dims, mats, check=False)
    assert sum(check_calls.values()) == 0
    assert Representation(alg, dims, mats) is m
    assert Representation(alg, dims, mats) is m
    assert sum(check_calls.values()) == 1


def test_relation_violating_content_still_raises(check_calls):
    alg = cycle3_selfinjective()
    dims, mats = _ones(alg, (1, 1, 1))  # abc acts by 1, but abc = 0 in the algebra
    with pytest.raises(ValueError, match="relation not satisfied"):
        Representation(alg, dims, mats)
    bad = Representation(alg, dims, mats, check=False)
    assert Representation(alg, dims, mats, check=False) is bad
    for _ in range(2):
        with pytest.raises(ValueError, match="relation not satisfied"):
            Representation(alg, dims, mats)
    assert sum(check_calls.values()) == 3


def test_projectives_and_duals_of_checked_modules_are_checked_by_construction(check_calls):
    alg = cycle3_selfinjective()
    for v in (1, 2, 3):
        assert projective(alg, v)._checked and injective(alg, v)._checked
    assert sum(check_calls.values()) == 0
    assert dual(simple(alg, 1))._checked  # the dual of an unchecked module is checked
    assert sum(check_calls.values()) == 1


def test_projectives_and_injectives_are_built_once_per_algebra(monkeypatch):
    builds = collections.Counter()
    original = rep._build_vertex_module

    def counting(algebra, i, into):
        builds[(algebra, i, into)] += 1
        return original(algebra, i, into)

    monkeypatch.setattr(rep, "_build_vertex_module", counting)
    alg = cycle3_selfinjective()
    for _ in range(3):
        for v in (1, 2, 3):
            projective(alg, v)
            injective(alg, v)
    # one P_v and one I_v per vertex, both over the algebra itself
    assert builds == {(alg, v, into): 1 for v in (1, 2, 3) for into in (False, True)}
    assert injective(alg, 2) is injective(alg, 2)


def test_module_run_computes_each_hom_and_validation_once(tmp_path, monkeypatch, check_calls):
    homs = collections.Counter()
    original = rep._hom_space_compute

    def counting(m, n):
        homs[(m, n)] += 1
        return original(m, n)

    monkeypatch.setattr(rep, "_hom_space_compute", counting)
    path = tmp_path / "nakayama.json"
    path.write_text(json.dumps(nakayama_problem(4, 3)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["module", str(path)]) == 0
    assert homs and max(homs.values()) == 1
    # every module of the run comes from the projectives and injectives,
    # which are checked by construction, so no relation check runs
    assert not check_calls


def test_approximations_are_stored_on_the_module(L7, L7_modules, F7):
    m1 = L7_modules["M1"]
    app = right_approximation(m1, F7)
    assert right_approximation(m1, F7) is app
    # the same content built again is the same module, with the same approximation
    _, incl = socle(projective(L7, 1))
    assert right_approximation(cokernel(incl)[0], F7) is app
    targets = F7.summands[:3]
    assert left_approximation(m1, targets, L7) is left_approximation(m1, targets, L7)


def test_coresolution_steps_run_once_per_module(tmp_path, monkeypatch):
    # id_F walks each module's coresolution; a step (left approximation,
    # cokernel and F-exactness test) is stored on the module it starts from,
    # so coresolutions that meet share the rest of their steps
    cokernels, exactness = [], []
    real_cokernel, real_exact = relative.cokernel, relative.hom_g_exact

    def counted_cokernel(u):
        # only the cokernels of coresolution steps
        if sys._getframe(1).f_code.co_qualname == "coresolution_step.<locals>.step":
            cokernels.append(u.source)
        return real_cokernel(u)

    def counted_exact(f, a, middle, c):
        exactness.append(a)
        return real_exact(f, a, middle, c)

    monkeypatch.setattr(relative, "cokernel", counted_cokernel)
    monkeypatch.setattr(relative, "hom_g_exact", counted_exact)
    path = tmp_path / "nakayama.json"
    path.write_text(json.dumps(nakayama_problem(4, 3)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["module", str(path)]) == 0
    assert cokernels and len(set(cokernels)) == len(cokernels)
    assert exactness == cokernels  # one count per step, on the module it starts from
