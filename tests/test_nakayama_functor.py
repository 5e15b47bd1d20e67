"""DTr over Λ itself, as the kernel of the Nakayama functor applied to the
minimal presentation, and the injectives built from the paths into their
vertex: no command builds an opposite algebra, and the translates of the
uniserials of a cyclic Nakayama algebra are the ones theory gives."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from helpers import nakayama_problem

from relhomalg import quiver
from relhomalg.cli import main
from relhomalg.fields import QQ, PrimeField
from relhomalg.relative import dtr
from relhomalg.rep import projective, proven_isomorphic
from relhomalg.schema import parse_problem

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"
FIELDS = [QQ, PrimeField(32003)]


@pytest.mark.parametrize("argv, built", [
    (["module", "nakayama65ps"], 1),
    (["relhom", "ifset", DATA / "section7.json"], 1),
    (["bounds", "gorenstein", DATA / "section7.json"], 2),  # Λ and Γ's presentation
], ids=["module-nakayama(6,5)", "ifset-section7", "gorenstein-section7"])
def test_each_command_builds_no_opposite_algebra(argv, built, tmp_path, monkeypatch):
    path = tmp_path / "nakayama65ps.json"
    path.write_text(json.dumps(nakayama_problem(6, 5)))
    calls = []
    init = quiver.PathAlgebra.__init__

    def counted(self, *args, **kwargs):
        calls.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(quiver.PathAlgebra, "__init__", counted)
    argv = [str(path) if a == "nakayama65ps" else str(a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--quiet", *argv]) == 0
    assert len(calls) == built


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_translates_of_the_uniserials_of_a_cyclic_nakayama_algebra(F):
    # over the n-cycle with the paths of length L zero, U(i, k) = P_i/rad^k P_i
    # has τU(i, k) ≅ U(i+1, k) for k < L (Assem-Simson-Skowroński I, §V),
    # and U(i, L) = P_i has τ P_i = 0
    n, length = 6, 5
    problem = parse_problem(json.dumps(nakayama_problem(n, length)), F)
    modules, alg = problem.modules, problem.algebra
    checked = 0
    for i in range(1, n + 1):
        assert dtr(projective(alg, i)).is_zero()
        checked += 1
        for k in range(1, length):
            tau = dtr(modules[f"U{i}_{k}"])
            assert proven_isomorphic(tau, modules[f"U{i % n + 1}_{k}"]), (i, k)
            checked += 1
    assert checked == 30
