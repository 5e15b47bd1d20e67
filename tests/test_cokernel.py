"""Cokernels read off one elimination.

`rep.cokernel` reads the projection onto target/im(f) at each vertex off
rref([f_v | I]): the rows of the I-block below rank f_v, with the pivots of
the I-block as the section.  These tests compare it with the inverse of
the image basis completed by identity columns (`helpers.inverse_cokernel`)
on every cokernel that real commands take and on the cokernel of every
basis map between declared modules, over Q and F_32003, and count that it
runs no solve.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from relhomalg import matrix, relative, rep, schema
from relhomalg.cli import main
from relhomalg.fields import QQ, PrimeField
from relhomalg.rep import ModuleMap, cokernel, hom_space
from relhomalg.schema import load_problem

from helpers import inverse_cokernel, nakayama_problem

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"
BUNDLED = ["section6", "section6_symmetric", "section7", "a2_apr"]
GENERATED = {"nakayama(4,4) P+S": (4, 4, False), "nakayama(3,3) all": (3, 3, True),
             "nakayama(6,5) P+S": (6, 5, False)}


def assert_same(f):
    quot, proj = cokernel(f)
    ref_quot, ref_proj = inverse_cokernel(f)
    assert quot is ref_quot
    assert [a.entries for a in proj.mats] == [a.entries for a in ref_proj.mats]
    return quot, proj


@pytest.fixture
def compared(monkeypatch):
    """Runs every cokernel that the program takes through `assert_same`;
    returns the list of their maps."""
    seen = []

    def both(f):
        seen.append(f)
        return assert_same(f)

    for module in (relative, schema):
        monkeypatch.setattr(module, "cokernel", both)
    return seen


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["--quiet", *argv])


@pytest.mark.parametrize("field", ["q", "fp:32003"])
@pytest.mark.parametrize("name", BUNDLED + list(GENERATED))
def test_command_cokernels_match_the_inverse(compared, name, field, tmp_path):
    if name in GENERATED:
        n, length, every = GENERATED[name]
        path = tmp_path / "nakayama.json"
        path.write_text(json.dumps(nakayama_problem(n, length, every_indecomposable=every)))
    else:
        path = DATA / f"{name}.json"
    for argv in (["module"], ["bounds", "gorenstein"]):
        run("--field", field, *argv, str(path))  # section6_symmetric reports a violation (exit 2)
    assert compared


def maps_between_declared_modules(field):
    out = []
    for name in BUNDLED:
        mods = list(load_problem(str(DATA / f"{name}.json"), field_override=field).modules.values())
        for m in mods:
            for n in mods:
                basis = hom_space(m, n)
                out += list(basis) + [ModuleMap.combination(m, n, [1] * len(basis), basis)]
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)])
def test_cokernels_of_basis_maps_match_the_inverse_and_solve_nothing(monkeypatch, field):
    maps = maps_between_declared_modules(field)
    calls = []
    for module in (matrix, rep):
        for name in ("inverse", "solve"):
            if hasattr(module, name):
                def counting(*args, _run=getattr(module, name), _name=name):
                    calls.append(_name)
                    return _run(*args)
                monkeypatch.setattr(module, name, counting)
    for f in maps:
        quot, proj = cokernel(f)
        assert quot.dims == tuple(t - r for t, r in zip(f.target.dims, map(matrix.rank, f.mats)))
    assert maps and not calls
    monkeypatch.undo()
    for f in maps:
        assert_same(f)
