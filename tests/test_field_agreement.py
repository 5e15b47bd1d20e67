"""Q and F_32003 agree on every End(T) check, every relative-dimension
command and every per-module and per-complex command of the bundled
problems: the radical of Gamma comes from residue maps, which work in every
characteristic, add(G)-approximations, F-resolutions and total Hom
complexes are rank computations whose ranks do not drop mod 32003 on these
inputs, and the bundled answers are the same over both fields."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from relhomalg.cli import main

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"
PROBLEMS = sorted(p.name for p in DATA.glob("*.json"))
COMMANDS = [("bounds", "theorem73"), ("bounds", "cor710"), ("bounds", "counts"),
            ("bounds", "gorenstein"), ("tilting", "--sigma"),
            ("module",), ("relhom", "gldim"), ("relhom", "ifset")]


def _declared(key: str) -> list[tuple[str, str]]:
    """(problem, name) for every module or complex a bundled problem declares."""
    return [(problem, name) for problem in PROBLEMS
            for name in json.loads((DATA / problem).read_text()).get(key, {})]


MODULES = _declared("modules")
COMPLEXES = _declared("complexes")


def _call(*args: str) -> tuple[int, str, str, dict | None]:
    """Exit code, stdout, stderr and `--report` payload (without `file`, None
    when the command exits before writing one) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--report", str(report), *args])
        payload = json.loads(report.read_text()) if report.exists() else None
    if payload is not None:
        del payload["file"]
    return code, out.getvalue(), err.getvalue(), payload


def _agree(*args: str):
    over_q = _call("--field", "q", *args)
    over_p = _call("--field", "fp:32003", *args)
    assert over_p == over_q


def test_bundled_problems_are_all_covered():
    assert len(PROBLEMS) == 4


@pytest.mark.parametrize("command", COMMANDS, ids=["-".join(c) for c in COMMANDS])
@pytest.mark.parametrize("problem", PROBLEMS)
def test_q_and_fp_agree(problem, command):
    _agree(*command, str(DATA / problem))


@pytest.mark.parametrize("sub", ["resolve", "exact"])
@pytest.mark.parametrize("problem, module", MODULES, ids=["/".join(m) for m in MODULES])
def test_q_and_fp_agree_per_module(problem, module, sub):
    _agree("relhom", sub, str(DATA / problem), "--module", module)


@pytest.mark.parametrize("sub", [("termlength",), ("acyclic",), ("cone",), ("homk", "--to", "T")],
                         ids=["termlength", "acyclic", "cone", "homk"])
@pytest.mark.parametrize("problem, name", COMPLEXES, ids=["/".join(c) for c in COMPLEXES])
def test_q_and_fp_agree_per_complex(problem, name, sub):
    _agree("complex", sub[0], str(DATA / problem), "--complex", name, *sub[1:])

