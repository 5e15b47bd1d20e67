"""Golden CLI outputs that pin the approximations and the total Hom complex.

`<problem>.resolve.<module>.txt` is the stdout of `relhom resolve --module`,
which lists the add(G) pieces chosen in each degree; `<problem>.module.json`
is the `module --report` payload, whose pd_F and id_F values cover the right
and the left approximations.  Each of these is the output of the code before
the approximation routines were merged.

`<problem>.tilting.txt` and `<problem>.tilting.json` are the stdout and the
report of `tilting --sigma`; `<problem>.homk.<X>.json` is the report of
`complex homk --complex X --to T` and `<problem>.acyclic.<X>.json` the report
of `complex acyclic --complex X`.  They pin hom_K windows, End(T), the image
over Sigma = End(G) and F-acyclicity, and are the output of the code before
the three total-Hom-complex builders were merged into one.

`<problem>.<check>.json` holds the exit code, stdout, stderr and report of
`bounds <check>` (theorem73, cor710, counts, gorenstein) or `relhom <check>`
(gldim, ifset); the report is null when the command exits before writing
one.  They pin every relative dimension that is read off an F-resolution,
and are the output of the code before each module was resolved only once
per command.

`<problem>.exact.<module>.json` holds the exit code, stdout, stderr and
report of `relhom exact --module`, for every declared module.  They pin the
projective cover sequence and its F-exactness, and are the output of the
code before projective covers became minimal add(Λ)-approximations.

Reports are compared without their `file` key, which holds a local path.
"""

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import pytest

from relhomalg.cli import main

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"
GOLDEN = Path(__file__).parent / "golden"


BOUNDS = ("theorem73", "cor710", "counts", "gorenstein")
RELHOM = ("gldim", "ifset")


@functools.lru_cache(maxsize=None)
def _call(*args: str) -> tuple[int, str, str, dict | None]:
    """Exit code, stdout, stderr and `--report` payload (without `file`,
    None if no report was written) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--report", str(report), *args])
        payload = json.loads(report.read_text()) if report.exists() else None
    if payload is not None:
        assert payload["exit"] == code
        del payload["file"]
    return code, out.getvalue(), err.getvalue(), payload


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _run(*args: str) -> tuple[str, str]:
    """stdout and the `--report` payload of one CLI call that writes one."""
    _, stdout, _, payload = _call(*args)
    assert payload is not None
    return stdout, _dump(payload)


def _dump_call(*args: str) -> str:
    code, stdout, stderr, payload = _call(*args)
    return _dump({"exit": code, "stdout": stdout, "stderr": stderr, "report": payload})


def _render(fixture: str) -> str:
    problem, kind, rest = fixture.split(".", 2)
    path = str(DATA / f"{problem}.json")
    name = rest.rsplit(".", 1)[0]
    if kind == "resolve":
        stdout, report = _run("relhom", "resolve", path, "--module", name)
        assert json.loads(report)["exit"] == 0
        return stdout
    if kind == "module":
        return _run("module", path)[1]
    if kind == "tilting":
        stdout, report = _run("tilting", path, "--sigma")
        return stdout if rest == "txt" else report
    if kind == "homk":
        return _run("complex", "homk", path, "--complex", name, "--to", "T")[1]
    if kind == "acyclic":
        return _run("complex", "acyclic", path, "--complex", name)[1]
    if kind in BOUNDS or kind in RELHOM:
        return _dump_call("bounds" if kind in BOUNDS else "relhom", kind, path)
    if kind == "exact":
        return _dump_call("relhom", "exact", path, "--module", name)
    raise AssertionError(f"unknown fixture kind {kind!r}")


@pytest.mark.parametrize("fixture", sorted(p.name for p in GOLDEN.iterdir()))
def test_golden_output(fixture):
    assert _render(fixture) == (GOLDEN / fixture).read_text()
