"""Golden CLI outputs that pin which copies the minimal approximations keep.

`<problem>.resolve.<module>.txt` is the stdout of `relhom resolve --module`,
which lists the add(G) pieces chosen in each degree; `<problem>.module.json`
is the `module --report` payload without its `file` key, whose pd_F and id_F
values cover the right and the left approximations.  Each fixture is the
output of the code before the approximation routines were merged.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from relhomalg.cli import main

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"
GOLDEN = Path(__file__).parent / "golden"


def _render(fixture: str, tmp_path) -> str:
    problem, kind, rest = fixture.split(".", 2)
    path = DATA / f"{problem}.json"
    out = io.StringIO()
    if kind == "resolve":
        with contextlib.redirect_stdout(out):
            assert main(["relhom", "resolve", str(path), "--module", rest[:-len(".txt")]]) == 0
        return out.getvalue()
    report = tmp_path / "report.json"
    with contextlib.redirect_stdout(out):
        assert main(["--report", str(report), "module", str(path)]) == 0
    payload = json.loads(report.read_text())
    del payload["file"]
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("fixture", sorted(p.name for p in GOLDEN.iterdir()))
def test_golden_output(fixture, tmp_path):
    assert _render(fixture, tmp_path) == (GOLDEN / fixture).read_text()
