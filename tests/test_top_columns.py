"""Approximations read at top generators.

`relative._minimal_approximating_subset` compares ranks of composites
evaluated at the top columns of a module (`rep.top_columns`), with no
composite map and no coordinate solve.  These tests check it against the
coordinate-based routine it replaced (`helpers.coordinate_approximating_subset`)
on every approximation that real commands build, and that routine against the
count of `relative.hom_g_exact` on every F-exactness test they make, over Q
and over F_32003, and pin the stored per-object results it reads.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from relhomalg import relative
from relhomalg.cli import main
from relhomalg.fields import QQ, PrimeField
from relhomalg.matrix import rank
from relhomalg.rep import (
    direct_sum,
    injective,
    projective,
    radical,
    radical_power_sub,
    simple,
    socle,
    socle_rows,
    top_columns,
)
from relhomalg.relative import SummandDecl, left_approximation
from relhomalg.schema import load_problem

from helpers import (coordinate_approximating_subset, counted_map, cycle3_selfinjective, maps_of,
                     nakayama_problem)

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"
BUNDLED = ["section6", "section6_symmetric", "section7", "a2_apr"]
FIELDS = ["q", "fp:32003"]


@pytest.fixture
def checked(monkeypatch):
    """Runs every approximation and F-exactness test through the routine
    under test and through the coordinate reference, and collects both
    answers; returns the list of (what, new, reference)."""
    seen = []
    subset = relative._minimal_approximating_subset
    count = relative.hom_g_exact

    def subset_both(x, blocks, pieces, summands, left):
        new = subset(x, blocks, pieces, summands, left)
        maps = maps_of([summands[k].module for k in pieces], blocks, x, left)
        seen.append(("keep", new, coordinate_approximating_subset(x, maps, summands, left)))
        return new

    def count_both(f, a, middle, c):
        new = count(f, a, middle, c)
        g_map = counted_map(sys._getframe(1))
        ref = coordinate_approximating_subset(c, [g_map], f.summands, False) is not None
        seen.append(("hom_g_exact", new, ref))
        return new

    monkeypatch.setattr(relative, "_minimal_approximating_subset", subset_both)
    monkeypatch.setattr(relative, "hom_g_exact", count_both)
    return seen


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["--quiet", *argv])


def assert_agree(seen):
    assert seen
    for what, new, ref in seen:
        assert new == ref, what


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_approximations_match_coordinates(checked, name, field):
    path = str(DATA / f"{name}.json")
    for argv in (["module", path], ["bounds", "theorem73", path], ["bounds", "gorenstein", path]):
        run("--field", field, *argv)
    for module in load_problem(path).modules:
        run("--field", field, "relhom", "exact", "--module", module, path)
    assert_agree(checked)
    kinds = {what for what, _, _ in checked}
    # with G the projectives (a2_apr) every approximation is a projective
    # cover or injective envelope, so the routine runs only when G has
    # another summand
    assert kinds == ({"hom_g_exact"} if name == "a2_apr" else {"keep", "hom_g_exact"})


@pytest.mark.parametrize("field", FIELDS)
def test_nakayama_4_3_approximations_match_coordinates(checked, field, tmp_path):
    path = tmp_path / "nakayama43.json"
    path.write_text(json.dumps(nakayama_problem(4, 3)))
    assert run("--field", field, "module", str(path)) == 0
    assert run("--field", field, "relhom", "gldim", str(path)) == 0
    assert_agree(checked)
    assert any(what == "hom_g_exact" for what, _, _ in checked)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)])
def test_two_top_columns_on_both_sides(checked, field):
    """A generator summand with two top columns drives the right side, and a
    module with two top columns is the source of the left side (every
    summand and module of the bundled problems has a simple top)."""
    alg = cycle3_selfinjective(field)
    two = direct_sum([simple(alg, 1), simple(alg, 2)])
    assert len(top_columns(two)) == 2
    summands = [SummandDecl(f"P{v}", projective(alg, v)) for v in (1, 2, 3)]
    summands.append(SummandDecl("S1+S2", two))
    f = relative.SubbifunctorF(alg, summands)
    for m in [simple(alg, 3), two, radical(projective(alg, 1))[0],
              direct_sum([simple(alg, 1), simple(alg, 3)])]:
        relative.f_resolution(m, f, 4)
    injectives = [SummandDecl(f"I{v}", injective(alg, v)) for v in (1, 2, 3)]
    x = direct_sum([simple(alg, 2), radical(projective(alg, 3))[0]])
    assert len(top_columns(x)) == 2
    app = left_approximation(x, injectives, alg)
    relative.coresolution_step(x, f, injectives)
    assert app.map.is_injective()
    assert_agree(checked)


@pytest.mark.parametrize("name", BUNDLED)
def test_top_columns_complement_the_radical(name):
    for m in load_problem(str(DATA / f"{name}.json")).modules.values():
        top = top_columns(m)
        rad = radical(m)[0]
        assert [sum(1 for v, _ in top if v == w) for w in range(len(m.dims))] == \
            [d - r for d, r in zip(m.dims, rad.dims)]
        assert top_columns(m) is top


@pytest.mark.parametrize("name", BUNDLED)
def test_socle_rows_restrict_to_a_basis_of_the_dual_socle(name):
    for m in load_problem(str(DATA / f"{name}.json")).modules.values():
        rows = socle_rows(m)
        soc, incl = socle(m)
        assert [sum(1 for v, _ in rows if v == w) for w in range(len(m.dims))] == list(soc.dims)
        for w, basis in enumerate(incl.mats):  # the functionals, restricted to (soc m)_w
            picked = basis.submatrix([j for v, j in rows if v == w], range(basis.cols))
            assert rank(picked) == basis.cols


def test_radical_and_left_multiplication_are_built_once():
    alg = cycle3_selfinjective()
    p = projective(alg, 1)
    assert radical(p) is radical(p)
    sub, _ = radical_power_sub(p, 2)
    assert sub is radical(radical(p)[0])[0]
