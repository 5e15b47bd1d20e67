"""Path algebras kQ/(I + J^N) built by linear algebra: the normal words and
every product of each algebra and of its opposite (`helpers.opposite`)
agree with the rewriting construction (`helpers.RewrittenAlgebra`) where
rewriting is right, over Q and F_32003; a relation with terms of two
lengths gets the right algebra; and the count of paths bounds what a
problem file may ask for."""

import json
import time
from pathlib import Path

import pytest
from helpers import (
    RewrittenAlgebra,
    a2_algebra,
    cycle3_selfinjective,
    cycle3_verbatim,
    loop_dual_numbers,
    nakayama_problem,
    opposite,
    rewritten_opposite,
)

from relhomalg.cli import main
from relhomalg.fields import QQ, PrimeField
from relhomalg.quiver import PathAlgebra, Quiver
from relhomalg.rep import projective
from relhomalg.schema import load_problem, parse_problem

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"
FIELDS = [QQ, PrimeField(32003)]

# relation sets whose terms have one length each, where rewriting that drops
# the words of length >= N loses nothing
LAMBDAS = [(name, lambda F, name=name: load_problem(str(DATA / f"{name}.json"), F).algebra)
           for name in ["section7", "section6", "a2_apr", "section6_symmetric"]]
LAMBDAS += [(build.__name__, build)
            for build in (cycle3_selfinjective, cycle3_verbatim, a2_algebra, loop_dual_numbers)]
LAMBDAS += [(f"nakayama({n},{length})",
             lambda F, n=n, length=length: parse_problem(json.dumps(nakayama_problem(n, length)),
                                                         F).algebra)
            for n, length in [(3, 3), (4, 4), (6, 5)]]
CASES = [(label, build, F) for label, build in LAMBDAS for F in FIELDS]


@pytest.mark.parametrize("label, build, F", CASES, ids=[f"{c[0]}-{c[2]!r}" for c in CASES])
def test_words_and_products_match_the_rewriting_construction(label, build, F):
    alg = build(F)
    ref = RewrittenAlgebra(F, alg.quiver, alg.relations, alg.N)
    for ours, theirs in ((alg, ref), (opposite(alg), rewritten_opposite(alg))):
        assert ours.basis == theirs.basis
        for i in range(ours.dim):
            for j in range(ours.dim):
                assert ours.mul_basis(i, j) == theirs.mul_basis(i, j), (i, j)
    assert opposite(opposite(alg)) is alg


def mixed_lengths(field=None):
    """One vertex, loops x and y, xy = yx and xx = yyy, J^5 = 0: x²y² = y⁵
    lies in J^5, so this is k[x, y]/(x² - y³, m^5) with basis 1, x, y, xx,
    xy, yy, xxx, xxy, xyy."""
    return {
        "schema": "relhomalg/1",
        "quiver": {"vertices": 1, "arrows": [["x", 1, 1], ["y", 1, 1]]},
        "relations": [[["1", ["x", "y"]], ["-1", ["y", "x"]]],
                      [["1", ["x", "x"]], ["-1", ["y", "y", "y"]]]],
        "nilpotency": 5,
        "modules": {"P1": {"projective": 1}},
        "generator": ["P1"],
        "corpus": ["P1"],
    }


@pytest.mark.parametrize("field", ["q", "fp:32003"])
def test_a_relation_of_two_lengths_gets_the_right_algebra(tmp_path, capsys, field):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(mixed_lengths()))
    assert main(["--field", field, "algebra", str(path)]) == 0
    assert "dimension 9" in capsys.readouterr().out
    alg = load_problem(str(path), QQ if field == "q" else PrimeField(32003)).algebra
    words = ["".join(alg.quiver.arrows[a].name for a in w) for _, w in alg.basis]
    assert words == ["", "x", "y", "xx", "xy", "yy", "xxx", "xxy", "xyy"]
    assert sum(projective(alg, 1).dims) == 9
    # rewriting drops xxyy -> yyyyy before it can rewrite, and keeps three
    # words of length 4 that lie in the ideal
    assert RewrittenAlgebra(alg.field, alg.quiver, alg.relations, alg.N).dim == 12


def test_too_many_paths_is_an_input_error(tmp_path, capsys):
    # 3 + 9 + ... + 3^11 > 200000 paths of length < 40, counted before any row
    data = mixed_lengths()
    data["quiver"]["arrows"] = [["x", 1, 1], ["y", 1, 1], ["z", 1, 1]]
    data["relations"], data["nilpotency"] = [], 40
    path = tmp_path / "three_loops.json"
    path.write_text(json.dumps(data))
    begun = time.perf_counter()
    assert main(["algebra", str(path)]) == 1
    assert time.perf_counter() - begun < 2
    err = capsys.readouterr().err
    assert "$.relations" in err and "Traceback" not in err
    with pytest.raises(ValueError, match="200000 paths"):
        PathAlgebra(QQ, Quiver(1, [("x", 1, 1), ("y", 1, 1), ("z", 1, 1)]), [], 40)
