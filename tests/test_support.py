"""Representation kernels keep to the support of a module.

The per-vertex and per-arrow loops of `rep` run over the vertices where a
module (or both sides of a map) is nonzero and the arrows whose equation
has entries; every other block comes from its shape.  These tests compare
kernels, cokernels, radicals, Hom bases, top columns, socle rows, direct
sums and stacked maps with the full loops of `helpers` on everything that
real commands build, over Q and F_32003: the bundled files, Nakayama (3,3)
with G = every indecomposable (whose `bounds theorem73` resolves over Γ's
presentation) and Nakayama (6,5) with G = projectives + simples.  A map
that fails an arrow with entries is still refused, and `bounds theorem73`
on Nakayama (3,3) builds at most half the empty matrices it built before
and multiplies almost no empty operand.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from relhomalg import cli, complexes, relative, rep, schema, tilting
from relhomalg.fields import QQ, PrimeField
from relhomalg.matrix import Matrix
from relhomalg.rep import ModuleMap, hom_space
from relhomalg.schema import load_problem

from helpers import (
    full_loop_direct_sum,
    full_loop_hom_space,
    full_loop_intertwines,
    full_loop_kernel,
    full_loop_radical,
    full_loop_socle_rows,
    full_loop_stack_maps,
    full_loop_top_columns,
    inverse_cokernel,
    maps_of,
    nakayama_problem,
)

ROOT = Path(__file__).parent.parent
DATA = ROOT / "src" / "relhomalg" / "data"
BUNDLED = ["section6", "section6_symmetric", "section7", "a2_apr"]
GENERATED = {"nakayama(3,3) all": (3, 3, True, ["bounds", "theorem73"]),
             "nakayama(6,5) P+S": (6, 5, False, ["module"])}
FIELDS = ["q", "fp:32003"]


def blocks(f):
    return [(a.rows, a.cols, a.entries) for a in f.mats]


def same_sub(got, ref):
    assert got[0] is ref[0]
    assert blocks(got[1]) == blocks(ref[1])


def same_map(got, ref):
    assert (got.source, got.target, blocks(got)) == (ref.source, ref.target, blocks(ref))


def same_basis(got, ref):
    assert [blocks(f) for f in got] == [blocks(f) for f in ref]


def equal(got, ref):
    assert got == ref


class Compared:
    """Wraps the kernels of `rep` in every module that binds them, so that
    each result is compared with its full-loop reference, once per
    argument tuple; counts the comparisons and collects the algebras they
    ran over."""

    def __init__(self, monkeypatch):
        self.counts, self.algebras, self._seen = {}, set(), {}
        checks = {
            "kernel": lambda out, f: same_sub(out, full_loop_kernel(f)),
            "cokernel": lambda out, f: same_sub(out, inverse_cokernel(f)),
            "radical": lambda out, m: same_sub(out, full_loop_radical(m)),
            "hom_space": lambda out, m, n: same_basis(out, full_loop_hom_space(m, n)),
            "top_columns": lambda out, m: equal(out, full_loop_top_columns(m)),
            "socle_rows": lambda out, m: equal(out, full_loop_socle_rows(m)),
            "direct_sum": lambda out, parts, algebra=None: equal(
                out, full_loop_direct_sum(parts, algebra or parts[0].algebra)),
            "stack_maps": lambda out, parts, blocks, x, into=False: same_map(
                out, full_loop_stack_maps(maps_of(parts, blocks, x, into), x, into)),
        }
        for name, check in checks.items():
            self.counts[name] = 0
            run = getattr(rep, name)
            wrapped = self.wrap(name, run, check)
            for module in (rep, relative, complexes, schema, tilting, cli):
                if getattr(module, name, None) is run:
                    monkeypatch.setattr(module, name, wrapped)

    def wrap(self, name, run, check):
        def wrapped(*args, **kwargs):
            out = run(*args, **kwargs)
            key = (name, tuple(map(id, args)), tuple(kwargs.items()))
            if key not in self._seen:
                self._seen[key] = args  # kept alive, so that no id is reused
                self.counts[name] += 1
                check(out, *args, **kwargs)
                first = args[0][0] if isinstance(args[0], list) else args[0]
                self.algebras.add((first.source if isinstance(first, ModuleMap) else first).algebra)
            return out
        return wrapped


def problem_path(name, tmp_path):
    if name in BUNDLED:
        return DATA / f"{name}.json", [["module"], ["bounds", "theorem73"]]
    n, length, every, argv = GENERATED[name]
    path = tmp_path / "nakayama.json"
    path.write_text(json.dumps(nakayama_problem(n, length, every_indecomposable=every,
                                                tilting=every)))
    return path, [argv]


def quiet(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["--quiet", *map(str, argv)])


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", BUNDLED + list(GENERATED))
def test_kernels_on_the_support_match_the_full_loops(monkeypatch, tmp_path, name, field):
    compared = Compared(monkeypatch)
    path, commands = problem_path(name, tmp_path)
    for argv in commands:
        # section6_symmetric reports a violation (exit 2)
        assert quiet("--field", field, *argv, path) in (0, 2)
    unused = {"section7": {"radical"}, "a2_apr": {"radical"}, "nakayama(3,3) all": {"socle_rows"}}
    assert {k for k, c in compared.counts.items() if not c} == unused.get(name, set()), compared.counts
    if name == "nakayama(3,3) all":  # Γ has one vertex per summand of G (nine), Λ three
        assert any(a.quiver.n == 9 for a in compared.algebras)


def declared_maps(field):
    """The basis maps between the declared modules of every bundled file and
    of Nakayama (3,3) with G = every indecomposable."""
    paths = [DATA / f"{name}.json" for name in BUNDLED]
    problems = [load_problem(str(p), field_override=field) for p in paths]
    problems.append(schema.parse_problem(json.dumps(nakayama_problem(3, 3, every_indecomposable=True)),
                                         field_override=field))
    out = []
    for problem in problems:
        mods = list(problem.modules.values())
        for m in mods:
            for n in mods:
                out += list(hom_space(m, n))
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)])
def test_a_map_wrong_on_an_arrow_with_entries_is_refused(field):
    """Each basis map, with one entry of one nonzero vertex block moved, is
    accepted by the checked constructor exactly when every arrow equation,
    empty ones included, still holds; and one vertex block moved breaks some
    equation with entries for most maps."""
    refused = accepted = 0
    for f in declared_maps(field):
        for v, a in enumerate(f.mats):
            if not a.entries:
                continue
            moved = list(f.mats)
            moved[v] = Matrix(field, a.rows, a.cols, [field.add(a.entries[0], field.one)] + a.entries[1:])
            holds = full_loop_intertwines(f.source, f.target, moved)
            try:
                ModuleMap(f.source, f.target, moved)
            except ValueError:
                assert not holds
                refused += 1
            else:
                assert holds
                accepted += 1
    assert refused > 100 and accepted  # a vertex with no arrow equation accepts any block


def gamma_workload_input(tmp_path):
    """Nakayama (3,3) with G = every indecomposable as the benchmark's `gamma`
    workload generates it with seed 3 (the declaration order decides the
    counts below)."""
    spec = importlib.util.spec_from_file_location("nakayama", ROOT / "perfbench" / "nakayama.py")
    nakayama = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(nakayama)
    path = tmp_path / "nakayama33.json"
    path.write_text(json.dumps(nakayama.problem(3, 3, nakayama.uniserials(3, 3), 3, tilting=True)))
    return path


def test_theorem73_builds_few_empty_matrices_and_multiplies_few_empty_operands(
        monkeypatch, tmp_path):
    """Over a fresh F_32003, so that no table holds anything yet.  With full
    loops over every vertex and arrow this command built 3169 matrices
    without entries (of 5589) and took 882 products with an empty operand
    (of 1208), as it does over Q in a fresh process."""
    path = gamma_workload_input(tmp_path)
    counts = {"empty": 0, "empty products": 0}
    init, mul = Matrix.__init__, Matrix.__mul__

    def counting_init(self, field, rows, cols, entries):
        counts["empty"] += not (rows and cols)
        init(self, field, rows, cols, entries)

    def counting_mul(self, other):
        counts["empty products"] += not (self.entries and other.entries)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__init__", counting_init)
    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    assert quiet("--field", "fp:32003", "bounds", "theorem73", path) == 0
    assert counts["empty products"] <= 100, counts
    assert counts["empty"] <= 3169 // 2, counts
