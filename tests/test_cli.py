import collections
import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from relhomalg import algebra, cli, complexes, relative, rep
from relhomalg.cli import main
from relhomalg.schema import canonical_form, load_problem

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"


def run(argv):
    return main([str(a) for a in argv])


def test_ifset_section7(capsys):
    code = run(["relhom", "ifset", DATA / "section7.json"])
    outp = capsys.readouterr().out
    assert code == 0
    for name in ("P1", "P2", "P3", "S3", "S1", "M3"):
        assert name in outp
    assert "S2" not in outp.split("=")[1].split("}")[0]


def test_bounds_theorem73_exit_zero(capsys, tmp_path):
    report = tmp_path / "rep.json"
    code = run(["--report", report, "bounds", "theorem73", DATA / "section7.json"])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["results"]["status"] == "verified"
    assert payload["results"]["values"]["gldim(Gamma)"]["value"] <= 3


def test_complex_termlength_section6(capsys):
    code = run(["complex", "termlength", DATA / "section6.json", "--complex", "T1a"])
    assert code == 0
    assert "= 1" in capsys.readouterr().out


def test_tilting_section7(capsys):
    code = run(["tilting", DATA / "section7.json", "--sigma"])
    assert code == 0
    outp = capsys.readouterr().out
    assert "PASSES" in outp
    assert "witnessed" in outp
    assert "match" in outp


def test_module_table(capsys):
    code = run(["module", DATA / "section7.json", "--name", "M1",
                "--ext", "M1", "S2", "1"])
    assert code == 0
    outp = capsys.readouterr().out
    assert "M1" in outp
    for field in ("q", "fp:32003"):
        assert run(["--field", field, "module", DATA / "section7.json",
                    "--ext", "S1", "M2", "1"]) == 0
        assert "ext_F^1(S1, M2) = 1" in capsys.readouterr().out


@pytest.mark.parametrize("degree, dim", [(40, 1), (11, 0)])
def test_module_ext_resolves_past_the_cutoff(capsys, degree, dim):
    # cutoff 10 and pd_F(S2) >= 10: --ext resolves as deep as its degree
    code = run(["module", DATA / "section6_symmetric.json", "--name", "S2",
                "--ext", "S2", "S1", degree])
    assert code == 0
    assert f"ext_F^{degree}(S2, S1) = {dim}" in capsys.readouterr().out


def test_cli_import_leaves_dataclasses_unloaded():
    # every CLI call starts a fresh interpreter; dataclasses' import and code
    # generation, and argparse with gettext and locale, would be paid on each.
    # pytest has loaded them here, so the command runs in a fresh interpreter
    env = {**os.environ, "PYTHONPATH": str(DATA.parent.parent)}
    code = ("import sys, relhomalg.cli\n"
            "heavy = ('dataclasses', 'argparse', 'gettext', 'locale')\n"
            "def check(when):\n"
            "    loaded = [m for m in heavy if m in sys.modules]\n"
            "    if loaded: sys.exit(f'{when} loaded {loaded}')\n"
            "check('import relhomalg.cli')\n"
            f"code = relhomalg.cli.main(['--quiet', 'bounds', 'cor710', {str(DATA / 'a2_apr.json')!r}])\n"
            "check('bounds cor710')\n"
            "sys.exit(code)")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("argv, diagnostic", [
    (["module", DATA / "section7.json", "--ext", "NOPE", "S2", "1"],
     "--ext: unknown module 'NOPE'"),
    (["module", DATA / "section7.json", "--ext", "M2", "NOPE", "1"],
     "--ext: unknown module 'NOPE'"),
    (["module", DATA / "section7.json", "--ext", "M2", "S2", "-1"], "--ext: negative degree -1"),
    (["relhom", "resolve", DATA / "section7.json", "--module", "NOPE"],
     "--module: unknown module 'NOPE'"),
    (["relhom", "exact", DATA / "section7.json", "--module", "NOPE"],
     "--module: unknown module 'NOPE'"),
    (["complex", "homk", DATA / "a2_apr.json", "--complex", "T", "--to", "NOPE"],
     "--to: unknown complex 'NOPE'"),
], ids=["ext-x", "ext-y", "ext-degree", "resolve", "exact", "homk-to"])
def test_bad_names_are_input_errors(capsys, argv, diagnostic):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"input error: {diagnostic}\n"
    assert captured.out == ""


def test_algebra_dump(capsys):
    code = run(["algebra", DATA / "section7.json"])
    assert code == 0
    assert "dimension 9" in capsys.readouterr().out


def test_input_error_missing_file(capsys):
    assert run(["algebra", "no-such-file.json"]) == 1


def test_input_error_bad_schema(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "nope"}')
    assert run(["algebra", bad]) == 1
    assert "$.schema" in capsys.readouterr().err


def test_input_error_bad_vertex(tmp_path, capsys):
    data = json.loads((DATA / "section7.json").read_text())
    data["modules"]["P1"] = {"projective": 9}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["algebra", bad]) == 1
    assert "$.modules.P1" in capsys.readouterr().err


def _with_module(spec):
    def edit(data):
        data["modules"]["X"] = spec
    return edit


def _with_arrow(arrow):
    def edit(data):
        data["quiver"]["arrows"][0] = arrow
    return edit


def _with_complex(spec):
    def edit(data):
        data["complexes"]["C"] = spec
    return edit


def _with_summand_count(count):
    def edit(data):
        data["tilting"]["summand_count"] = count
    return edit


@pytest.mark.parametrize("edit, path", [
    (_with_module({"dims": [-1, 0, 0]}), "$.modules.X.dims[0]"),
    (_with_module({"dims": [True, False, False]}), "$.modules.X.dims[0]"),
    (_with_module({"dims": ["1", 0, 0]}), "$.modules.X.dims[0]"),
    (_with_module({"dims": [1.5, 0, 0]}), "$.modules.X.dims[0]"),
    (_with_arrow(["a", True, 2]), "$.quiver.arrows[0][1]"),
    (_with_module({"dims": [1, 1, 0], "matrices": {"a": [[True]]}}),
     "$.modules.X.matrices.a[0][0]"),
    (_with_module({"quotient_by_radical_power": ["P1", 1.7]}), "$.modules.X"),
    (_with_complex({"stalk": "P1", "degree": "x"}), "$.complexes.C.degree"),
    (_with_complex({"terms": {"0": "P1", "1": "P1"}, "differentials": {"x": {}}}),
     "$.complexes.C.differentials"),
    (_with_summand_count(True), "$.tilting.summand_count"),
], ids=["negative-dim", "bool-dims", "string-dim", "float-dim", "bool-vertex", "bool-entry",
        "float-power", "string-degree", "string-differential-key", "bool-summand-count"])
def test_non_integers_are_input_errors(tmp_path, capsys, edit, path):
    data = json.loads((DATA / "section7.json").read_text())
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["module", bad]) == 1
    err = capsys.readouterr().err
    assert path in err
    assert "Traceback" not in err


def _set(*keys_and_value):
    *keys, value = keys_and_value

    def edit(data):
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return edit


@pytest.mark.parametrize("edit, path", [
    (_set("modules", ["P1"]), "$.modules"),
    (_set("complexes", 0), "$.complexes"),
    (_set("corpus", {"P1": 1}), "$.corpus"),
    (_set("checks", "theorem73"), "$.checks"),
    (_set("tilting", "witnesses", {}), "$.tilting.witnesses"),
    (_set("relations", {}), "$.relations"),
    (_set("relations", 0, 0, 1, 0), "$.relations[0][0][1]"),
    (_set("relations", 0, 0, 1, [[1]]), "$.relations[0][0][1]"),
    (_set("relations", 0, 0, 1, {}), "$.relations[0][0][1]"),
    (_set("relations", 0, 0, 1, [["a"], "b", "c"]), "$.relations[0][0][1]"),
    (_set("quiver", "arrows", {}), "$.quiver.arrows"),
    (_with_module({"dims": [1, 0, 0], "matrices": []}), "$.modules.X.matrices"),
    (_with_complex({"terms": ["P1"]}), "$.complexes.C.terms"),
    (_with_complex({"terms": {"0": "P1"}, "differentials": []}), "$.complexes.C.differentials"),
    (_with_complex({"terms": {"0": "P1", "1": "P1"}, "differentials": {"0": ["x"]}}),
     "$.complexes.C.differentials.0"),
    (_with_complex({"sum": None}), "$.complexes.C.sum"),
    (_with_complex({"approximation_cone": {"target": "M1", "by": "P2"}}),
     "$.complexes.C.approximation_cone.by"),
], ids=["modules-array", "complexes-number", "corpus-object", "checks-string",
        "witnesses-object", "relations-object", "word-number", "word-nested", "word-object",
        "word-list-entry", "arrows-object", "matrices-array", "terms-array",
        "differentials-array", "differential-array", "sum-null", "by-string"])
def test_values_of_the_wrong_json_type_are_input_errors(tmp_path, capsys, edit, path):
    data = json.loads((DATA / "section7.json").read_text())
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["--quiet", "module", bad]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: {path}: ") and captured.err.count("\n") == 1
    assert captured.out == ""


FUZZ_VALUES = [None, True, 0, 1, -1, 3, "", "x", "P1", [], [0], [[1]], ["x"], {}, {"x": 1}]
FUZZ_COMMANDS = [["algebra"], ["module"], ["tilting"], ["relhom", "ifset"], ["relhom", "gldim"],
                 ["bounds", "theorem73"], ["bounds", "counts"], ["bounds", "gorenstein"]]


def _mutate_problem(rng: random.Random, data: dict) -> dict:
    """data with one or two nodes, each reached by a random walk from the
    root that stops at each level with chance 1/3, deleted or replaced by a
    value from FUZZ_VALUES."""
    data = copy.deepcopy(data)
    for _ in range(rng.randint(1, 2)):
        parent, key, node = None, None, data
        while isinstance(node, (dict, list)) and node and (parent is None or rng.random() < 2 / 3):
            parent, key = node, rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
            node = node[key]
        if parent is None:
            continue
        if rng.randrange(4) == 0:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(rng.choice(FUZZ_VALUES))
    return data


def test_problem_file_fuzz_exits_0_1_or_2(tmp_path, capsys):
    # malformed input exits 1 with one `$.path` line on stderr, never 3
    files = {name: json.loads((DATA / f"{name}.json").read_text())
             for name in ("a2_apr", "section6", "section6_symmetric", "section7")}
    path, codes = tmp_path / "fuzz.json", collections.Counter()
    for seed in (1, 7):
        rng = random.Random(seed)
        for k in range(400):
            name = rng.choice(sorted(files))
            data = _mutate_problem(rng, files[name])
            path.write_text(json.dumps(data))
            argv = ["--quiet", "--cutoff", "4", *FUZZ_COMMANDS[k % len(FUZZ_COMMANDS)], path]
            code = run(argv)
            err = capsys.readouterr().err.splitlines()
            codes[code] += 1
            assert code in (0, 1, 2), (seed, k, name, argv, err)
            if code == 1:
                assert len(err) == 1 and err[0].startswith("input error: $"), (seed, k, name, err)
            else:  # a verdict or a failed check, on stdout or one stderr line
                assert len(err) <= code // 2, (seed, k, name, err)
    # the mutations reach the commands as well as the schema
    assert codes[0] > 50 and codes[1] > 600 and codes[2] > 0


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []],
                         ids=["string-false", "string-true", "zero", "one", "null", "list"])
def test_corpus_complete_must_be_a_json_boolean(tmp_path, capsys, value):
    # a truthy non-boolean such as "false" would claim the corpus complete
    data = json.loads((DATA / "section7.json").read_text())
    data["corpus_complete"] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["relhom", "gldim", bad]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: $.corpus_complete: ")
    assert captured.out == ""


@pytest.mark.parametrize("corpus", ["absent", "empty"])
@pytest.mark.parametrize("name, argv", [
    ("section7", ["relhom", "gldim"]),
    ("section7", ["bounds", "theorem73"]),
    ("section6", ["bounds", "theorem73"]),
    ("a2_apr", ["bounds", "cor710"]),
])
def test_a_sup_over_no_corpus_is_an_input_error(tmp_path, capsys, corpus, name, argv):
    """gldim_F, Theorem 7.3 and Corollary 7.10 take a sup over the corpus;
    without a module there it is an input error at `$.corpus`, not a
    failed check (exit 2) or a sup over nothing."""
    data = json.loads((DATA / f"{name}.json").read_text())
    if corpus == "absent":
        del data["corpus"]
    else:
        data["corpus"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run([*argv, bad]) == 1
    captured = capsys.readouterr()
    assert captured.err == "input error: $.corpus: empty or absent; this command takes a sup over it\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["bounds", "gorenstein"], ["relhom", "ifset"], ["module"]])
def test_commands_without_a_sup_over_the_corpus_run_without_one(tmp_path, capsys, argv):
    # I(F) is validated against the corpus, which holds vacuously when it is empty
    data = json.loads((DATA / "section7.json").read_text())
    del data["corpus"]
    path = tmp_path / "no_corpus.json"
    path.write_text(json.dumps(data))
    assert run(["--quiet", *argv, path]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("complete", [True, False])
def test_corpus_complete_decides_the_corpus_assumption(tmp_path, complete):
    data = json.loads((DATA / "section7.json").read_text())
    data["corpus_complete"] = complete
    path, report = tmp_path / "p.json", tmp_path / "r.json"
    path.write_text(json.dumps(data))
    assert run(["--report", report, "relhom", "gldim", path]) == 0
    assumptions = json.loads(report.read_text())["results"]["gldim_F"]["assumptions"]
    assert (assumptions == []) == complete


def _one_loop(nilpotency, loop):
    """The one-loop quiver with no relations and J^nilpotency = 0, with a
    declared module M on which the loop acts by `loop`."""
    return {
        "schema": "relhomalg/1",
        "quiver": {"vertices": 1, "arrows": [["x", 1, 1]]},
        "relations": [],
        "nilpotency": nilpotency,
        "modules": {"P1": {"projective": 1},
                    "M": {"dims": [len(loop)], "matrices": {"x": loop}}},
        "generator": ["P1"],
        "corpus": ["M"],
    }


@pytest.mark.parametrize("argv", [["module"], ["relhom", "exact", "--module", "M"]])
def test_module_not_killed_by_j_to_the_n_is_input_error(tmp_path, capsys, argv):
    # x^3 != 0 on M, although kQ/J^3 makes every path of length 3 zero
    bad = tmp_path / "loop.json"
    bad.write_text(json.dumps(_one_loop(3, [["1"]])))
    assert run([*argv, bad]) == 1
    err = capsys.readouterr().err
    assert "$.modules.M" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("nilpotency, loop, code", [
    (3, [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]], 0),  # x^2 != 0 = x^3
    (2, [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]], 1),  # x^2 != 0
    (2, [["0", "0"], ["1", "0"]], 0),
])
def test_nilpotency_bound_on_declared_modules(tmp_path, capsys, nilpotency, loop, code):
    f = tmp_path / "loop.json"
    f.write_text(json.dumps(_one_loop(nilpotency, loop)))
    assert run(["module", f]) == code
    assert ("$.modules.M" in capsys.readouterr().err) == bool(code)


def test_violated_exit_code(tmp_path, capsys):
    # declaring the wrong summand count makes the count criterion fail
    data = json.loads((DATA / "section7.json").read_text())
    data["tilting"]["summand_count"] = 5
    bad = tmp_path / "wrongcount.json"
    bad.write_text(json.dumps(data))
    assert run(["--quiet", "tilting", bad]) == 2


def test_count_criterion_counts_proven_parts(tmp_path, capsys):
    # section7 with TM2 dropped from T keeps five parts, each proven
    # indecomposable, against |ind P(F)| = 6; the declared count of 6 must
    # not make the count criterion pass
    data = json.loads((DATA / "section7.json").read_text())
    data["complexes"]["T"]["sum"].remove("TM2")
    data["tilting"]["summands"].remove("TM2")
    assert data["tilting"]["summand_count"] == 6
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps(data))
    report = tmp_path / "report.json"
    assert run(["--report", str(report), "tilting", probe]) == 2
    out = capsys.readouterr().out
    assert "count criterion       FAILS" in out
    assert "count criterion: 5 parts proven indecomposable, |ind P(F)| = 6" in out
    tilting = json.loads(report.read_text())["results"]["tilting"]
    assert not tilting["count_criterion_ok"] and tilting["declared_count"] == 6
    assert all(tilting["summand_spot_checks"].values())


def _with_witness(witness):
    def edit(data):
        data["tilting"]["witnesses"][0] = witness
    return edit


@pytest.mark.parametrize("witness", [
    {"summand": {"degree": -1, "of": "T2a"}},
    {"cone": {"name": "W", "target": "T1a"}},
    {"summand": "P1"},
], ids=["summand-without-module", "cone-without-source", "summand-not-an-object"])
def test_malformed_witness_is_input_error(tmp_path, capsys, witness):
    data = json.loads((DATA / "section6.json").read_text())
    _with_witness(witness)(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["tilting", bad]) == 1
    err = capsys.readouterr().err
    assert "$.tilting.witnesses[0]" in err
    assert "Traceback" not in err


def test_recorded_failure_fails_the_tilting_check(tmp_path, capsys):
    # T without TM2 has five structural parts; the declared count 6 matches
    # |ind G|, but the mismatch with the parts is a failure, so T FAILS
    data = json.loads((DATA / "section7.json").read_text())
    data["tilting"]["summands"].remove("TM2")
    data["tilting"]["summand_count"] = 6
    bad = tmp_path / "five_parts.json"
    bad.write_text(json.dumps(data))
    assert run(["tilting", bad]) == 2
    out = capsys.readouterr().out
    assert "FAILS" in out and "PASSES" not in out
    assert "failure: declared summand count 6 differs" in out


def test_sigma_image_needs_components_in_add_g(tmp_path, capsys):
    # with M2 taken out of G, the part TM2 of T is not in add(G), so T has no
    # image over Sigma = End(G)
    data = json.loads((DATA / "section7.json").read_text())
    data["generator"].remove("M2")
    data["tilting"]["summand_count"] = 5
    data["tilting"]["witnesses"] = [w for w in data["tilting"]["witnesses"]
                                    if w["summand"]["module"] != "M2"]
    bad = tmp_path / "no_m2.json"
    bad.write_text(json.dumps(data))
    assert run(["tilting", "--sigma", bad]) == 2
    captured = capsys.readouterr()
    assert "hom windows" not in captured.out
    assert "not in add(G)" in captured.err
    assert "Traceback" not in captured.err


def test_canonical_roundtrip():
    for name in ("section7.json", "section6.json", "a2_apr.json"):
        text = (DATA / name).read_text()
        canon = canonical_form(text)
        assert canonical_form(canon) == canon


def test_canonical_rationals(tmp_path):
    data = json.loads((DATA / "a2_apr.json").read_text())
    data["complexes"]["T1"]["differentials"]["-1"]["2"] = [["2/4"]]
    text = json.dumps(data)
    canon = canonical_form(text)
    assert '"1/2"' in canon


def test_golden_report_stable(tmp_path):
    reports = []
    for k in range(2):
        path = tmp_path / f"r{k}.json"
        assert run(["--quiet", "--report", path, "bounds", "counts",
                    DATA / "section7.json"]) == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_field_override_runs(capsys):
    code = run(["--field", "fp:5", "algebra", DATA / "section7.json"])
    assert code == 0
    assert "dimension 9" in capsys.readouterr().out


@pytest.mark.parametrize("field, message", [
    ("fp:x", "prime must be an integer, got 'x'"),
    ("fp:", "prime must be an integer, got ''"),
    ("fp:4", "4 is not prime"),
    ("fp:-7", "-7 is not prime"),
    ("gf:7", "unknown field 'gf:7' (use q or fp:P)"),
])
def test_bad_field_override_is_input_error(capsys, field, message):
    assert run(["--field", field, "algebra", DATA / "section7.json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"input error: --field: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("prime, message", [("x", "prime must be an integer, got 'x'"),
                                             (4, "4 is not prime")])
def test_bad_file_prime_is_input_error(tmp_path, capsys, prime, message):
    data = json.loads((DATA / "section7.json").read_text())
    data["field"] = {"prime": prime}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["algebra", bad]) == 1
    assert capsys.readouterr().err == f"input error: $.field: {message}\n"


def _homk_shifts(capsys, *window):
    """(exit code, the shifts of the printed hom_K table)."""
    code = run(["complex", "homk", DATA / "a2_apr.json", "--complex", "T", "--to", "T1", *window])
    rows = capsys.readouterr().out.splitlines()[2:]  # after the header and its rule
    return code, [int(r.split()[0]) for r in rows]


def test_homk_window(capsys):
    assert _homk_shifts(capsys, "--window", "0") == (0, [0])
    assert _homk_shifts(capsys, "--window", "2") == (0, [-2, -1, 0, 1, 2])
    assert _homk_shifts(capsys) == (0, [-3, -2, -1, 0, 1, 2, 3])  # the default, 3


def test_negative_homk_window_is_input_error(capsys):
    assert run(["complex", "homk", DATA / "a2_apr.json", "--complex", "T", "--to", "T1",
                "--window", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "input error: --window: negative window -1\n"
    assert captured.out == ""


@pytest.mark.parametrize("sub", ["termlength", "acyclic", "cone"])
@pytest.mark.parametrize("option", [["--to", "T1"], ["--window", "1"]], ids=["to", "window"])
def test_only_homk_reads_to_and_window(capsys, sub, option):
    assert run(["complex", sub, DATA / "a2_apr.json", "--complex", "T", *option]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"input error: {option[0]}: only complex homk reads it\n"
    assert captured.out == ""


def test_termlength_strips_a_contractible_summand_by_its_schur_complement(
        capsys, tmp_path, monkeypatch):
    # X = (P1 ⊕ P2 -> P1 ⊕ P3) on section7, rows (P1, P3) and columns (P1, P2)
    # at each vertex: the block P1 -> P1 is the identity, P2 -> P1 sends e2 to
    # a and P1 -> P3 sends e1 to c.  Stripping P1 -> P1 leaves P2 -> P3 as
    # minus their composite, e2 -> -ca, which is radical: t(X) = 1
    data = json.loads((DATA / "section7.json").read_text())
    data["complexes"]["X"] = {
        "terms": {"-1": ["P1", "P2"], "0": ["P1", "P3"]},
        "differentials": {"-1": {"1": [[1, 0], [1, 0]], "2": [[1, 1], [1, 0]],
                                 "3": [[1, 1], [0, 0]]}}}
    path = tmp_path / "x.json"
    path.write_text(json.dumps(data))
    stripped = []
    eliminate = complexes._gauss_eliminate

    def recorded(x, i, s, t):
        stripped.append(eliminate(x, i, s, t))
        return stripped[-1]

    monkeypatch.setattr(complexes, "_gauss_eliminate", recorded)
    assert run(["complex", "termlength", path, "--complex", "X"]) == 0
    assert capsys.readouterr().out == "term length t(X) = 1\n"
    [y] = stripped
    assert [[p.label for p in y.parts[i]] for i in (-1, 0)] == [["P2"], ["P3"]]
    assert [m.entries for m in y.diffs[-1].mats] == [[0], [-1], [0]]


def test_a_witness_cone_between_different_modules_is_not_built(capsys, tmp_path):
    # P1 and S1 ⊕ S2 both have dimensions (1, 1) over A2
    data = json.loads((DATA / "a2_apr.json").read_text())
    data["complexes"].update({"A": {"stalk": "P1"}, "B": {"stalk": ["S1", "S2"]}})
    data["tilting"]["witnesses"].insert(0, {"cone": {"name": "W", "source": "A", "target": "B"}})
    path, report = tmp_path / "probe.json", tmp_path / "r.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    # a witness step the program refuses is a failure on stdout, not only in the log
    assert run(["--report", report, "tilting", path]) == 2
    refusal = "cone step W: invalid chain map (the components at degree 0 are different modules)"
    out = capsys.readouterr().out
    assert out.startswith("tilting complex T: FAILS\n")
    assert f"failure: {refusal}\n" in out
    tilting = json.loads(report.read_text())["results"]["tilting"]
    assert tilting["generation"] == "count-criterion passed"
    assert tilting["generation_log"] == [refusal]
    assert tilting["failures"] == [refusal]


def test_cutoff_flag(capsys, tmp_path):
    report = tmp_path / "r.json"
    code = run(["--cutoff", "4", "--report", report, "relhom", "gldim",
                DATA / "section7.json"])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["results"]["gldim_F"]["cutoff"] == 4


@pytest.mark.parametrize("file_cutoff, flag", [
    ("x", None), (2.7, None), (True, None), (0, None), (10, "0"),
])
def test_bad_cutoff_is_input_error(tmp_path, capsys, file_cutoff, flag):
    data = json.loads((DATA / "section7.json").read_text())
    data["cutoff"] = file_cutoff
    f = tmp_path / "cutoff.json"
    f.write_text(json.dumps(data))
    argv = (["--cutoff", flag] if flag is not None else []) + ["algebra", f]
    assert run(argv) == 1
    assert "$.cutoff" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["algebra"], 1),
    (["--cutoff", "x", "algebra", DATA / "section7.json"], 1),
    (["bounds", "nope", DATA / "section7.json"], 1),
    (["--help"], 0),
])
def test_usage_error_exit_code(argv, code, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == code


def test_symmetric_variant_loads():
    p = load_problem(str(DATA / "section6_symmetric.json"))
    assert p.algebra.dim == 9
    assert len(p.subbifunctor.summands) == 4


def test_vacuous_at_cutoff_exits_zero(tmp_path, capsys):
    # G = Lambda on the self-injective algebra: gldim censored on both sides,
    # bounds are vacuous-at-cutoff, never violated: exit 0
    data = json.loads((DATA / "section7.json").read_text())
    data["generator"] = ["P1", "P2", "P3"]
    data["complexes"] = {
        "TP1": {"stalk": "P1", "degree": 0},
        "TP2": {"stalk": "P2", "degree": 0},
        "TP3": {"stalk": "P3", "degree": 0},
        "T": {"sum": ["TP1", "TP2", "TP3"]},
    }
    data["tilting"] = {"complex": "T", "summands": ["TP1", "TP2", "TP3"],
                       "summand_count": 3}
    data["cutoff"] = 4
    f = tmp_path / "ordinary.json"
    f.write_text(json.dumps(data))
    report = tmp_path / "rep.json"
    code = run(["--report", report, "bounds", "theorem73", f])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["results"]["status"] == "vacuous-at-cutoff"


def test_fd_gamma_upper_bound_is_vacuous_when_gldim_gamma_is_censored(tmp_path, capsys):
    # at cutoff 2, gldim(Gamma) = 3 is reported as ">= 2"; fd(Gamma) over
    # the supplied Gamma modules is then only a lower bound, so it cannot
    # verify the upper bound fd(Gamma) <= fd_F(Lambda) + t + 2
    report = tmp_path / "rep.json"
    code = run(["--cutoff", "2", "--report", report, "bounds", "theorem73",
                DATA / "section7.json"])
    assert code == 0
    results = json.loads(report.read_text())["results"]
    assert results["values"]["gldim(Gamma)"]["censored"]
    [check] = [c for c in results["checks"] if c["label"].startswith("fd(Gamma) <=")]
    assert check["lhs"] == {"value": 0, "censored": True}
    assert check["status"] == "vacuous-at-cutoff"
    assert "verified" not in capsys.readouterr().out.split("fd(Gamma) <=")[1].splitlines()[0]


def _resolutions(monkeypatch, argv, ordinary=False) -> list:
    """The modules one CLI command passes to f_resolution: for the problem's
    F, or with ordinary=True for G = the projectives of the algebra they
    live over (the Gamma side)."""
    calls = []
    real = relative.f_resolution

    def counted(x, f, *args, **kwargs):
        if (f is x.algebra.ordinary) == ordinary:
            calls.append(x)
        return real(x, f, *args, **kwargs)

    monkeypatch.setattr(relative, "f_resolution", counted)
    monkeypatch.setattr(cli, "f_resolution", counted)
    assert run(argv) == 0
    return calls


def test_module_resolves_each_module_once(monkeypatch, capsys):
    path = DATA / "section7.json"
    problem = load_problem(str(path))
    count = len(_resolutions(monkeypatch, ["module", path]))
    assert count <= len(problem.corpus_names) + len(problem.modules)


@pytest.mark.parametrize("argv", [["bounds", "theorem73"], ["relhom", "gldim"]])
def test_corpus_dimensions_resolve_each_corpus_module_once(monkeypatch, capsys, argv):
    path = DATA / "section7.json"
    problem = load_problem(str(path))
    assert len(_resolutions(monkeypatch, [*argv, path])) == len(problem.corpus_names)


def test_theorem73_builds_and_resolves_gamma_top_once(monkeypatch, capsys):
    # gldim(Gamma) is the largest pd of a simple of Gamma, so the finitistic
    # side reuses it instead of resolving the simples again, and the quiver
    # presentation of Gamma is built once per command
    built = []
    gabriel = algebra.AbstractAlgebra._gabriel_quiver

    def recorded(self):
        built.append(self)
        return gabriel(self)

    monkeypatch.setattr(algebra.AbstractAlgebra, "_gabriel_quiver", recorded)
    resolved = _resolutions(monkeypatch, ["bounds", "theorem73", DATA / "section7.json"],
                            ordinary=True)
    assert len(built) == 1
    pres = built[0].presentation()
    simples = [rep.simple(pres, v) for v in range(1, pres.quiver.n + 1)]
    assert len(resolved) == len(simples) == 6
    assert all(sum(m is s for m in resolved) == 1 for s in simples)


def section7_with(tmp_path, name, dims):
    """section7 with one more module, declared by its dims with zero arrow
    matrices, listed in the generator."""
    data = json.loads((DATA / "section7.json").read_text())
    data["modules"][name] = {"dims": dims}
    data["generator"].append(name)
    path = tmp_path / "section7_plus.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("argv", [["bounds", "counts"], ["module"]])
def test_a_zero_summand_of_g_is_an_input_error(capsys, tmp_path, argv):
    # accepted, counts would compare 7 declared summands with 6 simples of
    # Gamma and report the theorem violated (exit 2)
    code = run([*argv, section7_with(tmp_path, "Z", [0, 0, 0])])
    captured = capsys.readouterr()
    assert code == 1
    assert "$.generator: declared summand Z is the zero module" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["bounds", "counts"], ["module"], ["relhom", "ifset"]])
def test_validation_notes_are_printed_after_loading(capsys, tmp_path, argv):
    # S2 + S3 declared by its dims: End is k x k, which is not local
    path = section7_with(tmp_path, "MN", [0, 1, 1])
    run([*argv, path])
    assert capsys.readouterr().out.splitlines()[0] == (
        "note: summand MN: End(MN) failed the residue certificate (not proven local);"
        " indecomposability is unproven")
    run(["--quiet", *argv, path])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", ["section6", "section6_symmetric", "section7", "a2_apr"])
def test_bundled_files_have_no_validation_note(capsys, name):
    run(["module", DATA / f"{name}.json"])
    assert "note:" not in capsys.readouterr().out


def test_a_decomposable_summand_of_g_resolves_as_itself(tmp_path):
    # MN = S2 + S3 is in G next to S2 and S3, and each of the three is its
    # own approximation; the greedy pass over the candidates can keep
    # MN -> S2 instead, which reads pd_F >= 10, a false lower bound
    path = section7_with(tmp_path, "MN", [0, 1, 1])
    report = tmp_path / "rep.json"
    assert run(["--report", report, "module", path]) == 0
    results = json.loads(report.read_text())["results"]
    for name in ("S2", "S3", "MN"):
        assert results[name]["pd_F"]["value"] == 0 and not results[name]["pd_F"]["censored"], name
    assert run(["--report", report, "relhom", "gldim", path]) == 0
    breakdown = json.loads(report.read_text())["results"]["gldim_F"]["breakdown"]
    for name in ("S2", "S3"):
        assert breakdown[name] == {"value": 0, "censored": False}, name


def test_module_reports_an_unvalidated_ifset(capsys, tmp_path, monkeypatch):
    note = "I9 fails F-injectivity against a corpus module"

    def failing(f, corpus):
        injs, _, _ = relative.relative_injectives(f, corpus)
        return injs, False, [note]

    monkeypatch.setattr(cli, "relative_injectives", failing)
    report = tmp_path / "rep.json"
    assert run(["--report", report, "module", DATA / "section7.json"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"note: {note}"
    results = json.loads(report.read_text())["results"]
    assert results and all(r["id_F"]["caveats"] == [note] for r in results.values())
    assert all(r["pd_F"]["caveats"] == [] for r in results.values())
    assert run(["--quiet", "module", DATA / "section7.json"]) == 0
    assert capsys.readouterr().out == ""


def test_an_internal_error_exits_3_without_a_traceback(capsys, monkeypatch):
    def crash(args, out):
        raise KeyError("lost")

    monkeypatch.setitem(cli.COMMANDS, "module", cli.COMMANDS["module"]._replace(fn=crash))
    assert run(["module", DATA / "section7.json"]) == cli.EXIT_INTERNAL == 3
    err = capsys.readouterr().err
    assert err == "internal error: KeyError: 'lost'\n"


@pytest.mark.parametrize("where, diagnostic", [
    ("missing/r.json", "no directory"), (".", "is a directory"),
    ("file.txt/r.json", "no directory"), ("locked/r.json", "not writable")])
def test_an_unwritable_report_is_an_input_error_before_the_command(
        capsys, monkeypatch, tmp_path, where, diagnostic):
    (tmp_path / "file.txt").write_text("")
    (tmp_path / "locked").mkdir()
    # the permission bits do not stop a superuser, so deny the check itself
    access = os.access
    monkeypatch.setattr(os, "access", lambda p, mode: "locked" not in str(p) and access(p, mode))
    ran = []
    monkeypatch.setitem(cli.COMMANDS, "algebra", cli.COMMANDS["algebra"]._replace(
        fn=lambda args, out: ran.append(args) or 0))
    report = tmp_path / where
    assert run(["--report", report, "algebra", DATA / "section7.json"]) == cli.EXIT_INPUT
    assert not ran
    err = capsys.readouterr().err
    assert err.startswith(f"input error: --report {report}: {diagnostic}")
    assert "Traceback" not in err and err.count("\n") == 1


def test_the_count_gives_no_generation_at_term_length_two(capsys, tmp_path):
    # no arrows, G = P1 + P2 and T = P1 + P2[2]: two summands proven
    # indecomposable pass the count, but no theorem turns the count into
    # generation for a T of three or more terms
    data = {
        "schema": "relhomalg/1", "field": "Q",
        "quiver": {"vertices": 2, "arrows": []}, "relations": [], "nilpotency": 2,
        "modules": {"P1": {"projective": 1}, "P2": {"projective": 2}},
        "generator": ["P1", "P2"], "corpus": ["P1", "P2"],
        "complexes": {"T1": {"stalk": "P1", "degree": 0}, "T2": {"stalk": "P2", "degree": -2},
                      "T": {"sum": ["T1", "T2"]}},
        "tilting": {"complex": "T", "summands": ["T1", "T2"], "summand_count": 2},
    }
    path, report = tmp_path / "stalks.json", tmp_path / "rep.json"
    path.write_text(json.dumps(data))
    assert run(["--report", report, "tilting", path]) == 0
    lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
    assert "term length 2" in lines and "count criterion passes" in lines
    assert "generation not checked" in lines
    tilting = json.loads(report.read_text())["results"]["tilting"]
    assert tilting["count_criterion_ok"] and tilting["generation"] == "not checked"
    assert tilting["generation_log"] == [
        "count criterion: no generation from the count at term length 2 > 1"]
