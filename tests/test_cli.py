import json
from pathlib import Path

import pytest

from relhomalg import algebra, cli, relative
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


def test_violated_exit_code(tmp_path, capsys):
    # declaring the wrong summand count makes the count criterion fail
    data = json.loads((DATA / "section7.json").read_text())
    data["tilting"]["summand_count"] = 5
    bad = tmp_path / "wrongcount.json"
    bad.write_text(json.dumps(data))
    assert run(["--quiet", "tilting", bad]) == 2


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


def _resolutions(monkeypatch, argv) -> int:
    """Number of f_resolution calls one CLI command makes."""
    calls = []
    real = relative.f_resolution

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(relative, "f_resolution", counted)
    monkeypatch.setattr(cli, "f_resolution", counted)
    assert run(argv) == 0
    return len(calls)


def test_module_resolves_each_module_once(monkeypatch, capsys):
    path = DATA / "section7.json"
    problem = load_problem(str(path))
    count = _resolutions(monkeypatch, ["module", path])
    assert count <= len(problem.corpus_names) + len(problem.modules)


@pytest.mark.parametrize("argv", [["bounds", "theorem73"], ["relhom", "gldim"]])
def test_corpus_dimensions_resolve_each_corpus_module_once(monkeypatch, capsys, argv):
    path = DATA / "section7.json"
    problem = load_problem(str(path))
    assert _resolutions(monkeypatch, [*argv, path]) == len(problem.corpus_names)


def test_theorem73_builds_and_resolves_gamma_top_once(monkeypatch, capsys):
    # gldim(Gamma) is pd(Gamma/rad Gamma), so the finitistic side reuses it
    # instead of resolving Gamma/rad Gamma again, and the quotient module
    # itself is built once per algebra
    tops, resolved = [], []
    build = algebra.semisimple_quotient_module

    def recorded(a):
        tops.append(build(a))
        return tops[-1]

    init = algebra.Resolution.__init__

    def recorded_init(self, m, *args, **kwargs):
        resolved.append(m)
        init(self, m, *args, **kwargs)

    monkeypatch.setattr(algebra, "semisimple_quotient_module", recorded)
    monkeypatch.setattr(algebra.Resolution, "__init__", recorded_init)
    assert run(["bounds", "theorem73", DATA / "section7.json"]) == 0
    assert len({id(s) for s in tops}) == 1
    assert sum(any(m is s for s in tops) for m in resolved) == 1
