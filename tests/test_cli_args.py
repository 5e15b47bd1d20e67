"""The command-line grammar: `cli.parse_args` against argparse, and a seeded
fuzz of `cli.main` over argument lists."""

import random
import shutil
from pathlib import Path

import pytest

from helpers import argparse_parser

from relhomalg import cli

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"
S7, S6, A2 = "section7.json", "section6.json", "a2_apr.json"

# README "CLI"
README = [
    ["algebra", S7],
    ["module", S7, "--name", "M1", "--ext", "M1", "S2", "1"],
    ["relhom", "ifset", S7],
    ["relhom", "gldim", S7],
    ["relhom", "resolve", S7, "--module", "S1"],
    ["complex", "termlength", S6, "--complex", "T1a"],
    ["complex", "homk", S6, "--complex", "T", "--to", "T"],
    ["tilting", S6, "--sigma"],
    ["bounds", "theorem73", S7],
    ["bounds", "counts", S6],
    ["bounds", "cor710", A2],
    ["bounds", "gorenstein", S7],
]
# .github/workflows/tests.yml
CI = [
    ["--quiet", "bounds", "counts", S6],
    ["--quiet", "bounds", "theorem73", S7],
    ["--quiet", "tilting", "--sigma", S6],
    ["--quiet", "--field", "fp:32003", "tilting", "--sigma", S7],
    ["--quiet", "--field", "fp:32003", "bounds", "theorem73", S6],
    ["--quiet", "--field", "fp:32003", "module", S7],
    ["--quiet", "--field", "fp:32003", "module", "--ext", "S1", "M2", "1", S7],
    ["--quiet", "--field", "fp:32003", "bounds", "gorenstein", S7],
    ["--quiet", "bounds", "cor710", A2],
    ["--quiet", "relhom", "ifset", S7],
    ["--quiet", "--field", "fp:32003", "relhom", "exact", "--module", "M2", S7],
    ["--quiet", "--field", "fp:32003", "relhom", "resolve", "--module", "M2", S7],
    ["--quiet", "relhom", "gldim", S6],
    *(["--quiet", "complex", sub, S6, "--complex", "T1a"] for sub in ("termlength", "acyclic", "cone")),
    ["--quiet", "complex", "homk", S6, "--complex", "T1a", "--to", "T1b", "--window", "1"],
    ["--quiet", "algebra", S7],
    ["--quiet", "bounds", "theorem73", "nakayama55.json"],
    *(["bounds", sub, "nakayama55.json"] for sub in ("theorem73", "gorenstein")),
    *(["--field", "fp:32003", "bounds", sub, "nakayama55.json"] for sub in ("theorem73", "gorenstein")),
    ["--quiet", "bounds", "theorem73", "nakayama88.json"],
    ["--quiet", "--field", "fp:32003", "tilting", "nakayama65.json"],
    ["--quiet", "module", "nakayama65ps.json"],
    ["--quiet", "--field", "fp:32003", "module", "nakayama65ps.json"],
    ["--quiet", "relhom", "ifset", "nakayama65ps.json"],
    ["--quiet", "--field", "fp:32003", "relhom", "ifset", "nakayama65ps.json"],
    ["module", "nakayama65ps.json"],
    ["--field", "fp:32003", "module", "nakayama65ps.json"],
]
# tests/test_cli.py
TEST_CLI = [
    ["--report", "rep.json", "bounds", "theorem73", S7],
    ["complex", "termlength", S6, "--complex", "T1a"],
    ["--field", "q", "module", S7, "--ext", "S1", "M2", "1"],
    ["module", "section6_symmetric.json", "--name", "S2", "--ext", "S2", "S1", "40"],
    ["relhom", "exact", "--module", "M", "loop.json"],
    ["--quiet", "tilting", "wrongcount.json"],
    ["--report", "report.json", "tilting", "probe.json"],
    ["tilting", "--sigma", "no_m2.json"],
    ["--quiet", "--report", "r0.json", "bounds", "counts", S7],
    ["--field", "fp:5", "algebra", S7],
    ["--cutoff", "4", "--report", "r.json", "relhom", "gldim", S7],
    ["--cutoff", "0", "algebra", "cutoff.json"],
    ["--cutoff", "2", "--report", "rep.json", "bounds", "theorem73", S7],
    ["algebra", "no-such-file.json"],
    ["algebra"],
    ["--cutoff", "x", "algebra", S7],
    ["bounds", "nope", S7],
    ["--help"],
]
FORMS = [
    ["--cutoff=3", "--field=fp:7", "--report=r.json", "algebra", S7],
    ["module", S7, "--name=M1", "--ext", "M1", "S2", "1"],
    ["complex", "homk", S6, "--complex=T", "--to=T", "--window=2"],
    ["--field=", "algebra", S7],
    ["--cut", "5", "--fi", "q", "--rep", "r.json", "--q", "bounds", "counts", S7],
    ["tilting", S6, "--sig"],
    ["algebra", S7, "--can"],
    ["complex", "acyclic", S6, "--comp", "T1a", "--t", "T1b", "--win", "1"],
    ["relhom", "exact", S7, "--mod=M2"],
    ["--cutoff", "3", "--cutoff", "4", "--quiet", "--quiet", "algebra", S7],
    ["module", S7, "--name", "M1", "--name", "M2", "--ext", "a", "b", "1", "--ext", "M1", "S2", "2"],
    ["complex", "--complex", "T1a", "cone", "--window", "1", S6, "--to", "T1b"],
    ["relhom", "--module", "M2", "resolve", S7],
    ["module", "--ext", "M2", "S2", "-1", S7],
    ["--cutoff", "-1", "algebra", S7],
    ["complex", "homk", S6, "--complex", "T", "--to", "T", "--window", "-2"],
    ["complex", "homk", S6, "--complex", "-a b"],
    ["-h"],
    ["--he", "bounds"],
    ["algebra", "-h"],
    ["complex", "--help"],
    ["bounds", "cor710", A2, "--h"],
    ["bounds", "cor710", A2, "extra", "-h"],
]
USAGE_ERRORS = [
    [],
    ["--quiet"],
    ["nope", S7],
    ["relhom", "nope", S7],
    ["complex", "nope", S6, "--complex", "T"],
    ["--cutoff", "x", "algebra", S7],
    ["--cutoff=", "algebra", S7],
    ["--cutoff", "1.5", "algebra", S7],
    ["complex", "homk", S6, "--complex", "T", "--window", "x"],
    ["module", S7, "--ext", "M2", "S2", "x"],
    ["relhom", "gldim"],
    ["bounds", S7],
    ["bounds", "counts", S7, "extra"],
    ["algebra", S7, S6],
    ["algebra", S7, "--bogus"],
    ["--bogus", "algebra", S7],
    ["algebra", S7, "-x"],
    ["algebra", S7, "--quiet"],
    ["bounds", "counts", S7, "--cutoff", "3"],
    ["module", S7, "--ext", "M2", "S2"],
    ["module", S7, "--ext", "M2", "S2", "--name", "M1"],
    ["module", S7, "--ext=M2", "S2", "1"],
    ["complex", "termlength", S6],
    ["complex", "termlength", S6, "--complex"],
    ["complex", "termlength", S6, "--complex", "--to", "T"],
    ["--quiet=1", "algebra", S7],
    ["tilting", S6, "--sigma=yes"],
    ["--cutoff"],
    ["--help=x"],
]
CORPUS = list({tuple(a): a for a in README + CI + TEST_CLI + FORMS + USAGE_ERRORS}.values())


def _parsed(parse, argv):
    """(exit code, parsed attributes or None)."""
    try:
        return 0, vars(parse(argv))
    except SystemExit as exc:
        return exc.code, None


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_parse_args_matches_argparse(argv, capsys):
    oracle = argparse_parser()
    code, parsed = _parsed(cli.parse_args, argv)
    assert (code, parsed) == _parsed(oracle.parse_args, argv)
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT)


def test_double_dash_ends_the_options(capsys):
    # argparse versions differ on where "--" may stand, so it is not in CORPUS
    args = cli.parse_args(["complex", "acyclic", "--complex", "T", "--", "-f.json"])
    assert (args.sub, args.file, args.complex) == ("acyclic", "-f.json", "T")
    assert _parsed(cli.parse_args, ["algebra", "--", "F", "--quiet"]) == (cli.EXIT_INPUT, None)


def test_usage_errors_exit_1_with_a_usage_line(capsys):
    for argv in USAGE_ERRORS:
        assert _parsed(cli.parse_args, argv) == (cli.EXIT_INPUT, None), argv
        err = capsys.readouterr().err
        assert err.startswith("usage: relhomalg") and "error: " in err, argv


def test_help_is_rendered_from_the_tables(capsys):
    for argv in (["--help"], *([name, "-h"] for name in cli.COMMANDS)):
        assert _parsed(cli.parse_args, argv) == (cli.EXIT_OK, None)
        out = capsys.readouterr().out
        command = cli.COMMANDS.get(argv[0], cli.TOP)
        assert out.startswith("usage: relhomalg") and command.help in out
        assert all(name in out for name in command.options)
        if command is cli.TOP:
            assert all(name in out for name in cli.COMMANDS)


# every argument list here that names a file runs on section7 or a2_apr
FUZZ_BASE = [
    ["bounds", "cor710", A2],
    ["bounds", "counts", S7],
    ["bounds", "theorem73", S7],
    ["--field", "fp:32003", "bounds", "gorenstein", S7],
    ["tilting", "--sigma", S7],
    ["module", S7, "--name", "M1", "--ext", "M1", "S2", "1"],
    ["--field", "fp:32003", "module", "--ext", "S1", "M2", "1", S7],
    ["relhom", "ifset", S7],
    ["--cutoff", "4", "--report", "r.json", "relhom", "gldim", S7],
    ["relhom", "resolve", S7, "--module", "S1"],
    ["--field", "fp:32003", "relhom", "exact", "--module", "M2", S7],
    ["complex", "termlength", A2, "--complex", "T1"],
    ["complex", "acyclic", A2, "--complex", "T1"],
    ["complex", "cone", A2, "--complex", "Q1"],
    ["complex", "homk", A2, "--complex", "T", "--to", "T1", "--window", "1"],
    ["algebra", A2, "--canonical"],
]
NAMES = {"M1", "M2", "S1", "S2", "T", "T1", "Q1", "fp:32003", "bounds", "cor710", "counts",
         "theorem73", "gorenstein", "tilting", "module", "relhom", "ifset", "gldim", "resolve",
         "exact", "complex", "termlength", "acyclic", "cone", "homk", "algebra"}


def _mutate(rng: random.Random, argv: list) -> list:
    argv = list(argv)
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(len(argv))
        kind = rng.randrange(5)
        if kind == 0:
            del argv[k]
        elif kind == 1:
            argv.insert(k, argv[k])
        elif kind == 2:
            j = rng.randrange(len(argv))
            argv[j], argv[k] = argv[k], argv[j]
        elif kind == 3:
            names = [i for i, t in enumerate(argv) if t in NAMES]
            argv[rng.choice(names or [k])] = "NOPE"
        else:
            longs = [i for i, t in enumerate(argv) if t.startswith("--")]
            if longs:
                i = rng.choice(longs)
                argv[i] = argv[i][:rng.randint(3, len(argv[i]))]
        if not argv:
            break
    return argv


def test_argv_fuzz_exits_0_1_or_2(tmp_path, monkeypatch, capsys):
    # the files and any --report live in tmp_path, whatever a mutation names
    monkeypatch.chdir(tmp_path)
    rng = random.Random(20141)
    for k in range(200):
        for name in (S7, A2):  # a mutated --report may have overwritten one
            shutil.copy(DATA / name, name)
        argv = ["--quiet", *_mutate(rng, FUZZ_BASE[k % len(FUZZ_BASE)])]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code in (0, 1, 2), argv
