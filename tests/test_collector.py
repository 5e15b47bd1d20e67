"""The CLI runs each command with Python's cyclic collector paused.

The pause is safe only because a collection during a run frees nothing:
what a command builds stays reachable from the per-algebra caches until it
returns.  The last test pins that premise with the collector on and eager."""

import gc
import json
from pathlib import Path

import pytest

from relhomalg import cli
from relhomalg.schema import SchemaError

from helpers import nakayama_problem

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"
BUNDLED = ("section6", "section6_symmetric", "section7", "a2_apr")
COMMANDS = (["module"], ["relhom", "gldim"], ["tilting", "--sigma"],
            *(["bounds", sub] for sub in ("theorem73", "gorenstein", "cor710", "counts")))


@pytest.fixture
def collector():
    """Restores the collector's state and thresholds after the test."""
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    yield
    gc.set_threshold(*thresholds)
    (gc.enable if enabled else gc.disable)()


def _raising(args, out):
    raise KeyError("crash")


def _exit(argv):
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as e:
        return e.code


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_restores_the_collector_state(collector, tmp_path, monkeypatch, enabled):
    violated = json.loads((DATA / "section7.json").read_text())
    violated["tilting"]["summand_count"] = 5
    (tmp_path / "violated.json").write_text(json.dumps(violated))
    monkeypatch.setitem(cli.COMMANDS, "module", cli.COMMANDS["module"]._replace(
        fn=_raising))
    cases = [
        (["algebra", DATA / "a2_apr.json"], 0),
        (["algebra", tmp_path / "missing.json"], 1),
        (["bounds", "nope", DATA / "a2_apr.json"], 1),
        (["--help"], 0),
        (["tilting", tmp_path / "violated.json"], 2),
        (["module", DATA / "a2_apr.json"], 3),
    ]
    for argv, code in cases:
        (gc.enable if enabled else gc.disable)()
        assert _exit(argv) == code, argv
        assert gc.isenabled() is enabled, argv


@pytest.mark.parametrize("exc, code", [(None, 0), (SchemaError("$", "bad"), 1),
                                       (ValueError("bad"), 2), (KeyError("bad"), 3)])
def test_the_collector_is_off_while_a_command_runs(collector, monkeypatch, exc, code):
    seen = []

    def fn(args, out):
        seen.append(gc.isenabled())
        if exc is not None:
            raise exc
        return cli.EXIT_OK

    monkeypatch.setitem(cli.COMMANDS, "algebra", cli.COMMANDS["algebra"]._replace(fn=fn))
    gc.enable()
    assert cli.main(["algebra", str(DATA / "a2_apr.json")]) == code
    assert seen == [False] and gc.isenabled()


def _cases(tmp_path):
    for name in BUNDLED:
        for argv in COMMANDS:
            yield [*argv, DATA / f"{name}.json"]
    ps = tmp_path / "nakayama65ps.json"
    ps.write_text(json.dumps(nakayama_problem(6, 5)))
    yield ["module", ps]
    every = tmp_path / "nakayama33.json"
    every.write_text(json.dumps(nakayama_problem(3, 3, every_indecomposable=True, tilting=True)))
    yield ["bounds", "theorem73", every]


@pytest.mark.parametrize("field", ["q", "fp:32003"])
def test_no_collection_during_a_command_frees_anything(collector, tmp_path, field):
    # the command function is called directly, so main's pause is not in force
    seen = {"on": False, "runs": 0, "freed": 0}

    def count(phase, info):
        if phase == "stop" and seen["on"]:
            seen["runs"] += 1
            seen["freed"] += info["collected"]

    gc.callbacks.append(count)
    try:
        for argv in _cases(tmp_path):
            args = cli.parse_args(["--field", field, *map(str, argv)])
            gc.collect()
            seen.update(on=True, runs=0, freed=0)
            gc.set_threshold(100, 2, 2)
            gc.enable()
            try:
                args.fn(args, cli.Output(quiet=False))
            except ValueError:  # a failed precondition: exit 2
                pass
            finally:
                gc.disable()
                seen["on"] = False
            assert seen["runs"] and seen["freed"] == 0, (argv, seen)
    finally:
        gc.callbacks.remove(count)
