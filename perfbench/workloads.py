"""The three workloads: which relhomalg commands each pass runs, and the
answers each command must give.

Expected answers come from outside the program: values the paper and the
acceptance tests fix for the bundled problems, Auslander's theorem and the
uniserial Hom count of ``nakayama`` for the generated family, and symmetry
(rotation, change of field) for the relative workload. A check returns the
list of its mismatches; an empty list is a correct answer.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import nakayama

DATA = os.path.join("src", "relhomalg", "data")


@dataclass
class Result:
    """What a command that exited 0 gave: its ``--report`` results and stdout."""
    report: dict
    stdout: str


@dataclass
class Command:
    label: str
    args: list[str]
    check: Callable[[Result, dict], list[str]]  # (result, earlier reports by label)


@dataclass
class Workload:
    name: str
    commands: list[Command]
    files: dict[str, dict] = field(default_factory=dict)  # generated inputs by file name


def _value(report: dict, key: str):
    """A reported quantity: an int, a string, or (value, censored)."""
    v = report["values"][key]
    if isinstance(v, dict):
        return (v["value"], v["censored"])
    return v


def _expect(problems: list, what: str, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _bounds(values: dict | None = None, counts: dict | None = None):
    """Check a ``bounds`` report: status verified, exact values, counts."""

    def check(res: Result, _earlier: dict) -> list[str]:
        problems: list[str] = []
        rep = res.report
        _expect(problems, "overall status", rep["status"], "verified")
        for key, want in (values or {}).items():
            _expect(problems, key, _value(rep, key), want)
        for key, want in (counts or {}).items():
            _expect(problems, key, rep["counts"].get(key), want)
        return problems

    return check


def _exact(v: int):
    return (v, False)


# section7 is the 3-cycle with length-3 paths zero, with
# G = P1 + P2 + P3 + S2 + S3 + M2 (M2 = P2/soc, the length-2 uniserial).
SECTION7_G = [(0, 3), (1, 3), (2, 3), (1, 1), (2, 1), (1, 2)]


def _tilting_section6(res: Result, _earlier: dict) -> list[str]:
    problems: list[str] = []
    t = res.report["tilting"]
    _expect(problems, "self-orthogonal", t["self_orthogonal_ok"], True)
    _expect(problems, "count criterion", t["count_criterion_ok"], True)
    _expect(problems, "declared summands", t["declared_count"], 4)
    _expect(problems, "generation", t["generation"], "witnessed")
    _expect(problems, "term length", t["term_length"], 1)
    if "image over Sigma: hom windows match" not in res.stdout:
        problems.append("image over Sigma: hom windows do not match")
    return problems


def bundled() -> Workload:
    """Six commands on the bundled problems, as users run them."""
    s7 = os.path.join(DATA, "section7.json")
    s6 = os.path.join(DATA, "section6.json")
    a2 = os.path.join(DATA, "a2_apr.json")
    return Workload("bundled", [
        Command("theorem73 section7", ["bounds", "theorem73", s7], _bounds(values={
            "gldim_F(Lambda)": _exact(1),
            "gldim(Gamma)": _exact(3),
            "t(T)": 0,
            "dim(Gamma)": nakayama.gamma_dim(3, SECTION7_G),
        })),
        # gldim_F and gldim(Gamma) are finite, so both sides are Gorenstein.
        Command("gorenstein section7", ["bounds", "gorenstein", s7], _bounds(values={
            "Lambda F-Gorenstein": "yes",
            "Gamma Gorenstein": "yes",
        })),
        Command("tilting --sigma section6", ["tilting", "--sigma", s6], _tilting_section6),
        # T = T1 + T2 is a two-term complex.
        Command("theorem73 section6", ["bounds", "theorem73", s6],
                _bounds(values={"t(T)": 1})),
        Command("counts section6", ["bounds", "counts", s6], _bounds(counts={
            "indecomposables in P(F)": 4,
            "declared summands of T": 4,
            "dim(Gamma/rad Gamma)": 4,
            "split_basic_verified": True,
        })),
        # A2 is hereditary and its APR tilt is hereditary again.
        Command("cor710 a2_apr", ["bounds", "cor710", a2], _bounds(values={
            "gldim(Lambda)": _exact(1),
            "gldim(Gamma)": _exact(1),
            "l(T)": 1,
        })),
    ])


# (label, n, L, generator, expected values) for the gamma workload. Values
# without a theorem behind them were recorded when the benchmark was
# defined, identical for every seed; they hold the program to its own
# earlier answer.
GAMMA_CASES = [
    ("nakayama(4,4) P+S2..S4", 4, 4, nakayama.projectives_and_simples(4, 4, True), {
        "gldim_F(Lambda)": _exact(5),      # recorded
        "gldim(Gamma)": _exact(7),         # recorded
        "t(T)": 0,                         # T is a stalk complex
    }),
    # G is every indecomposable, so add(G) = mod Lambda, every module is
    # F-projective, and Gamma is the Auslander algebra (gldim 2, Auslander).
    ("nakayama(3,3) all", 3, 3, nakayama.uniserials(3, 3), {
        "gldim_F(Lambda)": _exact(0),
        "gldim(Gamma)": _exact(2),
        "t(T)": 0,
    }),
]


def gamma(seed: int, workdir: str) -> Workload:
    """``bounds theorem73`` on the generated Nakayama family."""
    wl = Workload("gamma", [])
    for k, (label, n, length, gen, values) in enumerate(GAMMA_CASES):
        path = os.path.join(workdir, f"gamma{k}.json")
        wl.files[path] = nakayama.problem(n, length, gen, seed, tilting=True)
        values = dict(values, **{"dim(Gamma)": nakayama.gamma_dim(n, gen)})
        wl.commands.append(Command(label, ["bounds", "theorem73", path],
                                   _bounds(values=values)))
    return wl


RELATIVE_CASE = (6, 5)
PRIME = 32003


def _module_report(n: int, length: int, names: dict):
    """Check a ``module`` report on the rotation-invariant relative problem.

    Dimension vectors follow from the uniserial structure. G (all
    projectives and simples) is invariant under rotating the cycle, so pd_F
    and id_F depend only on the length of a uniserial, and summands of G
    have pd_F = 0.
    """

    def check(res: Result, _earlier: dict) -> list[str]:
        problems: list[str] = []
        rep = res.report
        _expect(problems, "modules reported", sorted(rep), sorted(names))
        by_length: dict[int, set] = {}
        for name, (v, k) in names.items():
            entry = rep.get(name)
            if entry is None:
                continue
            dims = [0] * n
            for s in range(k):
                dims[(v + s) % n] += 1
            _expect(problems, f"dims of {name}", entry["dims"], dims)
            if k in (1, length):
                _expect(problems, f"pd_F of {name}", entry["pd_F"]["value"], 0)
            by_length.setdefault(k, set()).add(json.dumps([entry["pd_F"], entry["id_F"]],
                                                          sort_keys=True))
        for k, seen in sorted(by_length.items()):
            if len(seen) != 1:
                problems.append(f"pd_F/id_F differ between rotations of length {k}")
        return problems

    return check


def _same_as(label: str, inner):
    """Run ``inner``, then require the report to equal an earlier one."""

    def check(res: Result, earlier: dict) -> list[str]:
        problems = inner(res, earlier)
        if earlier.get(label) != res.report:
            problems.append(f"report differs from {label!r}")
        return problems

    return check


def relative(seed: int, workdir: str) -> Workload:
    """``module`` (pd_F, id_F, F-resolutions, I(F)) over Q and over F_p."""
    n, length = RELATIVE_CASE
    gen = nakayama.projectives_and_simples(n, length, False)
    path = os.path.join(workdir, "relative.json")
    wl = Workload("relative", [])
    wl.files[path] = nakayama.problem(n, length, gen, seed, tilting=False)
    names = nakayama.names(n, length, seed)
    check = _module_report(n, length, names)
    q_label = f"module nakayama({n},{length}) over Q"
    wl.commands.append(Command(q_label, ["--field", "q", "module", path], check))
    wl.commands.append(Command(f"module nakayama({n},{length}) over F_{PRIME}",
                               ["--field", f"fp:{PRIME}", "module", path],
                               _same_as(q_label, check)))
    return wl


def build(name: str, seed: int, workdir: str) -> Workload:
    """The named workload, with its generated inputs written to ``workdir``."""
    if name == "bundled":
        wl = bundled()
    elif name == "gamma":
        wl = gamma(seed, workdir)
    elif name == "relative":
        wl = relative(seed, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    for path, data in wl.files.items():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
    return wl


NAMES = ("bundled", "gamma", "relative")
