"""Time to a verified verdict from the relhomalg CLI.

    python3 perfbench/run.py --workload bundled|gamma|relative \
        --seed N --seconds S --trace 0|1

Run from the root of a relhomalg checkout. A pass runs each command of the
workload once, one at a time, each in a fresh interpreter, the way a user
invokes the CLI. Passes repeat until the next one would end after S seconds
(at least one pass; with --trace 1, one untraced and two traced passes).
Every answer is checked against expected values (see workloads.py).

--trace 0 reports per pass, as medians over passes:
  wall_s       sum over commands of the time spent in cli.main
  setup_s      sum over commands of process start plus `import relhomalg`
  peak_rss_mb  largest peak RSS of any command in the pass
Times are corrected for the host's speed (hostspeed.py); the raw wall time
is printed next to them.
--trace 1 wraps the package's functions in spans (tracer.py) and reports
per-layer calls and self times, as medians over the traced passes, plus the
tracing overhead against the untraced passes of the same run.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import hostspeed
import workloads
from workloads import Result

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = ".perfbench_work"
RUN_LIMIT_S = 170  # a run must end within 180 s; no command may run past this

# Per-layer metrics: name -> (unit, how to read it from a traced pass).
# ("calls"|"self"|"total", spans) sums over the spans; ("layer", name) is a
# layer's self time; the rest are counters of the tracer.
PER_LAYER = {
    "matrix.apply.calls": ("count", ("calls", ["matrix.Matrix.apply"])),
    "matrix.apply.self_s": ("s", ("self", ["matrix.Matrix.apply"])),
    "matrix.coords.calls": ("count", ("calls", ["matrix.SpanSolver.coords"])),
    "matrix.coords.self_s": ("s", ("self", ["matrix.SpanSolver.coords"])),
    "matrix.lincomb.calls": ("count", ("calls", ["matrix.Matrix.__add__", "matrix.Matrix.scale"])),
    "matrix.lincomb.self_s": ("s", ("self", ["matrix.Matrix.__add__", "matrix.Matrix.scale"])),
    "matrix.rref.calls": ("count", ("calls", ["matrix.rref"])),
    "matrix.rref.self_s": ("s", ("self", ["matrix.rref"])),
    "matrix.self_s": ("s", ("layer", "matrix")),
    "rep.hom_space.calls": ("count", ("calls", ["rep.hom_space"])),
    "rep.hom_space.self_s": ("s", ("self", ["rep.hom_space"])),
    "rep.hom_space.hit_ratio": ("ratio", ("hit_ratio", None)),
    "rep.hom_coordinates.calls": ("count", ("calls", ["rep.hom_coordinates"])),
    "rep.hom_coordinates.self_s": ("s", ("self", ["rep.hom_coordinates"])),
    "rep.is_isomorphic.calls": ("count", ("calls", ["rep.is_isomorphic"])),
    "rep.is_isomorphic.self_s": ("s", ("self", ["rep.is_isomorphic"])),
    "rep.self_s": ("s", ("layer", "rep")),
    "relative.approx.calls": ("count", ("calls", ["relative.minimal_right_approximation",
                                                  "relative.left_approximation"])),
    "relative.approx.self_s": ("s", ("self", ["relative.minimal_right_approximation",
                                              "relative.left_approximation"])),
    "relative.f_resolution.calls": ("count", ("calls", ["relative.f_resolution"])),
    "relative.f_resolution.self_s": ("s", ("self", ["relative.f_resolution"])),
    "relative.f_resolution.total_s": ("s", ("total", ["relative.f_resolution"])),
    "relative.ext_f.calls": ("count", ("calls", ["relative.ext_f"])),
    "relative.self_s": ("s", ("layer", "relative")),
    "complexes.homotopy_hom.calls": ("count", ("calls", ["complexes.HomotopyHom.__init__"])),
    "complexes.homotopy_hom.self_s": ("s", ("self", ["complexes.HomotopyHom.__init__"])),
    "complexes.class_coordinates.calls": ("count", ("calls", ["complexes.HomotopyHom.class_coordinates"])),
    "complexes.class_coordinates.self_s": ("s", ("self", ["complexes.HomotopyHom.class_coordinates"])),
    "complexes.self_s": ("s", ("layer", "complexes")),
    "tilting.end_algebra.self_s": ("s", ("self", ["tilting.end_algebra"])),
    "tilting.end_algebra.total_s": ("s", ("total", ["tilting.end_algebra"])),
    "tilting.end_algebra.products": ("count", ("products", None)),
    "tilting.verify_f_tilting.self_s": ("s", ("self", ["tilting.verify_f_tilting"])),
    "tilting.self_s": ("s", ("layer", "tilting")),
    "algebra.extend_to.calls": ("count", ("calls", ["algebra.Resolution.extend_to"])),
    "algebra.extend_to.self_s": ("s", ("self", ["algebra.Resolution.extend_to"])),
    "algebra.extend_to.total_s": ("s", ("total", ["algebra.Resolution.extend_to"])),
    "algebra.rho.calls": ("count", ("calls", ["algebra.AbstractModule.rho"])),
    "algebra.rho.self_s": ("s", ("self", ["algebra.AbstractModule.rho"])),
    "algebra.radical_matrix.self_s": ("s", ("self", ["algebra.AbstractAlgebra.radical_matrix"])),
    "algebra.self_s": ("s", ("layer", "algebra")),
    "schema.load_problem.self_s": ("s", ("self", ["schema.load_problem", "schema.parse_problem"])),
    "schema.load_problem.total_s": ("s", ("total", ["schema.load_problem"])),
    "schema.self_s": ("s", ("layer", "schema")),
    "bounds.self_s": ("s", ("layer", "bounds")),
    "cli.self_s": ("s", ("layer", "cli")),
}
COUNTS = [name for name, (unit, _) in PER_LAYER.items() if unit != "s"]


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Runs commands in fresh child interpreters and checks their answers."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.serial = 0

    def warm_up(self):
        """Compile the package's bytecode once, as an installed package has it."""
        subprocess.run([sys.executable, "-c", "import relhomalg.cli"], env=self.env,
                       check=True, timeout=60)

    def command(self, cmd: workloads.Command, trace: bool, earlier: dict) -> dict:
        """One command: its times, peak RSS, trace summary and mismatches."""
        self.serial += 1
        out = os.path.join(self.workdir, f"{self.serial}.result.json")
        report = os.path.join(self.workdir, f"{self.serial}.report.json")
        argv = [sys.executable, CHILD, out, "1" if trace else "0", "--",
                "--report", report, *cmd.args]
        factor = hostspeed.speed_factor()
        spawn = clock()
        try:
            proc = subprocess.run(argv, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - spawn))
        except subprocess.TimeoutExpired:
            return {"problems": [f"{cmd.label}: timed out"]}
        if proc.returncode != 0 or not os.path.exists(out):
            return {"problems": [f"{cmd.label}: child exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-400:]}"]}
        with open(out, encoding="utf-8") as fh:
            res = json.load(fh)
        sample = {"wall": res["wall"], "raw_wall": res["raw_wall"],
                  "setup": (res["ready"] - spawn) * (factor + res["setup_factor"]) / 2,
                  "rss_mb": res["maxrss_kb"] / 1024, "trace": res["trace"], "problems": []}
        if res["error"]:
            sample["problems"].append(f"{cmd.label}: crashed: {res['error'].strip()[-400:]}")
        elif res["exit"] != 0:
            sample["problems"].append(f"{cmd.label}: exit code {res['exit']}, expected 0: "
                                      f"{proc.stderr.strip()[-400:]}")
        else:
            try:
                with open(report, encoding="utf-8") as fh:
                    results = json.load(fh)["results"]
                earlier[cmd.label] = results
                problems = cmd.check(Result(results, res["stdout"]), earlier)
            except (OSError, ValueError, KeyError, TypeError) as e:
                problems = [f"no report or an entry missing from it: {e!r}"]
            sample["problems"] += [f"{cmd.label}: {p}" for p in problems]
        return sample

    def one_pass(self, wl: workloads.Workload, trace: bool) -> dict:
        """Each command once; a command that fails adds no time to the pass."""
        earlier: dict = {}
        start = clock()
        samples = [self.command(cmd, trace, earlier) for cmd in wl.commands]
        ok = [s for s in samples if not s["problems"]]
        return {
            "trace": trace,
            "duration": clock() - start,
            "attempted": len(samples),
            "failed": len(samples) - len(ok),
            "problems": [p for s in samples for p in s["problems"]],
            "wall": sum(s["wall"] for s in ok),
            "raw_wall": sum(s["raw_wall"] for s in ok),
            "command_walls": [s.get("wall") for s in samples],
            "setup": sum(s["setup"] for s in ok),
            "rss_mb": max((s["rss_mb"] for s in ok), default=0.0),
            "layers": merge_traces([s["trace"] for s in ok]) if trace else None,
        }


def merge_traces(traces: list[dict]) -> dict:
    """Sum the span summaries of a pass's commands."""
    spans: dict[str, list] = {}
    layers: dict[str, float] = {}
    hits = products = 0
    for t in traces:
        for name, vals in t["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
        for name, v in t["layers"].items():
            layers[name] = layers.get(name, 0.0) + v
        hits += t["hom_hits"]
        products += t["products"]
    return {"spans": spans, "layers": layers, "hom_hits": hits, "products": products}


def layer_value(trace: dict, how: tuple):
    kind, arg = how
    if kind == "layer":
        return trace["layers"].get(arg, 0.0)
    if kind == "hit_ratio":
        calls = trace["spans"].get("rep.hom_space", [0])[0]
        return trace["hom_hits"] / calls if calls else 0.0
    if kind == "products":
        return trace["products"]
    col = {"calls": 0, "self": 1, "total": 2}[kind]
    return sum(trace["spans"].get(name, [0, 0.0, 0.0])[col] for name in arg)


def run_passes(runner: Runner, wl: workloads.Workload, seconds: float, trace: bool) -> list[dict]:
    """Passes until the next would end after ``seconds``.

    Untraced runs need one pass; traced runs cycle untraced, traced, traced
    and need one whole cycle, so deterministic counts can be compared.
    """
    kinds = [False, True, True] if trace else [False]
    passes: list[dict] = []
    start = clock()
    while True:
        kind = kinds[len(passes) % len(kinds)]
        passes.append(runner.one_pass(wl, kind))
        if clock() > runner.deadline:
            break
        if len(passes) >= len(kinds):
            nxt = kinds[len(passes) % len(kinds)]
            est = statistics.median(p["duration"] for p in passes if p["trace"] == nxt)
            if clock() - start + est > seconds or clock() + est > runner.deadline:
                break
    return passes


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(passes: list[dict], labels: list[str]) -> dict:
    plain = [p for p in passes if not p["trace"]]
    metrics = {
        "wall_s": (statistics.median(p["wall"] for p in plain), "s"),
        "setup_s": (statistics.median(p["setup"] for p in plain), "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in plain), "MB"),
    }
    print(f"{len(plain)} untraced passes")
    for key in ("wall", "raw_wall", "setup"):
        q1, q2, q3 = quartiles([p[key] for p in plain])
        print(f"  {key}_s: median {q2:.4f}  quartiles {q1:.4f} .. {q3:.4f}  "
              f"values {' '.join(f'{p[key]:.3f}' for p in plain)}")
    for k, cmd in enumerate(labels):
        walls = [p["command_walls"][k] for p in plain]
        print(f"  {cmd:<40} median {statistics.median(walls):8.4f} s  "
              f"values {' '.join(f'{w:.3f}' for w in walls)}")
    return metrics


def per_layer(passes: list[dict]) -> tuple[dict, list[str]]:
    """Medians over traced passes, and any count that differed between them."""
    traced = [p["layers"] for p in passes if p["trace"]]
    problems = []
    for name in COUNTS:
        seen = {layer_value(t, PER_LAYER[name][1]) for t in traced}
        if len(seen) > 1:
            problems.append(f"{name} differs between traced passes: {sorted(seen)}")
    metrics = {name: (layer_value(traced[0], how) if unit != "s"
                      else statistics.median(layer_value(t, how) for t in traced), unit)
               for name, (unit, how) in PER_LAYER.items()}
    traced_wall = statistics.median(p["wall"] for p in passes if p["trace"])
    plain_wall = statistics.median(p["wall"] for p in passes if not p["trace"])
    metrics["trace_overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    print(f"{len(traced)} traced passes, traced wall_s {traced_wall:.3f}, untraced {plain_wall:.3f}")
    for layer in sorted(traced[0]["layers"], key=lambda k: -traced[0]["layers"][k]):
        self_s = metrics[f"{layer}.self_s"][0]
        print(f"  {layer:<10} self {self_s:9.4f} s  {self_s / traced_wall:6.1%}")
    for name in ("tilting.end_algebra.total_s", "algebra.extend_to.total_s",
                 "relative.f_resolution.total_s", "schema.load_problem.total_s"):
        print(f"  {name:<30} {metrics[name][0]:9.4f} s  {metrics[name][0] / traced_wall:6.1%}")
    return metrics, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    begun = clock()
    if not os.path.isfile(os.path.join("src", "relhomalg", "cli.py")):
        print("perfbench: run from the root of a relhomalg checkout (no src/relhomalg here)",
              file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(workdir, begun + RUN_LIMIT_S)
        runner.warm_up()
        passes = run_passes(runner, wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    problems = [p for ps in passes for p in ps["problems"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload {wl.name}, seed {args.seed}: {attempted} commands, "
          f"error_rate {failed / attempted:.4f}")
    metrics = {}
    if not failed and args.trace:
        metrics, count_problems = per_layer(passes)
        problems += count_problems
    elif not failed:
        metrics = end_to_end(passes, [cmd.label for cmd in wl.commands])
    for p in problems:
        print(f"MISMATCH {p}", file=sys.stderr)
    out = {"correct": not problems, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(out))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
