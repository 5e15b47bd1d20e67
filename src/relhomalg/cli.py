"""Command-line front end:  relhomalg [GLOBAL OPTIONS] COMMAND ARGS...

The tables COMMANDS and TOP give the grammar, read as argparse reads it:
global options come before the command, a command's options before, between
or after its positionals; `--opt=value` is `--opt value`, a unique prefix
names a long option, a repeated option's last value wins, a negative number
is a value, and every token after `--` is a positional.

Exit codes: 0 = all checks verified or vacuous-at-cutoff, 1 = input or
usage error, 2 = a check reported "violated" or a validation failed,
3 = an internal error, printed as one line without a traceback.

`main` runs with Python's cyclic collector paused and restores the state it
found on every way out: what a command builds stays reachable from the
per-algebra caches until it returns, so a collection during the run would
rescan the growing heap and free nothing.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
from collections import namedtuple
from types import SimpleNamespace

from . import bounds as bounds_mod
from .complexes import (
    chain_identity,
    cone,
    hom_k,
    is_f_acyclic,
    term_length,
)
from .fields import QQ
from .relative import (
    ext_f,
    f_resolution,
    findim_f,
    gldim_f,
    id_f,
    is_f_exact,
    projective_cover,
    relative_injectives,
)
from .reports import DimensionReport
from .rep import ShortExactSeq, proven_isomorphic
from .schema import SchemaError, canonical_form, load_problem, parse_field
from .tilting import image_tilting_over_sigma, verify_f_tilting

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATED = 2
EXIT_INTERNAL = 3


class Output:
    def __init__(self, quiet: bool):
        self.quiet = quiet
        self.report: dict = {}

    def say(self, *parts):
        if not self.quiet:
            print(*parts)

    def table(self, rows, headers=None):
        if self.quiet or not rows:
            return
        cols = len(rows[0])
        if headers:
            rows = [headers] + [["-" * len(h) for h in headers]] + rows
        widths = [max(len(str(r[c])) for r in rows) for c in range(cols)]
        for r in rows:
            print("  ".join(str(v).ljust(widths[c]) for c, v in enumerate(r)))


def _load(args, out: Output):
    field = None
    if args.field:
        if args.field.lower() in ("q", "qq"):
            field = QQ
        elif args.field.lower().startswith("fp:"):  # checked as a file's {"prime": P}
            p = args.field[3:]  # an int where int() reads one
            p = int(p) if re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", p) else p
            field = parse_field({"prime": p}, "--field")
        else:
            raise SchemaError("--field", f"unknown field {args.field!r} (use q or fp:P)")
    problem = load_problem(args.file, field_override=field, cutoff_override=args.cutoff)
    for note in problem.subbifunctor.validation_notes:
        out.say("note:", note)
    return problem


def _named(table: dict, flag: str, kind: str, name: str):
    if name not in table:
        raise SchemaError(flag, f"unknown {kind} {name!r}")
    return table[name]


def _named_match(problem, module) -> str:
    for name, m in problem.modules.items():
        if proven_isomorphic(m, module):
            return name
    return f"<unnamed {module.dims}>"


def cmd_algebra(args, out: Output) -> int:
    problem = _load(args, out)
    alg = problem.algebra
    out.say(f"algebra over {alg.field!r}: {alg.quiver.n} vertices, "
            f"{len(alg.quiver.arrows)} arrows, dimension {alg.dim}")
    rows = []
    for k, (src, word) in enumerate(alg.basis):
        label = "e_" + str(src) if not word else "".join(
            alg.quiver.arrows[a].name for a in word)
        rows.append([k, label, src, alg.element_target(k), len(word)])
    out.table(rows, headers=["idx", "path", "from", "to", "len"])
    if args.canonical:
        with open(args.file, "r", encoding="utf-8") as fh:
            sys.stdout.write(canonical_form(fh.read()))
    out.report = {
        "dimension": alg.dim,
        "basis": [{"path": "".join(alg.quiver.arrows[a].name for a in word) if word else f"e_{src}",
                   "from": src, "to": alg.element_target(k)}
                  for k, (src, word) in enumerate(alg.basis)],
    }
    return EXIT_OK


def cmd_module(args, out: Output) -> int:
    problem = _load(args, out)
    F = problem.subbifunctor
    if args.ext:
        x, y, deg = args.ext
        ext_pair = [_named(problem.modules, "--ext", "module", n) for n in (x, y)]
        if deg < 0:
            raise SchemaError("--ext", f"negative degree {deg}")
    names = [args.name] if args.name else list(problem.modules)
    injs, _validated, notes = relative_injectives(F, [m for _, m in problem.corpus()])
    for note in notes:  # I(F) failed validation: id_F is against an unproven class
        out.say("note:", note)
    rows = []
    rep_json = {}
    for n in names:
        m = _named(problem.modules, "--name", "module", n)
        res = f_resolution(m, F, problem.cutoff)
        pdr = DimensionReport("pd_F", res.pd, problem.cutoff)
        idr = id_f(m, F, injs, problem.cutoff)
        idr.caveats += notes
        shape = " <- ".join(str(p.dims) for p in res.modules)
        rows.append([n, str(m.dims), str(pdr.dim), str(idr.dim), shape])
        rep_json[n] = {"dims": list(m.dims), "pd_F": pdr.to_json(), "id_F": idr.to_json()}
    out.table(rows, headers=["module", "dims", "pd_F", "id_F", "resolution"])
    if args.ext:
        val = ext_f(*ext_pair, deg, F)
        out.say(f"ext_F^{deg}({x}, {y}) = {val}")
        rep_json["ext"] = {"x": x, "y": y, "degree": deg, "dim": val}
    out.report = rep_json
    return EXIT_OK


def cmd_relhom(args, out: Output) -> int:
    problem = _load(args, out)
    F = problem.subbifunctor
    corpus = problem.corpus(sup=args.sub == "gldim")
    if args.sub == "ifset":
        injs, validated, notes = relative_injectives(F, [m for _, m in corpus])
        names = [_named_match(problem, c.module) for c in injs]
        out.say("I(F) = {" + ", ".join(names) + "}")
        out.say(f"validated F-injective against corpus: {'yes' if validated else 'NO'}")
        out.report = {"ifset": names,
                      "validated": validated,
                      "notes": notes if not validated else []}
        return EXIT_OK if validated else EXIT_VIOLATED
    if args.sub == "gldim":
        g = gldim_f(corpus, F, problem.cutoff, complete=problem.corpus_complete)
        fd = findim_f(g, complete=problem.corpus_complete)
        out.say(f"gldim_F = {g.dim}   fd_F = {fd.dim}   (cutoff {problem.cutoff})")
        out.table([[n, str(d)] for n, d in sorted(g.breakdown.items())],
                  headers=["module", "pd_F"])
        out.report = {"gldim_F": g.to_json(), "fd_F": fd.to_json()}
        return EXIT_OK
    if args.sub == "resolve":
        if not args.module:
            raise SchemaError("--module", "relhom resolve needs --module")
        m = _named(problem.modules, "--module", "module", args.module)
        res = f_resolution(m, F, problem.cutoff)
        rows = [[-k, str(p.dims),
                 ",".join(F.summands[j].name for j in (res.pieces[k] or []))
                 if res.pieces[k] is not None else "(identity)"]
                for k, p in enumerate(res.modules)]
        out.table(rows, headers=["degree", "dims", "add(G) pieces"])
        out.say(f"length {res.length}{' (truncated)' if res.truncated else ''}")
        out.report = {"module": args.module, "length": res.length, "truncated": res.truncated}
        return EXIT_OK
    if args.sub == "exact":
        if not args.module:
            raise SchemaError("--module", "relhom exact needs --module")
        m = _named(problem.modules, "--module", "module", args.module)
        cover = projective_cover(m)
        _, incl = cover.kernel
        ses = ShortExactSeq(incl, cover.map)
        ok = is_f_exact(ses, F)
        out.say(f"projective cover sequence of {args.module}: "
                f"{'F-exact' if ok else 'not F-exact'}")
        out.report = {"module": args.module, "cover_sequence_f_exact": ok}
        return EXIT_OK


def cmd_complex(args, out: Output) -> int:
    for flag, value in (("--to", args.to), ("--window", args.window)):
        if value is not None and args.sub != "homk":
            raise SchemaError(flag, "only complex homk reads it")
    problem = _load(args, out)
    F = problem.subbifunctor
    x = _named(problem.complexes, "--complex", "complex", args.complex)
    if args.sub == "termlength":
        t = term_length(x)
        out.say(f"term length t({args.complex}) = {t}")
        out.report = {"complex": args.complex, "term_length": t}
        return EXIT_OK
    if args.sub == "acyclic":
        ok = is_f_acyclic(x, F)
        out.say(f"{args.complex} is {'F-acyclic' if ok else 'not F-acyclic'}")
        out.report = {"complex": args.complex, "f_acyclic": ok}
        return EXIT_OK
    if args.sub == "cone":
        m = cone(chain_identity(x))
        ok = is_f_acyclic(m, F)
        out.say(f"cone(id_{args.complex}): degrees {m.degrees()}, "
                f"F-acyclic: {'yes' if ok else 'NO'}")
        out.report = {"complex": args.complex, "cone_degrees": m.degrees(),
                      "contractible_cone_acyclic": ok}
        return EXIT_OK if ok else EXIT_VIOLATED
    if args.sub == "homk":
        if not args.to:
            raise SchemaError("--to", "complex homk needs --to")
        y = _named(problem.complexes, "--to", "complex", args.to)
        window = 3 if args.window is None else args.window
        if window < 0:
            raise SchemaError("--window", f"negative window {window}")
        dims = {n: hom_k(x, y, n) for n in range(-window, window + 1)}
        out.table([[n, dims[n]] for n in sorted(dims)], headers=["shift", "dim hom_K"])
        out.report = {"from": args.complex, "to": args.to,
                      "hom_k": {str(n): d for n, d in sorted(dims.items())}}
        return EXIT_OK


def cmd_tilting(args, out: Output) -> int:
    problem = _load(args, out)
    F = problem.subbifunctor
    if problem.tilting is None:
        raise SchemaError("$.tilting", "file declares no tilting complex")
    ts = problem.tilting_sum()
    rep = verify_f_tilting(ts, F, problem.tilting.declared_count,
                           witnesses=problem.tilting.witnesses,
                           witness_env=problem.complexes)
    gamma = ts.gamma()
    out.say(f"tilting complex {problem.tilting.complex_name}: "
            f"{'PASSES' if rep.passed else 'FAILS'}")
    out.table([
        ["components in add(G)", "yes" if rep.in_kb_pf else "NO"],
        ["self-orthogonal", "yes" if rep.self_orthogonal_ok else "NO"],
        ["term length", rep.term_length],
        ["declared summands", rep.declared_count],
        ["count criterion", "passes" if rep.count_criterion_ok else "FAILS"],
        ["generation", rep.generation],
        ["dim End(T)", rep.endo_dim],
        ["dim rad End(T)", gamma.radical_dim()],
    ])
    for f in rep.failures:
        out.say("failure:", f)
    if args.sigma:
        _, sigma_dims = image_tilting_over_sigma(ts, F)
        lam = {**rep.self_orthogonal, 0: rep.endo_dim}
        mism = {n: (lam[n], d) for n, d in sigma_dims.items() if lam[n] != d}
        out.say("image over Sigma: hom windows "
                + ("match" if not mism else f"MISMATCH {mism}"))
    out.report = {"tilting": rep.to_json(), "endo_dim": gamma.dim,
                  "endo_radical_dim": gamma.radical_dim()}
    return EXIT_OK if rep.passed else EXIT_VIOLATED


def cmd_bounds(args, out: Output) -> int:
    problem = _load(args, out)
    F = problem.subbifunctor
    corpus = problem.corpus(sup=args.sub in ("theorem73", "cor710"))
    if problem.tilting is None:
        raise SchemaError("$.tilting", "bounds checks need a tilting declaration")
    ts = problem.tilting_sum()
    cutoff = problem.cutoff
    if args.sub == "theorem73":
        rep = bounds_mod.theorem73_check(F, corpus, ts, cutoff,
                                         complete=problem.corpus_complete)
    elif args.sub == "cor710":
        rep = bounds_mod.corollary710_check(F, corpus, ts, cutoff,
                                            complete=problem.corpus_complete)
    elif args.sub == "counts":
        rep = bounds_mod.prop63_64_counts(F, problem.tilting.declared_count, ts.gamma())
    else:  # gorenstein, the last choice in COMMANDS
        rep = bounds_mod.gorenstein_check(F, corpus, ts, cutoff)
    rows = []
    for key, val in rep.values.items():
        rows.append([key, str(val.dim) if hasattr(val, "dim") else str(val)])
    for key, val in rep.counts.items():
        rows.append([key, str(val)])
    out.table(rows, headers=["quantity", "value"])
    out.say("")
    out.table([[c.label, str(c.lhs), str(c.rhs), c.status] for c in rep.checks],
              headers=["check", "lhs", "rhs", "status"])
    for n in rep.notes:
        out.say("note:", n)
    out.say(f"overall: {rep.worst_status}")
    out.report = rep.to_json()
    return EXIT_VIOLATED if rep.violated else EXIT_OK


# An option takes one value per (metavar, type) pair; with none it is a flag
# that stores True, else its default is None.  Positionals: (dest, choices).
Option = namedtuple("Option", "help values required", defaults=((), False))
Command = namedtuple("Command", "fn help positionals options")

NAME, FILE = (("NAME", str),), ("file", None)
COMMANDS = {
    "algebra": Command(cmd_algebra, "build the algebra and dump its basis", (FILE,), {
        "--canonical": Option("print the canonical form of the input file")}),
    "module": Command(cmd_module, "module dimensions, resolutions and ext", (FILE,), {
        "--name": Option("report only this module", NAME),
        "--ext": Option("also compute ext_F^I(X, Y)", (("X", str), ("Y", str), ("I", int)))}),
    "relhom": Command(cmd_relhom, "F-exactness, resolutions, I(F), gldim_F",
                      (("sub", ("ifset", "gldim", "resolve", "exact")), FILE), {
        "--module": Option("the module that resolve and exact read", NAME)}),
    "complex": Command(cmd_complex, "cones, hom_k, acyclicity, term length",
                       (("sub", ("termlength", "acyclic", "cone", "homk")), FILE), {
        "--complex": Option("the complex to examine", NAME, required=True),
        "--to": Option("the target complex of homk", NAME),
        "--window": Option("homk shifts -N..N (default 3)", (("N", int),))}),
    "tilting": Command(cmd_tilting, "verify the F-tilting declaration and dump End", (FILE,), {
        "--sigma": Option("also compare hom windows with the image complex over End(G)")}),
    "bounds": Command(cmd_bounds, "theorem73 / cor710 / counts / gorenstein",
                      (("sub", ("theorem73", "cor710", "counts", "gorenstein")), FILE), {}),
}
TOP = Command(None, "relative homological algebra over finite-dimensional quiver algebras",
              (("command", COMMANDS),), {
    "--cutoff": Option("dimension cutoff (default: the file's, else 10)", (("N", int),)),
    "--field": Option("field override: q or fp:P", (("FIELD", str),)),
    "--report": Option("write a JSON report to PATH", (("PATH", str),)),
    "--quiet": Option("suppress human output")})
HELP = Option("show this help and exit")


def _spec(name: str, opt: Option) -> str:
    return " ".join([name, *(metavar for metavar, _ in opt.values)])


def _usage(prog: str, cmd: Command) -> str:
    opts = [_spec(n, o) if o.required else f"[{_spec(n, o)}]" for n, o in cmd.options.items()]
    return " ".join(["usage:", prog, "[-h]", *opts, *(
        "{" + ",".join(choices) + "}" if choices else dest.upper() for dest, choices in cmd.positionals)])


def _help(prog: str, cmd: Command) -> str:
    rows = [("-h, --help", HELP.help), *((_spec(n, o), o.help) for n, o in cmd.options.items())]
    commands = ["", "commands:", *(f"  {n:<9} {c.help}" for n, c in COMMANDS.items())]
    return "\n".join([_usage(prog, cmd), "", cmd.help, *(commands if cmd is TOP else []),
                      "", "options:", *(f"  {spec:<15} {text}" for spec, text in rows)])


def _fail(prog: str, cmd: Command, message: str):
    print(f"{_usage(prog, cmd)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_INPUT)


def _option(token: str, options: dict):
    """(name, inline value or None) of an option, ("", None) if unknown, None for a value."""
    if not token.startswith("-") or token == "-":
        return None
    name, eq, inline = token.partition("=")
    found = [n for n in (*options, "-h", "--help") if n == name] or [
        n for n in (*options, "--help") if token.startswith("--") and n.startswith(name)]
    if len(found) == 1:
        return found[0], inline if eq else None
    return None if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token else ("", None)


def parse_args(argv) -> SimpleNamespace:
    """argv read as argparse reads it, by the grammar of the module docstring."""
    prog, cmd, args, extras, only_values, i = "relhomalg", TOP, {}, [], False, 0
    positionals, options = list(TOP.positionals), TOP.options
    while i < len(argv):
        token, i = argv[i], i + 1
        if token == "--" and cmd is not TOP and not only_values:
            only_values = True
            continue
        found = None if only_values or token == "--" else _option(token, options)
        if found is None and positionals:
            dest, choices = positionals.pop(0)
            if choices is not None and token not in choices:
                _fail(prog, cmd, f"argument {dest}: invalid choice: {token!r}")
            args[dest] = token
            if dest == "command":
                prog, cmd = f"relhomalg {token}", COMMANDS[token]
                positionals, options = list(cmd.positionals), cmd.options
        elif found is None or not found[0]:
            extras.append(token)
        else:
            name, inline = found
            opt = options.get(name, HELP)
            given = argv[i:i + len(opt.values)] if inline is None else [inline]
            i += len(given) if inline is None else 0
            if len(given) != len(opt.values) or inline is None and any(_option(t, options) for t in given):
                _fail(prog, cmd, f"argument {_spec(name, opt)}: expected {len(opt.values)} value(s)")
            if opt is HELP:
                print(_help(prog, cmd))
                raise SystemExit(EXIT_OK)
            try:
                parsed = [kind(value) for (_, kind), value in zip(opt.values, given)]
            except ValueError:
                _fail(prog, cmd, f"argument {_spec(name, opt)}: invalid int in {' '.join(given)!r}")
            args[name[2:]] = parsed[0] if len(parsed) == 1 else parsed or True
    missing = [d for d, _ in positionals] + [n for n, o in options.items() if o.required and n[2:] not in args]
    if missing:
        _fail(prog, cmd, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(prog, cmd, f"unrecognized arguments: {' '.join(extras)}")
    defaults = {n[2:]: None if o.values else False for n, o in {**TOP.options, **options}.items()}
    return SimpleNamespace(**{**defaults, **args, "fn": cmd.fn})


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(sys.argv[1:] if argv is None else argv)
    finally:
        if enabled:
            gc.enable()


def _report_error(path: str) -> str | None:
    """Why the report cannot be written to path, checked before the command
    runs; None when it can."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        return f"--report {path}: is a directory"
    if not os.path.isdir(folder):
        return f"--report {path}: no directory {folder}"
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        return f"--report {path}: not writable"
    return None


def _run(argv) -> int:
    args = parse_args(argv)
    if args.report and (problem := _report_error(args.report)):
        print(f"input error: {problem}", file=sys.stderr)
        return EXIT_INPUT
    out = Output(quiet=args.quiet)
    try:
        code = args.fn(args, out)
    except (SchemaError, FileNotFoundError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return EXIT_VIOLATED
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.report:
        payload = {"command": args.command, "file": getattr(args, "file", None),
                   "exit": code, "results": out.report}
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
