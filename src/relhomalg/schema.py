"""Problem-file schema: parsing, validation with path diagnostics, module
and complex shorthand evaluation, and canonical serialization.

Rationals are encoded as strings ("a" or "a/b" with b > 0); matrices are
row-major nested arrays; all cross-references are by name and resolved at
load time.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .complexes import Complex, Part, shift_complex, stalk_complex
from .fields import Field, PrimeField, QQ, _is_probable_prime
from .matrix import Matrix
from .quiver import PathAlgebra, Quiver
from .rep import (ModuleMap, Representation, cokernel, projective, radical, radical_power_sub,
                  simple, socle)
from .relative import SubbifunctorF, SummandDecl
from .tilting import (
    ComplexSum,
    ConeWitness,
    SummandWitness,
    approximation_cone_complex,
)

SCHEMA_VERSION = "relhomalg/1"
KNOWN_CHECKS = ("theorem73", "cor710", "counts", "gorenstein")


class SchemaError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class TiltingDecl(NamedTuple):
    complex_name: str
    summand_names: list[str]
    declared_count: int
    witnesses: list


class Problem(NamedTuple):
    field: Field
    cutoff: int
    algebra: PathAlgebra
    modules: dict[str, Representation]
    generator_names: list[str]
    subbifunctor: SubbifunctorF
    corpus_names: list[str]
    corpus_complete: bool
    complexes: dict[str, Complex]
    tilting: TiltingDecl | None
    checks: list[str]
    raw: dict

    def corpus(self, sup: bool = False) -> list[tuple[str, Representation]]:
        """The corpus modules; a command that takes a sup over them (sup) needs one."""
        _expect(self.corpus_names or not sup, "$.corpus", "empty or absent; this command takes a sup over it")
        return [(n, self.modules[n]) for n in self.corpus_names]

    def tilting_sum(self) -> ComplexSum:
        if self.tilting is None:
            raise SchemaError("$.tilting", "no tilting declaration in this file")
        parts = [self.complexes[n] for n in self.tilting.summand_names]
        return ComplexSum(parts, list(self.tilting.summand_names))


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise SchemaError(path, message)


def _is_int(v) -> bool:
    """A JSON integer: a Python int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _typed(v, kind: type, path: str, what: str):
    """v, checked to be a JSON array (kind list) or object (kind dict)."""
    _expect(isinstance(v, kind), path, f"{what} must be {'an array' if kind is list else 'an object'}")
    return v


def _integer(v, path: str, what: str, minimum: int | None = None) -> int:
    """v, checked to be a JSON integer of at least minimum."""
    bound = "" if minimum is None else f" >= {minimum}"
    _expect(_is_int(v) and (minimum is None or v >= minimum), path,
            f"{what} must be an integer{bound}, got {v!r}")
    return v


_WITNESS_NAMES = {"summand": ("module", "of"), "cone": ("name", "source", "target")}


def _witness(w, path: str):
    """A generation witness {summand: {module, degree, of}} or
    {cone: {name, source, target}}, every key checked."""
    _expect(isinstance(w, dict) and len(w) == 1, path,
            "witness must be {summand: ...} or {cone: ...}")
    [(kind, spec)] = w.items()
    _expect(kind in _WITNESS_NAMES, path, f"unknown witness kind {sorted(w)}")
    _expect(isinstance(spec, dict), path, f"{kind} witness must be an object")
    for key in _WITNESS_NAMES[kind]:
        _expect(isinstance(spec.get(key), str), path, f"{kind} witness needs a string {key!r}")
    if kind == "summand":
        return SummandWitness(spec["module"], _integer(spec.get("degree"), path, "degree"),
                              spec["of"])
    _expect(spec.get("map", "identity") == "identity", path,
            "only identity-component cone maps are supported in files")
    return ConeWitness(spec["name"], spec["source"], spec["target"])


def _parse_scalar(field: Field, v, path: str):
    if _is_int(v):
        return field.of_int(v)
    if isinstance(v, str):
        try:
            return field.of_str(v)
        except (ValueError, ZeroDivisionError) as e:
            raise SchemaError(path, f"bad rational literal {v!r}: {e}")
    raise SchemaError(path, f"expected a rational string or integer, got {type(v).__name__}")


def _parse_matrix(field: Field, rows, cols_expected, rows_expected, path: str) -> Matrix:
    _expect(isinstance(rows, list), path, "matrix must be an array of rows")
    _expect(len(rows) == rows_expected, path,
            f"expected {rows_expected} rows, got {len(rows)}")
    entries = []
    for i, row in enumerate(rows):
        _expect(isinstance(row, list) and len(row) == cols_expected, f"{path}[{i}]",
                f"expected {cols_expected} entries")
        for j, v in enumerate(row):
            entries.append(_parse_scalar(field, v, f"{path}[{i}][{j}]"))
    return Matrix(field, rows_expected, cols_expected, entries)


def parse_field(spec, path: str) -> Field:
    if spec in ("Q", "q", None):
        return QQ
    if isinstance(spec, dict) and "prime" in spec:
        p = _integer(spec["prime"], path, "prime")
        _expect(_is_probable_prime(p), path, f"{p} is not prime")
        return PrimeField(p)
    raise SchemaError(path, f"unknown field spec {spec!r}")


def _build_module(name: str, spec, ctx: "_Loader") -> Representation:
    path = f"$.modules.{name}"
    algebra = ctx.algebra
    if not isinstance(spec, dict):
        raise SchemaError(path, "module spec must be an object")
    if "projective" in spec:
        return projective(algebra, _vertex(spec["projective"], algebra, path))
    if "injective" in spec:
        from .rep import injective as _inj
        return _inj(algebra, _vertex(spec["injective"], algebra, path))
    if "simple" in spec:
        return simple(algebra, _vertex(spec["simple"], algebra, path))
    if "radical_of" in spec:
        base = ctx.module(spec["radical_of"], path)
        return radical(base)[0]
    if "quotient_by_socle" in spec:
        base = ctx.module(spec["quotient_by_socle"], path)
        _, incl = socle(base)
        return cokernel(incl)[0]
    if "quotient_by_radical_power" in spec:
        ref = spec["quotient_by_radical_power"]
        _expect(isinstance(ref, list) and len(ref) == 2, path,
                "quotient_by_radical_power expects [module, power]")
        base = ctx.module(ref[0], path)
        _, incl = radical_power_sub(base, _integer(ref[1], path, "radical power", 0))
        return cokernel(incl)[0]
    if "dims" in spec:
        dims = spec["dims"]
        q = algebra.quiver
        _expect(isinstance(dims, list) and len(dims) == q.n, f"{path}.dims",
                f"dimension vector must have {q.n} entries")
        for k, d in enumerate(dims):
            _integer(d, f"{path}.dims[{k}]", "dimension", 0)
        mats = []
        given = _typed(spec.get("matrices", {}), dict, f"{path}.matrices", "matrices")
        for ai, a in enumerate(q.arrows):
            rows_expected = dims[a.target - 1]
            cols_expected = dims[a.source - 1]
            if a.name in given and given[a.name]:
                mats.append(_parse_matrix(ctx.field, given[a.name], cols_expected,
                                          rows_expected, f"{path}.matrices.{a.name}"))
            else:
                mats.append(Matrix.zeros(ctx.field, rows_expected, cols_expected))
        try:
            rep = Representation(algebra, tuple(dims), mats)
        except ValueError as e:
            raise SchemaError(path, f"invalid representation: {e}")
        # a module of kQ/(I + J^N): its radical series reaches 0 within N steps
        _expect(radical_power_sub(rep, algebra.N)[0].is_zero(), path,
                f"invalid representation: paths of length {algebra.N} (the nilpotency"
                " bound) do not act as zero")
        return rep
    raise SchemaError(path, f"unrecognized module shorthand {sorted(spec)}")


def _vertex(v, algebra, path) -> int:
    _integer(v, path, "vertex")
    _expect(1 <= v <= algebra.quiver.n, path, f"vertex {v} out of range")
    return v


def _build_complex(name: str, spec, ctx: "_Loader") -> Complex:
    path = f"$.complexes.{name}"
    algebra = ctx.algebra
    if not isinstance(spec, dict):
        raise SchemaError(path, "complex spec must be an object")
    if "stalk" in spec:
        mods = spec["stalk"] if isinstance(spec["stalk"], list) else [spec["stalk"]]
        degree = _integer(spec.get("degree", 0), f"{path}.degree", "degree")
        parts = [Part(m, ctx.module(m, path)) for m in mods]
        from .rep import direct_sum
        total = direct_sum([p.module for p in parts], algebra)
        return Complex(algebra, {degree: total}, {}, parts={degree: parts})
    if "shift" in spec:
        ref = spec["shift"]
        _expect(isinstance(ref, list) and len(ref) == 2, path, "shift expects [complex, n]")
        return shift_complex(ctx.complex(ref[0], path), _integer(ref[1], path, "shift"))
    if "sum" in spec:
        parts = [ctx.complex(n, path) for n in _typed(spec["sum"], list, f"{path}.sum", "sum")]
        from .complexes import sum_complexes
        return sum_complexes(parts, algebra)
    if "stalk_from" in spec:
        ref = spec["stalk_from"]
        _expect(isinstance(ref, list) and len(ref) == 2, path,
                "stalk_from expects [complex, degree]")
        base = ctx.complex(ref[0], path)
        deg = _integer(ref[1], path, "degree")
        _expect(deg in base.comps, path, f"complex {ref[0]} has no component at degree {deg}")
        comp = base.comps[deg]
        parts = list(base.parts[deg])
        out_degree = _integer(spec.get("degree", deg), f"{path}.degree", "degree")
        return stalk_complex(comp, out_degree, label=f"{ref[0]}@{deg}", parts=parts)
    if "approximation_cone" in spec:
        sub = spec["approximation_cone"]
        _expect(isinstance(sub, dict) and "target" in sub and "by" in sub, path,
                "approximation_cone expects {target, by}")
        target = ctx.module(sub["target"], path)
        by = [SummandDecl(n, ctx.module(n, path))
              for n in _typed(sub["by"], list, f"{path}.approximation_cone.by", "by")]
        try:
            return approximation_cone_complex(target, sub["target"], by, algebra)
        except ValueError as e:
            raise SchemaError(path, str(e))
    if "terms" in spec:
        terms = _typed(spec["terms"], dict, f"{path}.terms", "terms")
        comps, parts = {}, {}
        for dstr, mods in terms.items():
            try:
                deg = int(dstr)
            except ValueError:
                raise SchemaError(f"{path}.terms", f"bad degree key {dstr!r}")
            mods = mods if isinstance(mods, list) else [mods]
            pl = [Part(m, ctx.module(m, path)) for m in mods]
            from .rep import direct_sum
            comps[deg] = direct_sum([p.module for p in pl], algebra)
            parts[deg] = pl
        diffs = {}
        for dstr, vmats in _typed(spec.get("differentials", {}), dict, f"{path}.differentials",
                                  "differentials").items():
            try:
                deg = int(dstr)
            except ValueError:
                raise SchemaError(f"{path}.differentials", f"bad degree key {dstr!r}")
            _expect(deg in comps and (deg + 1) in comps, f"{path}.differentials.{dstr}",
                    "differential endpoints missing")
            _typed(vmats, dict, f"{path}.differentials.{dstr}", "a differential")
            src, tgt = comps[deg], comps[deg + 1]
            mats = []
            for v in range(algebra.quiver.n):
                key = str(v + 1)
                rows_expected, cols_expected = tgt.dims[v], src.dims[v]
                if key in vmats and vmats[key]:
                    mats.append(_parse_matrix(ctx.field, vmats[key], cols_expected,
                                              rows_expected, f"{path}.differentials.{dstr}.{key}"))
                else:
                    mats.append(Matrix.zeros(ctx.field, rows_expected, cols_expected))
            try:
                diffs[deg] = ModuleMap(src, tgt, mats)
            except ValueError as e:
                raise SchemaError(f"{path}.differentials.{dstr}", str(e))
        try:
            return Complex(algebra, comps, diffs, parts=parts)
        except ValueError as e:
            raise SchemaError(path, f"invalid complex: {e}")
    raise SchemaError(path, f"unrecognized complex shorthand {sorted(spec)}")


class _Loader:
    def __init__(self, data: dict, field_override: Field | None = None,
                 cutoff_override: int | None = None):
        self.data = data
        _expect(isinstance(data, dict), "$", "problem file must be a JSON object")
        _expect(data.get("schema") == SCHEMA_VERSION, "$.schema",
                f"expected schema {SCHEMA_VERSION!r}, got {data.get('schema')!r}")
        self.field = field_override or parse_field(data.get("field"), "$.field")
        cutoff = data.get("cutoff", 10) if cutoff_override is None else cutoff_override
        self.cutoff = _integer(cutoff, "$.cutoff", "cutoff", 1)
        self.algebra = self._build_algebra()
        self._modules: dict[str, Representation] = {}
        self._complexes: dict[str, Complex] = {}
        self._module_stack: list[str] = []
        self._complex_stack: list[str] = []

    def _build_algebra(self) -> PathAlgebra:
        data = self.data
        qspec = data.get("quiver")
        _expect(isinstance(qspec, dict), "$.quiver", "missing quiver")
        _integer(qspec.get("vertices"), "$.quiver.vertices", "vertex count", 1)
        arrows = []
        for k, a in enumerate(_typed(qspec.get("arrows", []), list, "$.quiver.arrows", "arrows")):
            _expect(isinstance(a, list) and len(a) == 3, f"$.quiver.arrows[{k}]",
                    "arrow must be [name, source, target]")
            for end in (1, 2):
                _integer(a[end], f"$.quiver.arrows[{k}][{end}]", "vertex")
            arrows.append((str(a[0]), a[1], a[2]))
        try:
            quiver = Quiver(qspec["vertices"], arrows)
        except ValueError as e:
            raise SchemaError("$.quiver", str(e))
        name_to_idx = {a[0]: i for i, a in enumerate(arrows)}
        relations = []
        for k, rel in enumerate(_typed(self.data.get("relations", []), list, "$.relations",
                                       "relations")):
            terms = []
            _expect(isinstance(rel, list) and rel, f"$.relations[{k}]",
                    "relation must be a nonempty array of [coeff, word] terms")
            for t, term in enumerate(rel):
                _expect(isinstance(term, list) and len(term) == 2,
                        f"$.relations[{k}][{t}]", "term must be [coeff, word]")
                coeff = _parse_scalar(self.field, term[0], f"$.relations[{k}][{t}][0]")
                word = []
                for astr in _typed(term[1], list, f"$.relations[{k}][{t}][1]", "a word"):
                    _expect(isinstance(astr, str) and astr in name_to_idx, f"$.relations[{k}][{t}][1]",
                            f"unknown arrow {astr!r}")
                    word.append(name_to_idx[astr])
                terms.append((coeff, tuple(word)))
            relations.append(terms)
        nilp = self.data.get("nilpotency")
        _expect(isinstance(nilp, int) and nilp >= 2, "$.nilpotency",
                "nilpotency bound must be an integer >= 2")
        try:
            return PathAlgebra(self.field, quiver, relations, nilp)
        except ValueError as e:
            raise SchemaError("$.relations", str(e))

    def module(self, name, path: str) -> Representation:
        _expect(isinstance(name, str), path, f"module reference must be a name, got {name!r}")
        if name in self._modules:
            return self._modules[name]
        specs = self.data.get("modules", {})
        _expect(name in specs, path, f"unknown module {name!r}")
        _expect(name not in self._module_stack, f"$.modules.{name}",
                "circular module definition")
        self._module_stack.append(name)
        try:
            mod = _build_module(name, specs[name], self)
        finally:
            self._module_stack.pop()
        self._modules[name] = mod
        return mod

    def complex(self, name, path: str) -> Complex:
        _expect(isinstance(name, str), path, f"complex reference must be a name, got {name!r}")
        if name in self._complexes:
            return self._complexes[name]
        specs = self.data.get("complexes", {})
        _expect(name in specs, path, f"unknown complex {name!r}")
        _expect(name not in self._complex_stack, f"$.complexes.{name}",
                "circular complex definition")
        self._complex_stack.append(name)
        try:
            cx = _build_complex(name, specs[name], self)
        finally:
            self._complex_stack.pop()
        self._complexes[name] = cx
        return cx

    def load(self) -> Problem:
        data = self.data
        for name in _typed(data.get("modules", {}), dict, "$.modules", "modules"):
            self.module(name, "$.modules")
        for name in _typed(data.get("complexes", {}), dict, "$.complexes", "complexes"):
            self.complex(name, "$.complexes")
        gen_names = data.get("generator", [])
        _expect(isinstance(gen_names, list) and gen_names, "$.generator",
                "generator must list the declared indecomposable summands of G")
        summands = [SummandDecl(n, self.module(n, "$.generator")) for n in gen_names]
        try:
            sub = SubbifunctorF(self.algebra, summands)
        except ValueError as e:
            raise SchemaError("$.generator", str(e))
        corpus_names = _typed(data.get("corpus", []), list, "$.corpus", "corpus")
        for n in corpus_names:
            self.module(n, "$.corpus")
        complete = data.get("corpus_complete", False)
        _expect(isinstance(complete, bool), "$.corpus_complete", "corpus_complete must be true or false")
        tilting = None
        tspec = data.get("tilting")
        if tspec is not None:
            _expect(isinstance(tspec, dict), "$.tilting", "tilting must be an object")
            summand_names = tspec.get("summands")
            _expect(isinstance(summand_names, list) and summand_names, "$.tilting.summands",
                    "tilting must declare its summand complexes")
            for n in summand_names:
                self.complex(n, "$.tilting.summands")
            count = _integer(tspec.get("summand_count", len(summand_names)),
                             "$.tilting.summand_count", "summand count")
            witnesses = []
            for k, w in enumerate(_typed(tspec.get("witnesses", []), list, "$.tilting.witnesses",
                                         "witnesses")):
                witnesses.append(_witness(w, f"$.tilting.witnesses[{k}]"))
            tilting = TiltingDecl(complex_name=tspec.get("complex", "T"),
                                  summand_names=summand_names,
                                  declared_count=count, witnesses=witnesses)
        checks = _typed(data.get("checks", []), list, "$.checks", "checks")
        for k, c in enumerate(checks):
            _expect(c in KNOWN_CHECKS, f"$.checks[{k}]",
                    f"unknown check {c!r}; known: {', '.join(KNOWN_CHECKS)}")
        return Problem(field=self.field, cutoff=self.cutoff, algebra=self.algebra,
                       modules=dict(self._modules), generator_names=list(gen_names),
                       subbifunctor=sub, corpus_names=list(corpus_names),
                       corpus_complete=complete,
                       complexes=dict(self._complexes), tilting=tilting,
                       checks=list(checks), raw=data)


def parse_problem(text: str, field_override: Field | None = None,
                  cutoff_override: int | None = None) -> Problem:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"$ (line {e.lineno}, column {e.colno})", e.msg)
    return _Loader(data, field_override, cutoff_override).load()


def load_problem(path: str, field_override: Field | None = None,
                 cutoff_override: int | None = None) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read(), field_override, cutoff_override)


# ---------------------------------------------------------------------------
# canonical serialization


def _canonical_scalar(field: Field, v, path: str) -> str:
    return field.to_str(_parse_scalar(field, v, path))


def _canonicalize(node, field: Field, path: str, in_matrix: bool):
    if isinstance(node, dict):
        return {k: _canonicalize(node[k], field,
                                 f"{path}.{k}",
                                 in_matrix or k in ("matrices", "differentials"))
                for k in sorted(node)}
    if isinstance(node, list):
        if in_matrix and node and not isinstance(node[0], (dict, list)):
            return [_canonical_scalar(field, v, path) for v in node]
        return [_canonicalize(v, field, f"{path}[]", in_matrix) for v in node]
    return node


def canonical_form(text: str) -> str:
    """Parse + validate, then re-serialize to the canonical byte form."""
    problem = parse_problem(text)
    data = json.loads(text)
    # relations carry coefficients: canonicalize them too
    if "relations" in data:
        rels = []
        for rel in data["relations"]:
            rels.append([[problem.field.to_str(_parse_scalar(problem.field, t[0], "$")), t[1]]
                         for t in rel])
        data["relations"] = rels
    canon = _canonicalize(data, problem.field, "$", False)
    return json.dumps(canon, sort_keys=True, separators=(", ", ": "), indent=1) + "\n"
