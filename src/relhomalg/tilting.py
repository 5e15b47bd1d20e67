"""F-tilting verification (self-orthogonality, the count criterion, witness
triangles) and extraction of endomorphism algebras of complexes.

Endomorphism algebras carry the diagrammatic product a*b = "a then b"; with
that convention Hom(G, -) and Hom(T, -) land in left modules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import AbstractAlgebra
from .complexes import (
    ChainMap,
    Complex,
    HomotopyHom,
    Part,
    _module_total_hom,
    _TotalHom,
    chain_identity,
    cone,
    stalk_complex,
    sum_complexes,
    term_length,
)
from .matrix import Matrix, column_space_basis, rank, solve
from .rep import ModuleMap, Representation, direct_sum, hom_space, is_isomorphic
from .relative import SubbifunctorF

_SEED = 0x7E171


@dataclass
class ComplexSum:
    total: Complex
    parts: list[Complex]
    names: list[str]
    injections: list[ChainMap]
    projections: list[ChainMap]


def sum_complexes_with_maps(parts: list[Complex], names: list[str],
                            algebra=None) -> ComplexSum:
    if algebra is None:
        algebra = parts[0].algebra
    total = sum_complexes(parts, algebra)
    degrees = total.degrees()
    sums = {i: direct_sum([p.component(i) for p in parts], algebra) for i in degrees}
    injections, projections = [], []
    for k, p in enumerate(parts):
        inj = {i: sums[i].injections[k] for i in degrees if i in p.comps}
        proj = {i: sums[i].projections[k] for i in degrees if i in p.comps}
        injections.append(ChainMap(p, total, inj).validate())
        projections.append(ChainMap(total, p, proj).validate())
    return ComplexSum(total, list(parts), list(names), injections, projections)


def compose_chain(f: ChainMap, g: ChainMap) -> dict[int, ModuleMap]:
    """Degreewise composition f then g (both degree-0 maps)."""
    out = {}
    for i in f.comps:
        gi = g.comps.get(i)
        if gi is None:
            continue
        out[i] = f.comps[i].compose(gi)
    return out


def approximation_cone_complex(target: Representation, target_label: str,
                               by: list, algebra) -> Complex:
    """The two-term complex Q -> target (degrees -1, 0) with Q -> target a
    minimal right add(⊕by)-approximation."""
    from .relative import minimal_right_approximation

    app = minimal_right_approximation(target, by, algebra)
    if app.is_identity or app.map.source.is_zero():
        raise ValueError("approximation is trivial; the cone would be contractible or a stalk")
    parts_src = [Part(by[k].name, by[k].module) for k in app.pieces]
    src = app.map.source
    return Complex(algebra, {-1: src, 0: target}, {-1: app.map},
                   parts={-1: parts_src, 0: [Part(target_label, target)]})


@dataclass
class EndoPresentation:
    """End_{K(A)}(T) by structure constants over homotopy-class
    representatives (product: a*b = a then b)."""
    dim: int
    table: list          # table[i][j]: coordinate vector
    unit: list
    idempotents: list | None
    hom: HomotopyHom
    reps: list[ChainMap]

    def to_abstract(self, validate: bool = False) -> AbstractAlgebra:
        return AbstractAlgebra(self.hom.field, self.dim, self.table, self.unit,
                               idempotents=self.idempotents, validate=validate)


def end_algebra(t: Complex | ComplexSum) -> EndoPresentation:
    ts = t if isinstance(t, ComplexSum) else None
    total = ts.total if ts else t
    hh = HomotopyHom(total, total, 0)
    reps = hh.representatives()
    d = hh.dim
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            comp = compose_chain(reps[i], reps[j])
            row.append(hh.class_coordinates(comp))
        table.append(row)
    unit = hh.class_coordinates(chain_identity(total).comps)
    idems = None
    if ts is not None:
        idems = []
        for k in range(len(ts.parts)):
            e = compose_chain(ts.projections[k], ts.injections[k])
            idems.append(hh.class_coordinates(e))
    return EndoPresentation(dim=d, table=table, unit=unit, idempotents=idems,
                            hom=hh, reps=reps)


# ---------------------------------------------------------------------------
# homotopy-summand witnesses


def _chain_cycles(x: Complex, y: Complex) -> list[ChainMap]:
    hh = HomotopyHom(x, y, 0)
    return [hh.vector_to_chain_map(hh.cycles.col(c)) for c in range(hh.cycles.cols)]


def stalk_is_homotopy_summand(module: Representation, degree: int, x: Complex) -> bool:
    """Split pair u: stalk -> x, v: x -> stalk with u then v invertible."""
    stalk = stalk_complex(module, degree)
    if stalk.is_zero():
        return True
    us = _chain_cycles(stalk, x)
    vs = _chain_cycles(x, stalk)
    if not us or not vs:
        return False

    def composite_invertible(u: ChainMap, v: ChainMap) -> bool:
        cu = u.comps.get(degree)
        cv = v.comps.get(degree)
        if cu is None or cv is None:
            return False
        return cu.compose(cv).is_isomorphism()

    for u in us:
        for v in vs:
            if composite_invertible(u, v):
                return True
    F = module.algebra.field
    rng = random.Random(_SEED)
    for _ in range(64):
        u = us[0].comps.get(degree)
        uacc = None
        for b in us:
            c = F.of_int(rng.randint(-3, 3))
            m = b.comps.get(degree)
            if m is None:
                continue
            uacc = m.scale(c) if uacc is None else uacc + m.scale(c)
        vacc = None
        for b in vs:
            c = F.of_int(rng.randint(-3, 3))
            m = b.comps.get(degree)
            if m is None:
                continue
            vacc = m.scale(c) if vacc is None else vacc + m.scale(c)
        if uacc is not None and vacc is not None and uacc.compose(vacc).is_isomorphism():
            return True
    return False


@dataclass
class ConeWitness:
    """new_name := cone(map: source -> target); both must be available."""
    name: str
    source: str
    target: str
    map_comps: dict[int, ModuleMap] | str  # explicit maps or "identity"


@dataclass
class SummandWitness:
    summand_name: str  # declared G-summand to realize as a stalk summand
    degree: int
    of: str


def check_generation_witnesses(f: SubbifunctorF, steps: list,
                               env: dict[str, Complex]) -> tuple[str, list[str], set[str]]:
    """Run the witness steps; returns (status, log, witnessed G-summands)."""
    log: list[str] = []
    witnessed: set[str] = set()
    env = dict(env)
    for step in steps:
        if isinstance(step, ConeWitness):
            if step.source not in env or step.target not in env:
                log.append(f"cone step {step.name}: unknown complex reference")
                return "not checked", log, witnessed
            src, tgt = env[step.source], env[step.target]
            if step.map_comps == "identity":
                comps = {}
                for i in src.degrees():
                    if i in tgt.comps and src.comps[i].dims == tgt.comps[i].dims:
                        comps[i] = ModuleMap.identity(src.comps[i])
            else:
                comps = step.map_comps
            try:
                cm = ChainMap(src, tgt, comps).validate()
            except ValueError as e:
                log.append(f"cone step {step.name}: invalid chain map ({e})")
                return "not checked", log, witnessed
            M, _, _ = cone(cm)
            env[step.name] = M
            log.append(f"cone step {step.name}: built cone of {step.source} -> {step.target}")
        elif isinstance(step, SummandWitness):
            decl = {s.name: s.module for s in f.summands}
            if step.summand_name not in decl or step.of not in env:
                log.append(f"summand step {step.summand_name}: unknown reference")
                return "not checked", log, witnessed
            ok = stalk_is_homotopy_summand(decl[step.summand_name], step.degree, env[step.of])
            if not ok:
                log.append(f"summand step {step.summand_name}@{step.degree} of {step.of}: FAILED")
                return "not checked", log, witnessed
            witnessed.add(step.summand_name)
            log.append(f"summand step {step.summand_name}@{step.degree} of {step.of}: verified")
        else:
            raise TypeError(f"unknown witness step {step!r}")
    missing = {s.name for s in f.summands} - witnessed
    if missing:
        log.append(f"witness chain incomplete; missing stalks: {sorted(missing)}")
        return "not checked", log, witnessed
    return "witnessed", log, witnessed


# ---------------------------------------------------------------------------
# the verifier


@dataclass
class TiltingReport:
    in_kb_pf: bool
    component_witnesses: dict
    self_orthogonal: dict[int, int]
    self_orthogonal_ok: bool
    term_length: int
    declared_count: int
    count_criterion_ok: bool
    summand_spot_checks: dict[str, bool]
    generation: str
    generation_log: list[str]
    endo_dim: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return self.in_kb_pf and self.self_orthogonal_ok and self.count_criterion_ok

    def to_json(self):
        return {
            "in_kb_pf": self.in_kb_pf,
            "component_witnesses": {k: v for k, v in sorted(self.component_witnesses.items())},
            "self_orthogonal": {str(k): v for k, v in sorted(self.self_orthogonal.items())},
            "self_orthogonal_ok": self.self_orthogonal_ok,
            "term_length": self.term_length,
            "declared_count": self.declared_count,
            "count_criterion_ok": self.count_criterion_ok,
            "summand_spot_checks": dict(sorted(self.summand_spot_checks.items())),
            "generation": self.generation,
            "generation_log": list(self.generation_log),
            "endo_dim": self.endo_dim,
            "failures": list(self.failures),
        }


def _component_in_add_g(t: Complex, f: SubbifunctorF) -> tuple[bool, dict, list[str]]:
    witnesses = {}
    failures = []
    ok = True
    if t.parts is None:
        return False, {}, ["complex carries no summand decomposition"]
    for i in t.degrees():
        for k, part in enumerate(t.parts[i]):
            match = None
            for s in f.summands:
                if is_isomorphic(part.module, s.module).isomorphic:
                    match = s.name
                    break
            if match is None:
                ok = False
                failures.append(f"component part {part.label} at degree {i} is not in add(G)")
            witnesses[f"{i}:{k}:{part.label}"] = match
    return ok, witnesses, failures


def _idempotent_spot_check(ts: ComplexSum) -> dict[str, bool]:
    """Absence of nontrivial idempotents in End_K of each declared summand."""
    out = {}
    for name, part in zip(ts.names, ts.parts):
        hh = HomotopyHom(part, part, 0)
        reps = hh.representatives()
        unit = hh.class_coordinates(chain_identity(part).comps)
        F = hh.field
        ok = True
        rng = random.Random(_SEED ^ 0x1DE)
        candidates = [hh.rep_vectors[k] for k in range(hh.dim)]
        if hh.dim:
            for _ in range(8):
                acc = [F.zero for _ in hh.rep_vectors[0]]
                for k in range(hh.dim):
                    c = F.of_int(rng.randint(-2, 2))
                    acc = [F.add(a, F.mul(c, b)) for a, b in zip(acc, hh.rep_vectors[k])]
                candidates.append(acc)
        for vec in candidates:
            cm = hh.vector_to_chain_map(vec)
            sq = hh.class_coordinates(compose_chain(cm, cm))
            cl = hh.class_coordinates(cm.comps)
            is_idem = all(F.is_zero(F.sub(a, b)) for a, b in zip(sq, cl))
            nonzero = any(not F.is_zero(a) for a in cl)
            not_unit = any(not F.is_zero(F.sub(a, b)) for a, b in zip(cl, unit))
            if is_idem and nonzero and not_unit:
                ok = False
                break
        out[name] = ok
    return out


def verify_f_tilting(ts: ComplexSum, f: SubbifunctorF, declared_count: int,
                     witnesses: list | None = None,
                     witness_env: dict[str, Complex] | None = None) -> TiltingReport:
    t = ts.total
    failures: list[str] = []
    in_add, component_witnesses, fail_a = _component_in_add_g(t, f)
    failures += fail_a
    width = t.width()
    window = 2 * width + 1
    total_hom = _module_total_hom(t, t)
    table = {}
    self_ok = True
    for i in range(-window, window + 1):
        if i == 0:
            continue
        dim = total_hom.dim(i)
        table[i] = dim
        if dim != 0:
            self_ok = False
            failures.append(f"hom_k(T, T, {i}) = {dim} != 0")
    count_ok = declared_count == len(f.summands)
    if not count_ok:
        failures.append(
            f"count criterion: declared {declared_count} summands, |ind P(F)| = {len(f.summands)}")
    if declared_count != len(ts.parts):
        failures.append(
            f"declared summand count {declared_count} differs from the structural "
            f"decomposition into {len(ts.parts)} parts")
    spot = _idempotent_spot_check(ts)
    for name, ok in spot.items():
        if not ok:
            failures.append(f"summand {name}: idempotent found; declared indecomposability doubtful")
    generation = "count-criterion passed" if count_ok else "not checked"
    glog: list[str] = []
    if witnesses:
        env = dict(witness_env or {})
        for name, part in zip(ts.names, ts.parts):
            env.setdefault(name, part)
        env.setdefault("T", t)
        status, glog, _ = check_generation_witnesses(f, witnesses, env)
        if status == "witnessed":
            generation = "witnessed"
        else:
            failures += [m for m in glog if "FAILED" in m or "unknown" in m]
    endo_dim = total_hom.dim(0)
    tl = term_length(t)
    return TiltingReport(
        in_kb_pf=in_add,
        component_witnesses=component_witnesses,
        self_orthogonal=table,
        self_orthogonal_ok=self_ok,
        term_length=tl,
        declared_count=declared_count,
        count_criterion_ok=count_ok,
        summand_spot_checks=spot,
        generation=generation,
        generation_log=glog,
        endo_dim=endo_dim,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# the image tilting complex over Sigma = End(G)


@dataclass
class SigmaComplex:
    """A bounded complex of projective left Sigma-modules, components given
    by lists of idempotent indices and differentials by matrices of Sigma
    elements (entry x_{ts}: piece s -> piece t acts by right multiplication)."""
    sigma: AbstractAlgebra
    comps: dict[int, list[int]]
    diffs: dict[int, list[list[list]]]  # diffs[i][t][s]: Sigma element


def _corner_basis(sigma: AbstractAlgebra, e_idx: int, f_idx: int) -> Matrix:
    """Basis of e * Sigma * f (the hom space Sigma*e -> Sigma*f)."""
    F = sigma.field
    e = sigma.idempotents[e_idx]
    ff = sigma.idempotents[f_idx]
    cols = []
    for b in range(sigma.dim):
        v = sigma.mul(sigma.mul(e, sigma.basis_vector(b)), ff)
        cols.append(v)
    m = Matrix(F, sigma.dim, sigma.dim,
               [cols[j][i] for i in range(sigma.dim) for j in range(sigma.dim)])
    return column_space_basis(m)


def hom_k_sigma(x: SigmaComplex, y: SigmaComplex, n: int) -> int:
    """Chain maps x -> y[n] modulo homotopy, over the corner spaces."""
    sigma = x.sigma
    F = sigma.field
    corners: dict[tuple[int, int], Matrix] = {}

    def corner(e: int, f: int) -> Matrix:
        if (e, f) not in corners:
            corners[(e, f)] = _corner_basis(sigma, e, f)
        return corners[(e, f)]

    def coords(e: int, f: int, v: list) -> list:
        coef = solve(corner(e, f), Matrix(F, sigma.dim, 1, v))
        if coef is None:
            raise ValueError("corner composition escaped its space")
        return coef.col(0)

    def entries(z: SigmaComplex) -> dict:
        return {i: {(s, t): e for t, row in enumerate(d) for s, e in enumerate(row)}
                for i, d in z.diffs.items()}

    return _TotalHom(F, x.comps, entries(x), y.comps, entries(y),
                     lambda e, f: [corner(e, f).col(c) for c in range(corner(e, f).cols)],
                     sigma.mul, coords).dim(n)


def image_tilting_over_sigma(ts: ComplexSum, f: SubbifunctorF):
    """Hom(G, T) as a complex of projective Sigma-modules, its hom_K(-, -, n)
    dimensions over the self-orthogonality window of T, and the per-degree
    pairs (dim Hom(G, T^i), Sigma-side size)."""
    t = ts.total
    if t.parts is None:
        raise ValueError("image tilting needs summand decompositions")
    g_stalks = [stalk_complex(s.module, 0, label=s.name) for s in f.summands]
    sigma = end_algebra(sum_complexes_with_maps(g_stalks, [s.name for s in f.summands]))
    sig = sigma.to_abstract()
    if not sig.idempotents_split_basic():
        raise ValueError("Sigma idempotents failed the split-basic certificate")
    # identify each part with a declared summand index
    name_to_idx = {s.name: k for k, s in enumerate(f.summands)}
    part_idx: dict[int, list[int]] = {}
    part_isos: dict[int, list] = {}
    for i in t.degrees():
        idxs, isos = [], []
        for part in t.parts[i]:
            found = None
            for s_name, k in name_to_idx.items():
                r = is_isomorphic(part.module, f.summands[k].module)
                if r.isomorphic:
                    found = (k, r.witness)
                    break
            if found is None:
                raise ValueError(f"part {part.label} at degree {i} not matched in add(G)")
            idxs.append(found[0])
            isos.append(found[1])
        part_idx[i] = idxs
        part_isos[i] = isos
    # build the Sigma complex: differential blocks as End(G) elements
    gsum = f.sum
    comps = {i: list(part_idx[i]) for i in t.degrees()}
    diffs = {}
    dims_check = {}
    for i in t.degrees():
        # dimension preservation: dim Hom(G, T^i) equals the Sigma-side size
        lhs = len(hom_space(f.generator, t.comps[i]))
        rhs = sum(_corner_dim(sig, k) for k in part_idx[i])
        dims_check[i] = (lhs, rhs)
        if (i + 1) not in t.comps:
            continue
        sums_i = direct_sum([p.module for p in t.parts[i]], t.algebra)
        sums_j = direct_sum([p.module for p in t.parts[i + 1]], t.algebra)
        d = t.differential(i)
        rows = []
        for tt, pt in enumerate(t.parts[i + 1]):
            row = []
            for s, ps in enumerate(t.parts[i]):
                blk = sums_i.injections[s].compose(d).compose(sums_j.projections[tt])
                # conjugate into G-summand coordinates
                u = part_isos[i][s].inverse_map().compose(blk).compose(part_isos[i + 1][tt])
                # element of End(G): pi_js then u then iota_jt
                ks, kt = part_idx[i][s], part_idx[i + 1][tt]
                endo = f.sum.projections[ks].compose(u).compose(f.sum.injections[kt])
                row.append(_endo_coordinates(sigma, endo))
            rows.append(row)
        diffs[i] = rows
    sc = SigmaComplex(sig, comps, diffs)
    window = 2 * t.width() + 1
    sigma_dims = {nn: hom_k_sigma(sc, sc, nn) for nn in range(-window, window + 1)}
    return sc, sigma_dims, dims_check


def _corner_dim(sig: AbstractAlgebra, k: int) -> int:
    return rank(sig.right_mult(tuple(sig.idempotents[k])))


def _endo_coordinates(sigma: EndoPresentation, endo: ModuleMap) -> list:
    """Class coordinates of a G-endomorphism inside the Sigma presentation."""
    return sigma.hom.class_coordinates({0: endo})
