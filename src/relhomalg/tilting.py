"""F-tilting verification (self-orthogonality, the count criterion, witness
triangles) and extraction of endomorphism algebras of complexes.

Endomorphism algebras carry the diagrammatic product a*b = "a then b"; with
that convention Hom(G, -) and Hom(T, -) land in left modules.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .algebra import AbstractAlgebra
from .complexes import (
    ChainMap,
    Complex,
    HomotopyHom,
    Part,
    _TotalHom,
    chain_identity,
    cone,
    stalk_complex,
    sum_complexes,
    term_length,
)
from .matrix import Matrix
from .rep import ModuleMap, Representation, hom_coordinates, hom_space, proven_isomorphic
from .relative import SubbifunctorF, minimal_right_approximation


class ComplexSum:
    """T = ⊕ T_i.  Hom^•(T, T) is the direct sum of the complexes
    Hom^•(T_i, T_j), so each summand pair gets one total Hom engine, kept
    here for every check that reads it; the sum itself is built on first
    read."""

    def __init__(self, parts: list[Complex], names: list[str]):
        self.parts = parts
        self.names = names
        self._engines: dict = {}
        self._corners: dict = {}
        self._gamma: AbstractAlgebra | None = None

    @cached_property
    def total(self) -> Complex:
        return sum_complexes(self.parts)

    def engine(self, i: int, j: int) -> _TotalHom:
        """The total Hom complex of (T_i, T_j)."""
        if (i, j) not in self._engines:
            self._engines[(i, j)] = _TotalHom(self.parts[i], self.parts[j])
        return self._engines[(i, j)]

    def corner(self, i: int, j: int) -> HomotopyHom:
        """Hom_K(T_i, T_j) over engine(i, j); on the diagonal the identity of
        T_i is the first representative unless T_i is contractible."""
        if (i, j) not in self._corners:
            first = (chain_identity(self.parts[i]).comps,) if i == j else ()
            self._corners[(i, j)] = HomotopyHom(self.parts[i], self.parts[j], 0,
                                                total=self.engine(i, j), first=first)
        return self._corners[(i, j)]

    def hom_k(self, n: int) -> int:
        """dim Hom_K(T, T[n]), summed over the summand pairs."""
        k = len(self.parts)
        return sum(self.engine(i, j).dim(n) for i in range(k) for j in range(k))

    def gamma(self) -> AbstractAlgebra:
        """Γ = End_K(T) with the identities of the T_i as its idempotents,
        built once; its corners e_i Γ e_i are the End_K(T_i)."""
        if self._gamma is None:
            self._gamma = end_algebra(self)
        return self._gamma


def approximation_cone_complex(target: Representation, target_label: str,
                               by: list, algebra) -> Complex:
    """The two-term complex Q -> target (degrees -1, 0) with Q -> target a
    minimal right add(⊕by)-approximation."""
    app = minimal_right_approximation(target, by, algebra)
    if app.is_identity or app.map.source.is_zero():
        raise ValueError("approximation is trivial; the cone would be contractible or a stalk")
    parts_src = [Part(by[k].name, by[k].module) for k in app.pieces]
    src = app.map.source
    return Complex(algebra, {-1: src, 0: target}, {-1: app.map},
                   parts={-1: parts_src, 0: [Part(target_label, target)]})


def end_algebra(ts: ComplexSum) -> AbstractAlgebra:
    """End_K(T) over homotopy-class representatives (a*b = a then b), the
    representatives of corner (i, j) = Hom_K(T_i, T_j) consecutive, and e_i
    the first of corner (i, i), the identity of T_i (`ComplexSum.corner`),
    or 0 when T_i is contractible; `AbstractAlgebra.grading` certifies the
    layout.  No table is built: the algebra asks for each product it reads.
    A product (i -> j) then (j' -> k) is zero unless j = j' and
    Hom_K(T_i, T_k) ≠ 0, and no composite is built otherwise either:
    corner (i, k) evaluates its class basis once at the top columns of each
    component of T_i, and each product f·g is one matrix-vector product per
    top column (g applied to f's column there) and one solve
    (`HomotopyHom.product_coordinates`), whose back-check proves the
    product, since evaluation at the top columns is injective."""
    F = ts.parts[0].algebra.field
    n = len(ts.parts)
    starts, sizes, reps, layout = {}, {}, [], []  # reps[b]: the representative of basis vector b
    for i in range(n):
        for j in range(n):
            corner = ts.corner(i, j).representatives()
            starts[(i, j)], sizes[(i, j)] = len(layout), len(corner)
            reps += corner
            layout += [(i, j)] * len(corner)

    def product(a: int, b: int) -> list:
        (i, j), (h, k) = layout[a], layout[b]
        if j != h or not sizes[(i, k)]:
            return []
        start = starts[(i, k)]
        coords = ts.corner(i, k).product_coordinates(reps[a], reps[b])
        return [(start + c, x) for c, x in enumerate(coords) if not F.is_zero(x)]

    return AbstractAlgebra(F, layout, product,
                           [{starts[(i, i)]: F.one} if sizes[(i, i)] else {} for i in range(n)])


# ---------------------------------------------------------------------------
# homotopy-summand witnesses


def _chain_cycles(x: Complex, y: Complex) -> list[ChainMap]:
    hh = HomotopyHom(x, y, 0)
    return [hh.vector_to_chain_map(hh.cycles.col(c)) for c in range(hh.cycles.cols)]


def stalk_is_homotopy_summand(module: Representation, degree: int, x: Complex) -> bool:
    """Split pair u: stalk -> x, v: x -> stalk with u then v invertible,
    searched over pairs of basis chain maps.  When End(module) is local with
    residue map ε, u then v is invertible iff ε(u then v) != 0, a bilinear
    form in (u, v); so when no pair of basis maps works, no combination does."""
    stalk = stalk_complex(module, degree)
    if stalk.is_zero():
        return True
    vs = _chain_cycles(x, stalk)
    for u in _chain_cycles(stalk, x):
        for v in vs:
            cu, cv = u.comps.get(degree), v.comps.get(degree)
            if cu is not None and cv is not None and cu.compose(cv).is_isomorphism():
                return True
    return False


class ConeWitness(NamedTuple):
    """name := cone(source -> target) of the identity on each component the
    two complexes share; both must be available."""
    name: str
    source: str
    target: str


class SummandWitness(NamedTuple):
    summand_name: str  # declared G-summand to realize as a stalk summand
    degree: int
    of: str


def _identity_components(src: Complex, tgt: Complex) -> dict[int, ModuleMap]:
    """The identity at each degree where src and tgt have the same module
    (representations are canonical per algebra); ValueError where their
    components have the same dimensions but differ, and so no identity is a
    module map between them."""
    comps = {}
    for i, m in src.comps.items():
        n = tgt.comps.get(i)
        if n is not None and n.dims == m.dims:
            if n is not m:
                raise ValueError(f"the components at degree {i} are different modules")
            comps[i] = ModuleMap.identity(m)
    return comps


def check_generation_witnesses(f: SubbifunctorF, steps: list,
                               env: dict[str, Complex]) -> tuple[str, list[str], set[str]]:
    """Run the witness steps; returns (status, log, witnessed G-summands).
    The status is "witnessed", "not checked" when the steps leave a summand
    unwitnessed, or "refused" when the program rejects a step, whose reason
    is the last log line."""
    log: list[str] = []
    witnessed: set[str] = set()
    env = dict(env)
    for step in steps:
        if isinstance(step, ConeWitness):
            if step.source not in env or step.target not in env:
                log.append(f"cone step {step.name}: unknown complex reference")
                return "refused", log, witnessed
            src, tgt = env[step.source], env[step.target]
            try:
                cm = ChainMap(src, tgt, _identity_components(src, tgt)).validate()
            except ValueError as e:
                log.append(f"cone step {step.name}: invalid chain map ({e})")
                return "refused", log, witnessed
            env[step.name] = cone(cm)
            log.append(f"cone step {step.name}: built cone of {step.source} -> {step.target}")
        elif isinstance(step, SummandWitness):
            decl = {s.name: s.module for s in f.summands}
            if step.summand_name not in decl or step.of not in env:
                log.append(f"summand step {step.summand_name}: unknown reference")
                return "refused", log, witnessed
            ok = stalk_is_homotopy_summand(decl[step.summand_name], step.degree, env[step.of])
            if not ok:
                log.append(f"summand step {step.summand_name}@{step.degree} of {step.of}: FAILED")
                return "refused", log, witnessed
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


class TiltingReport(NamedTuple):
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
        """No failure was recorded; every check that fails records one."""
        return not self.failures

    def to_json(self):
        """Every field; JSON keys are strings, so the degrees of the
        self-orthogonality table become strings."""
        return {**self._asdict(), "self_orthogonal": {str(k): v for k, v in self.self_orthogonal.items()}}


def _component_in_add_g(t: Complex, f: SubbifunctorF) -> tuple[bool, dict, list[str]]:
    witnesses, failures = {}, []
    for i in t.degrees():
        for k, part in enumerate(t.parts[i]):
            match = next((s.name for s in f.summands if proven_isomorphic(part.module, s.module)),
                         None)
            if match is None:
                failures.append(f"component part {part.label} at degree {i} is not in add(G)")
            witnesses[f"{i}:{k}:{part.label}"] = match
    return not failures, witnesses, failures


def verify_f_tilting(ts: ComplexSum, f: SubbifunctorF, declared_count: int,
                     witnesses: list | None = None,
                     witness_env: dict[str, Complex] | None = None) -> TiltingReport:
    t = ts.total
    failures: list[str] = []
    in_add, component_witnesses, fail_a = _component_in_add_g(t, f)
    failures += fail_a
    window = 2 * t.width() + 1
    table = {}
    self_ok = True
    for i in range(-window, window + 1):
        if i == 0:
            continue
        dim = ts.hom_k(i)
        table[i] = dim
        if dim != 0:
            self_ok = False
            failures.append(f"hom_k(T, T, {i}) = {dim} != 0")
    if declared_count != len(ts.parts):
        failures.append(
            f"declared summand count {declared_count} differs from the structural "
            f"decomposition into {len(ts.parts)} parts")
    gamma = ts.gamma()
    spot = {name: gamma.corner_residues(k) is not None for k, name in enumerate(ts.names)}
    for name, ok in spot.items():
        if not ok:
            failures.append(f"summand {name}: End_K({name}) failed the residue certificate;"
                            " indecomposability is unproven")
    # only the parts proven indecomposable count
    count_ok = sum(spot.values()) == len(f.summands)
    if not count_ok:
        failures.append(f"count criterion: {sum(spot.values())} parts proven indecomposable,"
                        f" |ind P(F)| = {len(f.summands)}")
    # |ind P(F)| summands give add T = add G for a stalk T up to shift, and
    # for a two-term presilting T (Aihara 2013; Adachi-Iyama-Reiten 2014);
    # no theorem gives generation from the count for t >= 2
    tl = term_length(t)
    generation, glog = "not checked", []
    if count_ok and tl <= 1:
        generation = "count-criterion passed"
    elif count_ok:
        glog.append(f"count criterion: no generation from the count at term length {tl} > 1")
    if witnesses:
        env = dict(witness_env or {})
        for name, part in zip(ts.names, ts.parts):
            env.setdefault(name, part)
        env.setdefault("T", t)
        status, wlog, _ = check_generation_witnesses(f, witnesses, env)
        glog += wlog
        if status == "witnessed":
            generation = "witnessed"
        elif status == "refused":
            failures.append(wlog[-1])
    endo_dim = ts.hom_k(0)
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


def _coordinate_matrix(field, basis: list[ModuleMap], maps) -> Matrix:
    """The matrix whose columns are the coordinates of maps in basis."""
    cols = [hom_coordinates(basis, m) for m in maps]
    return Matrix(field, len(basis), len(cols),
                  [cols[c][r] for r in range(len(basis)) for c in range(len(cols))])


def image_tilting_over_sigma(ts: ComplexSum, f: SubbifunctorF) -> tuple[ComplexSum, dict[int, int]]:
    """The image of T under Hom(G, -): add G -> proj Σ, Σ = End(G), and its
    hom_K(-, -, n) dimensions over the self-orthogonality window of T.

    Each Hom(G, T_k) is a complex of representations of Σ's presentation:
    vertex v carries Hom(G_v, X), and the arrow j -> i, whose lift lies in
    the corner e_i Σ e_j = Hom(G_i, G_j), acts by φ ↦ lift then φ; Hom(G, d)
    is φ ↦ φ then d.  For X in add(G) this is a projective Σ-module
    (Auslander–Reiten–Smalø, Prop. II.2.1), so every component of T must lie
    in add(G)."""
    in_add, _, failures = _component_in_add_g(ts.total, f)
    if not in_add:
        raise ValueError(f"image over Sigma: {failures[0]}")
    G = [s.module for s in f.summands]
    gs = ComplexSum([stalk_complex(s.module, 0, label=s.name) for s in f.summands],
                    [s.name for s in f.summands])
    sig = end_algebra(gs)
    if not sig.idempotents_split_basic():
        raise ValueError("Sigma idempotents failed the split-basic certificate")
    pres = sig.presentation()
    F, grading = pres.field, sig.grading()
    lifts = []
    for lift, arrow in zip(sig.arrow_lifts, pres.quiver.arrows):
        i, j = arrow.target - 1, arrow.source - 1
        reps = [r.comps[0] for r in gs.corner(i, j).representatives()]
        corner = [b for b, c in enumerate(grading) if c == (i, j)]
        if len(corner) != len(reps):
            raise ValueError(f"the corner of arrow {arrow.name} of Sigma has {len(corner)} basis "
                             f"vectors for {len(reps)} representatives")
        lifts.append(ModuleMap.combination(G[i], G[j], [lift.get(b, F.zero) for b in corner], reps))

    def image(x: Complex) -> Complex:
        bases = {d: [hom_space(g, c) for g in G] for d, c in x.comps.items()}
        comps = {d: Representation(pres, [len(b) for b in bs], [
            _coordinate_matrix(F, bs[a.target - 1], (u.compose(phi) for phi in bs[a.source - 1]))
            for u, a in zip(lifts, pres.quiver.arrows)]) for d, bs in bases.items()}
        diffs = {d: ModuleMap(comps[d], comps[d + 1], [
            _coordinate_matrix(F, bases[d + 1][v], (phi.compose(dx) for phi in bases[d][v]))
            for v in range(len(G))]) for d, dx in x.diffs.items()}
        return Complex(pres, comps, diffs)

    images = ComplexSum([image(x) for x in ts.parts], list(ts.names))
    window = 2 * ts.total.width() + 1
    return images, {n: images.hom_k(n) for n in range(-window, window + 1)}
