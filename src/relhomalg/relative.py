"""The relative theory: F = F_{add G}, approximations, projective covers and
DTr, F-projective resolutions with their F-syzygies, relative Ext as a count
of Hom dimensions, relative dimensions and I(F).

The generator G always contains every indecomposable projective among its
declared summands, which is the enough-projectives setting the whole
machinery runs on.  An exact 0 -> A -> B -> C -> 0 is F-exact when Hom(G, B) ->
Hom(G, C) is onto: a count of Hom dimensions (`hom_g_exact`), as Ext_F is.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .matrix import Matrix, _normal
from .quiver import PathAlgebra, _Echelon, _sparse, _span
from .rep import (
    ModuleMap,
    Representation,
    ShortExactSeq,
    _paths_from,
    _vertex_maps,
    cokernel,
    direct_sum,
    endo_indecomposability_check,
    hom_dim,
    hom_space,
    injective,
    kernel,
    projective,
    proven_isomorphic,
    simple,
    socle_rows,
    stack_maps,
    top_columns,
    zero_representation,
)
from .reports import Dim, DimensionReport, dim_max


class TruncationError(Exception):
    """A quantity is undeterminable at the chosen cutoff."""


class SummandDecl(NamedTuple):
    name: str
    module: Representation


class Summands(list):
    """SummandDecls and the tuple of their modules, taken once, which keys
    what is stored on a module for them (`_on_module`)."""

    def __init__(self, decls):
        super().__init__(decls)
        self.key = tuple(s.module for s in self)


class SubbifunctorF:
    """F = F_{add G} for a generator G declared by its indecomposable
    summands (pairwise non-isomorphic, projectives included)."""

    def __init__(self, algebra: PathAlgebra, summands: list[SummandDecl]):
        self.algebra = algebra
        self.summands = Summands(summands)
        self.validation_notes: list[str] = []
        self._hom_dims: dict[Representation, list[int]] = {}
        self._validate()

    def hom_dims(self, y: Representation) -> list[int]:
        """dim Hom(G_k, y) for each summand G_k, computed once per y."""
        out = self._hom_dims.get(y)
        if out is None:
            out = self._hom_dims[y] = [hom_dim(g, y) for g in self.summands.key]
        return out

    @cached_property
    def generator(self) -> Representation:
        """⊕G, built on first read: only F-acyclicity reads it."""
        return direct_sum(self.summands.key, self.algebra)

    # -- declarations ------------------------------------------------------

    def _validate(self):
        n = self.algebra.quiver.n
        for i in range(1, n + 1):
            p = projective(self.algebra, i)
            if not any(proven_isomorphic(p, s.module) for s in self.summands):
                raise ValueError(f"projective({i}) is not among the declared summands of G")
        for a in range(len(self.summands)):
            for b in range(a + 1, len(self.summands)):
                if proven_isomorphic(self.summands[a].module, self.summands[b].module):
                    raise ValueError(
                        f"declared summands {self.summands[a].name} and {self.summands[b].name} are isomorphic")
        for s in self.summands:
            if s.module.is_zero():
                raise ValueError(f"declared summand {s.name} is the zero module")
            if not endo_indecomposability_check(s.module):
                self.validation_notes.append(
                    f"summand {s.name}: End({s.name}) failed the residue certificate (not"
                    " proven local); indecomposability is unproven")

    def is_projective_summand(self, k: int) -> bool:
        m = self.summands[k].module
        return any(proven_isomorphic(m, projective(self.algebra, v))
                   for v in range(1, self.algebra.quiver.n + 1))


# ---------------------------------------------------------------------------
# F-exactness


def hom_g_exact(f: SubbifunctorF, a: Representation, middle: list[Representation], c: Representation) -> bool:
    """Is the exact 0 -> a -> ⊕middle -> c -> 0 F-exact?  Hom(G_k, -) is left
    exact, so it is when dim Hom(G_k, c) = dim Hom(G_k, ⊕middle) -
    dim Hom(G_k, a) for every summand G_k of G (Auslander-Solberg 1993)."""
    mid = [sum(d) for d in zip([0] * len(f.summands), *map(f.hom_dims, middle))]
    return all(dc == dm - da for dc, dm, da in zip(f.hom_dims(c), mid, f.hom_dims(a)))


def is_f_exact(ses: ShortExactSeq, f: SubbifunctorF) -> bool:
    return hom_g_exact(f, ses.sub, [ses.middle], ses.quotient)


# ---------------------------------------------------------------------------
# approximations


class Approximation:
    """Minimal add(⊕summands)-approximation of x: right f: ⊕M_k -> x or left
    f: x -> ⊕M_k.

    pieces[k] = index into the summands for each copy M_k in the sum; when f
    is an isomorphism (x in add(⊕summands), as a summand is) the map is the
    identity of x, pieces is None and the kernel is zero.
    """

    def __init__(self, map: ModuleMap, pieces: list[int] | None):
        self.map = map
        self.pieces = pieces

    @classmethod
    def identity(cls, x: Representation) -> "Approximation":
        """The identity of x, its zero kernel stored, not eliminated."""
        app = cls(ModuleMap.identity(x), None)
        z = zero_representation(x.algebra)
        app.kernel = (z, ModuleMap.zero(z, x))
        return app

    @property
    def is_identity(self) -> bool:
        return self.pieces is None

    @cached_property
    def kernel(self) -> tuple[Representation, ModuleMap]:
        """(ker f, its inclusion), computed on first read and stored with the
        approximation; for a right add(G)-approximation this is the
        F-syzygy of x."""
        return kernel(self.map)


def _minimal_approximating_subset(x: Representation, blocks: list[list[list]], pieces: list[int],
                                  summands: Summands, left: bool) -> list[int] | None:
    """Indices of the candidates u_c (`_candidates`) that one greedy removal
    pass keeps, a minimal sublist still making Hom(C, ⊕M_c) -> Hom(C, x)
    (left: Hom(⊕M_c, C) -> Hom(x, C)) onto for each summand C, M_c =
    summands[pieces[c]]; None when the full list does not.  The row of C
    gives u_c the composites "h then u_c" over h in Hom(C, M_c) (left:
    "u_c then h") at the top columns of their source, an injective
    evaluation (`rep.top_columns`), or at a stored C = P_v (left: I_v) the
    columns (rows) of (u_c)_v; onto means these reach rank dim Hom(C, x).
    The pass drops u_i when the maps kept before i and all after i stay
    onto: with the kept maps E it drops up to the largest j whose maps from
    j on, with E, are onto at every C, and keeps u_j.  Each row keeps an
    echelon of E and finds its j in a fresh echelon T of u_{n-1}, u_{n-2},
    ... reduced by E, as rank(E ∪ T) = |E| + rank(T mod E).  The glued map
    is sure to be minimal only when every summand is local."""
    F, dims, n = x.algebra.field, x.dims, len(blocks)
    kind = "injective" if left else "projective"
    parts = [summands.key[k] for k in pieces]
    rows = []  # per C with Hom(C, x) (left: Hom(x, C)) nonzero: need, vectors per map, E's echelon
    for c in summands.key:
        v = x.algebra.vertex_modules.get((kind, c))
        need = dims[v - 1] if v is not None else len(hom_space(x, c) if left else hom_space(c, x))
        if not need:
            continue
        if v is not None:
            vecs = [[_sparse(F, b[v - 1][i * need:(i + 1) * need]) for i in range(m.dims[v - 1])] if left
                    else [_sparse(F, b[v - 1][j::m.dims[v - 1]]) for j in range(m.dims[v - 1])]
                    for b, m in zip(blocks, parts)]
        elif left:
            vecs = [[_sparse(F, [e for w, j in top_columns(x) for e in h.mats[w].apply(b[w][j::dims[w]])])
                     for h in hom_space(m, c)] for b, m in zip(blocks, parts)]
        else:
            vecs = [[_sparse(F, [e for w, j in top_columns(c)
                                 for e in Matrix(F, dims[w], m.dims[w], b[w]).apply(h.mats[w].col(j))])
                     for h in hom_space(c, m)] for b, m in zip(blocks, parts)]
        rows.append((need, vecs, _Echelon()))
    keep = []
    while rows:  # the rows that E is not onto at
        first = keep[-1] + 1 if keep else 0
        if keep and first == n - 1:  # E with u_{n-1} is onto at every C
            return keep + [first]
        last = []
        for need, vecs, kept in rows:
            trial = _Echelon()
            for c in range(n - 1, first - 1, -1):
                _span(F, vecs[c], trial, modulo=kept)
                if len(kept) + len(trial) == need:
                    last.append(c)
                    break
            else:
                return None  # only in the first round: the full list is not onto at C
        keep.append(min(last))
        for need, vecs, kept in rows:
            _span(F, vecs[keep[-1]], kept)
        rows = [row for row in rows if len(row[2]) < row[0]]
    return keep


def _candidates(x: Representation, summands: Summands, algebra: PathAlgebra,
                left: bool) -> tuple[list[list[list]], list[int], bool]:
    """The maps the approximation of x is kept from, as vertex blocks
    (row-major, one list per vertex), the summand of each, and whether every
    summand is a stored P_v (left: I_v).  If the summands hold every stored
    P_v, each gives only the `_vertex_maps` e_v -> e_j for the top columns
    (v, j) of x: a map P_v -> x less its top-column part factors through
    radical maps P_v -> P_w, so by induction on the radical layer it is a
    sum of top-column maps after maps between projectives.  Other summands
    give their cached Hom bases.  Left, dually, the `socle_rows` of x."""
    kind = "injective" if left else "projective"
    vertex = [algebra.vertex_modules.get((kind, m)) for m in summands.key]
    every = len(set(vertex) - {None}) == algebra.quiver.n
    gens = socle_rows(x) if left else top_columns(x)
    blocks, pieces = [], []
    for k, (m, v) in enumerate(zip(summands.key, vertex)):
        src, tgt = (x, m) if left else (m, x)
        if not every or v is None:
            found = [[a.entries for a in f.mats] for f in hom_space(src, tgt)]
        else:
            js = [j for w, j in gens if w == v - 1]
            found = _vertex_maps(src, tgt, v, left, js) if js else []
        blocks += found
        pieces += [k] * len(found)
    return blocks, pieces, every and None not in vertex


def _on_module(x: Representation, key: tuple, compute):
    """compute(), stored on x under key, which names the summand modules it
    depends on.  Representations are canonical per algebra, so the key is
    content and every construction of the same module shares the result."""
    if x._approximations is None:
        x._approximations = {}
    out = x._approximations.get(key)
    return out if out is not None else x._approximations.setdefault(key, compute())


def _approximation(x: Representation, summands: list[SummandDecl], algebra: PathAlgebra,
                   left: bool) -> Approximation:
    """The minimal left or right add(⊕summands)-approximation of x, computed
    once per x, side and summand modules, and stored on x."""
    summands = summands if isinstance(summands, Summands) else Summands(summands)
    return _on_module(x, (left, summands.key), lambda: _build_approximation(x, summands, algebra, left))


def _build_approximation(x: Representation, summands: Summands, algebra: PathAlgebra,
                         left: bool) -> Approximation:
    """A summand x is its own approximation, the identity with zero kernel
    (Auslander-Solberg 1993).  Else `_candidates` are kept whole when every
    summand is a stored P_v (I_v), their glued map checked onto (mono) and
    minimal by its count of copies (see `projective_cover`), or the greedy
    pass keeps some; `rep.stack_maps` glues only the kept blocks."""
    if x.is_zero():
        z = zero_representation(algebra)
        return Approximation(ModuleMap.zero(x, z) if left else ModuleMap.zero(z, x), [])
    if x in summands.key:
        return Approximation.identity(x)
    blocks, pieces, vertex = _candidates(x, summands, algebra, left)
    if not vertex:
        keep = _minimal_approximating_subset(x, blocks, pieces, summands, left)
        if keep is None:
            raise ValueError("tautological approximation failed")
        blocks, pieces = [blocks[i] for i in keep], [pieces[i] for i in keep]
    glued = stack_maps([summands.key[k] for k in pieces], blocks, x, into=left)
    if vertex and not (glued.is_injective() if left else glued.is_surjective()):
        raise ValueError("tautological approximation failed")
    if glued.source.dims == glued.target.dims and glued.is_isomorphism():
        return Approximation.identity(x)
    return Approximation(glued, pieces)


def minimal_right_approximation(x: Representation, summands: list[SummandDecl],
                                algebra: PathAlgebra) -> Approximation:
    """The minimal right add(⊕summands)-approximation ⊕M_k -> x."""
    return _approximation(x, summands, algebra, left=False)


def right_approximation(x: Representation, f: SubbifunctorF) -> Approximation:
    """The minimal right add(G)-approximation of x."""
    return minimal_right_approximation(x, f.summands, f.algebra)


def left_approximation(x: Representation, targets: list[SummandDecl],
                       algebra: PathAlgebra) -> Approximation:
    """The minimal left add(⊕targets)-approximation x -> ⊕M_k."""
    return _approximation(x, targets, algebra, left=True)


# ---------------------------------------------------------------------------
# projective covers and the Auslander-Reiten translate


def projective_cover(m: Representation) -> Approximation:
    """The projective cover of m: its minimal right add(Λ)-approximation,
    built from the top columns of m alone (`_candidates`), checked
    onto, and certified by counting.  A surjection ⊕P_v -> m is a projective
    cover (its kernel lies in the radical of the source) exactly when the
    copies of P_v number dim top(m)_v, the top columns (v, j) of m at each
    vertex v (summand k of ordinary_f is P_{k+1}); ValueError otherwise."""
    app = right_approximation(m, ordinary_f(m.algebra))
    if not app.is_identity and sorted(app.pieces) != [v for v, _ in top_columns(m)]:
        raise ValueError("cover kernel escapes the radical")
    return app


def dtr(m: Representation) -> Representation:
    """The Auslander-Reiten translate D Tr m = ker(ν d: νP1 -> νP0) for the
    minimal presentation P1 -d-> P0 -> m -> 0 and the Nakayama functor
    ν = D Hom(-, Λ), νP_v = I_v (Assem-Simson-Skowroński I, IV.2): P0 =
    ⊕P_{v_i} covers m, and P1 = ⊕P_{w_j} covers K = ker(P0 -> m), d sending
    e_{w_j} to x_j, the top column (w_j, c_j) of K.  The block (i, j) of ν d
    sends φ in I_{w_j} to p -> φ(p·x_ij) on the paths p into v_i, the
    product in Λ with the part x_ij of x_j in P_{v_i}.  Zero on projectives."""
    alg = m.algebra
    c0 = projective_cover(m)
    if c0.is_identity:
        return zero_representation(alg)
    incl, tops = c0.kernel[1], top_columns(c0.kernel[0])
    n = alg.quiver.n
    out_of = [_paths_from(alg, v + 1)[0] for v in range(n)]  # [v][w]: P_{v+1} at w
    into = [_paths_from(alg, v + 1, into=True)[0] for v in range(n)]  # [v][u]: I_{v+1} at u
    i1, i0 = (direct_sum([injective(alg, v + 1) for v in vs], alg)
              for vs in ([w for w, _ in tops], c0.pieces))
    mats = []
    for u, d1, d0 in zip(range(n), i1.dims, i0.dims):
        out, col = [0] * (d0 * d1), 0
        for w, c in tops:
            x, row, cols = iter(incl.mats[w].col(c)), 0, {t: col + r for r, t in enumerate(into[w][u])}
            for v in c0.pieces:  # each zip takes the part of x_j in P_{v+1}
                for q, e in zip(out_of[v][w], x):
                    for k, p in enumerate(into[v][u]) if e else ():
                        for t, a in alg.mul_basis(p, q).items():
                            out[(row + k) * d1 + cols[t]] += e * a
                row += len(into[v][u])
            col += len(into[w][u])
        mats.append(Matrix(alg.field, d0, d1, _normal(out, alg.field.p)))
    return kernel(ModuleMap(i1, i0, mats))[0]


# ---------------------------------------------------------------------------
# F-projective resolutions


class FResolution(NamedTuple):
    """Minimal F-projective resolution P^{-m} -> ... -> P^0 -> X, held as its
    stored approximations: approximations[i] maps P^{-i} onto Ω^i X
    (Ω^0 X = X), and its kernel is Ω^{i+1} X.

    modules[i] is P^{-i}; augmentation: P^0 -> X.  syzygies[i] is Ω^{i+1} X,
    the kernel of the map out of P^{-i}; the last one is zero unless the
    resolution is truncated.
    pieces[i] lists the G-summand index of each copy in P^{-i} (None marks
    an identity approximation of a module already in add G).
    """
    x: Representation
    approximations: list[Approximation]
    truncated: bool

    @property
    def modules(self) -> list[Representation]:
        return [a.map.source for a in self.approximations]

    @property
    def pieces(self) -> list[list[int] | None]:
        return [a.pieces for a in self.approximations]

    @property
    def syzygies(self) -> list[Representation]:
        return [a.kernel[0] for a in self.approximations]

    @property
    def augmentation(self) -> ModuleMap:
        return self.approximations[0].map

    @property
    def length(self) -> int:
        return len(self.approximations) - 1

    @property
    def pd(self) -> Dim:
        """pd_F(x); a truncated resolution has length maxlen, a lower bound."""
        return Dim(self.length, censored=self.truncated)


def f_resolution(x: Representation, f: SubbifunctorF, maxlen: int) -> FResolution:
    if maxlen < 0:
        raise ValueError("maxlen must be >= 0")
    apps = [right_approximation(x, f)]
    while not apps[-1].kernel[0].is_zero():
        if len(apps) - 1 == maxlen:
            return FResolution(x, apps, truncated=True)
        apps.append(right_approximation(apps[-1].kernel[0], f))
    return FResolution(x, apps, truncated=False)


def ext_f(x: Representation, y: Representation, i: int, f: SubbifunctorF,
          resolution: FResolution | None = None) -> int:
    """dim Ext_F^i(x, y).  For i >= 1 the F-exact 0 -> Ω^i x -> P -> Ω^{i-1} x
    -> 0 of the resolution, with Ext_F^{>=1}(P, -) = 0, gives
    dim Hom(Ω^i x, y) - dim Hom(P, y) + dim Hom(Ω^{i-1} x, y).  Hom is
    additive, so dim Hom(P, y) is the sum of dim Hom(G_k, y) over the
    G-summands G_k of P.  At an identity approximation Ω^{i-1} x is in
    add G and Ω^i x = 0, so Ext_F^i vanishes."""
    if i < 0:
        raise ValueError("negative degree")
    if i == 0:
        return hom_dim(x, y)
    res = resolution if resolution is not None else f_resolution(x, f, i - 1)
    if i - 1 > res.length:
        if res.truncated:
            raise TruncationError(f"resolution truncated before depth {i - 1}")
        return 0
    app = res.approximations[i - 1]  # P -> Ω^{i-1} x, with kernel Ω^i x
    if app.is_identity:
        return 0
    dims = f.hom_dims(y)
    return hom_dim(app.kernel[0], y) - sum(dims[k] for k in app.pieces) + hom_dim(app.map.target, y)


# ---------------------------------------------------------------------------
# relative dimensions


CORPUS_ASSUMPTION = ("sup taken over the supplied corpus; exact only if the "
                     "declared indecomposable list is complete")


def pd_f(x: Representation, f: SubbifunctorF, cutoff: int) -> DimensionReport:
    return DimensionReport("pd_F", f_resolution(x, f, cutoff).pd, cutoff)


def relative_injectives(f: SubbifunctorF, corpus: list[Representation]):
    """Candidate I(F) = DTr(non-projective summands of G) ∪ {injectives},
    deduplicated up to isomorphism and validated against the corpus: a
    candidate fails when Ext_F^1(x, -), a count of Hom dimensions, is not 0
    on it for some x in the corpus."""
    algebra = f.algebra
    candidates: list[SummandDecl] = []

    def add(name: str, m: Representation):
        if not m.is_zero() and not any(proven_isomorphic(c.module, m) for c in candidates):
            candidates.append(SummandDecl(name, m))

    for v in range(1, algebra.quiver.n + 1):
        add(f"I{v}", injective(algebra, v))
    for k, s in enumerate(f.summands):
        if not f.is_projective_summand(k):
            add(f"DTr({s.name})", dtr(s.module))
    resolutions = [f_resolution(x, f, 0) for x in corpus]
    notes = [f"{c.name} fails F-injectivity against a corpus module" for c in candidates
             if any(ext_f(res.x, c.module, 1, f, resolution=res) != 0 for res in resolutions)]
    return Summands(candidates), not notes, notes


class CoresolutionStep(NamedTuple):
    """One step x -> I' -> C of a coresolution by add(I(F)): u: x -> I' is the
    minimal left approximation and C its cokernel.  cosyzygy is None when u
    is an isomorphism (x lies in add I(F)); failure says why the step cannot
    continue an F-exact coresolution."""
    cosyzygy: Representation | None
    failure: str | None = None


def coresolution_step(x: Representation, f: SubbifunctorF,
                      injectives: list[SummandDecl]) -> CoresolutionStep:
    """The step from x, computed once per x, I(F) and G and stored on x, so
    coresolutions that meet share the rest of their steps."""
    def step() -> CoresolutionStep:
        app = left_approximation(x, injectives, f.algebra)
        if app.is_identity:
            return CoresolutionStep(None)
        if not app.map.is_injective():
            return CoresolutionStep(None, "left approximation not injective: I(F) list rejected"
                                          " as an enough-injectives class")
        cok, _ = cokernel(app.map)
        if not hom_g_exact(f, x, [injectives[k].module for k in app.pieces], cok):
            return CoresolutionStep(cok, "coresolution step is not F-exact: I(F) list invalid")
        return CoresolutionStep(cok)

    injectives = injectives if isinstance(injectives, Summands) else Summands(injectives)
    return _on_module(x, ("coresolution", injectives.key, f.summands.key), step)


def id_f(x: Representation, f: SubbifunctorF, injectives: list[SummandDecl],
         cutoff: int) -> DimensionReport:
    """Relative injective dimension, by minimal left I(F)-approximations."""
    cur, length = x, 0
    while not cur.is_zero():
        step = coresolution_step(cur, f, injectives)
        if step.failure is not None:
            return DimensionReport("id_F", Dim(cutoff, censored=True), cutoff, caveats=[step.failure])
        if step.cosyzygy is None:
            break
        cur = step.cosyzygy
        length += 1
        if length > cutoff:
            return DimensionReport("id_F", Dim(cutoff, censored=True), cutoff)
    return DimensionReport("id_F", Dim(length), cutoff)


def gldim_f(corpus: list[tuple[str, Representation]], f: SubbifunctorF, cutoff: int,
            complete: bool = False) -> DimensionReport:
    breakdown = {name: f_resolution(x, f, cutoff).pd for name, x in corpus}
    report = DimensionReport("gldim_F", dim_max(list(breakdown.values())), cutoff,
                             breakdown=breakdown)
    if not complete:
        report.assumptions.append(CORPUS_ASSUMPTION)
    return report


def finitistic_sup(dims) -> Dim:
    """The largest exact value among dims, 0 when there is none."""
    return dim_max([Dim(0)] + [d for d in dims if not d.censored])


def findim_f(gl: DimensionReport, complete: bool = False) -> DimensionReport:
    """fd_F from the per-module pd_F breakdown of a gldim_f report."""
    report = DimensionReport("fd_F", finitistic_sup(gl.breakdown.values()), gl.cutoff,
                             breakdown=dict(gl.breakdown))
    report.assumptions.append("finitistic sup over corpus members of finite pd_F; "
                              "a certified lower bound of fd_F")
    if not complete:
        report.assumptions.append(CORPUS_ASSUMPTION)
    return report


# ---------------------------------------------------------------------------
# ordinary dimensions: G = the projectives, so every sequence is F-exact


def ordinary_f(algebra: PathAlgebra) -> SubbifunctorF:
    """F for G = the indecomposable projectives, built once per algebra."""
    if algebra.ordinary is None:
        algebra.ordinary = SubbifunctorF(algebra, [
            SummandDecl(f"P{v}", projective(algebra, v)) for v in range(1, algebra.quiver.n + 1)])
    return algebra.ordinary


def ordinary_pd(x: Representation, cutoff: int) -> Dim:
    """pd(x), from its minimal projective resolution."""
    return f_resolution(x, ordinary_f(x.algebra), cutoff).pd


def gldim(algebra: PathAlgebra, cutoff: int) -> DimensionReport:
    """gldim = pd(A/rad A), the largest pd of a simple."""
    d = dim_max([ordinary_pd(simple(algebra, v), cutoff) for v in range(1, algebra.quiver.n + 1)])
    return DimensionReport("gldim", d, cutoff, breakdown={"pd(A/radA)": d})


def regular_id(algebra: PathAlgebra, cutoff: int) -> DimensionReport:
    """id of the left regular module, the largest id of a projective, by
    minimal injective coresolutions (I(F) = the injectives)."""
    injectives = Summands(SummandDecl(f"I{v}", injective(algebra, v))
                          for v in range(1, algebra.quiver.n + 1))
    d = dim_max([id_f(projective(algebra, v), ordinary_f(algebra), injectives, cutoff).dim
                 for v in range(1, algebra.quiver.n + 1)])
    return DimensionReport("id", d, cutoff)


def is_gorenstein(algebra: PathAlgebra, cutoff: int) -> tuple[bool | None, DimensionReport, DimensionReport]:
    """(status, id of the left regular, id of the right regular); status None
    when a side is censored.  id(A_A) is pd of its dual, the sum of the
    injective left modules."""
    left = regular_id(algebra, cutoff)
    left.quantity = "id(left regular)"
    right = DimensionReport("id(right regular)", dim_max(
        [ordinary_pd(injective(algebra, v), cutoff) for v in range(1, algebra.quiver.n + 1)]), cutoff)
    return (None if left.dim.censored or right.dim.censored else True), left, right
