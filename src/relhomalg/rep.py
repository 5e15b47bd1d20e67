"""Quiver representations and the classical module-category toolkit.

A representation assigns k^{d_i} to vertex i and a d_j x d_i matrix to each
arrow a: i -> j (column-vector convention, so the word (a, b) acts as
X_b . X_a).  Everything is immutable after construction and validated
against the relations exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .matrix import (
    Matrix,
    SpanSolver,
    block_diag,
    column_space_basis,
    complement_columns,
    inverse,
    invertible,
    kernel_basis,
    lincomb,
    rank,
    solve,
)
from .quiver import PathAlgebra


class Representation:
    __slots__ = ("algebra", "dims", "mats", "_homs")

    def __init__(self, algebra: PathAlgebra, dims, mats, check: bool = True):
        self.algebra = algebra
        self._homs: dict | None = None  # hom_space results, keyed by target
        self.dims = tuple(dims)
        if len(self.dims) != algebra.quiver.n:
            raise ValueError("dimension vector length mismatch")
        self.mats = list(mats)
        if len(self.mats) != len(algebra.quiver.arrows):
            raise ValueError("need one matrix per arrow")
        for ai, a in enumerate(algebra.quiver.arrows):
            m = self.mats[ai]
            if (m.rows, m.cols) != (self.dims[a.target - 1], self.dims[a.source - 1]):
                raise ValueError(f"arrow {a.name}: matrix shape {m.rows}x{m.cols} does not match dims")
        if check:
            self._check_relations()

    def _check_relations(self):
        F = self.algebra.field
        for rel in self.algebra.relations:
            if not rel:
                continue
            word0 = tuple(rel[0][1])
            src = self.algebra.quiver.word_source(word0)
            tgt = self.algebra.quiver.word_target(word0)
            acc = Matrix.zeros(F, self.dims[tgt - 1], self.dims[src - 1])
            for coeff, word in rel:
                acc = acc + self.word_action(tuple(word), src).scale(coeff)
            if not acc.is_zero():
                raise ValueError("relation not satisfied by representation")

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def word_action(self, word: tuple[int, ...], src: int) -> Matrix:
        F = self.algebra.field
        m = Matrix.identity(F, self.dims[src - 1])
        for ai in word:
            m = self.mats[ai] * m
        return m

    def __repr__(self):
        return f"Rep{self.dims}"


class ModuleMap:
    __slots__ = ("source", "target", "mats")

    def __init__(self, source: Representation, target: Representation, mats, check: bool = True):
        if source.algebra is not target.algebra:
            raise ValueError("module map across different algebras")
        self.source = source
        self.target = target
        self.mats = list(mats)
        for v in range(source.algebra.quiver.n):
            m = self.mats[v]
            if (m.rows, m.cols) != (target.dims[v], source.dims[v]):
                raise ValueError(f"vertex {v + 1}: block shape mismatch")
        if check:
            self._check_intertwining()

    def _check_intertwining(self):
        for ai, a in enumerate(self.source.algebra.quiver.arrows):
            lhs = self.target.mats[ai] * self.mats[a.source - 1]
            rhs = self.mats[a.target - 1] * self.source.mats[ai]
            if not (lhs - rhs).is_zero():
                raise ValueError(f"map does not intertwine arrow {a.name}")

    @staticmethod
    def zero(source: Representation, target: Representation) -> "ModuleMap":
        F = source.algebra.field
        return ModuleMap(source, target,
                         [Matrix.zeros(F, target.dims[v], source.dims[v])
                          for v in range(source.algebra.quiver.n)], check=False)

    @staticmethod
    def combination(source: Representation, target: Representation, coeffs,
                    maps) -> "ModuleMap":
        """sum c_i f_i of maps source -> target, one fused pass per vertex."""
        F = source.algebra.field
        return ModuleMap(source, target, [
            lincomb(F, target.dims[v], source.dims[v], coeffs, [f.mats[v] for f in maps])
            for v in range(len(source.dims))], check=False)

    @staticmethod
    def identity(m: Representation) -> "ModuleMap":
        F = m.algebra.field
        return ModuleMap(m, m, [Matrix.identity(F, d) for d in m.dims], check=False)

    def compose(self, then: "ModuleMap") -> "ModuleMap":
        """self followed by `then` (diagrammatic order)."""
        assert then.source.dims == self.target.dims
        return ModuleMap(self.source, then.target,
                         [then.mats[v] * self.mats[v] for v in range(len(self.mats))], check=False)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target,
                         [a + b for a, b in zip(self.mats, other.mats)], check=False)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target,
                         [a - b for a, b in zip(self.mats, other.mats)], check=False)

    def __neg__(self) -> "ModuleMap":
        return ModuleMap(self.source, self.target, [-a for a in self.mats], check=False)

    def scale(self, c) -> "ModuleMap":
        return ModuleMap(self.source, self.target, [m.scale(c) for m in self.mats], check=False)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats)

    def is_injective(self) -> bool:
        return all(rank(m) == m.cols for m in self.mats)

    def is_surjective(self) -> bool:
        return all(rank(m) == m.rows for m in self.mats)

    def is_isomorphism(self) -> bool:
        return all(invertible(m) for m in self.mats)

    def inverse_map(self) -> "ModuleMap":
        return ModuleMap(self.target, self.source, [inverse(m) for m in self.mats], check=False)

    def __repr__(self):
        return f"ModuleMap({self.source.dims} -> {self.target.dims})"


# ---------------------------------------------------------------------------
# basic constructions


def zero_representation(algebra: PathAlgebra) -> Representation:
    F = algebra.field
    q = algebra.quiver
    return Representation(algebra, (0,) * q.n,
                          [Matrix.zeros(F, 0, 0) for _ in q.arrows], check=False)


def simple(algebra: PathAlgebra, i: int) -> Representation:
    q = algebra.quiver
    if not 1 <= i <= q.n:
        raise ValueError("vertex out of range")
    dims = tuple(1 if v == i else 0 for v in range(1, q.n + 1))
    F = algebra.field
    mats = [Matrix.zeros(F, dims[a.target - 1], dims[a.source - 1]) for a in q.arrows]
    return Representation(algebra, dims, mats, check=False)


def projective(algebra: PathAlgebra, i: int) -> Representation:
    """The projective with top S_i: basis paths from i, arrows append."""
    q = algebra.quiver
    if not 1 <= i <= q.n:
        raise ValueError("vertex out of range")
    F = algebra.field
    per_vertex = [[] for _ in range(q.n)]
    for k, (src, _word) in enumerate(algebra.basis):
        if src == i:
            per_vertex[algebra.element_target(k) - 1].append(k)
    index = {k: (v, pos) for v in range(q.n) for pos, k in enumerate(per_vertex[v])}
    dims = tuple(len(per_vertex[v]) for v in range(q.n))
    mats = []
    for ai, a in enumerate(q.arrows):
        m = Matrix.zeros(F, dims[a.target - 1], dims[a.source - 1]).to_rows()
        ae = algebra.arrow_element(ai)
        for col, k in enumerate(per_vertex[a.source - 1]):
            for k2, c in algebra.mul_basis(k, ae).items():
                m[index[k2][1]][col] = c
        mats.append(Matrix.from_rows(F, m) if dims[a.target - 1] else Matrix(F, 0, dims[a.source - 1], []))
    return Representation(algebra, dims, mats)


def left_multiplication_map(algebra: PathAlgebra, ai: int) -> ModuleMap:
    """Prepending arrow a: m -> m' gives the module map P(m') -> P(m)."""
    a = algebra.quiver.arrows[ai]
    src_proj = projective(algebra, a.target)
    tgt_proj = projective(algebra, a.source)
    F = algebra.field
    q = algebra.quiver
    src_pv = [[k for k, (s, _) in enumerate(algebra.basis)
               if s == a.target and algebra.element_target(k) == v + 1] for v in range(q.n)]
    tgt_pv = [[k for k, (s, _) in enumerate(algebra.basis)
               if s == a.source and algebra.element_target(k) == v + 1] for v in range(q.n)]
    ae = algebra.arrow_element(ai)
    mats = []
    for v in range(q.n):
        m = Matrix.zeros(F, len(tgt_pv[v]), len(src_pv[v])).to_rows()
        for col, k in enumerate(src_pv[v]):
            for k2, c in algebra.mul_basis(ae, k).items():
                m[tgt_pv[v].index(k2)][col] = c
        mats.append(Matrix.from_rows(F, m) if tgt_pv[v] else Matrix(F, 0, len(src_pv[v]), []))
    return ModuleMap(src_proj, tgt_proj, mats)


def dual(m: Representation) -> Representation:
    """Vector-space dual, a representation over the opposite algebra."""
    op = m.algebra.opposite()
    mats = [m.mats[ai].transpose() for ai in range(len(m.mats))]
    return Representation(op, m.dims, mats)


def injective(algebra: PathAlgebra, i: int) -> Representation:
    return dual(projective(algebra.opposite(), i))


# ---------------------------------------------------------------------------
# hom spaces


class HomBasis(list):
    """A basis of Hom(m, n), a list of ModuleMaps that owns the solver for
    coordinates against it."""
    __slots__ = ("_solver",)

    def solver(self) -> SpanSolver:
        if not hasattr(self, "_solver"):
            F = self[0].source.algebra.field
            cols = [[x for m in b.mats for x in m.entries] for b in self]
            n = len(cols[0])
            self._solver = SpanSolver(
                Matrix(F, n, len(cols), [cols[j][i] for i in range(n) for j in range(len(cols))]))
        return self._solver


def hom_space(m: Representation, n: Representation) -> HomBasis:
    """Basis of Hom(m, n), deterministically ordered by RREF pivots of the
    intertwining system.  Cached on m per target object (representations
    are immutable), so the cache lives exactly as long as m."""
    if m._homs is None:
        m._homs = {}
    out = m._homs.get(n)
    if out is None:
        out = m._homs[n] = _hom_space_compute(m, n)
    return out


def _hom_space_compute(m: Representation, n: Representation) -> HomBasis:
    if m.algebra is not n.algebra:
        raise ValueError("hom across different algebras")
    F = m.algebra.field
    q = m.algebra.quiver
    offsets = []
    total = 0
    for v in range(q.n):
        offsets.append(total)
        total += n.dims[v] * m.dims[v]

    def idx(v, r, c):
        return offsets[v] + r * m.dims[v] + c

    rows = []
    for ai, a in enumerate(q.arrows):
        i, j = a.source - 1, a.target - 1
        Ta, Sa = n.mats[ai], m.mats[ai]
        for u in range(n.dims[j]):
            for vcol in range(m.dims[i]):
                row = [F.zero] * total
                for w in range(n.dims[i]):
                    row[idx(i, w, vcol)] = F.add(row[idx(i, w, vcol)], Ta.at(u, w))
                for w in range(m.dims[j]):
                    row[idx(j, u, w)] = F.sub(row[idx(j, u, w)], Sa.at(w, vcol))
                rows.append(row)
    if rows:
        sysm = Matrix.from_rows(F, rows)
    else:
        sysm = Matrix(F, 0, total, [])
    K = kernel_basis(sysm)
    out = HomBasis()
    for c in range(K.cols):
        vecv = K.col(c)
        mats = []
        for v in range(q.n):
            e = vecv[offsets[v]: offsets[v] + n.dims[v] * m.dims[v]]
            mats.append(Matrix(F, n.dims[v], m.dims[v], e))
        out.append(ModuleMap(m, n, mats, check=False))
    return out


def hom_coordinates(basis: HomBasis, f: ModuleMap) -> list:
    """Coordinates of f in a hom_space basis (must lie in the span)."""
    if not basis:
        if all(m.is_zero() for m in f.mats):
            return []
        raise ValueError("map outside empty hom space")
    target = [x for m in f.mats for x in m.entries]
    out = basis.solver().coords(target)
    if out is None:
        raise ValueError("map outside hom space span")
    return out


# ---------------------------------------------------------------------------
# kernels, images, quotients


def _induced_sub(m: Representation, cols: list[Matrix]) -> tuple[Representation, ModuleMap]:
    """Subrepresentation on given per-vertex column spaces (must be closed)."""
    F = m.algebra.field
    q = m.algebra.quiver
    dims = tuple(cols[v].cols for v in range(q.n))
    mats = []
    for ai, a in enumerate(q.arrows):
        i, j = a.source - 1, a.target - 1
        img = m.mats[ai] * cols[i]
        coef = solve(cols[j], img)
        if coef is None:
            raise ValueError("columns not closed under the action")
        mats.append(coef)
    sub = Representation(m.algebra, dims, mats)
    incl = ModuleMap(sub, m, cols)
    return sub, incl


def kernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    cols = [kernel_basis(f.mats[v]) for v in range(len(f.mats))]
    return _induced_sub(f.source, cols)


def image(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    cols = [column_space_basis(f.mats[v]) for v in range(len(f.mats))]
    return _induced_sub(f.target, cols)


def cokernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Quotient target/im(f) with the projection map."""
    F = f.source.algebra.field
    q = f.source.algebra.quiver
    projs = []
    dims = []
    for v in range(q.n):
        B = column_space_basis(f.mats[v])
        comp = complement_columns(B)
        dims.append(len(comp))
        n = f.target.dims[v]
        if n == 0:
            projs.append(Matrix(F, 0, 0, []))
            continue
        C = Matrix.identity(F, n).select_columns(comp)
        full = B.hstack(C)
        inv = inverse(full)
        projs.append(inv.submatrix(range(B.cols, n), range(n)))
    mats = []
    for ai, a in enumerate(q.arrows):
        i, j = a.source - 1, a.target - 1
        # induced action: proj_j . X_a . section_i ; use any preimage section
        sec = solve(projs[i], Matrix.identity(F, dims[i]))
        if sec is None:
            raise ValueError("projection not surjective")
        mats.append(projs[j] * f.target.mats[ai] * sec)
    quot = Representation(f.source.algebra, dims, mats)
    return quot, ModuleMap(f.target, quot, projs)


@dataclass
class DirectSum:
    rep: Representation
    parts: list[Representation]
    injections: list[ModuleMap]
    projections: list[ModuleMap]


def direct_sum(parts: list[Representation], algebra: PathAlgebra | None = None) -> DirectSum:
    if algebra is None:
        algebra = parts[0].algebra
    F = algebra.field
    q = algebra.quiver
    dims = tuple(sum(p.dims[v] for p in parts) for v in range(q.n))
    mats = []
    for ai in range(len(q.arrows)):
        a = q.arrows[ai]
        blocks = [p.mats[ai] for p in parts]
        if parts:
            mats.append(block_diag(F, blocks))
        else:
            mats.append(Matrix.zeros(F, 0, 0))
        if (mats[-1].rows, mats[-1].cols) != (dims[a.target - 1], dims[a.source - 1]):
            mats[-1] = Matrix.zeros(F, dims[a.target - 1], dims[a.source - 1])
    total = Representation(algebra, dims, mats, check=False)
    injections, projections = [], []
    offs = [0] * q.n
    for p in parts:
        inj, proj = [], []
        for v in range(q.n):
            m = Matrix.zeros(F, dims[v], p.dims[v]).to_rows()
            for r in range(p.dims[v]):
                m[offs[v] + r][r] = F.one
            inj.append(Matrix.from_rows(F, m) if dims[v] else Matrix(F, 0, p.dims[v], []))
            pm = Matrix.zeros(F, p.dims[v], dims[v]).to_rows()
            for r in range(p.dims[v]):
                pm[r][offs[v] + r] = F.one
            proj.append(Matrix.from_rows(F, pm) if p.dims[v] else Matrix(F, 0, dims[v], []))
        injections.append(ModuleMap(p, total, inj, check=False))
        projections.append(ModuleMap(total, p, proj, check=False))
        for v in range(q.n):
            offs[v] += p.dims[v]
    return DirectSum(total, list(parts), injections, projections)


def stack_maps_to_common_target(maps: list[ModuleMap], target: Representation,
                                algebra: PathAlgebra | None = None) -> tuple[DirectSum, ModuleMap]:
    """Bundle f_k: M_k -> X into (⊕M_k) -> X."""
    if algebra is None:
        algebra = target.algebra
    ds = direct_sum([f.source for f in maps], algebra)
    F = algebra.field
    q = algebra.quiver
    mats = []
    for v in range(q.n):
        if maps:
            row = maps[0].mats[v]
            for f in maps[1:]:
                row = row.hstack(f.mats[v])
        else:
            row = Matrix.zeros(F, target.dims[v], 0)
        mats.append(row)
    return ds, ModuleMap(ds.rep, target, mats, check=False)


# ---------------------------------------------------------------------------
# radical, top, socle


def radical(m: Representation) -> tuple[Representation, ModuleMap]:
    F = m.algebra.field
    q = m.algebra.quiver
    cols = []
    for v in range(q.n):
        pieces = [m.mats[ai] for ai, a in enumerate(q.arrows) if a.target - 1 == v]
        if pieces:
            glued = pieces[0]
            for p in pieces[1:]:
                glued = glued.hstack(p)
            cols.append(column_space_basis(glued))
        else:
            cols.append(Matrix.zeros(F, m.dims[v], 0))
    return _induced_sub(m, cols)


def top(m: Representation) -> tuple[Representation, ModuleMap]:
    _, incl = radical(m)
    return cokernel(incl)


def socle(m: Representation) -> tuple[Representation, ModuleMap]:
    F = m.algebra.field
    q = m.algebra.quiver
    cols = []
    for v in range(q.n):
        pieces = [m.mats[ai] for ai, a in enumerate(q.arrows) if a.source - 1 == v]
        if pieces:
            glued = pieces[0]
            for p in pieces[1:]:
                glued = glued.vstack(p)
            cols.append(kernel_basis(glued))
        else:
            cols.append(Matrix.identity(F, m.dims[v]))
    return _induced_sub(m, cols)


def radical_power_sub(m: Representation, k: int) -> tuple[Representation, ModuleMap]:
    """rad^k(m) as a subrepresentation of m."""
    cur, incl = m, ModuleMap.identity(m)
    for _ in range(k):
        sub, sub_incl = radical(cur)
        incl = sub_incl.compose(incl)
        cur = sub
    return cur, incl


# ---------------------------------------------------------------------------
# projective covers and presentations


@dataclass
class Cover:
    """Projective cover data: decorated source ⊕ P(v_k) and the cover map."""
    total: DirectSum
    vertices: list[int]
    map: ModuleMap


def projective_cover(m: Representation) -> Cover:
    algebra = m.algebra
    F = algebra.field
    t, proj = top(m)
    # lift a basis of top(m) vertexwise
    verts: list[int] = []
    lifts: list[list] = []
    for v in range(algebra.quiver.n):
        sec = solve(proj.mats[v], Matrix.identity(F, t.dims[v]))
        if sec is None:
            raise ValueError("top projection not surjective")
        for c in range(t.dims[v]):
            verts.append(v + 1)
            lifts.append(sec.col(c))
    parts = [projective(algebra, v) for v in verts]
    ds = direct_sum(parts, algebra)
    blocks = []
    for v0, lift in zip(verts, lifts):
        P = projective(algebra, v0)
        per_vertex = [[] for _ in range(algebra.quiver.n)]
        for k, (src, _w) in enumerate(algebra.basis):
            if src == v0:
                per_vertex[algebra.element_target(k) - 1].append(k)
        mats = []
        for v in range(algebra.quiver.n):
            colsm = Matrix.zeros(F, m.dims[v], P.dims[v]).to_rows()
            for col, k in enumerate(per_vertex[v]):
                _, word = algebra.basis[k]
                img = m.word_action(word, v0).apply(lift)
                for r in range(m.dims[v]):
                    colsm[r][col] = img[r]
            mats.append(Matrix.from_rows(F, colsm) if m.dims[v] else Matrix(F, 0, P.dims[v], []))
        blocks.append(ModuleMap(P, m, mats))
    _, cover_map = stack_maps_to_common_target(blocks, m, algebra)
    cover_map = ModuleMap(ds.rep, m, cover_map.mats)
    if not cover_map.is_surjective():
        raise ValueError("projective cover failed surjectivity")
    # minimality certificate: kernel sits inside rad(P)
    ker, ker_incl = kernel(cover_map)
    _, rad_incl = radical(ds.rep)
    for v in range(algebra.quiver.n):
        if solve(rad_incl.mats[v], ker_incl.mats[v]) is None:
            raise ValueError("cover kernel escapes the radical")
    return Cover(total=ds, vertices=verts, map=cover_map)


def minimal_presentation(m: Representation) -> tuple[Cover, ModuleMap, Cover]:
    """(P1-cover, d: P1 -> P0, P0-cover) with P1 -> P0 -> m -> 0 exact."""
    c0 = projective_cover(m)
    ker, incl = kernel(c0.map)
    c1 = projective_cover(ker)
    d = c1.map.compose(incl)
    return c1, d, c0


# ---------------------------------------------------------------------------
# transpose, dual and the AR translate


def hom_to_algebra(m: Representation) -> tuple[Representation, list[list[ModuleMap]]]:
    """Hom(m, Λ) as a representation over the opposite algebra.

    Component at vertex v is Hom(m, P(v)); the opposite arrow a: v' -> v
    acts by postcomposition with prepend-a: P(v') -> P(v).  Returns the
    representation together with the chosen hom bases (per vertex).
    """
    algebra = m.algebra
    op = algebra.opposite()
    F = algebra.field
    q = algebra.quiver
    bases = [hom_space(m, projective(algebra, v + 1)) for v in range(q.n)]
    dims = tuple(len(b) for b in bases)
    mats = [None] * len(q.arrows)
    for ai, a in enumerate(q.arrows):
        # in the opposite quiver the arrow runs a.target -> a.source
        La = left_multiplication_map(algebra, ai)
        src_v, tgt_v = a.target - 1, a.source - 1
        cols = []
        for phi in bases[src_v]:
            composite = phi.compose(La)
            cols.append(hom_coordinates(bases[tgt_v], composite))
        ncols = len(bases[src_v])
        nrows = len(bases[tgt_v])
        entries = [cols[c][r] for r in range(nrows) for c in range(ncols)]
        mats[ai] = Matrix(F, nrows, ncols, entries)
    return Representation(op, dims, mats), bases


def transpose(m: Representation) -> Representation:
    """Tr m = coker(Hom(P0, Λ) -> Hom(P1, Λ)) over the opposite algebra."""
    if m.is_zero():
        return zero_representation(m.algebra.opposite())
    c1, d, c0 = minimal_presentation(m)
    H0, bases0 = hom_to_algebra(c0.total.rep)
    H1, bases1 = hom_to_algebra(c1.total.rep)
    F = m.algebra.field
    mats = []
    for v in range(m.algebra.quiver.n):
        cols = [hom_coordinates(bases1[v], d.compose(psi)) for psi in bases0[v]]
        nrows, ncols = len(bases1[v]), len(bases0[v])
        entries = [cols[c][r] for r in range(nrows) for c in range(ncols)]
        mats.append(Matrix(F, nrows, ncols, entries))
    hd = ModuleMap(H0, H1, mats)
    tr, _ = cokernel(hd)
    return tr


def dual_to_main(m_op: Representation) -> Representation:
    """Dual of an opposite-algebra representation, back over the original."""
    main = m_op.algebra.opposite()
    mats = [m_op.mats[ai].transpose() for ai in range(len(m_op.mats))]
    return Representation(main, m_op.dims, mats)


def strip_projective_summands(m: Representation) -> Representation:
    """Peel off projective direct summands (cover-splitting detection)."""
    algebra = m.algebra
    changed = True
    while changed and not m.is_zero():
        changed = False
        cover = projective_cover(m)
        for k, inj in enumerate(cover.total.injections):
            u = inj.compose(cover.map)  # P(v_k) -> m
            P = cover.total.parts[k]
            # section r: m -> P with u then r = id_P
            retr = _solve_splitting(u, retraction=True)
            if retr is not None:
                m, _ = cokernel(u)
                changed = True
                break
    return m


def _solve_splitting(u: ModuleMap, retraction: bool):
    """v: u.target -> u.source with u then v = id (a retraction) or v then u
    = id (a section), or None when there is none."""
    ident = ModuleMap.identity(u.source if retraction else u.target)
    basis = hom_space(u.target, u.source)
    if not basis:
        return None if not ident.source.is_zero() else ModuleMap.zero(u.target, u.source)
    F = u.source.algebra.field
    # linear condition on coordinates x: sum_k x_k (b_k composed with u) = id
    comps = [u.compose(b) if retraction else b.compose(u) for b in basis]
    cols = [[x for mm in c.mats for x in mm.entries] for c in comps]
    tgt = [x for mm in ident.mats for x in mm.entries]
    A = Matrix(F, len(tgt), len(cols), [cols[j][i] for i in range(len(tgt)) for j in range(len(cols))])
    X = solve(A, Matrix(F, len(tgt), 1, tgt))
    if X is None:
        return None
    return ModuleMap.combination(u.target, u.source, X.col(0), basis)


def dtr(m: Representation) -> Representation:
    """Auslander-Reiten translate D Tr; projective summands are stripped."""
    core = strip_projective_summands(m)
    if core.is_zero():
        return zero_representation(m.algebra)
    return dual_to_main(transpose(core))


# ---------------------------------------------------------------------------
# isomorphism testing


@dataclass
class IsoResult:
    isomorphic: bool | None  # None means "unknown" (small-field exhaustion)
    witness: ModuleMap | None = None


ISO_SEED = 0x52454C48  # fixed seed: deterministic witnesses across runs
ISO_ATTEMPTS = 64


def is_isomorphic(m: Representation, n: Representation) -> IsoResult:
    if m.dims != n.dims:
        return IsoResult(False)
    if m.total_dim == 0:
        return IsoResult(True, ModuleMap.zero(m, n))
    basis = hom_space(m, n)
    if not basis:
        return IsoResult(False)
    for b in basis:
        if b.is_isomorphism():
            return IsoResult(True, b)
    F = m.algebra.field
    rng = random.Random(ISO_SEED)
    small_field = F.characteristic != 0 and F.characteristic < ISO_ATTEMPTS
    span = F.characteristic - 1 if small_field else 7
    for _ in range(ISO_ATTEMPTS):
        coeffs = [F.of_int(rng.randint(0, span) if small_field else rng.randint(-span, span))
                  for _ in basis]
        cand = ModuleMap.combination(m, n, coeffs, basis)
        if cand.is_isomorphism():
            return IsoResult(True, cand)
    return IsoResult(None if small_field else False)


def endo_indecomposability_check(m: Representation) -> bool:
    """Spot check that End(m) looks local: every basis endomorphism (and a
    few random combinations) is nilpotent or invertible, and no nontrivial
    idempotent shows up.  A True result is consistency, not proof."""
    if m.is_zero():
        return False
    endos = hom_space(m, m)
    F = m.algebra.field
    rng = random.Random(ISO_SEED ^ 0xE11D0)
    candidates = list(endos)
    for _ in range(16):
        coeffs = [F.of_int(rng.randint(-3, 3)) for _ in endos]
        candidates.append(ModuleMap.combination(m, m, coeffs, endos))
    ident = ModuleMap.identity(m)
    for f in candidates:
        if (f.compose(f) - f).is_zero() and not f.is_zero() and not (f - ident).is_zero():
            return False
        if f.is_isomorphism():
            continue
        power = f
        for _ in range(m.total_dim + 1):
            power = power.compose(f)
            if power.is_zero():
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# short exact sequences


class ShortExactSeq:
    """0 -> A -f-> B -g-> C -> 0, validated exactly."""

    def __init__(self, f: ModuleMap, g: ModuleMap):
        if f.target.dims != g.source.dims:
            raise ValueError("middle terms disagree")
        if not f.is_injective():
            raise ValueError("first map not injective")
        if not g.is_surjective():
            raise ValueError("second map not surjective")
        if not f.compose(g).is_zero():
            raise ValueError("composite not zero")
        a, b, c = f.source, f.target, g.target
        if a.total_dim + c.total_dim != b.total_dim:
            raise ValueError("dimension additivity fails")
        for v in range(len(f.mats)):
            if rank(f.mats[v]) != kernel_basis(g.mats[v]).cols:
                raise ValueError("image(f) != kernel(g)")
        self.f = f
        self.g = g

    @property
    def sub(self) -> Representation:
        return self.f.source

    @property
    def middle(self) -> Representation:
        return self.f.target

    @property
    def quotient(self) -> Representation:
        return self.g.target


def ses_from_sub(m: Representation, incl: ModuleMap) -> ShortExactSeq:
    _, proj = cokernel(incl)
    return ShortExactSeq(incl, proj)


def pushout_ses(ses: ShortExactSeq, h: ModuleMap) -> ShortExactSeq:
    """Pushout of 0 -> A -> B -> C -> 0 along h: A -> A'."""
    a = ses.f.source
    aprime = h.target
    ds = direct_sum([aprime, ses.middle])
    # map A -> A' ⊕ B, a |-> (h(a), -f(a)); pushout is its cokernel
    glue = h.compose(ds.injections[0]) + ses.f.compose(ds.injections[1]).scale(
        a.algebra.field.of_int(-1))
    po, proj = cokernel(glue)
    f2 = ds.injections[0].compose(proj)
    # induced map to C: (a', b) -> g(b)
    g2 = _factor_through_quotient(proj, ds.projections[1].compose(ses.g))
    return ShortExactSeq(f2, g2)


def _factor_through_quotient(proj: ModuleMap, total_map: ModuleMap) -> ModuleMap:
    """Given proj: T -> Q surjective and total_map: T -> C vanishing on
    ker(proj), return the induced Q -> C."""
    F = proj.source.algebra.field
    mats = []
    for v in range(len(proj.mats)):
        sec = solve(proj.mats[v], Matrix.identity(F, proj.target.dims[v]))
        if sec is None:
            raise ValueError("projection not surjective")
        mats.append(total_map.mats[v] * sec)
    return ModuleMap(proj.target, total_map.target, mats)

