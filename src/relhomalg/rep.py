"""Quiver representations and the classical module-category toolkit.

A representation assigns k^{d_i} to vertex i and a d_j x d_i matrix to each
arrow a: i -> j (column-vector convention, so the word (a, b) acts as
X_b . X_a).  Everything is immutable after construction and validated
against the relations exactly.

The per-vertex and per-arrow loops keep to the support.  A block with no
entries (at a vertex where a module, or a side of a map, is zero) comes from
its shape alone, as `Matrix.zeros`, and is never multiplied, eliminated,
solved or compared: the intertwining check of `ModuleMap` tests only the
arrows whose equation has entries (an empty equation holds vacuously),
subrepresentations solve only the arrows whose blocks on the sub have
entries, `cokernel` eliminates only where f_v is nonzero (P = I elsewhere,
a zero target included), `top_columns` and `socle_rows` read only the
nonzero vertices, and a Hom space without unknowns is empty.  The content
of every result is what the full loops give, so canonical representations
are the same objects.  Each algebra stores one representation per content
(`algebra.modules`), and its projectives, injectives, paths from and into
each vertex and direct sums (`algebra.vertex_modules`).
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import residue_certificate
from .matrix import (
    Matrix,
    _normal,
    block_diag,
    column_space_basis,
    complement_columns,
    invertible,
    kernel_basis,
    lincomb,
    rank,
    rref,
    solve,
)
from .quiver import PathAlgebra


class Representation:
    """A representation, hash-consed per algebra: constructing a content
    (dims and the entries of every arrow matrix) that the algebra's table
    `algebra.modules` already holds returns the stored object, so identity
    is content and the per-object caches below serve every construction of
    the same module.  The relations are checked once per content, the first
    time a checked construction asks for it; unchecked constructions (simples,
    submodules, quotients and sums of unchecked modules) store the content
    unvalidated until then.  Projectives and injectives, and submodules,
    quotients and sums of checked modules, are checked by construction."""
    __slots__ = ("algebra", "dims", "mats", "_checked", "_homs", "_local", "_approximations",
                 "_radical", "_top")

    def __new__(cls, algebra: PathAlgebra, dims, mats, check: bool = True):
        dims = tuple(dims)
        if len(dims) != algebra.quiver.n:
            raise ValueError("dimension vector length mismatch")
        mats = list(mats)
        if len(mats) != len(algebra.quiver.arrows):
            raise ValueError("need one matrix per arrow")
        for ai, a in enumerate(algebra.quiver.arrows):
            m = mats[ai]
            if (m.rows, m.cols) != (dims[a.target - 1], dims[a.source - 1]):
                raise ValueError(f"arrow {a.name}: matrix shape {m.rows}x{m.cols} does not match dims")
        key = (dims, tuple(tuple(m.entries) for m in mats))
        self = algebra.modules.get(key)
        if self is None:
            self = super().__new__(cls)
            self.algebra = algebra
            self.dims = dims
            self.mats = mats
            self._checked = False
            self._homs: dict | None = None  # hom_space results, keyed by target
            self._local: bool | None = None  # endo_indecomposability_check, once computed
            self._approximations: dict | None = None  # relative.py add(G)-approximations
            self._radical = None  # radical(self), once computed
            self._top: list | None = None  # top_columns(self), once computed
        if check and not self._checked:
            self._check_relations()  # a new content that fails is never stored
            self._checked = True
        return algebra.modules.setdefault(key, self)

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
        """T_a·f_i = f_j·S_a for every arrow a: i -> j whose equation has
        entries (the source at i and the target at j are nonzero).  Products
        are in the field's normal form, so equal entry lists are equal
        matrices."""
        s, t = self.source, self.target
        for ai, a in enumerate(s.algebra.quiver.arrows):
            i, j = a.source - 1, a.target - 1
            if s.dims[i] and t.dims[j] and (t.mats[ai] * self.mats[i]).entries != (
                    self.mats[j] * s.mats[ai]).entries:
                raise ValueError(f"map does not intertwine arrow {a.name}")

    @staticmethod
    def zero(source: Representation, target: Representation) -> "ModuleMap":
        F = source.algebra.field
        return ModuleMap(source, target, [Matrix.zeros(F, t, s) for t, s in zip(target.dims, source.dims)],
                         check=False)

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
        return ModuleMap(self.source, then.target, [b * a for a, b in zip(self.mats, then.mats)],
                         check=False)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target,
                         [a + b for a, b in zip(self.mats, other.mats)], check=False)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target,
                         [a - b for a, b in zip(self.mats, other.mats)], check=False)

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
    """The projective with top S_i: basis paths from i, arrows append.
    Built once per algebra and vertex."""
    q = algebra.quiver
    if not 1 <= i <= q.n:
        raise ValueError("vertex out of range")
    return _per_algebra(algebra, "projective", i, lambda alg, v: _build_vertex_module(alg, v, False))


def injective(algebra: PathAlgebra, i: int) -> Representation:
    """The injective with socle S_i: the dual basis of the basis paths into
    i, an arrow a sending φ to q -> φ(a·q).  Built once per algebra and
    vertex."""
    return _per_algebra(algebra, "injective", i, lambda alg, v: _build_vertex_module(alg, v, True))


def _per_algebra(algebra: PathAlgebra, kind: str, i: int, build):
    out = algebra.vertex_modules.get((kind, i))
    if out is None:
        out = algebra.vertex_modules.setdefault((kind, i), build(algebra, i))
        if isinstance(out, Representation):  # and the vertex of a stored module
            algebra.vertex_modules.setdefault((kind, out), i)
    return out


def _paths_from(algebra: PathAlgebra, i: int, into: bool = False
                ) -> tuple[list[list[int]], list[tuple[int, int, int]]]:
    """The basis paths from vertex i, or with into those into i: per vertex
    (0-based) at their other end, in basis order, the basis of P_i (of I_i,
    dually) there; and in basis order, each nontrivial path's (index, index
    of its prefix, last arrow), with into (index, index of its suffix, first
    arrow).  Normal words are closed under prefixes and suffixes
    (`quiver._normal_words`).  Built once per algebra, vertex and side."""
    def build(alg, i):
        per_vertex, steps = [[] for _ in range(alg.quiver.n)], []
        for k, (src, word) in enumerate(alg.basis):
            tgt = alg.element_target(k)
            if (tgt if into else src) != i:
                continue
            per_vertex[(src if into else tgt) - 1].append(k)
            if word:
                prev = (alg.quiver.arrows[word[0]].target, word[1:]) if into else (i, word[:-1])
                steps.append((k, alg.basis_index[prev], word[0] if into else word[-1]))
        return per_vertex, steps

    return _per_algebra(algebra, "paths into" if into else "paths", i, build)


def _build_vertex_module(algebra: PathAlgebra, i: int, into: bool) -> Representation:
    """P_i, where an arrow a sends the basis path p to p·a, or with into I_i,
    where it sends the functional φ on the paths at its source to q -> φ(a·q)
    on the paths q at its target; both products are read off `mul_basis`."""
    q = algebra.quiver
    F = algebra.field
    per_vertex = _paths_from(algebra, i, into)[0]
    position = {k: pos for ks in per_vertex for pos, k in enumerate(ks)}
    dims = tuple(map(len, per_vertex))
    mats = []
    for ai, a in enumerate(q.arrows):
        rows, cols = dims[a.target - 1], dims[a.source - 1]
        m = Matrix.zeros(F, rows, cols).to_rows()
        ae = algebra.arrow_element(ai)
        for pos, k in enumerate(per_vertex[(a.target if into else a.source) - 1]):
            for k2, c in (algebra.mul_basis(ae, k) if into else algebra.mul_basis(k, ae)).items():
                r, col = (pos, position[k2]) if into else (position[k2], pos)
                m[r][col] = c
        mats.append(Matrix.from_rows(F, m) if rows and cols else Matrix.zeros(F, rows, cols))
    # a word w acts on the basis path k as the product k·w in the algebra,
    # and on φ as q -> φ(w·q), so a relation, zero in the algebra, acts as
    # zero: checked by construction
    m = Representation(algebra, dims, mats, check=False)
    m._checked = True
    return m


# ---------------------------------------------------------------------------
# hom spaces


class HomBasis(list):
    """A basis of Hom(m, n), a list of ModuleMaps in the canonical form of
    the intertwining solve.  Flatten each map to its vertex blocks, row-major
    and vertex by vertex: map i is 1 at its free unknown, its last nonzero
    entry, and 0 at the free unknowns of the others."""
    __slots__ = ("_free",)

    def free(self) -> list[int]:
        """The free unknown of each map, found on first use."""
        if not hasattr(self, "_free"):
            self._free = [max(k for k, x in enumerate([y for a in f.mats for y in a.entries]) if x)
                          for f in self]
        return self._free


def hom_space(m: Representation, n: Representation) -> HomBasis:
    """Basis of Hom(m, n), deterministically ordered by RREF pivots of the
    intertwining system.  Cached on m per target object; representations
    are canonical per algebra, so each pair of contents is computed once,
    by `_vertex_hom`."""
    if m.algebra is not n.algebra:
        raise ValueError("hom across different algebras")
    if m._homs is None:
        m._homs = {}
    out = m._homs.get(n)
    if out is None:
        out = m._homs[n] = _vertex_hom(m, n)
    return out


def hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom(m, n): n_v from the stored P_v and m_v into the stored I_v (see
    `_vertex_maps`), else the length of the `hom_space` basis."""
    v, w = m.algebra.vertex_modules.get(("projective", m)), n.algebra.vertex_modules.get(("injective", n))
    if m.algebra is not n.algebra or v is None and w is None:
        return len(hom_space(m, n))  # which raises across algebras
    return n.dims[v - 1] if v is not None else m.dims[w - 1]


def _hom_basis(m: Representation, n: Representation, vecs: list[list]) -> HomBasis:
    """The maps m -> n flattened in vecs; a block without entries comes from
    its shape."""
    F = m.algebra.field
    blocks, o = [], 0
    for t, s in zip(n.dims, m.dims):
        blocks.append((o, t, s))
        o += t * s
    return HomBasis(ModuleMap(m, n, [Matrix(F, t, s, vec[o:o + t * s]) if t and s
                                     else Matrix.zeros(F, t, s) for o, t, s in blocks], check=False)
                    for vec in vecs)


def _hom_space_compute(m: Representation, n: Representation) -> HomBasis:
    F = m.algebra.field
    q = m.algebra.quiver
    offsets = []
    total = 0
    for v in range(q.n):
        offsets.append(total)
        total += n.dims[v] * m.dims[v]
    if not total:
        return HomBasis()

    # one row per arrow a: i -> j and entry (u, c) of T_a f_i - f_j S_a, with
    # the block f_v stored row-major from offsets[v] in the unknown vector
    flat = []
    for ai, a in enumerate(q.arrows):
        i, j = a.source - 1, a.target - 1
        ta, sa = n.mats[ai].entries, m.mats[ai].entries
        ni, mi, mj = n.dims[i], m.dims[i], m.dims[j]
        oi, oj = offsets[i], offsets[j]
        for u in range(n.dims[j]):
            for c in range(mi):
                row = [0] * total
                for w in range(ni):
                    row[oi + w * mi + c] += ta[u * ni + w]
                for w in range(mj):
                    row[oj + u * mj + w] -= sa[w * mi + c]
                flat += row
    K = kernel_basis(Matrix(F, len(flat) // total, total, _normal(flat, F.p)))
    return _hom_basis(m, n, [K.col(c) for c in range(K.cols)])


def _vertex_hom(m: Representation, n: Representation) -> HomBasis:
    """Hom(P_v, n) for the stored projective m = P_v, or Hom(m, I_v) for the
    stored injective n = I_v, from `_vertex_maps`, else the intertwining
    solve.  The solve's free unknowns are the last nonzero positions of the
    Hom space, so one rref of these maps with the unknowns reversed gives
    its basis: the rows, un-reversed, in reverse order."""
    v = m.algebra.vertex_modules.get(("projective", m))
    into = v is None
    if into:
        v = m.algebra.vertex_modules.get(("injective", n))
        if v is None:
            return _hom_space_compute(m, n)
    vecs = _vertex_maps(m, n, v, into)
    if not vecs:
        return HomBasis()
    R, _ = rref(Matrix(m.algebra.field, len(vecs), sum(map(len, vecs[0])),
                       [e for vec in vecs for b in reversed(vec) for e in reversed(b)]))
    return _hom_basis(m, n, [R.row(r)[::-1] for r in reversed(range(len(vecs)))])


def _vertex_maps(m: Representation, n: Representation, v: int, into: bool,
                 js: list[int] | None = None) -> list[list]:
    """A basis of Hom(P_v, n) = n_v, m = P_v (Assem-Simson-Skowroński I,
    III.2), each map as its vertex blocks, row-major: the map e_v -> e_j
    sends the basis path p of P_v to n(p)·e_j.  With into, dually, of
    Hom(m, I_v) = D(m_v): the functional e_j^T gives the map sending y in
    m_w to q -> e_j^T·m(q)·y on the basis paths q from w into v.  Each
    product is one step from its prefix's (with into, its suffix's).  Only
    the maps of the j in js, when given."""
    x = m if into else n
    d = x.dims[v - 1]
    if not d:
        return []
    per_vertex, steps = _paths_from(x.algebra, v, into)
    trivial = per_vertex[v - 1][0]
    products = {trivial: Matrix.identity(x.algebra.field, d)}  # path p -> n(p), or m(q) with into
    for k, prev, a in steps:
        products[k] = (x.mats[a] if prev == trivial
                       else products[prev] * x.mats[a] if into else x.mats[a] * products[prev])
    vecs = []
    for j in range(d) if js is None else js:
        vec = []
        for ks in per_vertex:
            if into:  # the block at w has the rows j of m(q)
                vec.append([e for k in ks for e in products[k].row(j)])
            else:  # the block at w has the columns j of n(p)
                vec.append([e for col in zip(*(products[k].entries[j::d] for k in ks)) for e in col])
        vecs.append(vec)
    return vecs


def hom_coordinates(basis: HomBasis, f: ModuleMap) -> list:
    """Coordinates of f in a hom_space basis: its entries at the free
    unknowns, checked by one linear combination (f must lie in the span)."""
    flat = [e for a in f.mats for e in a.entries]
    out = [flat[k] for k in basis.free()]
    back = ModuleMap.combination(f.source, f.target, out, basis)
    if any(a.entries != b.entries for a, b in zip(back.mats, f.mats)):
        raise ValueError("map outside hom space span")
    return out


# ---------------------------------------------------------------------------
# kernels, images, quotients


def _induced_sub(m: Representation, cols: list[Matrix],
                 rows=None) -> tuple[Representation, ModuleMap]:
    """Subrepresentation on given per-vertex column spaces (bases, must be
    closed).  When each cols[v] is the identity at rows[v], the arrows on
    the sub are read off there, and the inclusion's intertwining check
    proves closure.  That check also proves the relations when m satisfies
    them: it gives m(w)·cols = cols·sub(w) for every word w, so
    cols·sub(ρ) = m(ρ)·cols = 0 for a relation ρ, and cols is injective.
    So the sub is checked exactly when m is; it also proves closure on an
    arrow whose block on the sub is empty, which comes from its shape."""
    mats = []
    for ai, a in enumerate(m.algebra.quiver.arrows):
        src, tgt = cols[a.source - 1], cols[a.target - 1]
        coef = (Matrix.zeros(m.algebra.field, tgt.cols, src.cols) if not (src.cols and tgt.cols)
                else solve(tgt, m.mats[ai] * src) if rows is None
                else (m.mats[ai] * src).submatrix(rows[a.target - 1], range(src.cols)))
        if coef is None:
            raise ValueError("columns not closed under the action")
        mats.append(coef)
    sub = Representation(m.algebra, tuple(c.cols for c in cols), mats, check=False)
    incl = ModuleMap(sub, m, cols)
    sub._checked |= m._checked
    return sub, incl


def _kernel_sub(m: Representation, mats: list[Matrix]) -> tuple[Representation, ModuleMap]:
    """The subrepresentation on the kernels of mats[v] (must be closed),
    checked when m is; each kernel_basis is the identity at its free rows, a
    column's last nonzero."""
    cols = [kernel_basis(a) for a in mats]
    return _induced_sub(m, cols, [[max(r for r in range(K.rows) if K.entries[r * K.cols + c])
                                   for c in range(K.cols)] for K in cols])


def kernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    return _kernel_sub(f.source, f.mats)


def cokernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Quotient target/im(f) with the projection map, checked when the
    target is.  At each vertex rref([f_v | I]) = [E·f_v | E]: the rows P of
    E below rank f_v kill im f_v, and the I-block's pivots are the identity
    columns C completing it, so P·C = I.  P is unique, so the quotient is
    canonical; P·f_v = 0 and P·C = I are checked where P has rows."""
    F = f.source.algebra.field
    projs, comps = [], []
    for a, n in zip(f.mats, f.target.dims):
        if any(a.entries):
            R, pivots = rref(a.hstack(Matrix.identity(F, n)))
            comp = [p - a.cols for p in pivots if p >= a.cols]
            P = R.submatrix(range(n - len(comp), n), range(a.cols, a.cols + n))
            if comp and (not (P * a).is_zero() or P.select_columns(comp) != Matrix.identity(F, len(comp))):
                raise ValueError("cokernel projection check failed")
        else:  # f_v = 0, a zero target included: the projection is I
            comp, P = list(range(n)), Matrix.identity(F, n)
        projs.append(P)
        comps.append(comp)
    mats = [(projs[j - 1] * t).select_columns(comps[i - 1]) if comps[i - 1] and comps[j - 1]
            else Matrix.zeros(F, len(comps[j - 1]), len(comps[i - 1]))
            for t, (_, i, j) in zip(f.target.mats, f.source.algebra.quiver.arrows)]
    quot = Representation(f.source.algebra, [len(c) for c in comps], mats, check=False)
    proj = ModuleMap(f.target, quot, projs)
    # the projection intertwines, so quot(ρ)·proj = proj·target(ρ) = 0 for a
    # relation ρ the target satisfies, and every projs[v] is onto: quot(ρ) = 0
    quot._checked |= f.target._checked
    return quot, proj


def direct_sum(parts: list[Representation], algebra: PathAlgebra | None = None) -> Representation:
    """⊕parts, built once per algebra and parts, and checked when every part
    is: its arrow matrices are block-diagonal, so every word, and relation,
    acts part by part.  At each vertex the coordinates of the parts follow
    one another, so a map between sums is a block matrix by the parts' dims."""
    algebra = algebra or parts[0].algebra
    key = ("sum", tuple(parts))
    rep = algebra.vertex_modules.get(key)
    if rep is None:
        F, q = algebra.field, algebra.quiver
        dims = tuple(sum(p.dims[v] for p in parts) for v in range(q.n))
        mats = [block_diag(F, [p.mats[ai] for p in parts]) for ai in range(len(q.arrows))]
        rep = algebra.vertex_modules[key] = Representation(algebra, dims, mats, check=False)
    rep._checked = rep._checked or all(p._checked for p in parts)
    return rep


def stack_maps(parts: list[Representation], blocks: list[list[list]], x: Representation,
               into: bool = False) -> ModuleMap:
    """The map (⊕parts) -> x that is f_k on parts[k], or with `into` the map
    x -> (⊕parts) whose part k is f_k, each f_k given by its vertex blocks
    blocks[k], row-major, one list per vertex."""
    total, F = direct_sum(parts, x.algebra), x.algebra.field
    mats = [Matrix.zeros(F, *((t, d) if into else (d, t))) if not (t and d)
            else Matrix(F, t, d, [e for b in blocks for e in b[v]]) if into
            else Matrix(F, d, t, [e for r in range(d) for b, p in zip(blocks, parts)
                                  for e in b[v][r * p.dims[v]:(r + 1) * p.dims[v]]])
            for v, (d, t) in enumerate(zip(x.dims, total.dims))]
    return ModuleMap(x, total, mats, check=False) if into else ModuleMap(total, x, mats, check=False)


# ---------------------------------------------------------------------------
# radical and socle


def _arrows_at(m: Representation, v: int, into: bool = True) -> Matrix:
    """The arrows into vertex v (0-based) side by side, spanning (rad m)_v,
    or with into=False those out of v stacked, with kernel (soc m)_v."""
    mats = [m.mats[ai] for ai, a in enumerate(m.algebra.quiver.arrows)
            if (a.target if into else a.source) - 1 == v]
    if into:
        return Matrix(m.algebra.field, m.dims[v], sum(a.cols for a in mats),
                      [e for r in range(m.dims[v]) for a in mats for e in a.row(r)])
    return Matrix(m.algebra.field, sum(a.rows for a in mats), m.dims[v],
                  [e for a in mats for e in a.entries])


def radical(m: Representation) -> tuple[Representation, ModuleMap]:
    """rad m = J·m, the sum of the arrow images, with its inclusion; computed
    once per m and stored on it."""
    if m._radical is None:
        m._radical = _induced_sub(m, [column_space_basis(_arrows_at(m, v))
                                      for v in range(len(m.dims))])
    return m._radical


def top_columns(m: Representation) -> list[tuple[int, int]]:
    """The (v, j), v 0-based, whose standard basis vectors e_j complete the
    pivot columns of the arrows into v, the basis of (rad m)_v that
    `radical` takes, to one of m_v; computed once per m and stored on it.
    They generate m, so evaluating at them is injective on Hom(m, -): every
    module has J^N m = 0 (the schema checks declared ones, and kernels,
    cokernels and sums keep it), so the submodule S they generate,
    with S + J·m = m, is m = S + J^N·m by Nakayama's lemma."""
    if m._top is None:
        m._top = [(v, j) for v, d in enumerate(m.dims) if d for j in complement_columns(_arrows_at(m, v))]
    return m._top


def socle_rows(m: Representation) -> list[tuple[int, int]]:
    """The (v, j), v 0-based, whose functionals e_j^T complete the pivot rows
    of the arrows out of v, which vanish exactly on (soc m)_v, to a basis of
    D(m_v): restricted to (soc m)_v they form a basis of its dual."""
    return [(v, j) for v, d in enumerate(m.dims) if d
            for j in complement_columns(_arrows_at(m, v, into=False).transpose())]


def socle(m: Representation) -> tuple[Representation, ModuleMap]:
    return _kernel_sub(m, [_arrows_at(m, v, into=False) for v in range(len(m.dims))])


def radical_power_sub(m: Representation, k: int) -> tuple[Representation, ModuleMap]:
    """rad^k(m) as a subrepresentation of m."""
    cur, incl = m, ModuleMap.identity(m)
    for _ in range(k):
        cur, sub_incl = radical(cur)
        incl = sub_incl.compose(incl)
    return cur, incl


# ---------------------------------------------------------------------------
# isomorphism testing


class IsoResult(NamedTuple):
    isomorphic: bool | None  # None means "unknown": neither End is certified local
    witness: ModuleMap | None = None


def is_isomorphic(m: Representation, n: Representation) -> IsoResult:
    """True, with an isomorphism among the basis maps b_0..b_{h-1} of
    Hom(m, n) as witness.  Otherwise False when End(m) or End(n) is certified
    local: if m ≅ n, the non-isomorphisms in Hom(m, n) form a hyperplane
    (rad End(m) moved along an isomorphism), which contains no basis.

    When neither is local, the maps Σ_i t^i·b_i for t = 1..D(h-1), with
    D = dim m, are tried before answering None (unknown); t = 0 gives b_0.
    They find an isomorphism whenever m ≅ n is multiplicity-free with
    End(m)/rad = k^r and the field has more than D(h-1) elements: the
    non-isomorphisms then form r <= D hyperplanes, each meeting the curve in
    at most h-1 points."""
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
    if endo_indecomposability_check(m) or endo_indecomposability_check(n):
        return IsoResult(False)
    F = m.algebra.field
    tries = m.total_dim * (len(basis) - 1)
    if F.p:
        tries = min(tries, F.p - 1)
    for t in range(1, tries + 1):
        f = ModuleMap.combination(m, n, [F.of_int(t ** i) for i in range(len(basis))], basis)
        if f.is_isomorphism():
            return IsoResult(True, f)
    return IsoResult(None)


def proven_isomorphic(m: Representation, n: Representation) -> bool:
    """is_isomorphic(m, n) answers True, asked only when cheap invariants
    leave it open: m is n proves it (representations are canonical per
    algebra), and different dims or tops (vertices of `top_columns`) refute it."""
    if m is n or m.dims != n.dims:
        return m is n
    return ([v for v, _ in top_columns(m)] == [v for v, _ in top_columns(n)]
            and is_isomorphic(m, n).isomorphic is True)


def endo_indecomposability_check(m: Representation) -> bool:
    """End(m) is local with End(m)/rad = k, so m is indecomposable; computed
    once per m.  When dim top m = 1, m = Λx for any x outside J·m, each f in
    End(m) acts on the top by a scalar λ, and f - λ maps J^i·m into
    J^(i+1)·m, so it is nilpotent.  Otherwise End(m) must pass the residue
    certificate (`algebra.residue_certificate`) over its hom_space basis."""
    if m._local is None and len(top_columns(m)) == 1:
        m._local = True
    if m._local is None:
        basis = hom_space(m, m)

        def mul(u, v):
            return hom_coordinates(basis, ModuleMap.combination(m, m, u, basis).compose(
                ModuleMap.combination(m, m, v, basis)))

        unit = hom_coordinates(basis, ModuleMap.identity(m))
        m._local = residue_certificate(m.algebra.field, len(basis), unit, mul) is not None
    return m._local


# ---------------------------------------------------------------------------
# short exact sequences


class ShortExactSeq:
    """0 -> A -f-> B -g-> C -> 0, validated exactly: f is mono, g is epi,
    f then g is zero, and dim A_v + dim C_v = dim B_v at every vertex, so
    im f, of dimension A_v, is all of ker g, of dimension B_v - C_v."""

    def __init__(self, f: ModuleMap, g: ModuleMap):
        if f.target.dims != g.source.dims:
            raise ValueError("middle terms disagree")
        if not f.is_injective():
            raise ValueError("first map not injective")
        if not g.is_surjective():
            raise ValueError("second map not surjective")
        if not f.compose(g).is_zero():
            raise ValueError("composite not zero")
        if any(a + c != b for a, b, c in zip(f.source.dims, f.target.dims, g.target.dims)):
            raise ValueError("image(f) != kernel(g): dimension additivity fails")
        self.f, self.g = f, g
        self.sub, self.middle, self.quotient = f.source, f.target, g.target
