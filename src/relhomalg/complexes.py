"""Bounded complexes of representations: cones, shifts, homotopy-category
Hom spaces, F-acyclicity, radical normalization and term length.

Degree convention: differentials raise degree, d^i: X^i -> X^{i+1};
(X[n])^i = X^{i+n} with differential (-1)^n d^{i+n}.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .matrix import Matrix, SpanSolver, column_space_basis, kernel_basis, rank, rref
from .quiver import PathAlgebra
from .rep import (
    ModuleMap,
    Representation,
    direct_sum,
    hom_coordinates,
    hom_space,
    top_columns,
    zero_representation,
)
from .relative import SubbifunctorF


class Part(NamedTuple):
    """One declared direct summand of a complex component."""
    label: str
    module: Representation


class Complex:
    """Bounded complex; components outside the stored window are zero.

    Optionally decorated with per-degree direct-sum decompositions (parts),
    which cone/shift/sum propagate and radical normalization requires.
    """

    def __init__(self, algebra: PathAlgebra, comps: dict[int, Representation],
                 diffs: dict[int, ModuleMap], parts: dict[int, list[Part]] | None = None,
                 check: bool = True):
        self.algebra = algebra
        self.zero = zero_representation(algebra)  # the component of every absent degree
        self.comps = {i: c for i, c in comps.items() if not c.is_zero()}
        self.diffs = {}
        for i, d in diffs.items():
            if i in self.comps and (i + 1) in self.comps:
                self.diffs[i] = d
        self.parts = None
        if parts is not None:
            self.parts = {i: list(parts.get(i, [])) for i in self.comps}
        if check:
            self._validate(diffs)

    def _validate(self, diffs):
        for i in self.diffs:
            d = self.diffs[i]
            if d.source.dims != self.comps[i].dims or d.target.dims != self.comps[i + 1].dims:
                raise ValueError(f"differential at {i} has wrong endpoints")
        for i in self.diffs:
            if (i + 1) in self.diffs:
                if not self.diffs[i].compose(self.diffs[i + 1]).is_zero():
                    raise ValueError(f"d^2 != 0 at degree {i}")
        if self.parts is not None:
            for i, pl in self.parts.items():
                dims = tuple(sum(p.module.dims[v] for p in pl)
                             for v in range(self.algebra.quiver.n))
                if dims != self.comps[i].dims:
                    raise ValueError(f"parts at degree {i} do not sum to the component")

    def degrees(self) -> list[int]:
        return sorted(self.comps)

    def is_zero(self) -> bool:
        return not self.comps

    @property
    def lo(self) -> int:
        return min(self.comps) if self.comps else 0

    @property
    def hi(self) -> int:
        return max(self.comps) if self.comps else 0

    def width(self) -> int:
        return self.hi - self.lo if self.comps else 0

    def component(self, i: int) -> Representation:
        return self.comps.get(i) or self.zero

    def differential(self, i: int) -> ModuleMap:
        d = self.diffs.get(i)
        if d is not None:
            return d
        return ModuleMap.zero(self.component(i), self.component(i + 1))

    def __repr__(self):
        if self.is_zero():
            return "Complex(0)"
        rng = ", ".join(f"{i}:{self.comps[i].dims}" for i in self.degrees())
        return f"Complex[{rng}]"


def zero_complex(algebra: PathAlgebra) -> Complex:
    return Complex(algebra, {}, {}, parts={})


def stalk_complex(m: Representation, degree: int = 0, label: str | None = None,
                  parts: list[Part] | None = None) -> Complex:
    if m.is_zero():
        return zero_complex(m.algebra)
    if parts is None:
        parts = [Part(label or "X", m)]
    return Complex(m.algebra, {degree: m}, {}, parts={degree: parts})


def shift_complex(x: Complex, n: int) -> Complex:
    F = x.algebra.field
    comps = {i - n: c for i, c in x.comps.items()}
    sign = F.of_int(-1 if n % 2 else 1)
    diffs = {i - n: d.scale(sign) for i, d in x.diffs.items()}
    parts = {i - n: list(pl) for i, pl in (x.parts or {}).items()} if x.parts is not None else None
    return Complex(x.algebra, comps, diffs, parts=parts, check=False)


def sum_complexes(xs: list[Complex], algebra: PathAlgebra | None = None) -> Complex:
    if algebra is None:
        algebra = xs[0].algebra
    degrees = sorted({i for x in xs for i in x.degrees()})
    comps, diffs, parts = {}, {}, {}
    sums = {}
    for i in degrees:
        ds = direct_sum([x.component(i) for x in xs], algebra)
        sums[i] = ds
        comps[i] = ds.rep
        parts[i] = [p for x in xs for p in (x.parts or {}).get(i, [Part("?", x.component(i))])
                    if not p.module.is_zero()]
    for i in degrees:
        if (i + 1) not in comps:
            continue
        total = ModuleMap.zero(comps[i], comps[i + 1])
        for k, x in enumerate(xs):
            d = x.differential(i)
            total = total + sums[i].projections[k].compose(d).compose(sums[i + 1].injections[k])
        diffs[i] = total
    return Complex(algebra, comps, diffs, parts=parts)


class ChainMap(NamedTuple):
    source: Complex
    target: Complex
    comps: dict[int, ModuleMap]

    def component(self, i: int) -> ModuleMap:
        c = self.comps.get(i)
        if c is not None:
            return c
        return ModuleMap.zero(self.source.component(i), self.target.component(i))

    def validate(self):
        for i in set(list(self.source.comps) + list(self.target.comps)):
            lhs = self.component(i).compose(self.target.differential(i))
            rhs = self.source.differential(i).compose(self.component(i + 1))
            if not (lhs - rhs).is_zero():
                raise ValueError(f"chain map does not commute at degree {i}")
        return self

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps.values())


def chain_identity(x: Complex) -> ChainMap:
    return ChainMap(x, x, {i: ModuleMap.identity(x.comps[i]) for i in x.comps})


def cone(f: ChainMap) -> tuple[Complex, ChainMap, ChainMap]:
    """Mapping cone M(f)^i = X^{i+1} ⊕ Y^i, with the canonical maps
    alpha: Y -> M(f) and beta: M(f) -> X[1]."""
    X, Y = f.source, f.target
    algebra = X.algebra
    F = algebra.field
    degrees = sorted({i - 1 for i in X.comps} | set(Y.comps))
    comps, parts, sums = {}, {}, {}
    for i in degrees:
        xs = X.component(i + 1)
        ys = Y.component(i)
        ds = direct_sum([xs, ys], algebra)
        sums[i] = ds
        comps[i] = ds.rep
        pl = []
        if X.parts is not None:
            pl += [Part(p.label + "[1]", p.module) for p in X.parts.get(i + 1, [])]
        elif not xs.is_zero():
            pl += [Part("X[1]", xs)]
        if Y.parts is not None:
            pl += [Part(p.label, p.module) for p in Y.parts.get(i, [])]
        elif not ys.is_zero():
            pl += [Part("Y", ys)]
        parts[i] = pl
    diffs = {}
    for i in degrees:
        if (i + 1) not in comps:
            continue
        src, tgt = sums[i], sums[i + 1]
        d = ModuleMap.zero(comps[i], comps[i + 1])
        minus = F.of_int(-1)
        d = d + src.projections[0].compose(X.differential(i + 1)).scale(minus).compose(tgt.injections[0])
        d = d + src.projections[0].compose(f.component(i + 1)).compose(tgt.injections[1])
        d = d + src.projections[1].compose(Y.differential(i)).compose(tgt.injections[1])
        diffs[i] = d
    M = Complex(algebra, comps, diffs, parts=parts)
    alpha = ChainMap(Y, M, {i: sums[i].injections[1] for i in M.comps if i in Y.comps})
    x1 = shift_complex(X, 1)
    beta = ChainMap(M, x1, {i: sums[i].projections[0] for i in M.comps if i in x1.comps})
    return M, alpha.validate(), beta.validate()


# ---------------------------------------------------------------------------
# the total Hom complex and homotopy-category hom


class _TotalHom:
    """The total Hom complex of two bounded complexes X and Y.

    Hom^m = ⊕_i Hom(X^i, Y^{i+m}) is laid out as one block per source degree
    i, in increasing order, each with the `hom_space` basis; its differential
    is D f = f d_Y - (-1)^m d_X f, with maps composed left to right.
    """

    def __init__(self, x: Complex, y: Complex):
        self.x, self.y = x, y
        self._blocks: dict[int, tuple[dict, int]] = {}
        self._diffs: dict[int, Matrix] = {}
        self._ranks: dict[int, int] = {}

    def blocks(self, m: int) -> tuple[dict, int]:
        """Hom^m as {i: (basis of Hom(X^i, Y^{i+m}), first column)} in column
        order, and its dimension."""
        if m not in self._blocks:
            layout, pos = {}, 0
            for i in sorted(self.x.comps):
                if (i + m) in self.y.comps:
                    basis = hom_space(self.x.comps[i], self.y.comps[i + m])
                    layout[i] = (basis, pos)
                    pos += len(basis)
            self._blocks[m] = (layout, pos)
        return self._blocks[m]

    def differential(self, m: int) -> Matrix:
        """The matrix of D^m: Hom^m -> Hom^{m+1}, assembled once per m; when
        either side is zero it is the empty-shaped zero matrix."""
        if m not in self._diffs:
            n_src, n_tgt = self.blocks(m)[1], self.blocks(m + 1)[1]
            self._diffs[m] = (self._assemble(m) if n_src and n_tgt
                              else Matrix(self.x.algebra.field, n_tgt, n_src, []))
        return self._diffs[m]

    def _assemble(self, m: int) -> Matrix:
        F = self.x.algebra.field
        src, n_src = self.blocks(m)
        tgt, n_tgt = self.blocks(m + 1)
        rows = [[F.zero] * n_src for _ in range(n_tgt)]

        def put(j: int, col: int, maps, negate: bool):
            """Coordinates of maps (composites of consecutive source basis
            elements) into target block j, from column col on."""
            basis, row = tgt[j]
            if not basis:
                return
            for k, g in enumerate(maps):
                for rr, c in enumerate(hom_coordinates(basis, g)):
                    rows[row + rr][col + k] = F.neg(c) if negate else c

        for i, (basis, col) in src.items():
            d = self.y.diffs.get(i + m)
            if d is not None:  # f then d_Y^{i+m} lands in block i with sign +1
                put(i, col, (f.compose(d) for f in basis), False)
            d = self.x.diffs.get(i - 1)
            if d is not None:  # d_X^{i-1} then f lands in block i-1 with sign -(-1)^m
                put(i - 1, col, (d.compose(f) for f in basis), m % 2 == 0)
        return Matrix.from_rows(F, rows)

    def rank(self, m: int) -> int:
        """rank D^m, computed once per m; 0 with no elimination when D^m
        has an empty side."""
        if m not in self._ranks:
            d = self.differential(m)
            self._ranks[m] = rank(d) if d.rows and d.cols else 0
        return self._ranks[m]

    def dim(self, n: int) -> int:
        """dim H^n = dim Hom^n - rank D^n - rank D^{n-1}."""
        return self.blocks(n)[1] - self.rank(n) - self.rank(n - 1)


class HomotopyHom:
    """hom_k(X, Y, n): chain maps X -> Y[n] modulo null-homotopy.

    Built from the total Hom complex `total` of (X, Y), or a fresh one;
    representatives are chosen by RREF pivots against the null-homotopic
    subspace: first the cycles given in `first` (as degreewise maps) that
    are independent modulo boundaries, then kernel columns in a fixed
    degreewise order.  Cycles are read back only at the top columns (v, c)
    of each X^i, which generate X^i, so that evaluation is injective on
    Hom^n (`rep.top_columns`): one solver on the class basis evaluated
    there gives class coordinates, and its back-check over every evaluated
    entry proves the cycle is the combination found.
    """

    def __init__(self, x: Complex, y: Complex, n: int, total: _TotalHom | None = None,
                 first: tuple = ()):
        self.x, self.y, self.n = x, y, n
        F = x.algebra.field
        self.field = F
        if total is None:
            total = _TotalHom(x, y)
        self.blocks, self.dim_total = total.blocks(n)    # maps X^i -> Y^{i+n}
        self.homotopies = total.blocks(n - 1)[0]          # maps X^i -> Y^{i+n-1}
        self.d_in = total.differential(n - 1)             # Hom^{n-1} -> Hom^n
        d_out = total.differential(n)                     # Hom^n -> Hom^{n+1}
        K = kernel_basis(d_out)
        self.cycles = K
        img = column_space_basis(self.d_in)
        self.boundaries = img
        self.dim = K.cols - img.cols
        lead = [self.chain_map_to_vector(comps) for comps in first]
        if any(not F.is_zero(c) for v in lead for c in d_out.apply(v)):
            raise ValueError("a preferred representative is not a cycle")
        candidates = Matrix(F, self.dim_total, len(lead),
                            [v[r] for r in range(self.dim_total) for v in lead]).hstack(K)
        # class representatives: candidate columns completing the image
        _, pivots = rref(img.hstack(candidates))
        rep_cols = [p - img.cols for p in pivots if p >= img.cols]
        self.rep_vectors = [candidates.col(c) for c in rep_cols]
        self._class_basis = img.hstack(candidates.select_columns(rep_cols))

    # -- conversions -------------------------------------------------------

    def vector_to_chain_map(self, vec: list) -> ChainMap:
        comps = {}
        for i, (basis, off) in self.blocks.items():
            if not basis:
                continue
            comps[i] = ModuleMap.combination(basis[0].source, basis[0].target,
                                             vec[off:off + len(basis)], basis)
        return ChainMap(self.x, shift_complex(self.y, self.n) if self.n else self.y, comps)

    def chain_map_to_vector(self, cm_comps: dict[int, ModuleMap]) -> list:
        vec = [self.field.zero] * self.dim_total
        for i, (basis, off) in self.blocks.items():
            f = cm_comps.get(i)
            if basis and f is not None:
                vec[off:off + len(basis)] = hom_coordinates(basis, f)
        return vec

    def representatives(self) -> list[ChainMap]:
        return [self.vector_to_chain_map(v) for v in self.rep_vectors]

    @cached_property
    def _tops(self) -> list:
        """(i, top columns of X^i, Y^{i+n}) for each block with a basis; a
        map in a block without one is zero."""
        return [(i, top_columns(self.x.comps[i]), basis[0].target)
                for i, (basis, _) in self.blocks.items() if basis]

    @cached_property
    def _top_solver(self) -> SpanSolver:
        """The class basis evaluated at the top columns, in the layout of
        `_class_of`; of full column rank, as the evaluation is injective."""
        F, rows = self.field, []
        for i, tops, y in self._tops:
            basis, off = self.blocks[i]
            rows += [[F.zero] * off + [b.mats[v].at(r, c) for b in basis]
                     + [F.zero] * (self.dim_total - off - len(basis))
                     for v, c in tops for r in range(y.dims[v])]
        return SpanSolver(Matrix.from_rows(F, rows) * self._class_basis)

    def _class_of(self, values) -> list:
        """Class coordinates of the cycle whose column c at vertex v in
        degree i is values(i, v, c), or zero where that is None."""
        vec = []
        for i, tops, y in self._tops:
            for v, c in tops:
                col = values(i, v, c)
                vec += [self.field.zero] * y.dims[v] if col is None else col
        coords = self._top_solver.coords(vec)
        if coords is None:
            raise ValueError("vector is not a cycle combination")
        return coords[self.boundaries.cols:]

    def class_coordinates(self, cm_comps: dict[int, ModuleMap]) -> list:
        """Coordinates of a cycle's homotopy class in the representative
        basis; cm_comps are its module maps X^i -> Y^{i+n}."""
        return self._class_of(lambda i, v, c: cm_comps[i].mats[v].col(c) if i in cm_comps else None)

    def product_coordinates(self, f: ChainMap, g: ChainMap) -> list:
        """class_coordinates of "f then g" for f: X -> W of degree 0 and
        g: W -> Y[n], with no composite built: one matrix-vector product
        g^i·(column c of f^i) per top column."""
        return self._class_of(lambda i, v, c: g.comps[i].mats[v].apply(f.comps[i].mats[v].col(c))
                              if i in f.comps and i in g.comps else None)


def hom_k(x: Complex, y: Complex, n: int) -> int:
    """dim Hom_K(x, y[n]); HomotopyHom gives representatives."""
    return _TotalHom(x, y).dim(n)


# ---------------------------------------------------------------------------
# F-acyclicity


def is_f_acyclic(x: Complex, f: SubbifunctorF) -> bool:
    """Hom(G, x) is acyclic."""
    g = stalk_complex(f.generator)
    return all(hom_k(g, x, m) == 0 for m in x.degrees())


# ---------------------------------------------------------------------------
# radical normalization and term length


def _extract_block(d: ModuleMap, src_ds, tgt_ds, s: int, t: int) -> ModuleMap:
    return src_ds.injections[s].compose(d).compose(tgt_ds.projections[t])


def radical_normalize(x: Complex) -> Complex:
    """Strip contractible two-term summands until every differential is a
    radical map (no invertible block between declared summands)."""
    if x.parts is None:
        raise ValueError("radical normalization needs a summand decomposition")
    cur = x
    while True:
        hit = None
        sums = {i: direct_sum([p.module for p in cur.parts[i]], cur.algebra)
                for i in cur.degrees()}
        for i in cur.degrees():
            if (i + 1) not in cur.comps:
                continue
            d = cur.differential(i)
            for s, ps in enumerate(cur.parts[i]):
                for t, pt in enumerate(cur.parts[i + 1]):
                    if ps.module.dims != pt.module.dims:
                        continue
                    blk = _extract_block(d, sums[i], sums[i + 1], s, t)
                    if blk.is_isomorphism():
                        hit = (i, s, t, blk)
                        break
                if hit:
                    break
            if hit:
                break
        if hit is None:
            return cur
        i, s, t, blk = hit
        cur = _gauss_eliminate(cur, sums, i, s, t, blk)


def _gauss_eliminate(x: Complex, sums, i: int, s: int, t: int, blk: ModuleMap) -> Complex:
    algebra = x.algebra
    F = algebra.field
    inv = blk.inverse_map()
    old_parts_i = x.parts[i]
    old_parts_j = x.parts[i + 1]
    keep_i = [k for k in range(len(old_parts_i)) if k != s]
    keep_j = [k for k in range(len(old_parts_j)) if k != t]
    new_parts = {k: list(v) for k, v in x.parts.items()}
    new_parts[i] = [old_parts_i[k] for k in keep_i]
    new_parts[i + 1] = [old_parts_j[k] for k in keep_j]
    new_comps = dict(x.comps)
    ds_i = direct_sum([p.module for p in new_parts[i]], algebra)
    ds_j = direct_sum([p.module for p in new_parts[i + 1]], algebra)
    new_comps[i] = ds_i.rep
    new_comps[i + 1] = ds_j.rep
    d = x.differential(i)
    new_diffs = dict(x.diffs)
    # middle differential: alpha - beta . delta^{-1} . gamma, blockwise
    mid = ModuleMap.zero(ds_i.rep, ds_j.rep)
    for a, ka in enumerate(keep_i):
        gamma_a = _extract_block(d, sums[i], sums[i + 1], ka, t)
        for b, kb in enumerate(keep_j):
            alpha = _extract_block(d, sums[i], sums[i + 1], ka, kb)
            beta_b = _extract_block(d, sums[i], sums[i + 1], s, kb)
            corr = gamma_a.compose(inv).compose(beta_b)
            mid = mid + ds_i.projections[a].compose(alpha - corr).compose(ds_j.injections[b])
    new_diffs[i] = mid
    # incoming differential: drop the s-component
    if (i - 1) in x.diffs:
        din = x.diffs[i - 1]
        acc = ModuleMap.zero(x.comps[i - 1], ds_i.rep)
        for a, ka in enumerate(keep_i):
            acc = acc + din.compose(sums[i].projections[ka]).compose(ds_i.injections[a])
        new_diffs[i - 1] = acc
    # outgoing differential: restrict to kept parts of degree i+1
    if (i + 1) in x.diffs:
        dout = x.diffs[i + 1]
        acc = ModuleMap.zero(ds_j.rep, x.comps[i + 2])
        for b, kb in enumerate(keep_j):
            acc = acc + ds_j.projections[b].compose(sums[i + 1].injections[kb]).compose(dout)
        new_diffs[i + 1] = acc
    return Complex(algebra, new_comps, new_diffs, parts=new_parts)


def term_length(x: Complex) -> int:
    norm = radical_normalize(x) if x.parts is not None else x
    if norm.is_zero():
        return 0
    return norm.hi - norm.lo
