"""Bounded complexes of representations: cones, shifts, homotopy-category
Hom spaces, F-acyclicity, radical normalization and term length.

Degree convention: differentials raise degree, d^i: X^i -> X^{i+1};
(X[n])^i = X^{i+n} with differential (-1)^n d^{i+n}.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .matrix import (
    Matrix,
    block_diag,
    column_space_basis,
    inverse,
    invertible,
    kernel_basis,
    rank,
    rref,
)
from .quiver import PathAlgebra, _add, _Echelon, _reduce, _sparse
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

    Each component is decomposed into direct summands (parts), which
    cone/shift/sum propagate and radical normalization reads; without
    declared parts, each component is one part.  A component is the direct
    sum of its parts, so a differential is a block matrix at each vertex,
    one block per pair of parts.
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
        if parts is None:
            parts = {i: [Part(f"X^{i}", c)] for i, c in self.comps.items()}
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
        for i, pl in self.parts.items():
            dims = tuple(sum(p.module.dims[v] for p in pl) for v in range(self.algebra.quiver.n))
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
    parts = {i - n: list(pl) for i, pl in x.parts.items()}
    return Complex(x.algebra, comps, diffs, parts=parts, check=False)


def sum_complexes(xs: list[Complex], algebra: PathAlgebra | None = None) -> Complex:
    """⊕xs: each differential is block-diagonal, the summands' differentials
    at each vertex."""
    if algebra is None:
        algebra = xs[0].algebra
    F, n = algebra.field, algebra.quiver.n
    degrees = sorted({i for x in xs for i in x.degrees()})
    comps = {i: direct_sum([x.component(i) for x in xs], algebra) for i in degrees}
    parts = {i: [p for x in xs for p in x.parts.get(i, []) if not p.module.is_zero()]
             for i in degrees}
    diffs = {i: ModuleMap(comps[i], comps[i + 1],
                          [block_diag(F, [x.differential(i).mats[v] for x in xs]) for v in range(n)],
                          check=False)
             for i in degrees if (i + 1) in comps}
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


def cone(f: ChainMap) -> Complex:
    """Mapping cone M(f)^i = X^{i+1} ⊕ Y^i, with the differential
    [[-d_X^{i+1}, 0], [f^{i+1}, d_Y^i]] at each vertex."""
    X, Y = f.source, f.target
    algebra = X.algebra
    F = algebra.field
    degrees = sorted({i - 1 for i in X.comps} | set(Y.comps))
    comps = {i: direct_sum([X.component(i + 1), Y.component(i)], algebra) for i in degrees}
    parts = {i: [Part(p.label + "[1]", p.module) for p in X.parts.get(i + 1, [])]
             + Y.parts.get(i, []) for i in degrees}

    def differential(i: int) -> ModuleMap:
        dx, fx, dy = X.differential(i + 1), f.component(i + 1), Y.differential(i)
        mats = []
        for v in range(algebra.quiver.n):
            top = (-dx.mats[v]).hstack(Matrix.zeros(F, dx.target.dims[v], dy.source.dims[v]))
            bottom = fx.mats[v].hstack(dy.mats[v])
            mats.append(Matrix(F, top.rows + bottom.rows, top.cols, top.entries + bottom.entries))
        return ModuleMap(comps[i], comps[i + 1], mats, check=False)

    diffs = {i: differential(i) for i in degrees if (i + 1) in comps}
    return Complex(algebra, comps, diffs, parts=parts)


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
                              else Matrix.zeros(self.x.algebra.field, n_tgt, n_src))
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
        """dim H^n = dim Hom^n - rank D^n - rank D^{n-1}, and 0 with no
        differential read when Hom^n = 0."""
        h = self.blocks(n)[1]
        return h and h - self.rank(n) - self.rank(n - 1)


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
        if not self.dim_total:  # Hom^n = 0: no cycle, boundary or class
            self.cycles = self.boundaries = self._class_basis = Matrix.zeros(F, 0, 0)
            self.dim, self.rep_vectors = 0, []
            return
        d_out = total.differential(n)                     # Hom^n -> Hom^{n+1}
        self.cycles = K = kernel_basis(d_out)
        self.boundaries = img = column_space_basis(self.d_in)
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
    def _top_echelon(self) -> _Echelon:
        """The class basis evaluated at the top columns, in the layout of
        `_class_of`, in an echelon form: the boundary columns unlabelled and
        the k-th class representative labelled k, so a combination of the
        labels is a class.  ValueError if the evaluation is not injective."""
        F, rows, skip = self.field, [], self.boundaries.cols
        for i, tops, y in self._tops:
            basis, off = self.blocks[i]
            rows += [[F.zero] * off + [b.mats[v].at(r, c) for b in basis]
                     + [F.zero] * (self.dim_total - off - len(basis))
                     for v, c in tops for r in range(y.dims[v])]
        evaluated, echelon = Matrix.from_rows(F, rows) * self._class_basis, _Echelon()
        for k in range(evaluated.cols):
            rest, combo = _reduce(F, echelon, _sparse(F, evaluated.col(k)))
            if not rest:
                raise ValueError("basis columns are dependent")
            _add(F, echelon, rest, combo, k - skip if k >= skip else None)
        return echelon

    def _class_of(self, values) -> list:
        """Class coordinates of the cycle whose column c at vertex v in
        degree i is values(i, v, c), or zero where that is None."""
        vec = []
        for i, tops, y in self._tops:
            for v, c in tops:
                col = values(i, v, c)
                vec += [self.field.zero] * y.dims[v] if col is None else col
        rest, coords = _reduce(self.field, self._top_echelon, _sparse(self.field, vec))
        if rest:
            raise ValueError("vector is not a cycle combination")
        return [coords.get(k, self.field.zero) for k in range(self.dim)]

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


def _ranges(parts: list[Part], v: int) -> list[range]:
    """The coordinates of each part at vertex v (0-based) in their sum."""
    out, o = [], 0
    for p in parts:
        out.append(range(o, o + p.module.dims[v]))
        o += p.module.dims[v]
    return out


def _invertible_block(x: Complex) -> tuple[int, int, int] | None:
    """The first (i, s, t), by degree i, then part s of X^i, then part t of
    X^{i+1}, whose block of d^i, read at the parts' coordinate ranges, is
    invertible at every vertex."""
    n = x.algebra.quiver.n
    for i in x.degrees():
        if (i + 1) not in x.comps:
            continue
        d = x.differential(i)
        src = [_ranges(x.parts[i], v) for v in range(n)]
        tgt = [_ranges(x.parts[i + 1], v) for v in range(n)]
        for s, ps in enumerate(x.parts[i]):
            for t, pt in enumerate(x.parts[i + 1]):
                if ps.module.dims == pt.module.dims and all(
                        invertible(d.mats[v].submatrix(tgt[v][t], src[v][s])) for v in range(n)):
                    return i, s, t
    return None


def radical_normalize(x: Complex) -> Complex:
    """Strip contractible two-term summands until every differential is a
    radical map (no invertible block between parts)."""
    hit = _invertible_block(x)
    while hit is not None:
        x = _gauss_eliminate(x, *hit)
        hit = _invertible_block(x)
    return x


def _gauss_eliminate(x: Complex, i: int, s: int, t: int) -> Complex:
    """Drop part s of X^i and part t of X^{i+1}, joined by the invertible
    block δ of d^i.  At each vertex, d^i on the kept parts becomes the Schur
    complement α - β·δ^{-1}·γ, with α the kept block, β its column of blocks
    out of part s and γ its row of blocks into part t; d^{i-1} loses the rows
    of part s and d^{i+1} the columns of part t."""
    algebra = x.algebra
    n = algebra.quiver.n
    parts, comps, diffs = dict(x.parts), dict(x.comps), dict(x.diffs)
    parts[i] = [p for k, p in enumerate(x.parts[i]) if k != s]
    parts[i + 1] = [p for k, p in enumerate(x.parts[i + 1]) if k != t]
    comps[i], comps[i + 1] = (direct_sum([p.module for p in parts[j]], algebra) for j in (i, i + 1))
    src = [_ranges(x.parts[i], v) for v in range(n)]
    tgt = [_ranges(x.parts[i + 1], v) for v in range(n)]
    kept = [[c for k, r in enumerate(src[v]) if k != s for c in r] for v in range(n)]  # of X^i
    kept_next = [[c for k, r in enumerate(tgt[v]) if k != t for c in r] for v in range(n)]
    d = x.differential(i).mats
    diffs[i] = ModuleMap(comps[i], comps[i + 1], [
        d[v].submatrix(kept_next[v], kept[v]) - d[v].submatrix(kept_next[v], src[v][s])
        * inverse(d[v].submatrix(tgt[v][t], src[v][s])) * d[v].submatrix(tgt[v][t], kept[v])
        for v in range(n)], check=False)
    if (i - 1) in x.diffs:
        d = x.diffs[i - 1]
        diffs[i - 1] = ModuleMap(d.source, comps[i], [
            d.mats[v].submatrix(kept[v], range(d.source.dims[v])) for v in range(n)], check=False)
    if (i + 1) in x.diffs:
        d = x.diffs[i + 1]
        diffs[i + 1] = ModuleMap(comps[i + 1], d.target, [
            d.mats[v].submatrix(range(d.target.dims[v]), kept_next[v]) for v in range(n)],
            check=False)
    return Complex(algebra, comps, diffs, parts=parts)


def term_length(x: Complex) -> int:
    norm = radical_normalize(x)
    if norm.is_zero():
        return 0
    return norm.hi - norm.lo
