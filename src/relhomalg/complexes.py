"""Bounded complexes of representations: cones, shifts, homotopy-category
Hom spaces, F-acyclicity, radical normalization, term length, and derived
Homs via F-projective replacement.

Degree convention: differentials raise degree, d^i: X^i -> X^{i+1};
(X[n])^i = X^{i+n} with differential (-1)^n d^{i+n}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrix import Matrix, SpanSolver, column_space_basis, kernel_basis, rank, rref, solve
from .quiver import PathAlgebra
from .rep import (
    ModuleMap,
    Representation,
    ShortExactSeq,
    _solve_splitting,
    direct_sum,
    hom_coordinates,
    hom_space,
    zero_representation,
)
from .relative import FResolution, SubbifunctorF, TruncationError, f_resolution, is_f_exact


@dataclass
class Part:
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


@dataclass
class ChainMap:
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


@dataclass
class Homotopy:
    """Maps s^i: X^i -> Y^{i+n-1} witnessing that a degree-n chain map f is
    null-homotopic: f = s d + d s (with the shifted differential of Y[n])."""
    f: ChainMap
    n: int
    s: dict[int, ModuleMap]

    def validate(self):
        X = self.f.source
        Y_shift = self.f.target  # already Y[n]
        F = X.algebra.field
        for i in set(X.comps):
            si = self.s.get(i)
            snext = self.s.get(i + 1)
            target_i = self.f.component(i).target
            acc = ModuleMap.zero(X.component(i), target_i)
            if si is not None:
                acc = acc + si.compose(Y_shift.differential(i - 1))
            if snext is not None:
                acc = acc + X.differential(i).compose(snext)
            if not (acc - self.f.component(i)).is_zero():
                raise ValueError(f"homotopy identity fails at degree {i}")
        return self


def null_homotopy_witness(hh: "HomotopyHom", cm_comps: dict[int, ModuleMap]) -> Homotopy | None:
    """If the given cycle is null-homotopic, produce the witnessing s maps."""
    F = hh.field
    v = hh.chain_map_to_vector(cm_comps)
    coeff = solve(hh.d_in, Matrix(F, len(v), 1, v))
    if coeff is None:
        return None
    # D at level n-1 differs from the homotopy identity by a global sign on odd n
    sign = F.of_int(-1 if hh.n % 2 else 1)
    s: dict[int, ModuleMap] = {}
    for (i, _, _), (basis, off) in hh.homotopies.items():
        if not basis:
            continue
        coeffs = [F.mul(sign, coeff.at(off + k, 0)) for k in range(len(basis))]
        acc = ModuleMap.combination(basis[0].source, basis[0].target, coeffs, basis)
        if not acc.is_zero():
            s[i] = acc
    hom = Homotopy(hh.vector_to_chain_map(v), hh.n, s)
    return hom.validate()


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
    """The total Hom complex between two bounded complexes whose components
    are lists of pieces.

    Hom^m is laid out as blocks Hom(X^i_s, Y^{i+m}_t), ordered by source
    degree i, source piece s and target piece t; its differential is
    D f = f d_Y - (-1)^m d_X f, with maps composed left to right.  A side
    supplies the pieces of each component, the differential entries
    {(s, t): piece s of Z^i -> piece t of Z^{i+1}} of each degree, and three
    functions: `hom(a, b)`, a basis of the maps between two pieces;
    `compose(f, g)`, f then g; `coords(a, b, f)`, the coordinates of f in
    `hom(a, b)`.
    """

    def __init__(self, field, x_pieces: dict, x_diffs: dict, y_pieces: dict, y_diffs: dict,
                 hom, compose, coords):
        self.field = field
        self.x_pieces, self.x_diffs = x_pieces, x_diffs
        self.y_pieces, self.y_diffs = y_pieces, y_diffs
        self.hom, self.compose, self.coords = hom, compose, coords
        self._blocks: dict[int, tuple[dict, int]] = {}
        self._ranks: dict[int, int] = {}

    def blocks(self, m: int) -> tuple[dict, int]:
        """Hom^m as {(i, s, t): (basis, first column)} in column order, and
        its dimension."""
        if m not in self._blocks:
            layout, pos = {}, 0
            for i in sorted(self.x_pieces):
                for s, a in enumerate(self.x_pieces[i]):
                    for t, b in enumerate(self.y_pieces.get(i + m, ())):
                        basis = self.hom(a, b)
                        layout[(i, s, t)] = (basis, pos)
                        pos += len(basis)
            self._blocks[m] = (layout, pos)
        return self._blocks[m]

    def differential(self, m: int) -> Matrix:
        """The matrix of D^m: Hom^m -> Hom^{m+1}."""
        F = self.field
        src, n_src = self.blocks(m)
        tgt, n_tgt = self.blocks(m + 1)
        rows = [[F.zero] * n_src for _ in range(n_tgt)]

        def put(key, col: int, maps, negate: bool):
            """Coordinates of maps (composites of consecutive source basis
            elements) into target block key, from column col on."""
            basis, row = tgt[key]
            if not basis:
                return
            j, p, r = key
            a, b = self.x_pieces[j][p], self.y_pieces[j + m + 1][r]
            for k, g in enumerate(maps):
                for rr, c in enumerate(self.coords(a, b, g)):
                    rows[row + rr][col + k] = F.neg(c) if negate else c

        for (i, s, t), (basis, col) in src.items():
            # f then d_Y^{i+m} lands in block (i, s, r) with sign +1
            for (u, r), d in self.y_diffs.get(i + m, {}).items():
                if u == t:
                    put((i, s, r), col, (self.compose(f, d) for f in basis), False)
            # d_X^{i-1} then f lands in block (i-1, q, t) with sign -(-1)^m
            for (q, u), d in self.x_diffs.get(i - 1, {}).items():
                if u == s:
                    put((i - 1, q, t), col, (self.compose(d, f) for f in basis), m % 2 == 0)
        return Matrix.from_rows(F, rows) if n_tgt else Matrix(F, 0, n_src, [])

    def rank(self, m: int) -> int:
        """rank D^m, computed once per m."""
        if m not in self._ranks:
            self._ranks[m] = rank(self.differential(m))
        return self._ranks[m]

    def dim(self, n: int) -> int:
        """dim H^n = dim Hom^n - rank D^n - rank D^{n-1}."""
        return self.blocks(n)[1] - self.rank(n) - self.rank(n - 1)


def _module_total_hom(x: Complex, y: Complex) -> _TotalHom:
    """The total Hom complex of two complexes of representations, with one
    piece per nonzero component."""
    def one_piece(z: Complex):
        return ({i: [c] for i, c in z.comps.items()},
                {i: {(0, 0): d} for i, d in z.diffs.items()})

    return _TotalHom(x.algebra.field, *one_piece(x), *one_piece(y), hom_space,
                     ModuleMap.compose, lambda a, b, f: hom_coordinates(hom_space(a, b), f))


class HomotopyHom:
    """hom_k(X, Y, n): chain maps X -> Y[n] modulo null-homotopy.

    Built from the total Hom complex; representatives are chosen by RREF
    pivots against the null-homotopic subspace, in a fixed degreewise order.
    """

    def __init__(self, x: Complex, y: Complex, n: int):
        self.x, self.y, self.n = x, y, n
        F = x.algebra.field
        self.field = F
        total = _module_total_hom(x, y)
        self.blocks, self.dim_total = total.blocks(n)    # maps X^i -> Y^{i+n}
        self.homotopies = total.blocks(n - 1)[0]          # maps X^i -> Y^{i+n-1}
        self.d_in = total.differential(n - 1)             # Hom^{n-1} -> Hom^n
        K = kernel_basis(total.differential(n))           # Hom^n -> Hom^{n+1}
        self.cycles = K
        img = column_space_basis(self.d_in)
        self.boundaries = img
        self.dim = K.cols - img.cols
        # class representatives: kernel columns completing the image
        _, pivots = rref(img.hstack(K))
        rep_cols = [p - img.cols for p in pivots if p >= img.cols]
        self.rep_vectors = [K.col(c) for c in rep_cols]
        self._class_basis = img.hstack(K.select_columns(rep_cols))
        self._class_solver = SpanSolver(self._class_basis) if self._class_basis.cols else None

    # -- conversions -------------------------------------------------------

    def vector_to_chain_map(self, vec: list) -> ChainMap:
        comps = {}
        for (i, _, _), (basis, off) in self.blocks.items():
            if not basis:
                continue
            comps[i] = ModuleMap.combination(basis[0].source, basis[0].target,
                                             vec[off:off + len(basis)], basis)
        return ChainMap(self.x, shift_complex(self.y, self.n), comps)

    def chain_map_to_vector(self, cm_comps: dict[int, ModuleMap]) -> list:
        vec = [self.field.zero] * self.dim_total
        for (i, _, _), (basis, off) in self.blocks.items():
            f = cm_comps.get(i)
            if basis and f is not None:
                vec[off:off + len(basis)] = hom_coordinates(basis, f)
        return vec

    def representatives(self) -> list[ChainMap]:
        return [self.vector_to_chain_map(v) for v in self.rep_vectors]

    def class_coordinates(self, cm_comps: dict[int, ModuleMap]) -> list:
        """Coordinates of a cycle's homotopy class in the representative basis."""
        F = self.field
        v = self.chain_map_to_vector(cm_comps)
        if self._class_basis.cols == 0:
            if all(F.is_zero(c) for c in v):
                return []
            raise ValueError("nonzero cycle in zero hom space")
        coords = self._class_solver.coords(v)
        if coords is None:
            raise ValueError("vector is not a cycle combination")
        return coords[self.boundaries.cols:]


def hom_k(x: Complex, y: Complex, n: int) -> int:
    """dim Hom_K(x, y[n]); HomotopyHom gives representatives."""
    return _module_total_hom(x, y).dim(n)


# ---------------------------------------------------------------------------
# F-acyclicity


def is_f_acyclic(x: Complex, f: SubbifunctorF) -> bool:
    """Hom(G, x) is acyclic."""
    g = stalk_complex(f.generator)
    return all(hom_k(g, x, m) == 0 for m in x.degrees())


def f_acyclic_definitional(x: Complex, f: SubbifunctorF) -> bool:
    """Lemma-style check: exact, and each 0 -> Im d^{i-1} -> X^i -> Im d^i -> 0
    is F-exact."""
    from .rep import image, kernel as rep_kernel

    F = x.algebra.field
    for i in x.degrees():
        d_out = x.differential(i)
        d_in = x.differential(i - 1)
        img_in, incl_in = image(d_in)
        ker_out, _ = rep_kernel(d_out)
        if img_in.total_dim != ker_out.total_dim:
            return False
        for v in range(x.algebra.quiver.n):
            if solve(kernel_basis(d_out.mats[v]), incl_in.mats[v]) is None:
                return False
        img_out, incl_out = image(d_out)
        # corestriction X^i -> Im d^i
        mats = []
        ok = True
        for v in range(x.algebra.quiver.n):
            coef = solve(incl_out.mats[v], d_out.mats[v])
            if coef is None:
                ok = False
                break
            mats.append(coef)
        if not ok:
            return False
        co = ModuleMap(x.comps[i], img_out, mats)
        try:
            ses = ShortExactSeq(incl_in, co)
        except ValueError:
            return False
        if not is_f_exact(ses, f):
            return False
    return True


def is_f_quasi_iso(h: ChainMap, f: SubbifunctorF) -> bool:
    M, _, _ = cone(h)
    return is_f_acyclic(M, f)


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


# ---------------------------------------------------------------------------
# Prop 4.1 triangles


@dataclass
class Triangle:
    """X -> Y -> Z -> X[1]; the connecting map is an honest chain map only
    when the degreewise sequence splits, otherwise it is carried as the
    verified roof (phi: cone(f) -> Z an F-quasi-iso, beta: cone(f) -> X[1])."""
    f: ChainMap
    g: ChainMap
    cone_complex: Complex
    phi: ChainMap
    beta: ChainMap
    connecting: ChainMap | None


def triangle_from_f_exact(f: ChainMap, g: ChainMap, sub_f: SubbifunctorF) -> Triangle:
    X, Y, Z = f.source, f.target, g.target
    for i in sorted(set(Y.comps) | set(X.comps) | set(Z.comps)):
        ses = ShortExactSeq(
            ModuleMap(X.component(i), Y.component(i), f.component(i).mats),
            ModuleMap(Y.component(i), Z.component(i), g.component(i).mats))
        if not is_f_exact(ses, sub_f):
            raise ValueError(f"sequence is not degreewise F-exact at degree {i}")
    M, alpha, beta = cone(f)
    # phi: M(f)^i = X^{i+1} ⊕ Y^i -> Z^i is (0, g^i)
    comps = {}
    for i in M.degrees():
        xs = X.component(i + 1)
        ds = direct_sum([xs, Y.component(i)], X.algebra)
        comps[i] = ds.projections[1].compose(g.component(i))
    phi = ChainMap(M, Z, comps).validate()
    if not is_f_quasi_iso(phi, sub_f):
        raise ValueError("cone comparison map is not an F-quasi-isomorphism")
    connecting = _split_connecting(f, g)
    return Triangle(f=f, g=g, cone_complex=M, phi=phi, beta=beta, connecting=connecting)


def _split_connecting(f: ChainMap, g: ChainMap) -> ChainMap | None:
    """For degreewise split sequences, h^i = s^i d_Y r^{i+1} - d_Z s^{i+1} r^{i+1}
    seen inside X[1]; None when no degreewise splitting exists."""
    X, Y, Z = f.source, f.target, g.target
    sections, retractions = {}, {}
    for i in sorted(set(Y.comps) | set(Z.comps) | set(X.comps)):
        s = _solve_splitting(g.component(i), retraction=False)
        r = _solve_splitting(f.component(i), retraction=True)
        if s is None or r is None:
            return None
        sections[i] = s
        retractions[i] = r
    comps = {}
    x1 = shift_complex(X, 1)
    for i in Z.degrees():
        r_next = retractions.get(i + 1) or _zero_retr(f, i + 1)
        s_next = sections.get(i + 1) or _zero_sec(g, i + 1)
        term1 = sections[i].compose(Y.differential(i)).compose(r_next)
        term2 = Z.differential(i).compose(s_next).compose(r_next)
        comps[i] = term1 - term2
    for flip_sign in (False, True):
        trial = comps if not flip_sign else {
            i: -m for i, m in comps.items()}
        try:
            return ChainMap(Z, x1, trial).validate()
        except ValueError:
            continue
    return None


def _zero_retr(f: ChainMap, i: int):
    return ModuleMap.zero(f.target.component(i), f.source.component(i))


def _zero_sec(g: ChainMap, i: int):
    return ModuleMap.zero(g.target.component(i), g.source.component(i))


# ---------------------------------------------------------------------------
# derived hom via F-projective replacement


@dataclass
class Replacement:
    complex: Complex
    to_target: ChainMap
    trusted_below: int | None  # degrees >= this are certified; None = fully exact


def resolution_as_complex(res: FResolution, top_degree: int, f: SubbifunctorF) -> Replacement:
    """An F-resolution laid out as a complex ending at top_degree, with its
    augmentation chain map to the stalk of X at top_degree."""
    algebra = res.x.algebra
    comps, diffs, parts = {}, {}, {}
    for k, p in enumerate(res.modules):
        deg = top_degree - k
        if p.is_zero():
            continue
        comps[deg] = p
        if res.pieces[k] is None:
            parts[deg] = [Part(f"addG@{deg}", p)]
        else:
            parts[deg] = [Part(f.summands[j].name, f.summands[j].module) for j in res.pieces[k]]
    for k, d in enumerate(res.diffs):
        deg = top_degree - k - 1
        if deg in comps and (deg + 1) in comps:
            diffs[deg] = d
    cx = Complex(algebra, comps, diffs, parts=parts)
    tgt = stalk_complex(res.x, top_degree)
    aug = ChainMap(cx, tgt, {top_degree: res.augmentation} if top_degree in cx.comps else {})
    trusted = None
    if res.truncated:
        trusted = top_degree - res.length + 1
    return Replacement(cx, aug.validate(), trusted)


def lift_through(eps: ChainMap, g: ChainMap) -> tuple[ChainMap, int | None]:
    """f with f then eps = g, where eps is a degreewise-F-epi quasi-iso with
    F-acyclic kernel.  Returns (f, lowest degree where the exact solve failed
    or None)."""
    Q, R = g.source, eps.source
    F = Q.algebra.field
    comps: dict[int, ModuleMap] = {}
    failed_at: int | None = None
    for i in sorted(set(Q.comps) | set(R.comps), reverse=True):
        qi = Q.component(i)
        ri = R.component(i)
        # conditions: f^i then eps^i = g^i  and  f^i then d_R = d_Q then f^{i+1}
        rhs_next = Q.differential(i).compose(comps.get(i + 1) or
                                             ModuleMap.zero(Q.component(i + 1), R.component(i + 1)))
        if qi.is_zero():
            continue
        basis = hom_space(qi, ri) if not ri.is_zero() else []
        if not basis:
            if not g.component(i).is_zero() or not rhs_next.is_zero():
                failed_at = i
                break
            continue
        conds = []
        targets = []
        conds.append([b.compose(eps.component(i)) for b in basis])
        targets.append(g.component(i))
        conds.append([b.compose(R.differential(i)) for b in basis])
        targets.append(rhs_next)
        cols = []
        for k in range(len(basis)):
            col = []
            for cset in conds:
                col.extend([x for mm in cset[k].mats for x in mm.entries])
            cols.append(col)
        rhs = []
        for t in targets:
            rhs.extend([x for mm in t.mats for x in mm.entries])
        A = Matrix(F, len(rhs), len(cols), [cols[c][r] for r in range(len(rhs)) for c in range(len(cols))])
        Xs = solve(A, Matrix(F, len(rhs), 1, rhs))
        if Xs is None:
            failed_at = i
            break
        comps[i] = ModuleMap.combination(qi, ri, Xs.col(0), basis)
    return ChainMap(Q, R, comps), failed_at


def build_replacement(x: Complex, f: SubbifunctorF, depth: int) -> Replacement:
    """Bounded-above complex of add(G) objects with an F-quasi-iso onto x,
    built by the cone recursion over the bottom-degree filtration."""
    if x.is_zero():
        z = zero_complex(x.algebra)
        return Replacement(z, ChainMap(z, x, {}), None)
    degs = x.degrees()
    m = degs[0]
    if len(degs) == 1:
        res = f_resolution(x.comps[m], f, depth)
        rep = resolution_as_complex(res, m, f)
        tgt_map = ChainMap(rep.complex, x, rep.to_target.comps)
        return Replacement(rep.complex, tgt_map.validate(), rep.trusted_below)
    upper = Complex(x.algebra, {i: c for i, c in x.comps.items() if i > m},
                    {i: d for i, d in x.diffs.items() if i > m},
                    parts={i: pl for i, pl in (x.parts or {}).items() if i > m}
                    if x.parts is not None else None)
    r_b = build_replacement(upper, f, depth)
    res_a = f_resolution(x.comps[m], f, depth)
    rep_a = resolution_as_complex(res_a, m + 1, f)
    # g: R_A -> upper via the bottom differential
    dhat = ChainMap(stalk_complex(x.comps[m], m + 1), upper,
                    {m + 1: x.differential(m)}).validate()
    g = ChainMap(rep_a.complex, upper,
                 {m + 1: rep_a.to_target.component(m + 1).compose(x.differential(m))}).validate()
    lifted, failed_at = lift_through(r_b.to_target, g)
    M, alpha, beta = cone(lifted)
    # augmentation: diag(eps_A shifted, eps_B)
    comps = {}
    for i in M.degrees():
        a_part = rep_a.complex.component(i + 1)
        b_part = r_b.complex.component(i)
        ds = direct_sum([a_part, b_part], x.algebra)
        acc = ModuleMap.zero(M.comps[i], x.component(i))
        if i == m:
            acc = acc + ds.projections[0].compose(rep_a.to_target.component(m + 1))
        if i > m:
            acc = acc + ds.projections[1].compose(r_b.to_target.component(i))
        comps[i] = acc
    aug = ChainMap(M, x, comps).validate()
    trusted = None
    candidates = [c for c in (rep_a.trusted_below, r_b.trusted_below,
                              None if failed_at is None else failed_at + 2) if c is not None]
    if candidates:
        trusted = max(candidates)
    return Replacement(M, aug, trusted)


def hom_df(x: Complex, y: Complex, n: int, f: SubbifunctorF, depth: int | None = None) -> int:
    """dim Hom_{D_F}(x, y[n]) computed as hom_k after F-projective replacement.

    depth defaults to |n| + width + 2, which always covers the window; a
    caller-supplied shallower depth can make the answer undeterminable."""
    if x.is_zero() or y.is_zero():
        return 0
    if depth is None:
        depth = abs(n) + x.width() + y.width() + 2
    rep = build_replacement(x, f, depth)
    if rep.trusted_below is not None:
        lowest_needed = y.lo - n - 1
        if lowest_needed < rep.trusted_below:
            raise TruncationError(
                f"replacement truncated: degree {lowest_needed} needed, trusted down to {rep.trusted_below}")
    return hom_k(rep.complex, y, n)
