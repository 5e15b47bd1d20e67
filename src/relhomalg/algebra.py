"""Finite-dimensional algebras by structure constants: radical by the trace
form, resolutions, Ext, projective/injective/global dimension, Gorenstein
checks.

Covers use caller-supplied orthogonal idempotents when present (validated
split-basic), falling back to greedy radical-minimal free covers; projective
dimension is read off Ext^i(M, A/rad A) vanishing, which is resolution-
independent, so non-minimal covers never corrupt a report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field
from .matrix import (
    Matrix,
    column_space_basis,
    complement_columns,
    inverse,
    kernel_basis,
    rank,
    solve,
)
from .reports import Dim, DimensionReport


class AbstractAlgebra:
    def __init__(self, field: Field, dim: int, table, unit, idempotents=None,
                 validate: bool | None = None):
        """table[i][j] is the coordinate vector of e_i * e_j."""
        self.field = field
        self.dim = dim
        self.table = [[list(table[i][j]) for j in range(dim)] for i in range(dim)]
        self.unit = list(unit)
        self.idempotents = [list(e) for e in idempotents] if idempotents else None
        self._left = {}
        self._right = {}
        self._rad = None
        self._opposite = None
        self._idem_ok = None
        if validate is None:
            validate = dim <= 16
        if validate:
            self.validate()

    # -- multiplication -----------------------------------------------------

    def mul(self, u, v) -> list:
        F = self.field
        out = [F.zero] * self.dim
        for i, ci in enumerate(u):
            if F.is_zero(ci):
                continue
            for j, cj in enumerate(v):
                if F.is_zero(cj):
                    continue
                c = F.mul(ci, cj)
                for k, ck in enumerate(self.table[i][j]):
                    if not F.is_zero(ck):
                        out[k] = F.add(out[k], F.mul(c, ck))
        return out

    def left_mult(self, v: tuple) -> Matrix:
        """Matrix of x -> v * x."""
        key = tuple(v)
        if key not in self._left:
            F = self.field
            cols = []
            for j in range(self.dim):
                ej = [F.zero] * self.dim
                ej[j] = F.one
                cols.append(self.mul(list(v), ej))
            self._left[key] = Matrix(F, self.dim, self.dim,
                                     [cols[j][i] for i in range(self.dim) for j in range(self.dim)])
        return self._left[key]

    def right_mult(self, v: tuple) -> Matrix:
        """Matrix of x -> x * v."""
        key = tuple(v)
        if key not in self._right:
            F = self.field
            cols = []
            for j in range(self.dim):
                ej = [F.zero] * self.dim
                ej[j] = F.one
                cols.append(self.mul(ej, list(v)))
            self._right[key] = Matrix(F, self.dim, self.dim,
                                      [cols[j][i] for i in range(self.dim) for j in range(self.dim)])
        return self._right[key]

    def basis_vector(self, i: int) -> list:
        F = self.field
        v = [F.zero] * self.dim
        v[i] = F.one
        return v

    def validate(self):
        F = self.field
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    lhs = self.mul(self.table[i][j], self.basis_vector(k))
                    rhs = self.mul(self.basis_vector(i), self.table[j][k])
                    if any(not F.is_zero(F.sub(a, b)) for a, b in zip(lhs, rhs)):
                        raise ValueError(f"associativity fails at ({i},{j},{k})")
        for i in range(self.dim):
            e = self.basis_vector(i)
            if self.mul(self.unit, e) != e or self.mul(e, self.unit) != e:
                raise ValueError("unit law fails")
        return self

    # -- radical -------------------------------------------------------------

    def radical_matrix(self, supplied: list | None = None) -> Matrix:
        """Columns spanning rad(A).  Characteristic 0 computes it from the
        trace form; characteristic p needs a supplied basis (validated)."""
        if self._rad is not None and supplied is None:
            return self._rad
        F = self.field
        if supplied is None:
            if F.characteristic != 0:
                raise ValueError("characteristic p radical needs a supplied basis")
            traces = []
            for k in range(self.dim):
                L = self.left_mult(tuple(self.basis_vector(k)))
                t = F.zero
                for i in range(self.dim):
                    t = F.add(t, L.at(i, i))
                traces.append(t)
            gram_rows = []
            for i in range(self.dim):
                row = []
                for j in range(self.dim):
                    s = F.zero
                    for k, c in enumerate(self.table[i][j]):
                        if not F.is_zero(c):
                            s = F.add(s, F.mul(c, traces[k]))
                    row.append(s)
                gram_rows.append(row)
            rad = kernel_basis(Matrix.from_rows(F, gram_rows))
        else:
            rad = Matrix(F, self.dim, len(supplied),
                         [supplied[j][i] for i in range(self.dim) for j in range(len(supplied))])
        self._validate_radical(rad, supplied is not None)
        if supplied is None:
            self._rad = rad
        return rad

    def _validate_radical(self, rad: Matrix, full_check: bool):
        F = self.field
        # two-sided ideal
        for i in range(self.dim):
            L = self.left_mult(tuple(self.basis_vector(i)))
            R = self.right_mult(tuple(self.basis_vector(i)))
            if solve(rad, L * rad) is None or solve(rad, R * rad) is None:
                raise ValueError("radical candidate is not a two-sided ideal")
        # nilpotent: powers of the span shrink to zero
        span = rad
        for _ in range(self.dim + 1):
            if span.cols == 0:
                break
            cols = []
            for a in range(span.cols):
                va = span.col(a)
                L = self.left_mult(tuple(va))
                prod = L * rad
                cols.append(prod)
            glued = cols[0]
            for c in cols[1:]:
                glued = glued.hstack(c)
            span = column_space_basis(glued)
        else:
            raise ValueError("radical candidate is not nilpotent")
        if full_check:
            # semisimple quotient: trace form nondegenerate on the complement
            comp = complement_columns(rad)
            q = len(comp)
            if q:
                F_ = self.field
                traces = []
                for k in range(self.dim):
                    L = self.left_mult(tuple(self.basis_vector(k)))
                    t = F_.zero
                    for i in range(self.dim):
                        t = F_.add(t, L.at(i, i))
                    traces.append(t)
                rows = []
                for a in comp:
                    row = []
                    for b in comp:
                        prod = self.mul(self.basis_vector(a), self.basis_vector(b))
                        s = F_.zero
                        for k, c in enumerate(prod):
                            s = F_.add(s, F_.mul(c, traces[k]))
                        row.append(s)
                    rows.append(row)
                if rank(Matrix.from_rows(F_, rows)) != q:
                    raise ValueError("quotient trace form degenerate; radical basis rejected")

    def radical_dim(self) -> int:
        return self.radical_matrix().cols

    def semisimple_quotient_dim(self) -> int:
        return self.dim - self.radical_dim()

    # -- idempotent certificates ---------------------------------------------

    def idempotents_split_basic(self) -> bool:
        """Supplied idempotents are orthogonal, complete, and have
        one-dimensional corners in A/rad (the split basic certificate)."""
        if self.idempotents is None:
            return False
        if self._idem_ok is not None:
            return self._idem_ok
        F = self.field
        ok = True
        total = [F.zero] * self.dim
        for a, e in enumerate(self.idempotents):
            total = [F.add(x, y) for x, y in zip(total, e)]
            for b, f in enumerate(self.idempotents):
                prod = self.mul(e, f)
                expected = e if a == b else [F.zero] * self.dim
                if any(not F.is_zero(F.sub(x, y)) for x, y in zip(prod, expected)):
                    ok = False
        if any(not F.is_zero(F.sub(x, y)) for x, y in zip(total, self.unit)):
            ok = False
        if ok:
            rad = self.radical_matrix()
            for e in self.idempotents:
                corner_cols = []
                for b in range(self.dim):
                    v = self.mul(self.mul(e, self.basis_vector(b)), e)
                    corner_cols.append(v)
                corner = Matrix(F, self.dim, self.dim,
                                [corner_cols[j][i] for i in range(self.dim) for j in range(self.dim)])
                joint = rad.hstack(corner)
                if rank(joint) - rad.cols != 1:
                    ok = False
                    break
        self._idem_ok = ok
        return ok

    # -- opposite -------------------------------------------------------------

    def opposite(self) -> "AbstractAlgebra":
        if self._opposite is None:
            table = [[self.table[j][i] for j in range(self.dim)] for i in range(self.dim)]
            op = AbstractAlgebra(self.field, self.dim, table, self.unit,
                                 idempotents=self.idempotents, validate=False)
            op._opposite = self
            self._opposite = op
        return self._opposite

    def __repr__(self):
        return f"AbstractAlgebra(dim={self.dim})"


class AbstractModule:
    def __init__(self, algebra: AbstractAlgebra, dim: int, action: list[Matrix],
                 validate: bool | None = None):
        self.algebra = algebra
        self.dim = dim
        self.action = list(action)
        if len(action) != algebra.dim:
            raise ValueError("need one action matrix per algebra basis element")
        for m in action:
            if (m.rows, m.cols) != (dim, dim):
                raise ValueError("action matrix shape mismatch")
        if validate is None:
            validate = algebra.dim * dim <= 64
        if validate:
            self.validate()

    def rho(self, v) -> Matrix:
        F = self.algebra.field
        out = Matrix.zeros(F, self.dim, self.dim)
        for i, c in enumerate(v):
            if not F.is_zero(c):
                out = out + self.action[i].scale(c)
        return out

    def validate(self):
        F = self.algebra.field
        ident = Matrix.identity(F, self.dim)
        if not (self.rho(self.algebra.unit) == ident):
            raise ValueError("unit does not act as identity")
        for i in range(self.algebra.dim):
            for j in range(self.algebra.dim):
                lhs = self.rho(self.algebra.table[i][j])
                rhs = self.action[i] * self.action[j]
                if not (lhs - rhs).is_zero():
                    raise ValueError(f"action violates structure constants at ({i},{j})")
        return self

    def is_zero(self) -> bool:
        return self.dim == 0

    def __repr__(self):
        return f"AbstractModule(dim={self.dim})"


def regular_module(algebra: AbstractAlgebra) -> AbstractModule:
    return AbstractModule(algebra, algebra.dim,
                          [algebra.left_mult(tuple(algebra.basis_vector(i)))
                           for i in range(algebra.dim)], validate=False)


def right_regular_module(algebra: AbstractAlgebra) -> AbstractModule:
    """A as a right module = left module over the opposite algebra."""
    op = algebra.opposite()
    return AbstractModule(op, algebra.dim,
                          [algebra.right_mult(tuple(algebra.basis_vector(i)))
                           for i in range(algebra.dim)], validate=False)


def dual_module(m: AbstractModule) -> AbstractModule:
    """k-dual, a module over the opposite algebra."""
    op = m.algebra.opposite()
    return AbstractModule(op, m.dim, [a.transpose() for a in m.action], validate=False)


def semisimple_quotient_module(algebra: AbstractAlgebra) -> AbstractModule:
    """A/rad A as a left module."""
    F = algebra.field
    rad = algebra.radical_matrix()
    comp = complement_columns(rad)
    n = algebra.dim
    if n == 0:
        return AbstractModule(algebra, 0, [])
    C = Matrix.identity(F, n).select_columns(comp)
    full = rad.hstack(C)
    inv = inverse(full)
    proj = inv.submatrix(range(rad.cols, n), range(n))
    sec = C
    action = [proj * algebra.left_mult(tuple(algebra.basis_vector(i))) * sec
              for i in range(n)]
    return AbstractModule(algebra, len(comp), action, validate=False)


def submodule_from_columns(m: AbstractModule, cols: Matrix) -> AbstractModule:
    action = []
    for i in range(m.algebra.dim):
        img = m.action[i] * cols
        coef = solve(cols, img)
        if coef is None:
            raise ValueError("columns not closed under the action")
        action.append(coef)
    return AbstractModule(m.algebra, cols.cols, action, validate=False)


def radical_action_columns(m: AbstractModule) -> Matrix:
    """Columns spanning rad(A) . m."""
    F = m.algebra.field
    rad = m.algebra.radical_matrix()
    pieces = []
    for c in range(rad.cols):
        pieces.append(m.rho(rad.col(c)))
    if not pieces:
        return Matrix.zeros(F, m.dim, 0)
    glued = pieces[0]
    for p in pieces[1:]:
        glued = glued.hstack(p)
    return column_space_basis(glued)


# ---------------------------------------------------------------------------
# resolutions


@dataclass
class Piece:
    """One cover piece A*g (g the unit for a free piece, or an idempotent)."""
    gen: list           # g in algebra coordinates
    basis: Matrix       # columns: basis of A*g inside A
    target_vec: list    # image of the generator in the covered module


@dataclass
class Level:
    pieces: list[Piece]
    module: AbstractModule        # P_l
    offsets: list[int]
    phi: Matrix                   # P_l -> K_{l-1} (coordinates of the ambient below)
    kernel_cols: Matrix           # basis of K_l inside P_l
    kernel: AbstractModule
    minimal: bool


def _piece_module(algebra: AbstractAlgebra, pieces: list[Piece]) -> tuple[AbstractModule, list[int]]:
    F = algebra.field
    offsets = []
    total = 0
    for p in pieces:
        offsets.append(total)
        total += p.basis.cols
    action = []
    for i in range(algebra.dim):
        L = algebra.left_mult(tuple(algebra.basis_vector(i)))
        blocks = []
        for p in pieces:
            coef = solve(p.basis, L * p.basis)
            if coef is None:
                raise ValueError("piece not closed under left multiplication")
            blocks.append(coef)
        rows = [[F.zero] * total for _ in range(total)]
        # assemble block diagonal
        pos = 0
        for b in blocks:
            for r in range(b.rows):
                for c in range(b.cols):
                    rows[pos + r][pos + c] = b.at(r, c)
            pos += b.rows
        action.append(Matrix.from_rows(F, rows) if total else Matrix(F, 0, 0, []))
    return AbstractModule(algebra, total, action, validate=False), offsets


def _cover(algebra: AbstractAlgebra, m: AbstractModule,
           force_free: bool = False) -> tuple[list[Piece], Matrix, bool]:
    """Cover m by ⊕ A*g pieces; returns (pieces, phi, minimal_certified)."""
    F = algebra.field
    radm = radical_action_columns(m)
    comp = complement_columns(radm)
    use_idem = not force_free and algebra.idempotents_split_basic()
    pieces: list[Piece] = []
    if m.dim == 0:
        return [], Matrix(F, 0, 0, []), True
    if use_idem:
        n = m.dim
        C = Matrix.identity(F, n).select_columns(comp)
        full = radm.hstack(C)
        inv = inverse(full)
        proj = inv.submatrix(range(radm.cols, n), range(n))
        for e in algebra.idempotents:
            rho_e_top = proj * m.rho(e) * C
            img = column_space_basis(rho_e_top)
            for c in range(img.cols):
                # w = rho_top(e) x ; v = rho(e) lift(x) has class w
                x = solve(rho_e_top, img.select_columns([c]))
                lift = C * x
                v = m.rho(e).apply(lift.col(0))
                basis = column_space_basis(algebra.right_mult(tuple(e)))
                pieces.append(Piece(gen=list(e), basis=basis, target_vec=v))
    else:
        generated = Matrix.zeros(F, m.dim, 0)
        for cand in range(m.dim):
            v = [F.zero] * m.dim
            v[cand] = F.one
            ambient = generated.hstack(radm)
            vm = Matrix(F, m.dim, 1, v)
            if solve(ambient, vm) is not None:
                continue
            pieces.append(Piece(gen=list(algebra.unit),
                                basis=Matrix.identity(F, algebra.dim), target_vec=v))
            orbit_cols = []
            for p in pieces:
                orbit = []
                for i in range(algebra.dim):
                    orbit.append(m.action[i].apply(p.target_vec))
                orbit_cols.append(Matrix(F, m.dim, algebra.dim,
                                         [orbit[j][i] for i in range(m.dim) for j in range(algebra.dim)]))
            glued = orbit_cols[0]
            for oc in orbit_cols[1:]:
                glued = glued.hstack(oc)
            generated = column_space_basis(glued)
            joint = generated.hstack(radm)
            if rank(joint) == m.dim:
                break
    phi_cols = []
    for p in pieces:
        for c in range(p.basis.cols):
            b = p.basis.col(c)
            phi_cols.append(m.rho(b).apply(p.target_vec))
    total = sum(p.basis.cols for p in pieces)
    phi = Matrix(F, m.dim, total,
                 [phi_cols[j][i] for i in range(m.dim) for j in range(total)])
    if rank(phi) != m.dim:
        raise ValueError("cover not surjective")
    return pieces, phi, use_idem


class Resolution:
    """Left resolution of an AbstractModule by ⊕ A*g covers.

    force_free restricts covers to free pieces A*1 (the literal
    free-resolution contract); doubled lists every generator twice, the
    deliberately non-minimal variant used by the independence tests.
    """

    def __init__(self, m: AbstractModule, doubled: bool = False, force_free: bool = False):
        self.module = m
        self.algebra = m.algebra
        self.doubled = doubled
        self.force_free = force_free
        self.levels: list[Level] = []
        self.complete = m.dim == 0  # zero module: empty resolution

    def extend_to(self, depth: int):
        while len(self.levels) < depth and not self.complete:
            target = self.module if not self.levels else self.levels[-1].kernel
            if target.dim == 0:
                self.complete = True
                break
            pieces, phi, minimal = _cover(self.algebra, target, force_free=self.force_free)
            if self.doubled:
                pieces = pieces + [Piece(p.gen, p.basis, p.target_vec) for p in pieces]
                F = self.algebra.field
                cols = []
                for p in pieces:
                    for c in range(p.basis.cols):
                        cols.append(target.rho(p.basis.col(c)).apply(p.target_vec))
                total = sum(p.basis.cols for p in pieces)
                phi = Matrix(F, target.dim, total,
                             [cols[j][i] for i in range(target.dim) for j in range(total)])
                minimal = False
            pmod, offsets = _piece_module(self.algebra, pieces)
            kc = kernel_basis(phi)
            kmod = submodule_from_columns(pmod, kc) if kc.cols else AbstractModule(
                self.algebra, 0, [Matrix(self.algebra.field, 0, 0, [])] * self.algebra.dim,
                validate=False)
            self.levels.append(Level(pieces=pieces, module=pmod, offsets=offsets,
                                     phi=phi, kernel_cols=kc, kernel=kmod, minimal=minimal))
            if kc.cols == 0:
                self.complete = True


def _hom_piece_basis(piece: Piece, n: AbstractModule) -> Matrix:
    """Columns: basis of g.N ≅ Hom(A*g, N)."""
    return column_space_basis(n.rho(piece.gen))


def ext_dims(resolution: Resolution, n: AbstractModule, upto: int) -> list[int]:
    """dim Ext^i(M, N) for i = 0..upto, from the (possibly non-minimal)
    resolution."""
    resolution.extend_to(upto + 2)
    algebra = resolution.algebra
    F = algebra.field
    levels = resolution.levels
    hom_bases: list[list[Matrix]] = []
    hom_dims: list[int] = []
    for lvl in levels:
        bases = [_hom_piece_basis(p, n) for p in lvl.pieces]
        hom_bases.append(bases)
        hom_dims.append(sum(b.cols for b in bases))
    mats: list[Matrix] = []
    for l in range(len(levels) - 1):
        src_dims, tgt_dims = hom_dims[l], hom_dims[l + 1]
        rows = [[F.zero] * src_dims for _ in range(tgt_dims)]
        below = levels[l]
        above = levels[l + 1]
        # d: P_{l+1} -> P_l sends each generator to phi(gen coords) inside P_l
        src_off = []
        acc = 0
        for b in hom_bases[l]:
            src_off.append(acc)
            acc += b.cols
        tgt_off = []
        acc = 0
        for b in hom_bases[l + 1]:
            tgt_off.append(acc)
            acc += b.cols
        for t, pt in enumerate(above.pieces):
            # generator of piece t inside P_{l+1}: coordinates of gen in piece basis
            gen_in_piece = solve(pt.basis, Matrix(F, algebra.dim, 1, pt.gen))
            if gen_in_piece is None:
                raise ValueError("generator outside its piece")
            gen_coords = [F.zero] * above.module.dim
            for r in range(pt.basis.cols):
                gen_coords[above.offsets[t] + r] = gen_in_piece.at(r, 0)
            # phi lands in K_l in its own coordinates; pull back into P_l
            img_k = above.phi.apply(gen_coords)
            img = below.kernel_cols.apply(img_k)
            # split img into piece components x_{st} (algebra coordinates)
            for s, ps in enumerate(below.pieces):
                seg = img[below.offsets[s]: below.offsets[s] + ps.basis.cols]
                x_st = ps.basis.apply(seg)  # back to A-coordinates
                # block: v in g_s N -> rho(x_st) v expressed in g_t N basis
                bs, bt = hom_bases[l][s], hom_bases[l + 1][t]
                if bs.cols == 0 or bt.cols == 0:
                    continue
                block_img = n.rho(x_st) * bs
                coef = solve(bt, block_img)
                if coef is None:
                    raise ValueError("hom differential escapes the corner space")
                for r in range(bt.cols):
                    for c in range(bs.cols):
                        rows[tgt_off[t] + r][src_off[s] + c] = coef.at(r, c)
        mats.append(Matrix.from_rows(F, rows) if tgt_dims else Matrix(F, 0, src_dims, []))
    out = []
    for i in range(upto + 1):
        if i >= len(levels):
            out.append(0)
            continue
        dim_i = hom_dims[i]
        r_out = rank(mats[i]) if i < len(mats) else 0
        r_in = rank(mats[i - 1]) if i >= 1 else 0
        out.append(dim_i - r_out - r_in)
    return out


def ext_dim(m: AbstractModule, n: AbstractModule, i: int,
            resolution: Resolution | None = None) -> int:
    res = resolution if resolution is not None else Resolution(m)
    return ext_dims(res, n, i)[i]


def free_resolution(m: AbstractModule, maxlen: int, doubled: bool = False) -> Resolution:
    """A resolution of m by free modules, extended to the requested length
    (or until a kernel vanishes).  Exactness at every joint is rechecked."""
    res = Resolution(m, doubled=doubled, force_free=True)
    res.extend_to(maxlen + 1)
    for k, lvl in enumerate(res.levels):
        target_dim = m.dim if k == 0 else res.levels[k - 1].kernel.dim
        from .matrix import rank as _rank
        if _rank(lvl.phi) != target_dim:
            raise AssertionError("resolution joint not exact")
    return res


# ---------------------------------------------------------------------------
# dimensions


def pd(m: AbstractModule, cutoff: int, resolution: Resolution | None = None) -> DimensionReport:
    """Projective dimension from Ext^i(M, A/rad A) vanishing (first zero at
    i = n+1 certifies pd = n over an Artin algebra)."""
    algebra = m.algebra
    if m.dim == 0:
        return DimensionReport("pd", Dim(0), cutoff, caveats=["zero module: pd reported as 0"])
    res = resolution if resolution is not None else Resolution(m)
    s = semisimple_quotient_module(algebra)
    values = ext_dims(res, s, cutoff + 1)
    for i in range(1, cutoff + 2):
        if values[i] == 0:
            return DimensionReport("pd", Dim(i - 1), cutoff)
    return DimensionReport("pd", Dim(cutoff, censored=True), cutoff)


def gldim(algebra: AbstractAlgebra, cutoff: int) -> DimensionReport:
    s = semisimple_quotient_module(algebra)
    rep = pd(s, cutoff)
    return DimensionReport("gldim", rep.dim, cutoff, breakdown={"pd(A/radA)": rep.dim})


def injdim(m: AbstractModule, cutoff: int) -> DimensionReport:
    rep = pd(dual_module(m), cutoff)
    return DimensionReport("id", rep.dim, cutoff)


def is_gorenstein(algebra: AbstractAlgebra, cutoff: int) -> tuple[bool | None, DimensionReport, DimensionReport]:
    """(status, id of the left regular, id of the right regular); status None
    when a side is censored."""
    left = injdim(regular_module(algebra), cutoff)
    left.quantity = "id(left regular)"
    right = injdim(right_regular_module(algebra), cutoff)
    right.quantity = "id(right regular)"
    if left.dim.censored or right.dim.censored:
        return None, left, right
    return True, left, right


# ---------------------------------------------------------------------------
# bridges from the quiver side


def quiver_to_abstract(pathalg) -> AbstractAlgebra:
    """Structure constants for which quiver representations are honest left
    modules: the product has e_i * e_j = (path j) followed by (path i)."""
    F = pathalg.field
    d = pathalg.dim
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            combo = pathalg.mul_basis(j, i)
            vec = [F.zero] * d
            for k, c in combo.items():
                vec[k] = c
            row.append(vec)
        table.append(row)
    unit = [F.zero] * d
    for v in range(1, pathalg.quiver.n + 1):
        unit[pathalg.trivial_path(v)] = F.one
    idems = []
    for v in range(1, pathalg.quiver.n + 1):
        e = [F.zero] * d
        e[pathalg.trivial_path(v)] = F.one
        idems.append(e)
    return AbstractAlgebra(F, d, table, unit, idempotents=idems, validate=False)


def rep_to_abstract(rep, abstract: AbstractAlgebra) -> AbstractModule:
    """A representation as a module over quiver_to_abstract of its algebra."""
    pathalg = rep.algebra
    F = pathalg.field
    q = pathalg.quiver
    offsets = []
    total = 0
    for v in range(q.n):
        offsets.append(total)
        total += rep.dims[v]
    action = []
    for k in range(pathalg.dim):
        src, word = pathalg.basis[k]
        tgt = pathalg.element_target(k)
        blk = rep.word_action(word, src)
        rows = [[F.zero] * total for _ in range(total)]
        for r in range(blk.rows):
            for c in range(blk.cols):
                rows[offsets[tgt - 1] + r][offsets[src - 1] + c] = blk.at(r, c)
        action.append(Matrix.from_rows(F, rows) if total else Matrix(F, 0, 0, []))
    return AbstractModule(abstract, total, action, validate=False)
