"""Finite-dimensional algebras by structure constants: residue maps of local
algebras, the radical they give in every characteristic, resolutions, Ext,
projective/injective/global dimension, Gorenstein checks.

Only the nonzero products of basis vectors are stored.  Covers use
caller-supplied orthogonal idempotents when they are certified split-basic
and grade the basis (every basis vector lies in one corner e_i A e_j), so a
cover piece A*e_j is spanned by basis vectors; otherwise covers fall back to
greedy radical-minimal free covers.  Projective dimension is read off
Ext^i(M, A/rad A) vanishing, which is resolution-independent, so non-minimal
covers never corrupt a report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field
from .matrix import (
    Matrix,
    SpanSolver,
    block_diag,
    column_space_basis,
    complement_columns,
    inverse,
    kernel_basis,
    lincomb,
    rank,
    rref,
    solve,
)
from .reports import Dim, DimensionReport


class AbstractAlgebra:
    def __init__(self, field: Field, dim: int, table, unit, idempotents=None,
                 validate: bool | None = None):
        """table maps (i, j) to the coordinates {k: c} of b_i * b_j and may
        leave out zero products; a dense table[i][j] of coordinate vectors is
        accepted too."""
        self.field = field
        self.dim = dim
        if isinstance(table, dict):
            items = ((key, vec.items()) for key, vec in table.items())
        else:
            items = (((i, j), enumerate(vec)) for i, row in enumerate(table)
                     for j, vec in enumerate(row))
        is_zero = field.is_zero
        self.products: dict[tuple[int, int], list] = {}  # (i, j) -> [(k, c)], c != 0
        for key, entries in items:
            nonzero = sorted((k, c) for k, c in entries if not is_zero(c))
            if nonzero:
                self.products[key] = nonzero
        self._by_left = [[] for _ in range(dim)]   # i -> [(j, product)]
        self._by_right = [[] for _ in range(dim)]  # j -> [(i, product)]
        for (i, j), prod in sorted(self.products.items()):
            self._by_left[i].append((j, prod))
            self._by_right[j].append((i, prod))
        self.unit = list(unit)
        self.idempotents = [list(e) for e in idempotents] if idempotents else None
        self._grading = None  # the certified grading, False once the check failed
        self._rad = None
        self._top = None
        self._pieces = {}
        self._opposite = None
        self._corners = {}  # i -> corner_certificate(i)
        if validate is None:
            validate = dim <= 16
        if validate:
            self.validate()

    # -- multiplication -----------------------------------------------------

    def mul(self, u, v) -> list:
        F = self.field
        is_zero, add, mul = F.is_zero, F.add, F.mul
        right = {j: c for j, c in enumerate(v) if not is_zero(c)}
        out = [F.zero] * self.dim
        for i, ci in enumerate(u):
            if is_zero(ci):
                continue
            for j, prod in self._by_left[i]:
                cj = right.get(j)
                if cj is None:
                    continue
                c = mul(ci, cj)
                for k, ck in prod:
                    out[k] = add(out[k], mul(c, ck))
        return out

    def basis_vector(self, i: int) -> list:
        F = self.field
        v = [F.zero] * self.dim
        v[i] = F.one
        return v

    def product(self, i: int, j: int) -> list:
        """b_i * b_j as a coordinate vector."""
        F = self.field
        out = [F.zero] * self.dim
        for k, c in self.products.get((i, j), ()):
            out[k] = c
        return out

    def validate(self):
        F = self.field
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    lhs = self.mul(self.product(i, j), self.basis_vector(k))
                    rhs = self.mul(self.basis_vector(i), self.product(j, k))
                    if any(not F.is_zero(F.sub(a, b)) for a, b in zip(lhs, rhs)):
                        raise ValueError(f"associativity fails at ({i},{j},{k})")
        for i in range(self.dim):
            e = self.basis_vector(i)
            if self.mul(self.unit, e) != e or self.mul(e, self.unit) != e:
                raise ValueError("unit law fails")
        return self

    # -- radical -------------------------------------------------------------

    def radical_matrix(self) -> Matrix:
        """Columns spanning rad(A), in every characteristic: the kernel of the
        form (a, b) -> χ(ab) with χ(b) = Σ_i ε_i(e_i b e_i), where ε_i is the
        residue map of the corner e_i A e_i (see `corner_certificate`) and
        the e_i are the supplied idempotents, or the unit when none were
        supplied.  χ vanishes on rad A and is the trace on A/rad A, a product
        of matrix algebras over k whose trace form is nondegenerate, so the
        kernel is rad A.  Raises ValueError when a corner is not certified."""
        if self._rad is None:
            F = self.field
            chi = [F.zero] * self.dim
            for i in range(len(self._corner_idempotents())):
                ks, coords, residues = self.corner_certificate(i)
                if residues is None:
                    raise ValueError(f"corner {i} is not certified local with residue field {F!r}")
                for c, k in enumerate(ks):
                    chi[k] = F.add(chi[k], _dot(F, coords.col(c), residues))
            gram_rows = [[F.zero] * self.dim for _ in range(self.dim)]
            for (i, j), prod in self.products.items():
                gram_rows[i][j] = _dot(F, (c for _, c in prod), (chi[k] for k, _ in prod))
            self._rad = kernel_basis(Matrix.from_rows(F, gram_rows))
        return self._rad

    def radical_dim(self) -> int:
        return self.radical_matrix().cols

    def semisimple_quotient_dim(self) -> int:
        return self.dim - self.radical_dim()

    def _corner_idempotents(self) -> list:
        """The supplied idempotents, certified orthogonal and complete, or the
        unit when none were supplied."""
        if not self.idempotents:
            return [self.unit]
        # a certified grading includes the check, and is kept
        if self.grading() is None and not self._orthogonal_complete():
            raise ValueError("the supplied idempotents are not orthogonal and complete")
        return self.idempotents

    def corner_certificate(self, i: int) -> tuple[list[int], Matrix, list | None]:
        """The corner E = e_i A e_i, spanned by the products e_i b_k e_i: the
        indices k of the nonzero ones, their coordinates (columns) in a basis
        of E, and the residues of that basis when they certify E local with
        E/rad E = k (see `residue_certificate`), else None."""
        if i not in self._corners:
            F = self.field
            e = self._corner_idempotents()[i]
            ks, ys = [], []
            for k in range(self.dim):
                y = self.mul(self.mul(e, self.basis_vector(k)), e)
                if any(not F.is_zero(c) for c in y):
                    ks.append(k)
                    ys.append(y)
            Y = Matrix(F, self.dim, len(ys), [y[r] for r in range(self.dim) for y in ys])
            R, pivots = rref(Y)
            basis = Y.select_columns(pivots)
            solver = SpanSolver(basis)

            def mul(u, v):
                return solver.coords(self.mul(basis.apply(u), basis.apply(v)))

            self._corners[i] = (ks, R.submatrix(range(len(pivots)), range(len(ys))),
                                residue_certificate(F, len(pivots), solver.coords(e), mul))
        return self._corners[i]

    # -- idempotent certificates ---------------------------------------------

    def grading(self) -> list[tuple[int, int]] | None:
        """The corner (i, j) of each basis vector, certified: the supplied
        idempotents are orthogonal and complete, and every basis vector b has
        e_i b e_j = b for exactly one pair (i, j).  None when no idempotents
        were supplied or the check fails."""
        if self._grading is None:
            self._grading = self._certify_grading() if self.idempotents else False
        return self._grading or None

    def _orthogonal_complete(self) -> bool:
        F = self.field
        idems = self.idempotents
        total = [F.zero] * self.dim
        for a, e in enumerate(idems):
            total = [F.add(x, y) for x, y in zip(total, e)]
            for b, f in enumerate(idems):
                expected = e if a == b else [F.zero] * self.dim
                if not _same(F, self.mul(e, f), expected):
                    return False
        return _same(F, total, self.unit)

    def _certify_grading(self):
        if not self._orthogonal_complete():
            return False
        F = self.field
        # e_i b e_j = b iff e_i b = b and b e_j = b, so the pair is unique
        # when exactly one idempotent fixes b on each side
        supports = [{k: c for k, c in enumerate(e) if not F.is_zero(c)} for e in self.idempotents]
        grading = []
        for b in range(self.dim):
            lefts = [i for i, e in enumerate(supports) if self._fixes(e, b, self._by_right)]
            rights = [j for j, e in enumerate(supports) if self._fixes(e, b, self._by_left)]
            if len(lefts) != 1 or len(rights) != 1:
                return False
            grading.append((lefts[0], rights[0]))
        return grading

    def _fixes(self, e: dict, b: int, by) -> bool:
        """e * b_b = b_b (by = _by_right) or b_b * e = b_b (by = _by_left),
        for e given by its nonzero coordinates."""
        F = self.field
        out = {}
        for i, prod in by[b]:
            c = e.get(i)
            if c is None:
                continue
            for k, ck in prod:
                out[k] = F.add(out.get(k, F.zero), F.mul(c, ck))
        nonzero = [(k, x) for k, x in out.items() if not F.is_zero(x)]
        return len(nonzero) == 1 and nonzero[0][0] == b and F.is_zero(F.sub(nonzero[0][1], F.one))

    def corner(self, i: int, j: int) -> list[int]:
        """The basis vectors spanning e_i A e_j."""
        return [b for b, c in enumerate(self._graded()) if c == (i, j)]

    def column(self, j: int) -> list[int]:
        """The basis vectors spanning A e_j."""
        return [b for b, c in enumerate(self._graded()) if c[1] == j]

    def _graded(self) -> list[tuple[int, int]]:
        grading = self.grading()
        if grading is None:
            raise ValueError("the basis is not certified as graded by the idempotents")
        return grading

    def idempotents_split_basic(self) -> bool:
        """The supplied idempotents grade the basis (see `grading`) and every
        corner passes the residue certificate, which proves its image in
        A/rad one-dimensional (the split basic certificate)."""
        return self.grading() is not None and all(
            self.corner_certificate(i)[2] is not None for i in range(len(self.idempotents)))

    # -- opposite -------------------------------------------------------------

    def opposite(self) -> "AbstractAlgebra":
        if self._opposite is None:
            table = {(j, i): dict(prod) for (i, j), prod in self.products.items()}
            op = AbstractAlgebra(self.field, self.dim, table, self.unit,
                                 idempotents=self.idempotents, validate=False)
            op._opposite = self
            self._opposite = op
        return self._opposite

    def __repr__(self):
        return f"AbstractAlgebra(dim={self.dim})"


def _same(F: Field, u: list, v: list) -> bool:
    return all(F.is_zero(F.sub(x, y)) for x, y in zip(u, v))


def _dot(F: Field, u, v):
    out = F.zero
    for x, y in zip(u, v):
        out = F.add(out, F.mul(x, y))
    return out


# ---------------------------------------------------------------------------
# residue maps of local algebras


def residue(F: Field, x: list, unit: list, mul):
    """The only eigenvalue λ of x in an algebra with unit `unit` (elements are
    coordinate vectors, `mul` multiplies them), read off the minimal
    polynomial (t - λ)^k of x; None when the minimal polynomial is not a
    power of a linear factor.  Over F_p write k = p^a·m with p ∤ m: then
    (t - λ)^k = (t^(p^a) - λ)^m because λ^p = λ, so the coefficient of
    t^(p^a·(m-1)) is -mλ (a = 0 in characteristic 0)."""
    n = len(unit)
    powers = [unit]
    while True:
        nxt = mul(powers[-1], x)
        basis = Matrix(F, n, len(powers), [v[r] for r in range(n) for v in powers])
        low = SpanSolver(basis).coords(nxt)
        if low is not None:
            break
        powers.append(nxt)
    k = len(powers)
    poly = [F.neg(c) for c in low] + [F.one]  # the minimal polynomial, constant term first
    p, q = F.characteristic, 1
    while p and (k // q) % p == 0:
        q *= p
    m = k // q
    lam = F.div(F.neg(poly[q * (m - 1)]), F.of_int(m))
    power = [F.one]  # (t - λ)^j, constant term first
    for _ in range(k):
        power = [F.sub(a, F.mul(lam, b)) for a, b in zip([F.zero] + power, power + [F.zero])]
    return lam if _same(F, poly, power) else None


def residue_certificate(F: Field, dim: int, unit: list, mul) -> list | None:
    """The residues λ_a of the basis vectors b_a of an algebra E of dimension
    dim (unit and products as in `residue`) when they certify that E is
    local with E/rad E = k; None otherwise.

    The certificate: every b_a has a residue, and the linear map ε with
    ε(b_a) = λ_a has ε(e) = 1 and ε(b_a·b_c) = λ_a·λ_c.  Then ε is an algebra
    map onto k, so ker ε is a two-sided ideal of codimension 1, spanned by
    the nilpotents b_a - λ_a·e.  Its image in the semisimple E/rad E is an
    ideal, hence semisimple, and no nonzero semisimple ideal is spanned by
    nilpotents; so ker ε lies in rad E, and equals it because ε(e) = 1."""
    if dim == 0:
        return None
    basis = [[F.one if r == a else F.zero for r in range(dim)] for a in range(dim)]
    residues = []
    for b in basis:
        lam = residue(F, b, unit, mul)
        if lam is None:
            return None
        residues.append(lam)
    if not F.is_zero(F.sub(_dot(F, unit, residues), F.one)):
        return None
    for a, ba in enumerate(basis):
        for c, bc in enumerate(basis):
            if not F.is_zero(F.sub(_dot(F, mul(ba, bc), residues),
                                   F.mul(residues[a], residues[c]))):
                return None
    return residues


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
        return lincomb(self.algebra.field, self.dim, self.dim, v, self.action)

    def validate(self):
        F = self.algebra.field
        ident = Matrix.identity(F, self.dim)
        if not (self.rho(self.algebra.unit) == ident):
            raise ValueError("unit does not act as identity")
        for i in range(self.algebra.dim):
            for j in range(self.algebra.dim):
                lhs = self.rho(self.algebra.product(i, j))
                rhs = self.action[i] * self.action[j]
                if not (lhs - rhs).is_zero():
                    raise ValueError(f"action violates structure constants at ({i},{j})")
        return self

    def is_zero(self) -> bool:
        return self.dim == 0

    def __repr__(self):
        return f"AbstractModule(dim={self.dim})"


def regular_module(algebra: AbstractAlgebra) -> AbstractModule:
    return AbstractModule(algebra, algebra.dim, _piece_actions(algebra, _free_piece(algebra)),
                          validate=False)


def right_regular_module(algebra: AbstractAlgebra) -> AbstractModule:
    """A as a right module = left module over the opposite algebra."""
    return regular_module(algebra.opposite())


def dual_module(m: AbstractModule) -> AbstractModule:
    """k-dual, a module over the opposite algebra."""
    op = m.algebra.opposite()
    return AbstractModule(op, m.dim, [a.transpose() for a in m.action], validate=False)


def semisimple_quotient_module(algebra: AbstractAlgebra) -> AbstractModule:
    """A/rad A as a left module, built once per algebra."""
    if algebra._top is not None:
        return algebra._top
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
    action = [proj * L.select_columns(comp) for L in regular_module(algebra).action]
    algebra._top = AbstractModule(algebra, len(comp), action, validate=False)
    return algebra._top


def submodule_from_columns(m: AbstractModule, cols: Matrix) -> AbstractModule:
    """The submodule spanned by independent columns, its action read in their
    coordinates by one solver."""
    F = m.algebra.field
    k = cols.cols
    solver = SpanSolver(cols)
    action = []
    for a in m.action:
        img = a * cols
        coords = [solver.coords(img.col(c)) for c in range(k)]
        if any(x is None for x in coords):
            raise ValueError("columns not closed under the action")
        action.append(Matrix(F, k, k, [x[r] for r in range(k) for x in coords]))
    return AbstractModule(m.algebra, k, action, validate=False)


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
    """One cover piece A*g: g is the unit (a free piece) or an idempotent
    e_j, and A*g is spanned by the basis vectors of A listed in indices (all
    of them, or those of the corners e_i A e_j)."""
    gen: list           # g in algebra coordinates
    indices: list[int]  # the basis of A*g, as basis vectors of A
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


def _free_piece(algebra: AbstractAlgebra, target_vec=None) -> Piece:
    return Piece(gen=list(algebra.unit), indices=list(range(algebra.dim)), target_vec=target_vec)


def _piece_actions(algebra: AbstractAlgebra, piece: Piece) -> list[Matrix]:
    """The action matrices of the basis elements of A on A*g, read off the
    products and cached on the algebra per piece."""
    key = tuple(piece.indices)
    actions = algebra._pieces.get(key)
    if actions is None:
        F = algebra.field
        n = len(key)
        pos = {b: r for r, b in enumerate(key)}
        actions = []
        for a in range(algebra.dim):
            entries = [F.zero] * (n * n)
            for b, prod in algebra._by_left[a]:
                c = pos.get(b)
                if c is None:
                    continue
                for k, ck in prod:
                    r = pos.get(k)
                    if r is None:
                        raise ValueError("piece not closed under left multiplication")
                    entries[r * n + c] = ck
            actions.append(Matrix(F, n, n, entries))
        algebra._pieces[key] = actions
    return actions


def _piece_module(algebra: AbstractAlgebra, pieces: list[Piece]) -> tuple[AbstractModule, list[int]]:
    offsets = []
    total = 0
    for p in pieces:
        offsets.append(total)
        total += len(p.indices)
    per_piece = [_piece_actions(algebra, p) for p in pieces]
    action = [block_diag(algebra.field, [acts[i] for acts in per_piece])
              for i in range(algebra.dim)]
    return AbstractModule(algebra, total, action, validate=False), offsets


def _cover_map(m: AbstractModule, pieces: list[Piece]) -> Matrix:
    """⊕ A*g -> m: each basis vector b of a piece goes to b . target_vec."""
    cols = [m.action[b].apply(p.target_vec) for p in pieces for b in p.indices]
    return Matrix(m.algebra.field, m.dim, len(cols),
                  [c[i] for i in range(m.dim) for c in cols])


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
        for j, e in enumerate(algebra.idempotents):
            rho_e = m.rho(e)
            rho_e_top = proj * rho_e * C
            img = column_space_basis(rho_e_top)
            if not img.cols:
                continue
            # w = rho_top(e) x ; v = rho(e) lift(x) has class w
            lifts = C * solve(rho_e_top, img)
            indices = algebra.column(j)
            for c in range(img.cols):
                pieces.append(Piece(gen=list(e), indices=indices,
                                    target_vec=rho_e.apply(lifts.col(c))))
    else:
        generated = Matrix.zeros(F, m.dim, 0)
        for cand in range(m.dim):
            v = [F.zero] * m.dim
            v[cand] = F.one
            ambient = generated.hstack(radm)
            vm = Matrix(F, m.dim, 1, v)
            if solve(ambient, vm) is not None:
                continue
            pieces.append(_free_piece(algebra, v))
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
    phi = _cover_map(m, pieces)
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
                pieces = pieces + [Piece(p.gen, p.indices, p.target_vec) for p in pieces]
                phi = _cover_map(target, pieces)
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


def _generator_coordinates(piece: Piece, field: Field) -> list:
    """The generator's coordinates in its piece: its entries at the piece's
    basis vectors, once it is checked to have no others."""
    inside = set(piece.indices)
    if any(not field.is_zero(c) for k, c in enumerate(piece.gen) if k not in inside):
        raise ValueError("generator outside its piece")
    return [piece.gen[k] for k in piece.indices]


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
            # generator of piece t inside P_{l+1}
            gen_coords = [F.zero] * above.module.dim
            for r, c in enumerate(_generator_coordinates(pt, F)):
                gen_coords[above.offsets[t] + r] = c
            # phi lands in K_l in its own coordinates; pull back into P_l
            img_k = above.phi.apply(gen_coords)
            img = below.kernel_cols.apply(img_k)
            # split img into piece components x_{st}, coordinates on the basis
            # vectors of piece s
            for s, ps in enumerate(below.pieces):
                seg = img[below.offsets[s]: below.offsets[s] + len(ps.indices)]
                # block: v in g_s N -> rho(x_st) v expressed in g_t N basis
                bs, bt = hom_bases[l][s], hom_bases[l + 1][t]
                if bs.cols == 0 or bt.cols == 0:
                    continue
                rho_x = lincomb(F, n.dim, n.dim, seg, [n.action[b] for b in ps.indices])
                block_img = rho_x * bs
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
        if rank(lvl.phi) != target_dim:
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
    table = {(i, j): pathalg.mul_basis(j, i) for i in range(d) for j in range(d)}
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
