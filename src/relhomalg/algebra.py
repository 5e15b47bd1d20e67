"""Finite-dimensional algebras by structure constants: residue maps of local
algebras, the radical they give in every characteristic, and the
presentation as a bound quiver algebra kQ/I.

Only the nonzero products of basis vectors are stored.  The supplied
orthogonal idempotents (or the unit) are the vertices of the presentation;
its arrows are lifts of rad/rad² taken corner by corner, its relations the
kernel of the path map, and a certificate checks that the basis words map to
a basis.  Modules over the algebra are then representations of the
presentation, resolved by the same code as modules over a path algebra
(`relative`).
"""

from __future__ import annotations

from .fields import Field
from .matrix import Matrix, SpanSolver, kernel_basis, rank, rref
from .quiver import PathAlgebra, Quiver, _combine


class AbstractAlgebra:
    def __init__(self, field: Field, dim: int, table, unit, idempotents=None,
                 validate: bool | None = None):
        """table maps (i, j) to the coordinates {k: c} of b_i * b_j and may
        leave out zero products."""
        self.field = field
        self.dim = dim
        is_zero = field.is_zero
        self.products: dict[tuple[int, int], list] = {}  # (i, j) -> [(k, c)], c != 0
        for key, vec in table.items():
            nonzero = sorted((k, c) for k, c in vec.items() if not is_zero(c))
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
        self._rad = None  # radical(), with _off_diagonal_zero
        self._off_diagonal_zero = None
        self._corners = {}  # i -> corner_certificate(i)
        self._sparse_idems = None  # _sparse_idempotents()
        self._presentation = None
        self.arrow_lifts: list | None = None  # the element of A behind each arrow
        if validate is None:
            validate = dim <= 16
        if validate:
            self.validate()

    # -- multiplication -----------------------------------------------------

    def mul(self, u, v) -> list:
        out = [self.field.zero] * self.dim
        for k, c in self._sparse_mul(_sparse(self.field, u), _sparse(self.field, v)).items():
            out[k] = c
        return out

    def _sparse_mul(self, u: dict, v: dict) -> dict:
        """u * v for elements given by their nonzero coordinates {index: c}:
        one lookup per pair of nonzero coordinates."""
        F = self.field
        out = {}
        for i, ci in u.items():
            for j, cj in v.items():
                prod = self.products.get((i, j))
                if prod is None:
                    continue
                c = F.mul(ci, cj)
                for k, ck in prod:
                    out[k] = F.add(out.get(k, F.zero), F.mul(c, ck))
        return {k: c for k, c in out.items() if not F.is_zero(c)}

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

    def radical(self) -> dict[tuple[int, int], list[dict]]:
        """rad A corner by corner: (i, j) -> a basis of rad A ∩ e_i A e_j as
        sparse vectors, for the idempotents e_i of `_corner_idempotents`;
        ValueError when a corner is not certified.

        rad A is the kernel of the form (a, b) -> χ(ab) with χ(b) =
        Σ_i ε_i(e_i b e_i), where ε_i is the residue map of the corner
        e_i A e_i (see `corner_certificate`): χ vanishes on rad A and is the
        trace on A/rad A, a product of matrix algebras over k whose trace
        form is nondegenerate, in every characteristic.  χ(ab) ≠ 0 needs ab
        in some e_k A e_k, so b in e_i A e_j pairs only with a in e_j A e_i:
        the kernel is the direct sum over (i, j) of the kernels of the blocks
        [χ(x·y)], x and y running over bases of e_j A e_i and e_i A e_j.
        `_off_diagonal_zero` records whether every block with i ≠ j is 0."""
        if self._rad is None:
            F = self.field
            chi = {}
            for i in range(len(self._corner_idempotents())):
                ks, coords, residues = self.corner_certificate(i)
                if residues is None:
                    raise ValueError(f"corner {i} is not certified local with residue field {F!r}")
                for c, k in enumerate(ks):
                    chi[k] = F.add(chi.get(k, F.zero), _dot(F, coords.col(c), residues))
            bases = self._corner_bases()
            self._rad, self._off_diagonal_zero = {}, True
            for (i, j), ys in bases.items():
                xs = bases[(j, i)]
                block = [_dot(F, xy.values(), (chi.get(k, F.zero) for k in xy))
                         for xy in (self._sparse_mul(x, y) for x in xs for y in ys)]
                if i != j and not all(F.is_zero(c) for c in block):
                    self._off_diagonal_zero = False
                kernel = kernel_basis(Matrix(F, len(xs), len(ys), block))
                self._rad[(i, j)] = [_combine(F, zip(kernel.col(c), ys)) for c in range(kernel.cols)]
        return self._rad

    def radical_matrix(self) -> Matrix:
        """The vectors of `radical` as the columns of one matrix."""
        F = self.field
        cols = [v for vs in self.radical().values() for v in vs]
        return Matrix(F, self.dim, len(cols), [v.get(r, F.zero) for r in range(self.dim) for v in cols])

    def radical_dim(self) -> int:
        return sum(len(vs) for vs in self.radical().values())

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

    def _sparse_idempotents(self) -> list[dict]:
        """The idempotents of `_corner_idempotents` as sparse vectors, built
        once."""
        if self._sparse_idems is None:
            self._sparse_idems = [_sparse(self.field, e) for e in self._corner_idempotents()]
        return self._sparse_idems

    def _corner_bases(self) -> dict[tuple[int, int], list[dict]]:
        """A basis of each corner e_i A e_j as sparse vectors: the basis
        vectors in it when the basis is graded (see `grading`; without
        supplied idempotents the one corner is A), else a basis of the span
        of the e_i·b·e_j over the basis vectors b."""
        F = self.field
        idems = self._sparse_idempotents()
        n = len(idems)
        grading = self.grading() if self.idempotents else [(0, 0)] * self.dim
        if grading:
            bases = {(i, j): [] for i in range(n) for j in range(n)}
            for b, corner in enumerate(grading):
                bases[corner].append({b: F.one})
            return bases
        lefts = [[self._sparse_mul(e, {b: F.one}) for b in range(self.dim)] for e in idems]
        return {(i, j): _span(F, [self._sparse_mul(x, e) for x in lefts[i]])
                for i in range(n) for j, e in enumerate(idems)}

    def corner_certificate(self, i: int) -> tuple[list[int], Matrix, list | None]:
        """The corner E = e_i A e_i, spanned by the products e_i b_k e_i: the
        indices k of the nonzero ones, their coordinates (columns) in a basis
        of E, and the residues of that basis when they certify E local with
        E/rad E = k (see `residue_certificate`), else None.  When the basis
        is graded (see `grading`) the nonzero products are the basis vectors
        of the corner, read off the grading."""
        if i not in self._corners:
            F = self.field
            es = self._sparse_idempotents()[i]
            grading = self.grading()
            if grading:
                pairs = [(k, {k: F.one}) for k, corner in enumerate(grading) if corner == (i, i)]
            else:
                pairs = [(k, y) for k in range(self.dim)
                         for y in [self._sparse_mul(self._sparse_mul(es, {k: F.one}), es)] if y]
            ks, ys = [k for k, _ in pairs], [y for _, y in pairs]
            rows = sorted(set().union(*ys))
            Y = Matrix(F, len(rows), len(ys), [y.get(r, F.zero) for r in rows for y in ys])
            R, pivots = rref(Y)
            basis = [ys[p] for p in pivots]
            solver = SpanSolver(Y.select_columns(pivots))

            def coords(x: dict):
                return solver.coords([x.get(r, F.zero) for r in rows])

            def mul(u, v):
                return coords(self._sparse_mul(_combine(F, zip(u, basis)), _combine(F, zip(v, basis))))

            self._corners[i] = (ks, R.submatrix(range(len(pivots)), range(len(ys))),
                                residue_certificate(F, len(pivots), coords(es), mul))
        return self._corners[i]

    # -- idempotent certificates ---------------------------------------------

    def grading(self) -> list[tuple[int, int]] | None:
        """The corner (i, j) of each basis vector, certified: the supplied
        idempotents are orthogonal and complete, and every basis vector b has
        e_i·b = b = b·e_j for some pair (i, j).  Then b lies in e_i A e_j and
        in no other corner, since e_k·b = e_k·e_i·b = 0 for k ≠ i (and
        b·e_l = 0 for l ≠ j).  None when no idempotents were supplied or the
        check fails."""
        if self._grading is None:
            self._grading = self._certify_grading() if self.idempotents else False
        return self._grading or None

    def _orthogonal_complete(self) -> bool:
        F = self.field
        idems = [_sparse(F, e) for e in self.idempotents]
        total = {}
        for a, e in enumerate(idems):
            for k, c in e.items():
                total[k] = F.add(total.get(k, F.zero), c)
            for b, f in enumerate(idems):
                if not _same(F, self._sparse_mul(e, f), e if a == b else {}):
                    return False
        return _same(F, total, _sparse(F, self.unit))

    def _certify_grading(self):
        if not self._orthogonal_complete():
            return False
        idems = [_sparse(self.field, e) for e in self.idempotents]
        lefts, rights = self._fixed(idems, self._by_left), self._fixed(idems, self._by_right)
        if len(lefts) < self.dim or len(rights) < self.dim:
            return False
        return [(lefts[b], rights[b]) for b in range(self.dim)]

    def _fixed(self, idems: list[dict], by) -> dict[int, int]:
        """b -> i for the basis vectors b with e_i·b = b (by = _by_left) or
        b·e_i = b (by = _by_right).  Each e_i multiplies every basis vector
        at once, through the products of the basis vectors in its support,
        so only nonzero products are touched."""
        F = self.field
        fixed = {}
        for i, e in enumerate(idems):
            out: dict[int, dict] = {}
            for k, c in e.items():
                for b, prod in by[k]:
                    y = out.setdefault(b, {})
                    for t, ct in prod:
                        y[t] = F.add(y.get(t, F.zero), F.mul(c, ct))
            fixed.update((b, i) for b, y in out.items() if _same(F, y, {b: F.one}))
        return fixed

    def idempotents_split_basic(self) -> bool:
        """The split basic certificate: the supplied idempotents grade the
        basis (see `grading`), every corner passes the residue certificate,
        which proves its image in A/rad A to be k, and every block of
        `radical` off the diagonal is zero, so e_i A e_j lies in rad A for
        i ≠ j.  Together A/rad A = k × ... × k."""
        if self.grading() is None or any(self.corner_certificate(i)[2] is None
                                         for i in range(len(self.idempotents))):
            return False
        self.radical()
        return self._off_diagonal_zero

    # -- presentation ---------------------------------------------------------

    def presentation(self) -> PathAlgebra:
        """A as a bound quiver algebra kQ/I (Gabriel; Assem–Simson–Skowroński
        I, §II.3), built once and certified (`certify_presentation`).

        Vertex i is the idempotent e_i of `_corner_idempotents`.  A lift b of
        a basis of e_i(rad/rad²)e_j is an arrow j -> i, read off the corners
        of `radical`.  The word (a_1, ..., a_k) maps to b_k ⋯ b_1 (`mul`
        order), so representations of kQ/I are left A-modules.  With L the
        Loewy length, J^L maps to 0 and the nilpotency bound is max(L, 2).
        This map is the path algebra's model of the words' images: its basis
        is the normal words, and its relations the reduced Gröbner basis of
        I, the kernel of the map (see `quiver._normal_words`)."""
        if self._presentation is None:
            F = self.field
            quiver, self.arrow_lifts, loewy = self._gabriel_quiver()
            idems = self._sparse_idempotents()
            pathalg = PathAlgebra(F, quiver, None, max(loewy, 2),
                                  (lambda v: idems[v - 1],
                                   lambda x, a: self._sparse_mul(self.arrow_lifts[a], x)))
            self.certify_presentation(pathalg)
            self._presentation = pathalg
        return self._presentation

    def _gabriel_quiver(self) -> tuple[Quiver, list[dict], int]:
        """The quiver, the lift of each arrow and the Loewy length, with
        elements kept sparse, corner by corner."""
        F = self.field
        n = len(self._corner_idempotents())
        corners = self.radical()  # e_i rad e_j
        arrows, lifts = [], []
        for j in range(n):
            for i in range(n):
                square = _span(F, [self._sparse_mul(x, y) for k in range(n)
                                   for x in corners[(i, k)] for y in corners[(k, j)]])
                _, pivots = rref(_columns(F, square + corners[(i, j)]))
                for p in pivots[len(square):]:
                    arrows.append((f"b{len(arrows) + 1}", j + 1, i + 1))
                    lifts.append(corners[(i, j)][p - len(square)])
        # rad^(k+1) = Σ_arrows b·rad^k, corner by corner
        loewy, layer = 1, corners
        while any(layer.values()):
            loewy += 1
            layer = {(i, j): _span(F, [self._sparse_mul(b, y) for b, (_, s, t) in zip(lifts, arrows)
                                       if t == i + 1 for y in layer[(s - 1, j)]])
                     for (i, j) in layer}
        return Quiver(n, arrows), lifts, loewy

    def certify_presentation(self, pathalg: PathAlgebra):
        """Raise ValueError unless the images in A of the basis words of
        pathalg (a trivial path to its idempotent, a word to the product of
        `arrow_lifts`) form a basis of A."""
        F = self.field
        idems = self._sparse_idempotents()
        images = []
        for v, word in pathalg.basis:
            x = idems[v - 1]
            for a in word:
                x = self._sparse_mul(self.arrow_lifts[a], x)
            images.append(x)
        if len(images) != self.dim or rank(_columns(F, images)) != self.dim:
            raise ValueError(f"the quiver presentation fails its certificate: {len(images)} "
                             f"basis words do not map to a basis of the {self.dim}-dimensional algebra")

    def __repr__(self):
        return f"AbstractAlgebra(dim={self.dim})"


def _same(F: Field, u: dict, v: dict) -> bool:
    return all(F.is_zero(F.sub(u.get(k, F.zero), v.get(k, F.zero))) for k in u.keys() | v.keys())


def _sparse(F: Field, v: list) -> dict:
    return {k: c for k, c in enumerate(v) if not F.is_zero(c)}


def _columns(F: Field, vectors: list[dict]) -> Matrix:
    """Sparse vectors as the columns of a matrix over the union of their
    supports."""
    rows = sorted(set().union(*vectors))
    return Matrix(F, len(rows), len(vectors), [v.get(r, F.zero) for r in rows for v in vectors])


def _span(F: Field, vectors: list[dict]) -> list[dict]:
    """A basis of the span of vectors, chosen among them."""
    vectors = [v for v in vectors if v]
    if not vectors:
        return []
    _, pivots = rref(_columns(F, vectors))
    return [vectors[p] for p in pivots]


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
    p, q = F.p, 1
    while p and (k // q) % p == 0:
        q *= p
    m = k // q
    lam = F.div(F.neg(poly[q * (m - 1)]), F.of_int(m))
    power = [F.one]  # (t - λ)^j, constant term first
    for _ in range(k):
        power = [F.sub(a, F.mul(lam, b)) for a, b in zip([F.zero] + power, power + [F.zero])]
    return lam if _same(F, dict(enumerate(poly)), dict(enumerate(power))) else None


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
