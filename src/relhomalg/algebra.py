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
from .quiver import PathAlgebra, Quiver, irredundant_relations


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
        self._rad = None
        self._corners = {}  # i -> corner_certificate(i)
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
            es = _sparse(F, e)
            ks, ys = [], []
            for k in range(self.dim):
                y = self._sparse_mul(self._sparse_mul(es, {k: F.one}), es)
                if y:
                    ks.append(k)
                    ys.append(y)
            Y = Matrix(F, self.dim, len(ys),
                       [y.get(r, F.zero) for r in range(self.dim) for y in ys])
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

    def idempotents_split_basic(self) -> bool:
        """The supplied idempotents grade the basis (see `grading`) and every
        corner passes the residue certificate, which proves its image in
        A/rad one-dimensional (the split basic certificate)."""
        return self.grading() is not None and all(
            self.corner_certificate(i)[2] is not None for i in range(len(self.idempotents)))

    # -- presentation ---------------------------------------------------------

    def presentation(self) -> PathAlgebra:
        """A as a bound quiver algebra kQ/I (Gabriel; Assem–Simson–Skowroński
        I, §II.3), built once and certified (`certify_presentation`).

        Vertex i is the idempotent e_i of `_corner_idempotents`.  A lift b of
        a basis of e_i(rad/rad²)e_j is an arrow j -> i; the corners are taken
        as e_i·x·e_j, so the basis of A need not be graded.  The word
        (a_1, ..., a_k) maps to b_k ⋯ b_1 (`mul` order), so representations
        of kQ/I are left A-modules.  With L the Loewy length, J^L maps to 0
        and the nilpotency bound is max(L, 2); I is generated by the kernel
        of the path map on the words of length 2..L-1 (`_relations`), of
        which the irredundant relations are kept."""
        if self._presentation is None:
            quiver, self.arrow_lifts, loewy = self._gabriel_quiver()
            nilpotency = max(loewy, 2)
            relations = irredundant_relations(self.field, self._relations(quiver, loewy), nilpotency)
            pathalg = PathAlgebra(self.field, quiver, relations, nilpotency)
            self.certify_presentation(pathalg)
            self._presentation = pathalg
        return self._presentation

    def _gabriel_quiver(self) -> tuple[Quiver, list[dict], int]:
        """The quiver, the lift of each arrow and the Loewy length, with
        elements kept sparse."""
        F = self.field
        idems = [_sparse(F, e) for e in self._corner_idempotents()]
        n = len(idems)
        rad = self.radical_matrix()
        lefts = [[self._sparse_mul(e, _sparse(F, rad.col(c))) for c in range(rad.cols)]
                 for e in idems]
        corners = {(i, j): _span(F, [self._sparse_mul(x, e) for x in lefts[i]])
                   for i in range(n) for j, e in enumerate(idems)}  # e_i rad e_j
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

    def _relations(self, quiver: Quiver, loewy: int) -> list:
        """The kernel of the path map on words of length 2..L-1, as rules
        w - Σ c_u·u with every u an irreducible word before w (shorter, or
        as long and smaller) with the same source and target.  Length by
        length, the candidates are the words whose prefix and suffix one
        arrow shorter are irreducible; per (source, target), in increasing
        order, a candidate is a relation exactly when its image lies in the
        span of the irreducible words before it (one rref).  A word that
        contains a relation's leading word is in the ideal already, so these
        rules and J^L generate I: they are the reduced Gröbner basis for the
        order the rewriter uses."""
        F = self.field
        image = {(a,): b for a, b in enumerate(self.arrow_lifts)}  # irreducible words
        leaving = {v: [a for a, arrow in enumerate(quiver.arrows) if arrow.source == v]
                   for v in range(1, quiver.n + 1)}
        known: dict[tuple[int, int], list] = {}  # (source, target) -> irreducible words, length >= 2
        relations = []
        level = sorted(image)
        for _ in range(2, loewy):
            candidates: dict[tuple[int, int], list] = {}
            for w in level:
                for a in leaving[quiver.word_target(w)]:
                    if w[1:] + (a,) in image:
                        ends = (quiver.word_source(w), quiver.arrows[a].target)
                        candidates.setdefault(ends, []).append(w + (a,))
            level = []
            for ends, words in sorted(candidates.items()):
                words.sort()
                before = known.setdefault(ends, [])
                cols = before + words
                vectors = [image[u] for u in before] + [
                    self._sparse_mul(self.arrow_lifts[w[-1]], image[w[:-1]]) for w in words]
                reduced, pivots = rref(_columns(F, vectors))
                is_pivot = set(pivots)
                for c in range(len(before), len(cols)):
                    w = cols[c]
                    if c in is_pivot:
                        image[w] = vectors[c]
                        level.append(w)
                        continue
                    rel = [(F.one, w)]
                    for r, p in enumerate(pivots):
                        if p < c and not F.is_zero(reduced.at(r, c)):
                            rel.append((F.neg(reduced.at(r, c)), cols[p]))
                    relations.append(rel)
                before.extend(w for w in words if w in image)
            if not level:
                break
        return relations

    def certify_presentation(self, pathalg: PathAlgebra):
        """Raise ValueError unless the images in A of the basis words of
        pathalg (a trivial path to its idempotent, a word to the product of
        `arrow_lifts`) form a basis of A."""
        F = self.field
        idems = self._corner_idempotents()
        images = []
        for v, word in pathalg.basis:
            x = _sparse(F, idems[v - 1])
            for a in word:
                x = self._sparse_mul(self.arrow_lifts[a], x)
            images.append(x)
        if len(images) != self.dim or rank(_columns(F, images)) != self.dim:
            raise ValueError(f"the quiver presentation fails its certificate: {len(images)} "
                             f"basis words do not map to a basis of the {self.dim}-dimensional algebra")

    def __repr__(self):
        return f"AbstractAlgebra(dim={self.dim})"


def _same(F: Field, u: list, v: list) -> bool:
    return all(F.is_zero(F.sub(x, y)) for x, y in zip(u, v))


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
