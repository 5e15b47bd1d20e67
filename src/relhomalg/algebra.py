"""Finite-dimensional algebras by structure constants: residue maps of local
algebras, the radical they give in every characteristic, and the
presentation as a bound quiver algebra kQ/I.

No product table is built: each product of basis vectors is computed
when it is first read.  The supplied idempotents, certified to grade the
basis as laid out, are the vertices of the presentation; its arrows are
lifts of rad/rad² taken corner by corner, its relations the kernel of the
path map, and a certificate checks that the basis words map to a basis.  Modules over the algebra are then
representations of the presentation, resolved by the same code as modules
over a path algebra (`relative`).
"""

from __future__ import annotations

from .fields import Field
from .matrix import Matrix, kernel_basis
from .quiver import PathAlgebra, Quiver, _add, _Echelon, _reduce, _sparse, _span


class AbstractAlgebra:
    """A finite-dimensional algebra given by the corner (i, j) = layout[b]
    of each basis vector b and by product(a, b), the nonzero coordinates
    [(k, c)] of b_a * b_b, asked for once per pair and only when read.  The
    idempotents are the vertices as sparse vectors {b: c}, [unit] for one
    vertex; the layout must grade the basis (see `grading`)."""

    def __init__(self, field: Field, layout: list[tuple[int, int]], product, idempotents: list[dict]):
        self.field = field
        self.dim = len(layout)
        self._layout = layout
        self._product = product
        self._products: dict[tuple[int, int], list] = {}  # (a, b) -> product(a, b), once asked
        self.idempotents = idempotents
        self._certified = False  # grading()
        self._rad = None  # radical(), with _off_diagonal_zero
        self._off_diagonal_zero = None
        self._residues = {}  # i -> corner_residues(i)
        self._presentation = None
        self.arrow_lifts: list | None = None  # the element of A behind each arrow

    # -- multiplication -----------------------------------------------------

    def product(self, a: int, b: int) -> list:
        """b_a * b_b as [(k, c)], c != 0, computed on first use and kept."""
        prod = self._products.get((a, b))
        if prod is None:
            prod = self._products[(a, b)] = self._product(a, b)
        return prod

    def _sparse_mul(self, u: dict, v: dict) -> dict:
        """u * v for elements given by their nonzero coordinates {index: c}:
        one product per pair of nonzero coordinates."""
        F, products = self.field, self._products
        out = {}
        for i, ci in u.items():
            for j, cj in v.items():
                prod = products.get((i, j))
                if prod is None:
                    prod = self.product(i, j)
                if not prod:
                    continue
                c = F.mul(ci, cj)
                for k, ck in prod:
                    out[k] = F.add(out.get(k, F.zero), F.mul(c, ck))
        return {k: c for k, c in out.items() if not F.is_zero(c)}

    # -- radical -------------------------------------------------------------

    def radical(self) -> dict[tuple[int, int], list[dict]]:
        """rad A corner by corner: (i, j) -> a basis of rad A ∩ e_i A e_j as
        sparse vectors; ValueError when a corner is not certified.

        rad A is the kernel of the form (a, b) -> χ(ab) with χ(b) =
        Σ_i ε_i(e_i b e_i), where ε_i is the residue map of the corner
        e_i A e_i (see `corner_residues`): χ vanishes on rad A and is the
        trace on A/rad A, a product of matrix algebras over k whose trace
        form is nondegenerate, in every characteristic.  χ(ab) ≠ 0 needs ab
        in some e_k A e_k, so b in e_i A e_j pairs only with a in e_j A e_i:
        the kernel is the direct sum over (i, j) of the kernels of the blocks
        [χ(x·y)], x and y running over the basis vectors of e_j A e_i and
        e_i A e_j (see `grading`).  `_off_diagonal_zero` records whether
        every block with i ≠ j is 0."""
        if self._rad is None:
            F = self.field
            n = len(self.idempotents)
            bases = {(i, j): [] for i in range(n) for j in range(n)}
            for b, corner in enumerate(self.grading()):
                bases[corner].append(b)
            chi = {}
            for i in range(n):
                residues = self.corner_residues(i)
                if residues is None:
                    raise ValueError(f"corner {i} is not certified local with residue field {F!r}")
                chi.update(zip(bases[(i, i)], residues))
            self._rad, self._off_diagonal_zero = {}, True
            for (i, j), ys in bases.items():
                xs = bases[(j, i)]
                block = [_dot(F, (c for _, c in xy), (chi.get(k, F.zero) for k, _ in xy))
                         for xy in (self.product(x, y) for x in xs for y in ys)]
                if i != j and not all(F.is_zero(c) for c in block):
                    self._off_diagonal_zero = False
                kernel = kernel_basis(Matrix(F, len(xs), len(ys), block))
                self._rad[(i, j)] = [{y: c for y, c in zip(ys, kernel.col(col)) if not F.is_zero(c)}
                                     for col in range(kernel.cols)]
        return self._rad

    def radical_dim(self) -> int:
        return sum(len(vs) for vs in self.radical().values())

    def semisimple_quotient_dim(self) -> int:
        return self.dim - self.radical_dim()

    def corner_residues(self, i: int) -> list | None:
        """The residues of the basis vectors of the corner E = e_i A e_i,
        those graded (i, i), when they certify E local with E/rad E = k (see
        `residue_certificate`), else None."""
        if i not in self._residues:
            F = self.field
            ks = [k for k, corner in enumerate(self.grading()) if corner == (i, i)]

            def coords(x: dict):
                return [x.get(k, F.zero) for k in ks]

            def mul(u, v):
                return coords(self._sparse_mul(dict(zip(ks, u)), dict(zip(ks, v))))

            self._residues[i] = residue_certificate(F, len(ks), coords(self.idempotents[i]), mul)
        return self._residues[i]

    # -- idempotent certificates ---------------------------------------------

    def grading(self) -> list[tuple[int, int]]:
        """The corner (i, j) of each basis vector, as the construction laid
        it out, certified once: the idempotents are orthogonal, and every
        basis vector b laid out in (i, j) has e_i·b = b = b·e_j.  Then b lies
        in e_i A e_j and in no other corner, since e_k·b = e_k·e_i·b = 0 for
        k ≠ i (and b·e_l = 0 for l ≠ j); so Σ_k e_k fixes every basis vector
        on both sides and is the unit.  ValueError when a check fails."""
        if not self._certified:
            F, idems = self.field, self.idempotents
            for a, e in enumerate(idems):
                for b, f in enumerate(idems):
                    if not _same(F, self._sparse_mul(e, f), e if a == b else {}):
                        raise ValueError(f"the idempotents are not orthogonal: e{a}·e{b}")
            for b, (i, j) in enumerate(self._layout):
                x = {b: F.one}
                if not (_same(F, self._sparse_mul(idems[i], x), x)
                        and _same(F, self._sparse_mul(x, idems[j]), x)):
                    raise ValueError("the idempotents do not grade the basis: basis vector "
                                     f"{b} does not lie in corner e_{i} A e_{j}")
            self._certified = True
        return self._layout

    def idempotents_split_basic(self) -> bool:
        """The split basic certificate: every corner passes the residue
        certificate, which proves its image in A/rad A to be k, and every
        block of `radical` off the diagonal is zero, so e_i A e_j lies in
        rad A for i ≠ j.  Together A/rad A = k × ... × k."""
        if any(self.corner_residues(i) is None for i in range(len(self.idempotents))):
            return False
        self.radical()
        return self._off_diagonal_zero

    # -- presentation ---------------------------------------------------------

    def presentation(self) -> PathAlgebra:
        """A as a bound quiver algebra kQ/I (Gabriel; Assem–Simson–Skowroński
        I, §II.3), built once and certified (`certify_presentation`).

        Vertex i is the idempotent e_i.  A lift b of a basis of
        e_i(rad/rad²)e_j is an arrow j -> i, read off the corners of
        `radical`.  The word (a_1, ..., a_k) maps to b_k ⋯ b_1 (`mul`
        order), so representations of kQ/I are left A-modules.  This map is
        the path algebra's model of the words' images: its basis is the
        normal words, and its relations the reduced Gröbner basis of I, the
        kernel of the map (see `quiver._normal_words`).  The bound dim A + 1
        only ends that loop, which stops at the Loewy length L (a word of
        length k lies in rad^k); the rules then hold the tested words of
        length L, which map to 0, so they alone generate I."""
        if self._presentation is None:
            quiver, self.arrow_lifts = self._gabriel_quiver()
            idems = self.idempotents
            pathalg = PathAlgebra(self.field, quiver, None, self.dim + 1,
                                  (lambda v: idems[v - 1],
                                   lambda x, a: self._sparse_mul(self.arrow_lifts[a], x)))
            self.certify_presentation(pathalg)
            self._presentation = pathalg
        return self._presentation

    def _gabriel_quiver(self) -> tuple[Quiver, list[dict]]:
        """The quiver and the lift of each arrow, with elements kept sparse,
        corner by corner.

        The products of the radical bases stream into the echelon of
        rad² ∩ e_i A e_j, which stops once it has as many rows as
        rad ∩ e_i A e_j has basis vectors: rad² lies in rad, so it is then
        all of that corner, and the corner has no arrow.  A lift is kept
        when it is independent of the echelon's span and of the lifts before
        it, which depends only on that span, so the stop changes nothing."""
        F = self.field
        n = len(self.idempotents)
        corners = self.radical()  # e_i rad e_j
        arrows, lifts = [], []
        for j in range(n):
            for i in range(n):
                rad, square = corners[(i, j)], _Echelon()  # of rad² ∩ e_i A e_j
                if rad:
                    _span(F, (self._sparse_mul(x, y) for k in range(n)
                              for x in corners[(i, k)] for y in corners[(k, j)]), square, len(rad))
                for lift in _span(F, rad, square):
                    arrows.append((f"b{len(arrows) + 1}", j + 1, i + 1))
                    lifts.append(lift)
        return Quiver(n, arrows), lifts

    def certify_presentation(self, pathalg: PathAlgebra):
        """Raise ValueError unless the images in A of the basis words of
        pathalg (a trivial path to its idempotent, a word to the product of
        `arrow_lifts`) form a basis of A.  A word from v to w maps into the
        corner e_w A e_v, so each corner's images are spanned in an echelon
        of their own, and the corners' ranks must sum to dim A."""
        corners = {}  # (source, target) of the words -> their images
        for k, (v, word) in enumerate(pathalg.basis):
            x = self.idempotents[v - 1]
            for a in word:
                x = self._sparse_mul(self.arrow_lifts[a], x)
            corners.setdefault((v, pathalg.element_target(k)), []).append(x)
        if (len(pathalg.basis) != self.dim
                or sum(len(_span(self.field, images)) for images in corners.values()) != self.dim):
            raise ValueError(f"the quiver presentation fails its certificate: {len(pathalg.basis)} "
                             f"basis words do not map to a basis of the {self.dim}-dimensional algebra")

    def __repr__(self):
        return f"AbstractAlgebra(dim={self.dim})"


def _same(F: Field, u: dict, v: dict) -> bool:
    return all(F.is_zero(F.sub(u.get(k, F.zero), v.get(k, F.zero))) for k in u.keys() | v.keys())


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
    polynomial (t - λ)^k of x, where x^k is the first power that reduces to
    0 in the echelon of the powers before it; None when the minimal
    polynomial is not a power of a linear factor.  Over F_p write k = p^a·m
    with p ∤ m: then (t - λ)^k = (t^(p^a) - λ)^m because λ^p = λ, so the
    coefficient of t^(p^a·(m-1)) is -mλ (a = 0 in characteristic 0)."""
    powers, xk, k = _Echelon(), unit, 0  # of the x^j, j < k, each labelled j
    while True:
        rest, low = _reduce(F, powers, _sparse(F, xk))
        if not rest:
            break
        _add(F, powers, rest, low, k)
        xk, k = mul(xk, x), k + 1
    if not k:  # the zero algebra
        return None
    poly = [F.neg(low.get(j, F.zero)) for j in range(k)] + [F.one]  # constant term first
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
