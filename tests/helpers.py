"""Shared constructions for the test suite: the worked algebras, and
second routes to what the program computes (images and pushouts, the
definitional F-acyclicity check, explicit null-homotopies, approximations
from Hom coordinates, the intertwining solve and greedy removal for Homs
and approximations that are read off vertex spaces, for F-exactness the
composite blocks (the program counts Hom dimensions), for DTr the
transpose over the opposite algebra, dualized back, and for the transpose
the coordinates of composites (the program reads DTr over Λ as the kernel
of the Nakayama functor, off products), for End(T) its products
by composing chain maps, the residue form on all of A and the grading scan
over every idempotent, for the spans that present Γ the dense elimination
over the union of their supports with rad² spanned by every product of
radical bases, for path algebras the construction by completing
the relations into rewriting rules, for Ext_F the Hom in D_F by
F-projective replacement, for sums, cones and radical normalization the
composites with the injections and projections of each direct sum (the
program builds and slices block matrices), for cokernels the inverse of a
completed image basis (the program reads one elimination), for kernels,
radicals, Hom bases, tops, socles, sums and stacked maps the loops over
every vertex and arrow (the program keeps to the support), and for the
command line the argparse reading) that serve only as cross-checks, and
the short sequences, F-quasi-isomorphisms, stacked matrices, radical
matrices, algebras from product tables, dense algebra products and the
associativity check that only the tests build."""

import argparse
import sys
from dataclasses import dataclass
from functools import cached_property, reduce

from relhomalg import cli, relative, rep
from relhomalg.algebra import AbstractAlgebra, residue_certificate
from relhomalg.complexes import (
    ChainMap,
    Complex,
    HomotopyHom,
    Part,
    cone,
    hom_k,
    is_f_acyclic,
    shift_complex,
    stalk_complex,
    zero_complex,
)
from relhomalg.fields import QQ
from relhomalg.matrix import (
    Matrix,
    _normal,
    column_space_basis,
    complement_columns,
    inverse,
    kernel_basis,
    rank,
    rref,
    solve,
)
from relhomalg.quiver import PathAlgebra, Quiver, _axpy
from relhomalg.relative import (
    FResolution,
    SubbifunctorF,
    SummandDecl,
    TruncationError,
    f_resolution,
    is_f_exact,
    left_approximation,
)
from relhomalg.rep import (
    ModuleMap,
    Representation,
    ShortExactSeq,
    _induced_sub,
    cokernel,
    direct_sum,
    hom_coordinates,
    hom_space,
    injective,
    kernel,
    projective,
    socle,
    stack_maps,
)
from relhomalg.tilting import _coordinate_matrix


def cycle3_selfinjective(field=QQ):
    """3-cycle with all length-3 paths zero: self-injective Nakayama, dim 9."""
    q = Quiver(3, [("a", 1, 2), ("b", 2, 3), ("c", 3, 1)])
    one = field.one
    rels = [
        [(one, (0, 1, 2))],  # a b c
        [(one, (1, 2, 0))],  # b c a
        [(one, (2, 0, 1))],  # c a b
    ]
    return PathAlgebra(field, q, rels, 3)


def cycle3_verbatim(field=QQ):
    """3-cycle with the mixed-length relation word abc = bcab = cabc = 0."""
    q = Quiver(3, [("a", 1, 2), ("b", 2, 3), ("c", 3, 1)])
    one = field.one
    rels = [
        [(one, (0, 1, 2))],
        [(one, (1, 2, 0, 1))],
        [(one, (2, 0, 1, 2))],
    ]
    return PathAlgebra(field, q, rels, 4)


def a2_algebra(field=QQ):
    q = Quiver(2, [("a", 1, 2)])
    return PathAlgebra(field, q, [], 2)


def loop_dual_numbers(field=QQ):
    """k[x]/(x^2) as a one-vertex one-loop quiver."""
    q = Quiver(1, [("x", 1, 1)])
    return PathAlgebra(field, q, [], 2)


def sub_quotient(m, sub_incl):
    return cokernel(sub_incl)[0]


def uniserials(algebra):
    """All quotients P_i / rad^k P_i, k >= 1 (the Nakayama indecomposables)."""
    out = []
    n = algebra.quiver.n
    for i in range(1, n + 1):
        p = projective(algebra, i)
        cur = p
        names = []
        while not cur.is_zero():
            out.append(cur)
            s, incl = socle(cur)
            if s.total_dim == cur.total_dim:
                break
            cur, _ = cokernel(incl)
    return out


def nakayama_problem(n, length, every_indecomposable=False, tilting=False):
    """Problem file (as a dict) for the n-cycle with every path of length
    `length` zero: G = the projectives and the simples (with
    `every_indecomposable`, every uniserial), the corpus every uniserial
    U{i}_{k} = P_i / rad^k P_i.  With `tilting` the file declares T = (+)G
    as stalk complexes in degree 0."""
    arrows = [[f"a{v}", v, v % n + 1] for v in range(1, n + 1)]
    modules, corpus = {}, []
    for v in range(1, n + 1):
        modules[f"P{v}"] = {"projective": v}
        corpus.append(f"P{v}")
        for k in range(1, length):
            modules[f"U{v}_{k}"] = {"quotient_by_radical_power": [f"P{v}", k]}
            corpus.append(f"U{v}_{k}")
    generator = corpus if every_indecomposable else \
        [f"P{v}" for v in range(1, n + 1)] + [f"U{v}_1" for v in range(1, n + 1)]
    data = {
        "schema": "relhomalg/1",
        "field": "Q",
        "cutoff": 6,
        "quiver": {"vertices": n, "arrows": arrows},
        "relations": [[["1", [arrows[(v + s) % n][0] for s in range(length)]]]
                      for v in range(n)],
        "nilpotency": length,
        "modules": modules,
        "generator": generator,
        "corpus": corpus,
        "corpus_complete": True,
    }
    if tilting:
        data["complexes"] = {f"T{g}": {"stalk": g, "degree": 0} for g in generator}
        data["complexes"]["T"] = {"sum": [f"T{g}" for g in generator]}
        data["tilting"] = {
            "complex": "T",
            "summands": [f"T{g}" for g in generator],
            "summand_count": len(generator),
            "witnesses": [{"summand": {"module": g, "degree": 0, "of": f"T{g}"}}
                          for g in generator],
        }
    return data


def solved_hom_space(m, n):
    """Hom(m, n) by the intertwining solve of `full_loop_hom_space`, which
    shares no code with `rep.hom_space`; the reference for the bases read
    off vertex spaces and for the solve `rep._hom_space_compute`."""
    return full_loop_hom_space(m, n)


def hom_g_surjective(f, g_map):
    """Is Hom(G, g_map) onto Hom(G, target)?  The composite route that
    `relative.hom_g_exact` replaced by a count of Hom dimensions: g_map alone
    must be a right add(G)-approximation of its target, tested on the
    coordinates of the composites (`coordinate_approximating_subset`)."""
    return coordinate_approximating_subset(g_map.target, [g_map], f.summands, False) is not None


def counted_map(frame):
    """The epimorphism B -> C of the sequence whose F-exactness
    `relative.hom_g_exact`, called from frame, counts: the map of
    `is_f_exact`'s sequence, or the cokernel projection of the left
    approximation `app` of a coresolution step."""
    names = frame.f_locals
    return names["ses"].g if "ses" in names else cokernel(names["app"].map)[1]


def trivial_path(pathalg, v):
    """The basis index of the trivial path at vertex v."""
    return pathalg.basis_index[(v, ())]


def opposite_quiver(quiver):
    return Quiver(quiver.n, [(a.name, a.target, a.source) for a in quiver.arrows])


def _combine(F, terms) -> dict:
    """Σ c·x over the pairs (c, x) of terms, sparse."""
    out = {}
    for c, x in terms:
        _axpy(F, out, c, x)
    return out


def opposite(algebra):
    """kQ^op/I^op, built once per algebra and stored on it: its word
    (a_1, ..., a_k) has the image a_k ⋯ a_1 in algebra, and its relations
    are the reversed relations."""
    op = algebra.__dict__.get("_opposite")
    if op is None:
        F = algebra.field
        rels = [[(c, tuple(reversed(tuple(w)))) for c, w in rel] for rel in algebra.relations]
        op = PathAlgebra(F, opposite_quiver(algebra.quiver), rels, algebra.N,
                         (lambda v: {trivial_path(algebra, v): F.one},
                          lambda x, a: _combine(F, ((c, algebra.mul_basis(algebra.arrow_element(a), k))
                                                    for k, c in x.items()))))
        op._opposite, algebra._opposite = algebra, op
    return op


def dual(m):
    """Vector-space dual, a representation over the opposite algebra.  The
    opposite's relations are the reversed ones, and a reversed word acts on
    the dual by the transpose of the word's action on m, so the dual of a
    checked m is checked by construction."""
    d = Representation(opposite(m.algebra), m.dims, [a.transpose() for a in m.mats],
                       check=not m._checked)
    d._checked |= m._checked
    return d


def dual_to_main(m_op):
    """Dual of an opposite-algebra representation, back over the original."""
    return Representation(opposite(m_op.algebra), m_op.dims, [a.transpose() for a in m_op.mats])


def left_multiplication_map(algebra, ai):
    """Prepending arrow a: m -> m' gives the module map P(m') -> P(m),
    sending e to the arrow a, the j-th basis path of P(m) at m'."""
    a = algebra.quiver.arrows[ai]
    src, tgt = projective(algebra, a.target), projective(algebra, a.source)
    j = rep._paths_from(algebra, a.source)[0][a.target - 1].index(algebra.arrow_element(ai))
    e_to_a = [e for block in rep._vertex_maps(src, tgt, a.target, False)[j] for e in block]
    return ModuleMap(src, tgt, rep._hom_basis(src, tgt, [e_to_a])[0].mats)


def hom_to_algebra_at(algebra, v):
    """Hom(P_v, Λ) over the opposite algebra, read at e_v: Hom(P_v, P_u) =
    (P_u)_v at u, and the opposite of an arrow a acts by postcomposition with
    `left_multiplication_map`, so by its block at v."""
    return Representation(
        opposite(algebra), [projective(algebra, u).dims[v - 1] for u in range(1, algebra.quiver.n + 1)],
        [left_multiplication_map(algebra, ai).mats[v - 1] for ai in range(len(algebra.quiver.arrows))])


def hom_to_algebra(m):
    """Hom(m, Λ) over the opposite algebra, with the per-vertex Hom bases:
    the component at v is Hom(m, P(v)), and the opposite arrow a: v' -> v acts
    by postcomposition with prepend-a: P(v') -> P(v), read in coordinates."""
    algebra = m.algebra
    F = algebra.field
    bases = [hom_space(m, projective(algebra, v + 1)) for v in range(algebra.quiver.n)]
    mats = []
    for ai, a in enumerate(algebra.quiver.arrows):
        la = left_multiplication_map(algebra, ai)
        mats.append(_coordinate_matrix(F, bases[a.source - 1],
                                       [phi.compose(la) for phi in bases[a.target - 1]]))
    return Representation(opposite(algebra), tuple(len(b) for b in bases), mats), bases


def transpose(m):
    """Tr m = coker(d*: Hom(P0, Λ) -> Hom(P1, Λ)) over the opposite algebra,
    for the minimal presentation P1 -d-> P0 -> m -> 0: P0 = ⊕P_{v_i} covers m,
    and P1 = ⊕P_{w_j} covers K = ker(P0 -> m), d sending e_{w_j} to x_j, the
    top column (w_j, c_j) of K.  On the `hom_to_algebra_at` pieces d* sends
    φ(e_{v_i}) = q to φ(x_j) = q·x_{ij}, the product in Λ with the part of x_j
    in P_{v_i}.  Tr P = 0 for a projective P."""
    alg, op = m.algebra, opposite(m.algebra)
    c0 = relative.projective_cover(m)
    if c0.is_identity:
        return rep.zero_representation(op)
    incl, tops = c0.kernel[1], rep.top_columns(c0.kernel[0])
    paths = [rep._paths_from(alg, v + 1)[0] for v in range(alg.quiver.n)]  # [v][w]: P_{v+1} at w
    h0, h1 = (direct_sum([hom_to_algebra_at(alg, v + 1) for v in vs], op)
              for vs in (c0.pieces, [w for w, _ in tops]))
    mats = []
    for at_u, d0, d1 in zip(paths, h0.dims, h1.dims):
        out, row = [0] * (d1 * d0), 0
        for w, c in tops:
            x, col, rows = iter(incl.mats[w].col(c)), 0, {t: row + r for r, t in enumerate(at_u[w])}
            for v in c0.pieces:  # each zip takes the part of x_j in P_{v+1}
                for p, e in zip(paths[v][w], x):
                    for k, q in enumerate(at_u[v]) if e else ():
                        for t, a in alg.mul_basis(q, p).items():
                            out[rows[t] * d0 + col + k] += e * a
                col += len(at_u[v])
            row += len(at_u[w])
        mats.append(Matrix(alg.field, d1, d0, _normal(out, alg.field.p)))
    return cokernel(ModuleMap(h0, h1, mats))[0]


def dtr_by_transpose(m):
    """D Tr m by the transpose over the opposite algebra, dualized back: the
    reference for `relative.dtr`, which reads it over Λ as the kernel of
    the Nakayama functor."""
    return dual_to_main(transpose(m))


def transpose_by_coordinates(m):
    """Tr m as `transpose` built it before it read d* at the top
    columns: `hom_to_algebra` of both terms of the minimal presentation, and
    d* from the coordinates of the composites "d then ψ"; the reference for
    the transpose."""
    c0 = relative.projective_cover(m)
    ker, incl = c0.kernel
    c1 = relative.projective_cover(ker)
    d = c1.map.compose(incl)
    h0, bases0 = hom_to_algebra(c0.map.source)
    h1, bases1 = hom_to_algebra(c1.map.source)
    F = m.algebra.field
    mats = [_coordinate_matrix(F, bases1[v], [d.compose(psi) for psi in bases0[v]])
            for v in range(m.algebra.quiver.n)]
    return cokernel(ModuleMap(h0, h1, mats))[0]


def full_basis_approximation(x, summands, left, maps=None, pieces=None):
    """(pieces, map) of the minimal approximation that the greedy removal
    pass keeps from the candidate maps (the summand of each in pieces), by
    default every map of the Hom-space bases, each summand's block read from
    coordinates (`coordinate_approximating_subset`): a reference that shares
    no code with the vertex blocks and echelons of
    `relative._build_approximation`."""
    if maps is None:
        maps, pieces = [], []
        for k, s in enumerate(summands):
            for phi in (hom_space(x, s.module) if left else hom_space(s.module, x)):
                maps.append(phi)
                pieces.append(k)
    keep = coordinate_approximating_subset(x, maps, summands, left)
    return [pieces[i] for i in keep], glue([maps[i] for i in keep], x, into=left)


def blocks_of(f):
    """The vertex blocks of a map, row-major, one list per vertex: the form
    in which `relative._candidates` hands on a map and `rep.stack_maps`
    glues it."""
    return [a.entries for a in f.mats]


def maps_of(parts, blocks, x, into=False):
    """The maps f_k: parts[k] -> x, or with into x -> parts[k], whose vertex
    blocks are blocks[k]."""
    F, out = x.algebra.field, []
    for p, b in zip(parts, blocks):
        src, tgt = (x, p) if into else (p, x)
        out.append(ModuleMap(src, tgt, [Matrix(F, t, s, e) if t and s else Matrix.zeros(F, t, s)
                                        for t, s, e in zip(tgt.dims, src.dims, b)], check=False))
    return out


def glue(maps, x, into=False):
    """`rep.stack_maps` of the maps f_k: M_k -> x, or with into x -> M_k."""
    return stack_maps([f.target if into else f.source for f in maps], [blocks_of(f) for f in maps],
                      x, into)


def compose_chain(f, g):
    """Degreewise composition f then g of two degree-0 chain maps."""
    return {i: f.comps[i].compose(g.comps[i]) for i in f.comps if i in g.comps}


def solve_coords(basis, vec):
    """The coordinates of vec in the columns of basis, of full column rank,
    by `matrix.solve`; None outside their span."""
    x = solve(basis, Matrix(basis.field, basis.rows, 1, list(vec)))
    return None if x is None else x.entries


def composed_end_table(ts):
    """The structure constants of End_K(T), as `products_table` lists them,
    by composing each pair of representatives with
    `compose_chain` and solving the class coordinates of the composite over
    all of Hom^0 (`hom_coordinates` in each degree); the route that
    `tilting.end_algebra` replaced by reading products at the top columns.
    The representatives of corner (i, j) are numbered consecutively, the
    corners in row-major order."""
    F, n = ts.parts[0].algebra.field, len(ts.parts)
    reps, offsets, dim = {}, {}, 0
    for i in range(n):
        for j in range(n):
            reps[(i, j)], offsets[(i, j)] = ts.corner(i, j).representatives(), dim
            dim += len(reps[(i, j)])
    table = {}
    for (i, j), left in reps.items():
        for k in range(n):
            hh, start = ts.corner(i, k), offsets[(i, k)]
            for a, f in enumerate(left):
                for b, g in enumerate(reps[(j, k)]):
                    coords = solve_coords(hh._class_basis, hh.chain_map_to_vector(compose_chain(f, g)))
                    assert coords is not None
                    nonzero = [(start + c, x) for c, x in enumerate(coords[hh.boundaries.cols:])
                               if not F.is_zero(x)]
                    if nonzero:
                        table[(offsets[(i, j)] + a, offsets[(j, k)] + b)] = nonzero
    return table


def structure_constants(pathalg):
    """pathalg as an AbstractAlgebra whose left modules are its
    representations: b_i * b_j is (path j) followed by (path i), the
    supplied idempotents are the trivial paths, and a path from s to t lies
    in the corner (t, s)."""
    F = pathalg.field
    d = pathalg.dim
    table = {(i, j): pathalg.mul_basis(j, i) for i in range(d) for j in range(d)}
    trivial = [trivial_path(pathalg, v) for v in range(1, pathalg.quiver.n + 1)]
    layout = [(pathalg.element_target(k) - 1, src - 1) for k, (src, _) in enumerate(pathalg.basis)]
    return table_algebra(F, table, [[F.one if k == t else F.zero for k in range(d)] for t in trivial],
                         layout)


def table_algebra(field, table, idempotents, layout=None):
    """The AbstractAlgebra whose products are read off table,
    {(i, j): {k: c}} with zero products left out, with the idempotents
    given as coordinate vectors and the basis laid out in corners by
    layout, by default all in the corner (0, 0) of one vertex."""
    layout = layout or [(0, 0)] * len(idempotents[0])

    def product(i, j):
        return sorted((k, c) for k, c in table.get((i, j), {}).items() if not field.is_zero(c))

    return AbstractAlgebra(field, layout, product,
                           [{k: c for k, c in enumerate(e) if not field.is_zero(c)} for e in idempotents])


# ---------------------------------------------------------------------------
# dense products of an AbstractAlgebra and the check of its table: the
# program multiplies sparse vectors (`AbstractAlgebra._sparse_mul`) and asks
# for each product of basis vectors when it first reads it


def products_table(algebra):
    """Every nonzero product of basis vectors {(a, b): [(k, c)]}, asked of
    the algebra for every pair whose corners meet, (i, j) and (j, k); the
    others are zero once `grading` is certified."""
    layout = algebra.grading()
    table = {}
    for a, (_, j) in enumerate(layout):
        for b, (h, _) in enumerate(layout):
            if j == h and (prod := algebra.product(a, b)):
                table[(a, b)] = prod
    return table


def basis_vector(algebra, i):
    v = [algebra.field.zero] * algebra.dim
    v[i] = algebra.field.one
    return v


def dense(algebra, x):
    """The coordinate vector of the sparse element x {index: c}."""
    return [x.get(k, algebra.field.zero) for k in range(algebra.dim)]


def unit(algebra):
    """The sum of the idempotents: the unit once they grade the basis (see
    `AbstractAlgebra.grading`)."""
    F = algebra.field
    idems = [dense(algebra, e) for e in algebra.idempotents]
    return [reduce(F.add, column, F.zero) for column in zip(*idems)]


def mul(algebra, u, v):
    """u * v as coordinate vectors, by the sparse product."""
    F = algebra.field
    out = [F.zero] * algebra.dim
    sparse = [{k: c for k, c in enumerate(w) if not F.is_zero(c)} for w in (u, v)]
    for k, c in algebra._sparse_mul(*sparse).items():
        out[k] = c
    return out


def product(algebra, i, j):
    """b_i * b_j as a coordinate vector."""
    return dense(algebra, dict(algebra.product(i, j)))


def dense_span(F, vectors, prefix=()):
    """The vectors (sparse dicts) that `rref` keeps as pivot columns after
    the columns of prefix, on the dense matrix over the union of their
    supports: the dense route that `algebra._span` replaced."""
    columns = list(prefix) + [v for v in vectors if v]
    if not columns:
        return []
    rows = sorted(set().union(*columns))
    _, pivots = rref(Matrix(F, len(rows), len(columns),
                            [v.get(r, F.zero) for r in rows for v in columns]))
    return [columns[p] for p in pivots if p >= len(prefix)]


def full_span_quiver(algebra):
    """The arrows (source, target) and their lifts of
    `AbstractAlgebra._gabriel_quiver`, with each corner's rad² spanned by
    every product of radical bases and every span taken densely
    (`dense_span`): the reference for the stop at dim rad; and the Loewy
    length L, from the layers rad^(k+1) = Σ b·rad^k, for the tests that
    rebuild a presentation from its relations with J^L = 0."""
    F, n = algebra.field, len(algebra.idempotents)
    corners = algebra.radical()
    arrows, lifts, into = [], [], [[] for _ in range(n)]
    for j in range(n):
        for i in range(n):
            square = dense_span(F, [algebra._sparse_mul(x, y) for k in range(n)
                                    for x in corners[(i, k)] for y in corners[(k, j)]])
            for lift in dense_span(F, corners[(i, j)], square):
                arrows.append((j + 1, i + 1))
                lifts.append(lift)
                into[i].append((lift, j))
    loewy, layer = 1, corners
    while any(layer.values()):
        loewy += 1
        layer = {(i, j): dense_span(F, [algebra._sparse_mul(b, y) for b, s in into[i] for y in layer[(s, j)]])
                 for (i, j) in layer}
    return arrows, lifts, loewy


def validated(algebra):
    """algebra, once its table is checked associative with the sum of its
    idempotents as unit; ValueError otherwise."""
    F, d = algebra.field, algebra.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs = mul(algebra, product(algebra, i, j), basis_vector(algebra, k))
                rhs = mul(algebra, basis_vector(algebra, i), product(algebra, j, k))
                if any(not F.is_zero(F.sub(a, b)) for a, b in zip(lhs, rhs)):
                    raise ValueError(f"associativity fails at ({i},{j},{k})")
    one = unit(algebra)
    for i in range(d):
        e = basis_vector(algebra, i)
        if mul(algebra, one, e) != e or mul(algebra, e, one) != e:
            raise ValueError("unit law fails")
    return algebra


def vstack(a, b):
    """a stacked on top of b (no route of the program stacks rows)."""
    assert a.cols == b.cols and a.field == b.field
    return Matrix(a.field, a.rows + b.rows, a.cols, a.entries + b.entries)


def radical_matrix(algebra):
    """The vectors of `AbstractAlgebra.radical` as the columns of one
    d x dim(rad) matrix."""
    F = algebra.field
    cols = [v for vs in algebra.radical().values() for v in vs]
    return Matrix(F, algebra.dim, len(cols),
                  [v.get(r, F.zero) for r in range(algebra.dim) for v in cols])


def residue_form_radical(algebra):
    """rad A as the kernel of the d x d form [χ(b_i·b_j)], with χ(b) =
    Σ_i ε_i(e_i b e_i) read off dense products e_i·b_k·e_i for every basis
    vector; the construction the block radical (`AbstractAlgebra.radical`)
    replaced."""
    F, d = algebra.field, algebra.dim
    chi = [F.zero] * d
    for e in (dense(algebra, e) for e in algebra.idempotents):
        ys = {}
        for k in range(d):
            y = mul(algebra, mul(algebra, e, basis_vector(algebra, k)), e)
            if any(not F.is_zero(c) for c in y):
                ys[k] = y
        Y = Matrix(F, d, len(ys), [y[r] for r in range(d) for y in ys.values()])
        R, pivots = rref(Y)
        basis = Y.select_columns(pivots)
        residues = residue_certificate(F, len(pivots), solve_coords(basis, e), lambda u, v: solve_coords(
            basis, mul(algebra, basis.apply(u), basis.apply(v))))
        assert residues is not None
        for c, k in enumerate(ys):
            for r, lam in enumerate(residues):
                chi[k] = F.add(chi[k], F.mul(R.at(r, c), lam))
    gram = [[F.zero] * d for _ in range(d)]
    for (i, j), prod in products_table(algebra).items():
        for k, c in prod:
            gram[i][j] = F.add(gram[i][j], F.mul(c, chi[k]))
    return kernel_basis(Matrix.from_rows(F, gram))


def scanned_grading(algebra):
    """The corner (i, j) of each basis vector b from dense products of b with
    every idempotent on both sides: None unless the idempotents are
    orthogonal and complete and exactly one fixes b on each side; a second
    route to `AbstractAlgebra.grading`, which finds completeness implied."""
    F, d = algebra.field, algebra.dim
    idems = [dense(algebra, e) for e in algebra.idempotents]

    def same(u, v):
        return all(F.is_zero(F.sub(x, y)) for x, y in zip(u, v))

    total = [F.zero] * d
    for a, e in enumerate(idems):
        total = [F.add(x, y) for x, y in zip(total, e)]
        for b, f in enumerate(idems):
            if not same(mul(algebra, e, f), e if a == b else [F.zero] * d):
                return None
    for b in range(d):
        v = basis_vector(algebra, b)
        if not same(mul(algebra, total, v), v) or not same(mul(algebra, v, total), v):
            return None
    grading = []
    for b in range(d):
        v = basis_vector(algebra, b)
        lefts = [i for i, e in enumerate(idems) if same(mul(algebra, e, v), v)]
        rights = [j for j, e in enumerate(idems) if same(mul(algebra, v, e), v)]
        if len(lefts) != 1 or len(rights) != 1:
            return None
        grading.append((lefts[0], rights[0]))
    return grading


def _word_key(w):
    return (len(w), w)


class _Rewriter:
    """Confluent rewriting for word combos, with the J^N cutoff built in: each
    rule rewrites its leading word L to the combination rules[L]."""

    def __init__(self, field, nilpotency):
        self.field = field
        self.N = nilpotency
        self.rules = {}

    def reduce(self, combo):
        F = self.field
        rules = self.rules
        out = {}
        stack = list(combo.items())
        while stack:
            w, c = stack.pop()
            if F.is_zero(c) or len(w) >= self.N:
                continue
            hit = next(((pos, end) for pos in range(len(w)) for end in range(pos + 1, len(w) + 1)
                        if w[pos:end] in rules), None)
            if hit is None:
                out[w] = F.add(out.get(w, F.zero), c)
                if F.is_zero(out[w]):
                    del out[w]
            else:
                pos, end = hit
                for rw, rc in rules[w[pos:end]].items():
                    stack.append((w[:pos] + rw + w[end:], F.mul(c, rc)))
        return out

    def add_rule_from(self, combo):
        combo = self.reduce(combo)
        if not combo:
            return False
        F = self.field
        L = max(combo, key=_word_key)
        lead = combo[L]
        self.rules[L] = {w: F.neg(F.div(c, lead)) for w, c in combo.items() if w != L}
        return True

    def complete(self):
        """Critical-pair completion (bounded by the length cutoff): each word
        with two rewrites u1·L1·v1 = u2·L2·v2, where L1 ends as L2 begins or
        L1 contains L2, rewritten both ways; a nonzero difference is a rule."""
        F = self.field
        changed = True
        while changed:
            changed = False
            rules = list(self.rules.items())
            for i, (L1, R1) in enumerate(rules):
                for j, (L2, R2) in enumerate(rules):
                    sides = [((), L2[k:], L1[:-k], ()) for k in range(1, min(len(L1), len(L2)))
                             if L1[-k:] == L2[:k]]
                    if i != j and len(L2) < len(L1):
                        sides += [((), (), L1[:pos], L1[pos + len(L2):])
                                  for pos in range(len(L1) - len(L2) + 1) if L1[pos:pos + len(L2)] == L2]
                    for u1, v1, u2, v2 in sides:
                        diff = {}
                        for R, u, v, sign in ((R1, u1, v1, F.one), (R2, u2, v2, F.neg(F.one))):
                            for w, c in R.items():
                                diff[u + w + v] = F.add(diff.get(u + w + v, F.zero), F.mul(sign, c))
                        if self.add_rule_from(diff):
                            changed = True


class RewrittenAlgebra:
    """kQ/(I + J^N) by bounded confluent rewriting, the construction the
    path algebras replaced: the relations completed into rewriting rules
    (critical pairs, then a sweep of the words of length N until they all
    rewrite to 0), and the irreducible words of length < N enumerated.  The
    rewriter drops every word of length >= N before rewriting it, so the
    sweep never adds a rule: it is the reference only where that loses
    nothing, for relations whose terms have one length or when J^N lies in
    I (a quiver presentation, whose J^L maps to 0).  Basis, `basis_index`
    and `mul_basis` as in `quiver.PathAlgebra`."""

    def __init__(self, field, quiver, relations, nilpotency):
        self.field, self.quiver, self.N = field, quiver, nilpotency
        rw = self.rewriter = _Rewriter(field, nilpotency)
        for rel in filter(None, relations):
            combo = {}
            for coeff, word in rel:
                combo[tuple(word)] = field.add(combo.get(tuple(word), field.zero), coeff)
            rw.add_rule_from(combo)
        rw.complete()
        self._sweep_length_cutoff()
        words, level = [], [()]
        for _ in range(nilpotency - 1):
            level = [w + (ai,) for w in level for ai in range(len(quiver.arrows))
                     if not w or quiver.arrows[w[-1]].target == quiver.arrows[ai].source]
            words += [w for w in level if rw.reduce({w: field.one}) == {w: field.one}]
        self.basis = [(v, ()) for v in range(1, quiver.n + 1)]
        self.basis += [(quiver.word_source(w), w) for w in words]
        self.basis.sort(key=lambda e: (len(e[1]), e[1], e[0]))
        self.basis_index = {e: k for k, e in enumerate(self.basis)}
        self.dim = len(self.basis)

    def _sweep_length_cutoff(self):
        """Every composable word of length N rewritten, and a nonzero residue
        added as a rule, until none is left."""
        q, rw = self.quiver, self.rewriter
        words = [()]
        for _ in range(self.N):
            words = [w + (ai,) for w in words for ai in range(len(q.arrows))
                     if not w or q.arrows[w[-1]].target == q.arrows[ai].source]
        for _ in range(20):
            changed = False
            for w in words:
                residue = rw.reduce({w: self.field.one})
                if residue and rw.add_rule_from(residue):
                    changed = True
            if not changed:
                return
            rw.complete()
        raise ValueError("relation/nilpotency completion did not stabilize")

    def mul_basis(self, i, j):
        (si, wi), (sj, wj) = self.basis[i], self.basis[j]
        target = si if not wi else self.quiver.word_target(wi)
        if target != sj:
            return {}
        if not wi + wj:
            return {i: self.field.one}
        return {self.basis_index[(si, w)]: c
                for w, c in self.rewriter.reduce({wi + wj: self.field.one}).items()}


def rewritten_opposite(pathalg, nilpotency=None):
    """The reference `RewrittenAlgebra` for opposite(pathalg): the reversed
    relations on the opposite quiver, cut at nilpotency (by default
    pathalg's bound)."""
    rels = [[(c, tuple(reversed(tuple(w)))) for c, w in rel] for rel in pathalg.relations]
    return RewrittenAlgebra(pathalg.field, opposite_quiver(pathalg.quiver), rels,
                            nilpotency or pathalg.N)


def matrix_algebra_2(field=QQ):
    """M_2(k) on the matrix units E11, E12, E21, E22, with the idempotents
    E11 and E22: isomorphic, so it is not basic, and rad = 0."""
    index = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    table = {(a, b): {index[(i, l)]: field.one}
             for (i, j), a in index.items() for (k, l), b in index.items() if j == k}
    o, z = field.one, field.zero
    return validated(table_algebra(field, table, [[o, z, z, z], [z, z, z, o]],
                                   [(i - 1, j - 1) for i, j in index]))


def dual_numbers(field=QQ):
    """k[x]/(x^2) on the basis 1, x, with its unit as the one idempotent."""
    o, z = field.one, field.zero
    return validated(table_algebra(field, {(0, 0): {0: o}, (0, 1): {1: o}, (1, 0): {1: o}}, [[o, z]]))


def mixed_a2(field=QQ):
    """A2's path algebra with the arrow a replaced by a + e1 in its basis, so
    that basis vector mixes two corners, while the supplied idempotents stay
    the trivial paths e1 and e2 and the layout puts b'_x in the corner of
    a."""
    a = structure_constants(a2_algebra(field))
    F = a.field
    trivial = [next(iter(e)) for e in a.idempotents]
    (x,) = [b for b in range(a.dim) if b not in trivial]
    mix = trivial[0]

    def to_old(w):  # new coordinates -> old: b'_x = b_x + b_mix
        v = list(w)
        v[mix] = F.add(v[mix], w[x])
        return v

    def to_new(v):
        w = list(v)
        w[mix] = F.sub(w[mix], v[x])
        return w

    table = {(i, j): dict(enumerate(to_new(mul(a, to_old(basis_vector(a, i)),
                                               to_old(basis_vector(a, j))))))
             for i in range(a.dim) for j in range(a.dim)}
    return validated(table_algebra(F, table, [to_new(dense(a, e)) for e in a.idempotents], a.grading()))


def ext_by_injectives(x, y, upto):
    """dim Ext^i(x, y) for i = 0..upto from a minimal injective coresolution
    0 -> y -> I^0 -> I^1 -> ... of y, built from left approximations by the
    injectives and cokernels: the cohomology of Hom(x, I^*).  Ext is
    balanced, so this is a route to Ext independent of projective
    resolutions."""
    algebra = y.algebra
    injectives = [SummandDecl(f"I{v}", injective(algebra, v))
                  for v in range(1, algebra.quiver.n + 1)]
    terms, diffs = [], []  # I^i, and d^i: I^i -> I^(i+1)
    cur, proj = y, None
    while len(terms) < upto + 2 and not cur.is_zero():
        u = left_approximation(cur, injectives, algebra).map
        if proj is not None:
            diffs.append(proj.compose(u))
        terms.append(u.target)
        cur, proj = cokernel(u)

    def hom_rank(i):  # rank of Hom(x, d^i)
        if i < 0 or i >= len(diffs):
            return 0
        source, target = hom_space(x, terms[i]), hom_space(x, terms[i + 1])
        cols = [hom_coordinates(target, phi.compose(diffs[i])) for phi in source]
        return rank(Matrix(x.algebra.field, len(target), len(cols),
                           [c[r] for r in range(len(target)) for c in cols]))

    return [len(hom_space(x, terms[i])) - hom_rank(i) - hom_rank(i - 1) if i < len(terms) else 0
            for i in range(upto + 1)]


def coordinate_approximating_subset(x, maps, summands, left):
    """`relative._minimal_approximating_subset` from coordinates: the block of
    (C, u_c) holds the coordinates, in the basis of Hom(C, x) (left:
    Hom(x, C)), of the composite maps "h then u_c" over h in Hom(C, M_c)
    (left: "u_c then h" over h in Hom(M_c, C)), followed by the same single
    greedy removal pass; a second route to the keep list."""
    F = x.algebra.field
    everything = range(len(maps))

    def onto(need, row, subset):
        glued = None
        for c in subset:
            if row[c].cols:
                glued = row[c] if glued is None else glued.hstack(row[c])
        return glued is not None and rank(glued) == need

    rows = []
    for s in summands:
        basis = hom_space(x, s.module) if left else hom_space(s.module, x)
        if not basis:
            continue
        if left:
            row = [_coordinate_matrix(F, basis, [u.compose(h) for h in hom_space(u.target, s.module)])
                   for u in maps]
        else:
            row = [_coordinate_matrix(F, basis, [h.compose(u) for h in hom_space(s.module, u.source)])
                   for u in maps]
        if not onto(len(basis), row, everything):
            return None
        rows.append((len(basis), row))
    keep = list(everything)
    for i in everything:
        trial = [j for j in keep if j != i]
        if all(onto(need, row, trial) for need, row in rows):
            keep = trial
    return keep


class DirectSum:
    """rep = `rep.direct_sum(parts)` with the injections and projections of
    its parts, built on first read: the coordinate inclusions and
    restrictions that `complexes` reads as index ranges of block matrices."""

    def __init__(self, parts, algebra=None):
        self.parts = list(parts)
        self.rep = direct_sum(self.parts, algebra)

    @cached_property
    def injections(self):
        F = self.rep.algebra.field
        dims = self.rep.dims
        offs = [0] * len(dims)
        out = []
        for p in self.parts:
            blocks = []
            for D, d, o in zip(dims, p.dims, offs):
                e = [F.zero] * (D * d)
                for t in range(d):
                    e[(o + t) * d + t] = F.one
                blocks.append(Matrix(F, D, d, e))
            out.append(ModuleMap(p, self.rep, blocks, check=False))
            offs = [o + d for o, d in zip(offs, p.dims)]
        return out

    @cached_property
    def projections(self):
        """The transposes of the injections."""
        return [ModuleMap(self.rep, i.source, [m.transpose() for m in i.mats], check=False)
                for i in self.injections]


# ---------------------------------------------------------------------------
# sums, cones and radical normalization by composing whole maps with the
# injections and projections of `DirectSum`: the routes that `complexes`
# replaced by building and slicing block matrices


def composed_sum_complexes(xs, algebra=None):
    """⊕xs, each differential the sum of the summands' differentials moved
    along the projections and injections."""
    if algebra is None:
        algebra = xs[0].algebra
    degrees = sorted({i for x in xs for i in x.degrees()})
    sums = {i: DirectSum([x.component(i) for x in xs], algebra) for i in degrees}
    parts = {i: [p for x in xs for p in x.parts.get(i, []) if not p.module.is_zero()]
             for i in degrees}
    diffs = {}
    for i in degrees:
        if (i + 1) not in sums:
            continue
        total = ModuleMap.zero(sums[i].rep, sums[i + 1].rep)
        for k, x in enumerate(xs):
            total = total + sums[i].projections[k].compose(x.differential(i)).compose(
                sums[i + 1].injections[k])
        diffs[i] = total
    return Complex(algebra, {i: ds.rep for i, ds in sums.items()}, diffs, parts=parts)


def composed_cone(f):
    """(M(f), alpha, beta): the mapping cone M(f)^i = X^{i+1} ⊕ Y^i with the
    canonical maps alpha: Y -> M(f) and beta: M(f) -> X[1], each validated."""
    X, Y = f.source, f.target
    algebra = X.algebra
    minus = algebra.field.of_int(-1)
    degrees = sorted({i - 1 for i in X.comps} | set(Y.comps))
    sums = {i: DirectSum([X.component(i + 1), Y.component(i)], algebra) for i in degrees}
    parts = {i: [Part(p.label + "[1]", p.module) for p in X.parts.get(i + 1, [])]
             + Y.parts.get(i, []) for i in degrees}
    diffs = {}
    for i in degrees:
        if (i + 1) not in sums:
            continue
        src, tgt = sums[i], sums[i + 1]
        d = ModuleMap.zero(src.rep, tgt.rep)
        d = d + src.projections[0].compose(X.differential(i + 1)).scale(minus).compose(tgt.injections[0])
        d = d + src.projections[0].compose(f.component(i + 1)).compose(tgt.injections[1])
        d = d + src.projections[1].compose(Y.differential(i)).compose(tgt.injections[1])
        diffs[i] = d
    M = Complex(algebra, {i: ds.rep for i, ds in sums.items()}, diffs, parts=parts)
    alpha = ChainMap(Y, M, {i: sums[i].injections[1] for i in M.comps if i in Y.comps})
    x1 = shift_complex(X, 1)
    beta = ChainMap(M, x1, {i: sums[i].projections[0] for i in M.comps if i in x1.comps})
    return M, alpha.validate(), beta.validate()


def _block(d, src, tgt, s, t):
    """The block part s -> part t of d: src -> tgt (DirectSums)."""
    return src.injections[s].compose(d).compose(tgt.projections[t])


def composed_radical_normalize(x):
    """`complexes.radical_normalize` with each block extracted, and each
    Gaussian elimination assembled, by composing with injections and
    projections, in the same search order."""
    while True:
        sums = {i: DirectSum([p.module for p in x.parts[i]], x.algebra) for i in x.degrees()}
        hit = next(((i, s, t) for i in x.degrees() if (i + 1) in x.comps
                    for s, ps in enumerate(x.parts[i]) for t, pt in enumerate(x.parts[i + 1])
                    if ps.module.dims == pt.module.dims
                    and _block(x.differential(i), sums[i], sums[i + 1], s, t).is_isomorphism()),
                   None)
        if hit is None:
            return x
        x = _composed_eliminate(x, sums, *hit)


def _composed_eliminate(x, sums, i, s, t):
    d = x.differential(i)
    blk = _block(d, sums[i], sums[i + 1], s, t)
    inv = ModuleMap(blk.target, blk.source, [inverse(m) for m in blk.mats], check=False)
    keep_i = [k for k in range(len(x.parts[i])) if k != s]
    keep_j = [k for k in range(len(x.parts[i + 1])) if k != t]
    parts = dict(x.parts)
    parts[i] = [x.parts[i][k] for k in keep_i]
    parts[i + 1] = [x.parts[i + 1][k] for k in keep_j]
    ds_i = DirectSum([p.module for p in parts[i]], x.algebra)
    ds_j = DirectSum([p.module for p in parts[i + 1]], x.algebra)
    comps, diffs = dict(x.comps), dict(x.diffs)
    comps[i], comps[i + 1] = ds_i.rep, ds_j.rep
    mid = ModuleMap.zero(ds_i.rep, ds_j.rep)
    for a, ka in enumerate(keep_i):
        gamma = _block(d, sums[i], sums[i + 1], ka, t)
        for b, kb in enumerate(keep_j):
            alpha = _block(d, sums[i], sums[i + 1], ka, kb)
            beta = _block(d, sums[i], sums[i + 1], s, kb)
            mid = mid + ds_i.projections[a].compose(
                alpha - gamma.compose(inv).compose(beta)).compose(ds_j.injections[b])
    diffs[i] = mid
    if (i - 1) in x.diffs:
        acc = ModuleMap.zero(x.comps[i - 1], ds_i.rep)
        for a, ka in enumerate(keep_i):
            acc = acc + x.diffs[i - 1].compose(sums[i].projections[ka]).compose(ds_i.injections[a])
        diffs[i - 1] = acc
    if (i + 1) in x.diffs:
        acc = ModuleMap.zero(ds_j.rep, x.comps[i + 2])
        for b, kb in enumerate(keep_j):
            acc = acc + ds_j.projections[b].compose(sums[i + 1].injections[kb]).compose(x.diffs[i + 1])
        diffs[i + 1] = acc
    return Complex(x.algebra, comps, diffs, parts=parts)


def image(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    cols = [column_space_basis(f.mats[v]) for v in range(len(f.mats))]
    return _induced_sub(f.target, cols)


def inverse_cokernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """target/im(f) with its projection, as `rep.cokernel` built it before it
    read the projection off one elimination: at each vertex a basis B of
    im f_v (its pivot columns), the identity columns C completing it, and
    the projection as the rows of [B | C]^-1 past B; the reference for
    the cokernel."""
    F = f.source.algebra.field
    q = f.source.algebra.quiver
    projs, sections, dims = [], [], []
    for v in range(q.n):
        B = column_space_basis(f.mats[v])
        comp = complement_columns(B)
        dims.append(len(comp))
        n = f.target.dims[v]
        sections.append(Matrix.identity(F, n).select_columns(comp))
        if n == 0:
            projs.append(Matrix(F, 0, 0, []))
            continue
        inv = inverse(B.hstack(sections[-1]))
        projs.append(inv.submatrix(range(B.cols, n), range(n)))
    mats = [projs[a.target - 1] * f.target.mats[ai] * sections[a.source - 1]
            for ai, a in enumerate(q.arrows)]
    quot = Representation(f.source.algebra, dims, mats, check=False)
    return quot, ModuleMap(f.target, quot, projs)


def ses_from_sub(m: Representation, incl: ModuleMap) -> ShortExactSeq:
    """0 -> sub -> m -> m/sub -> 0 for a submodule inclusion."""
    return ShortExactSeq(incl, cokernel(incl)[1])


def is_f_quasi_iso(h: ChainMap, f: SubbifunctorF) -> bool:
    return is_f_acyclic(cone(h), f)


def pushout_ses(ses: ShortExactSeq, h: ModuleMap) -> ShortExactSeq:
    """Pushout of 0 -> A -> B -> C -> 0 along h: A -> A'."""
    a = ses.f.source
    aprime = h.target
    ds = DirectSum([aprime, ses.middle])
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


def f_acyclic_definitional(x: Complex, f: SubbifunctorF) -> bool:
    """Lemma-style check: exact, and each 0 -> Im d^{i-1} -> X^i -> Im d^i -> 0
    is F-exact; a second route to `complexes.is_f_acyclic`."""
    for i in x.degrees():
        d_out = x.differential(i)
        d_in = x.differential(i - 1)
        img_in, incl_in = image(d_in)
        ker_out, _ = kernel(d_out)
        if img_in.total_dim != ker_out.total_dim:
            return False
        for v in range(x.algebra.quiver.n):
            if solve(kernel_basis(d_out.mats[v]), incl_in.mats[v]) is None:
                return False
        img_out, incl_out = image(d_out)
        # corestriction X^i -> Im d^i
        mats = []
        for v in range(x.algebra.quiver.n):
            coef = solve(incl_out.mats[v], d_out.mats[v])
            if coef is None:
                return False
            mats.append(coef)
        co = ModuleMap(x.comps[i], img_out, mats)
        try:
            ses = ShortExactSeq(incl_in, co)
        except ValueError:
            return False
        if not is_f_exact(ses, f):
            return False
    return True


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


def null_homotopy_witness(hh: HomotopyHom, cm_comps: dict[int, ModuleMap]) -> Homotopy | None:
    """If the given cycle is null-homotopic, produce the witnessing s maps."""
    F = hh.field
    v = hh.chain_map_to_vector(cm_comps)
    coeff = solve(hh.d_in, Matrix(F, len(v), 1, v))
    if coeff is None:
        return None
    # D at level n-1 differs from the homotopy identity by a global sign on odd n
    sign = F.of_int(-1 if hh.n % 2 else 1)
    s: dict[int, ModuleMap] = {}
    for i, (basis, off) in hh.homotopies.items():
        if not basis:
            continue
        coeffs = [F.mul(sign, coeff.at(off + k, 0)) for k in range(len(basis))]
        acc = ModuleMap.combination(basis[0].source, basis[0].target, coeffs, basis)
        if not acc.is_zero():
            s[i] = acc
    hom = Homotopy(hh.vector_to_chain_map(v), hh.n, s)
    return hom.validate()


# ---------------------------------------------------------------------------
# derived hom via F-projective replacement: Hom_{D_F}(X, Y[n]) as hom_k after
# replacing X by a complex of add(G) objects; on stalks it is Ext_F, which
# `relative.ext_f` counts from Hom dimensions


def resolution_diffs(res: FResolution) -> list[ModuleMap]:
    """The differentials P^{-i} -> P^{-i+1}, i >= 1, of an F-resolution:
    each approximation followed by the inclusion of the previous kernel."""
    apps = res.approximations
    return [apps[i].map.compose(apps[i - 1].kernel[1]) for i in range(1, len(apps))]


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
    for k, d in enumerate(resolution_diffs(res)):
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
                    parts={i: pl for i, pl in x.parts.items() if i > m})
    r_b = build_replacement(upper, f, depth)
    res_a = f_resolution(x.comps[m], f, depth)
    rep_a = resolution_as_complex(res_a, m + 1, f)
    # g: R_A -> upper via the bottom differential, itself a chain map
    # from the stalk of X^m in degree m + 1
    ChainMap(stalk_complex(x.comps[m], m + 1), upper, {m + 1: x.differential(m)}).validate()
    g = ChainMap(rep_a.complex, upper,
                 {m + 1: rep_a.to_target.component(m + 1).compose(x.differential(m))}).validate()
    lifted, failed_at = lift_through(r_b.to_target, g)
    M = cone(lifted)
    # augmentation: diag(eps_A shifted, eps_B)
    comps = {}
    for i in M.degrees():
        a_part = rep_a.complex.component(i + 1)
        b_part = r_b.complex.component(i)
        ds = DirectSum([a_part, b_part], x.algebra)
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


# ---------------------------------------------------------------------------
# full loops over every vertex and arrow, zero blocks included: the references
# for the representation kernels, which keep to the support of a module


def full_loop_intertwines(source: Representation, target: Representation, mats) -> bool:
    """Do the vertex blocks mats intertwine every arrow?  Each difference
    T_a·f_i - f_j·S_a is built and tested, empty ones included."""
    return all((target.mats[ai] * mats[a.source - 1] - mats[a.target - 1] * source.mats[ai]).is_zero()
               for ai, a in enumerate(source.algebra.quiver.arrows))


def _full_loop_sub(m: Representation, cols: list[Matrix]) -> tuple[Representation, ModuleMap]:
    """The sub of m on the column spaces cols, with every arrow solved."""
    mats = [solve(cols[a.target - 1], m.mats[ai] * cols[a.source - 1])
            for ai, a in enumerate(m.algebra.quiver.arrows)]
    sub = Representation(m.algebra, [c.cols for c in cols], mats, check=False)
    return sub, ModuleMap(sub, m, cols, check=False)


def full_loop_kernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    return _full_loop_sub(f.source, [kernel_basis(a) for a in f.mats])


def full_loop_radical(m: Representation) -> tuple[Representation, ModuleMap]:
    return _full_loop_sub(m, [column_space_basis(rep._arrows_at(m, v)) for v in range(len(m.dims))])


def full_loop_top_columns(m: Representation) -> list[tuple[int, int]]:
    return [(v, j) for v in range(len(m.dims)) for j in complement_columns(rep._arrows_at(m, v))]


def full_loop_socle_rows(m: Representation) -> list[tuple[int, int]]:
    return [(v, j) for v in range(len(m.dims))
            for j in complement_columns(rep._arrows_at(m, v, into=False).transpose())]


def full_loop_hom_space(m: Representation, n: Representation) -> list[ModuleMap]:
    """Hom(m, n) by the intertwining solve, with one row for each entry of
    every arrow's equation and every vertex block read off each kernel
    vector, in the canonical form of `rep.hom_space`."""
    F = m.algebra.field
    sizes = [t * s for t, s in zip(n.dims, m.dims)]
    offsets = [sum(sizes[:v]) for v in range(len(sizes))]
    rows = []
    for ai, a in enumerate(m.algebra.quiver.arrows):
        i, j = a.source - 1, a.target - 1
        for u in range(n.dims[j]):
            for c in range(m.dims[i]):
                row = [0] * sum(sizes)
                for w in range(n.dims[i]):
                    row[offsets[i] + w * m.dims[i] + c] += n.mats[ai].at(u, w)
                for w in range(m.dims[j]):
                    row[offsets[j] + u * m.dims[j] + w] -= m.mats[ai].at(w, c)
                rows.append(_normal(row, F.p))
    K = kernel_basis(Matrix(F, len(rows), sum(sizes), [x for r in rows for x in r]))
    return [ModuleMap(m, n, [Matrix(F, n.dims[v], m.dims[v], K.col(c)[o:o + sizes[v]])
                             for v, o in enumerate(offsets)], check=False)
            for c in range(K.cols)]


def full_loop_direct_sum(parts: list[Representation], algebra: PathAlgebra) -> Representation:
    """⊕parts, each arrow matrix filled block by block."""
    F = algebra.field
    dims = [sum(p.dims[v] for p in parts) for v in range(algebra.quiver.n)]
    mats = []
    for ai, a in enumerate(algebra.quiver.arrows):
        rows, cols = dims[a.target - 1], dims[a.source - 1]
        e, r0, c0 = [F.zero] * (rows * cols), 0, 0
        for p in parts:
            b = p.mats[ai]
            for r in range(b.rows):
                e[(r0 + r) * cols + c0:(r0 + r) * cols + c0 + b.cols] = b.row(r)
            r0, c0 = r0 + b.rows, c0 + b.cols
        mats.append(Matrix(F, rows, cols, e))
    return Representation(algebra, dims, mats, check=False)


def full_loop_stack_maps(maps: list[ModuleMap], x: Representation, into: bool = False) -> ModuleMap:
    """The maps M_k -> x side by side, (⊕M_k) -> x, or with into the maps
    x -> M_k stacked, x -> (⊕M_k), filled block by block at every vertex."""
    F = x.algebra.field
    total = full_loop_direct_sum([f.target if into else f.source for f in maps], x.algebra)
    mats = []
    for v in range(len(x.dims)):
        rows, cols = (total.dims[v], x.dims[v]) if into else (x.dims[v], total.dims[v])
        e, o = [F.zero] * (rows * cols), 0
        for f in maps:
            b = f.mats[v]
            for r in range(b.rows):
                start = (o + r) * cols if into else r * cols + o
                e[start:start + b.cols] = b.row(r)
            o += b.rows if into else b.cols
        mats.append(Matrix(F, rows, cols, e))
    return ModuleMap(x, total, mats, check=False) if into else ModuleMap(total, x, mats, check=False)


# ---------------------------------------------------------------------------
# the command line read by argparse, the reference for `cli.parse_args`


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1; subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(cli.EXIT_INPUT, f"{self.prog}: error: {message}\n")


class _ExtValues(argparse.Action):
    """--ext X Y I, with the degree I read as an int."""

    def __call__(self, parser, namespace, values, option_string=None):
        x, y, degree = values
        try:
            setattr(namespace, self.dest, [x, y, int(degree)])
        except ValueError:
            raise argparse.ArgumentError(self, f"invalid int value: {degree!r}") from None


def argparse_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="relhomalg",
        description="relative homological algebra over finite-dimensional quiver algebras")
    p.add_argument("--cutoff", type=int, default=None,
                   help="dimension cutoff (default: the file's, else 10)")
    p.add_argument("--field", default=None, help="field override: q or fp:P")
    p.add_argument("--report", default=None, help="write a JSON report to PATH")
    p.add_argument("--quiet", action="store_true", help="suppress human output")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("algebra", help="build the algebra and dump its basis")
    pa.add_argument("file")
    pa.add_argument("--canonical", action="store_true",
                    help="print the canonical form of the input file")
    pa.set_defaults(fn=cli.cmd_algebra)

    pm = sub.add_parser("module", help="module dimensions, resolutions and ext")
    pm.add_argument("file")
    pm.add_argument("--name", default=None)
    pm.add_argument("--ext", nargs=3, metavar=("X", "Y", "I"), default=None, action=_ExtValues)
    pm.set_defaults(fn=cli.cmd_module)

    pr = sub.add_parser("relhom", help="F-exactness, resolutions, I(F), gldim_F")
    pr.add_argument("sub", choices=["ifset", "gldim", "resolve", "exact"])
    pr.add_argument("file")
    pr.add_argument("--module", default=None)
    pr.set_defaults(fn=cli.cmd_relhom)

    pc = sub.add_parser("complex", help="cones, hom_k, acyclicity, term length")
    pc.add_argument("sub", choices=["termlength", "acyclic", "cone", "homk"])
    pc.add_argument("file")
    pc.add_argument("--complex", required=True)
    pc.add_argument("--to", default=None)
    pc.add_argument("--window", type=int, default=None)
    pc.set_defaults(fn=cli.cmd_complex)

    pt = sub.add_parser("tilting", help="verify the F-tilting declaration and dump End")
    pt.add_argument("file")
    pt.add_argument("--sigma", action="store_true",
                    help="also compare hom windows with the image complex over End(G)")
    pt.set_defaults(fn=cli.cmd_tilting)

    pb = sub.add_parser("bounds", help="theorem73 / cor710 / counts / gorenstein")
    pb.add_argument("sub", choices=["theorem73", "cor710", "counts", "gorenstein"])
    pb.add_argument("file")
    pb.set_defaults(fn=cli.cmd_bounds)
    return p
