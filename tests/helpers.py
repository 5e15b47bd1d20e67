"""Shared constructions for the test suite: the worked algebras."""

from relhomalg.algebra import AbstractAlgebra
from relhomalg.fields import QQ
from relhomalg.matrix import Matrix, rank
from relhomalg.quiver import PathAlgebra, Quiver
from relhomalg.relative import SummandDecl, left_approximation
from relhomalg.rep import cokernel, hom_coordinates, hom_space, injective, projective, socle


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


def nakayama_problem(n, length):
    """Problem file (as a dict) for the n-cycle with every path of length
    `length` zero: G = the projectives and the simples, the corpus every
    uniserial U{i}_{k} = P_i / rad^k P_i."""
    arrows = [[f"a{v}", v, v % n + 1] for v in range(1, n + 1)]
    modules, corpus = {}, []
    for v in range(1, n + 1):
        modules[f"P{v}"] = {"projective": v}
        corpus.append(f"P{v}")
        for k in range(1, length):
            modules[f"U{v}_{k}"] = {"quotient_by_radical_power": [f"P{v}", k]}
            corpus.append(f"U{v}_{k}")
    return {
        "schema": "relhomalg/1",
        "field": "Q",
        "cutoff": 6,
        "quiver": {"vertices": n, "arrows": arrows},
        "relations": [[["1", [arrows[(v + s) % n][0] for s in range(length)]]]
                      for v in range(n)],
        "nilpotency": length,
        "modules": modules,
        "generator": [f"P{v}" for v in range(1, n + 1)] + [f"U{v}_1" for v in range(1, n + 1)],
        "corpus": corpus,
        "corpus_complete": True,
    }


def structure_constants(pathalg):
    """pathalg as an AbstractAlgebra whose left modules are its
    representations: b_i * b_j is (path j) followed by (path i), and the
    supplied idempotents are the trivial paths."""
    F = pathalg.field
    d = pathalg.dim
    table = {(i, j): pathalg.mul_basis(j, i) for i in range(d) for j in range(d)}
    trivial = [pathalg.trivial_path(v) for v in range(1, pathalg.quiver.n + 1)]

    def vector(ks):
        return [F.one if k in ks else F.zero for k in range(d)]

    return AbstractAlgebra(F, d, table, vector(trivial),
                           idempotents=[vector({k}) for k in trivial], validate=False)


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
        u, ds, _ = left_approximation(cur, injectives, algebra)
        if proj is not None:
            diffs.append(proj.compose(u))
        terms.append(ds.rep)
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
