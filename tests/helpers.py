"""Shared constructions for the test suite: the worked algebras."""

from relhomalg.fields import QQ
from relhomalg.quiver import Quiver, build_algebra
from relhomalg.rep import projective, socle, cokernel


def cycle3_selfinjective(field=QQ):
    """3-cycle with all length-3 paths zero: self-injective Nakayama, dim 9."""
    q = Quiver(3, [("a", 1, 2), ("b", 2, 3), ("c", 3, 1)])
    one = field.one
    rels = [
        [(one, (0, 1, 2))],  # a b c
        [(one, (1, 2, 0))],  # b c a
        [(one, (2, 0, 1))],  # c a b
    ]
    return build_algebra(field, q, rels, 3)


def cycle3_verbatim(field=QQ):
    """3-cycle with the mixed-length relation word abc = bcab = cabc = 0."""
    q = Quiver(3, [("a", 1, 2), ("b", 2, 3), ("c", 3, 1)])
    one = field.one
    rels = [
        [(one, (0, 1, 2))],
        [(one, (1, 2, 0, 1))],
        [(one, (2, 0, 1, 2))],
    ]
    return build_algebra(field, q, rels, 4)


def a2_algebra(field=QQ):
    q = Quiver(2, [("a", 1, 2)])
    return build_algebra(field, q, [], 2)


def loop_dual_numbers(field=QQ):
    """k[x]/(x^2) as a one-vertex one-loop quiver."""
    q = Quiver(1, [("x", 1, 1)])
    return build_algebra(field, q, [], 2)


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
