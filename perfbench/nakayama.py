"""Seeded problem files for the cyclic Nakayama family, and their expected
Hom dimensions computed without the program.

The algebra is the n-cycle 1 -> 2 -> ... -> n -> 1 with every path of length
L set to zero. Its indecomposables are the uniserials U(i, k) = P_i / rad^k P_i
for 1 <= k <= L: top S_i, composition factors at i, i+1, ..., i+k-1.

A seed only relabels: it rotates the vertex labels and shuffles the order in
which modules, the generator and the corpus are declared. The problem is the
same up to isomorphism, so every verdict and value is the same for every seed.
"""

from __future__ import annotations

import random


def uniserial_hom_dim(n: int, top_x: int, len_x: int, top_y: int, len_y: int) -> int:
    """dim Hom(U(top_x, len_x), U(top_y, len_y)) over the n-cycle.

    A map between uniserials is determined up to scalars by the length l of
    its image, a quotient of X (top top_x) that is also a submodule of Y
    (socle top_y + len_y - 1, so top top_y + len_y - l). Maps of different
    image lengths are independent, so the dimension counts the admissible l.
    """
    return sum(1 for l in range(1, min(len_x, len_y) + 1)
               if (top_y + len_y - l - top_x) % n == 0)


def uniserials(n: int, length: int) -> list[tuple[int, int]]:
    """Every indecomposable as (top vertex, length), vertices 0-based."""
    return [(v, k) for v in range(n) for k in range(1, length + 1)]


def gamma_dim(n: int, summands: list[tuple[int, int]]) -> int:
    """dim End(G) for G the direct sum of the given uniserials."""
    return sum(uniserial_hom_dim(n, vx, kx, vy, ky)
               for vx, kx in summands for vy, ky in summands)


class Labels:
    """The seed's relabelling: vertex v (0-based) gets label (v + shift) % n + 1."""

    def __init__(self, n: int, length: int, seed: int):
        self.rnd = random.Random(seed)
        self.n, self.length = n, length
        self.shift = self.rnd.randrange(n)

    def vertex(self, v: int) -> int:
        return (v + self.shift) % self.n + 1

    def arrow(self, v: int) -> str:
        return f"a{self.vertex(v)}"

    def module(self, v: int, k: int) -> str:
        return f"P{self.vertex(v)}" if k == self.length else f"U{self.vertex(v)}_{k}"


def names(n: int, length: int, seed: int) -> dict[str, tuple[int, int]]:
    """Module name -> (label - 1 of its top, length), as ``problem`` names them."""
    lab = Labels(n, length, seed)
    return {lab.module(v, k): (lab.vertex(v) - 1, k) for v, k in uniserials(n, length)}


def problem(n: int, length: int, generator: list[tuple[int, int]],
            seed: int, tilting: bool) -> dict:
    """The problem file for the n-cycle with length-L paths zero.

    The corpus is every uniserial. With ``tilting`` the file declares
    T = (+)G as stalk complexes in degree 0.
    """
    lab = Labels(n, length, seed)
    rnd, label, arrow, name = lab.rnd, lab.vertex, lab.arrow, lab.module

    def spec(v: int, k: int) -> dict:
        if k == length:
            return {"projective": label(v)}
        return {"quotient_by_radical_power": [f"P{label(v)}", k]}

    corpus = uniserials(n, length)
    modules = list(corpus)
    rnd.shuffle(modules)
    gen = list(generator)
    rnd.shuffle(gen)
    order = list(corpus)
    rnd.shuffle(order)
    data = {
        "schema": "relhomalg/1",
        "field": "Q",
        "cutoff": 8,
        "quiver": {"vertices": n,
                   "arrows": [[arrow(v), label(v), label(v + 1)] for v in range(n)]},
        "relations": [[["1", [arrow(v + s) for s in range(length)]]] for v in range(n)],
        "nilpotency": length,
        "modules": {name(v, k): spec(v, k) for v, k in modules},
        "generator": [name(v, k) for v, k in gen],
        "corpus": [name(v, k) for v, k in order],
        "corpus_complete": True,
    }
    if tilting:
        parts = [f"T{name(v, k)}" for v, k in gen]
        data["complexes"] = {f"T{name(v, k)}": {"stalk": name(v, k), "degree": 0}
                             for v, k in gen}
        data["complexes"]["T"] = {"sum": parts}
        data["tilting"] = {
            "complex": "T",
            "summands": parts,
            "summand_count": len(parts),
            "witnesses": [{"summand": {"module": name(v, k), "degree": 0,
                                       "of": f"T{name(v, k)}"}} for v, k in gen],
        }
        data["checks"] = ["theorem73"]
    return data


def projectives_and_simples(n: int, length: int, skip_first_simple: bool) -> list[tuple[int, int]]:
    """Projectives plus simples S_2..S_n (or all simples)."""
    first = 1 if skip_first_simple else 0
    return [(v, length) for v in range(n)] + [(v, 1) for v in range(first, n)]
