"""Path algebras kQ/I with admissible relations, by bounded confluent rewriting.

A word is a tuple of arrow indices (left-to-right composition: the word
(a, b) means "a then b").  The ideal presented is <relations> + J^N where J
is the arrow ideal; the nilpotency bound N makes every basis enumeration
finite.  Basis elements are the irreducible words of length < N together
with the trivial paths, ordered by (length, word).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


class Quiver:
    def __init__(self, n_vertices: int, arrows: list[tuple[str, int, int]]):
        if n_vertices < 1:
            raise ValueError("quiver needs at least one vertex")
        self.n = n_vertices
        self.arrows = []
        seen = set()
        for name, s, t in arrows:
            if not (1 <= s <= n_vertices and 1 <= t <= n_vertices):
                raise ValueError(f"arrow {name}: endpoints out of range")
            if name in seen:
                raise ValueError(f"duplicate arrow name {name}")
            seen.add(name)
            self.arrows.append(Arrow(name, s, t))
        self.arrow_index = {a.name: i for i, a in enumerate(self.arrows)}

    def word_source(self, word: tuple[int, ...]) -> int:
        return self.arrows[word[0]].source

    def word_target(self, word: tuple[int, ...]) -> int:
        return self.arrows[word[-1]].target

    def composable(self, word: tuple[int, ...]) -> bool:
        return all(self.arrows[word[k]].target == self.arrows[word[k + 1]].source
                   for k in range(len(word) - 1))

    def opposite(self) -> "Quiver":
        return Quiver(self.n, [(a.name, a.target, a.source) for a in self.arrows])


def _word_key(w: tuple[int, ...]):
    return (len(w), w)


class _Rewriter:
    """Confluent rewriting for word combos, with the J^N cutoff built in: each
    rule rewrites its leading word L to the combination rules[L]."""

    def __init__(self, field: Field, nilpotency: int):
        self.field = field
        self.N = nilpotency
        self.rules: dict[tuple[int, ...], dict] = {}

    def reduce(self, combo: dict) -> dict:
        F = self.field
        rules = self.rules
        out: dict = {}
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

    def add_rule_from(self, combo: dict) -> bool:
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
                        diff: dict = {}
                        for R, u, v, sign in ((R1, u1, v1, F.one), (R2, u2, v2, F.neg(F.one))):
                            for w, c in R.items():
                                diff[u + w + v] = F.add(diff.get(u + w + v, F.zero), F.mul(sign, c))
                        if self.add_rule_from(diff):
                            changed = True


class PathAlgebra:
    """Finite-dimensional quotient kQ/(I + J^N) with an explicit basis and
    multiplication table.

    Basis elements are (source_vertex, word) with word a tuple of arrow
    indices; trivial paths have the empty word.
    """

    def __init__(self, field: Field, quiver: Quiver, relations, nilpotency: int,
                 groebner: tuple[list, list] | None = None):
        """The relations modulo J^N, completed into rewriting rules whose
        irreducible words are the basis.  groebner = (rules, words), a reduced
        Gröbner basis of that ideal for the rewriter's order, each rule
        [(1, w), (c, u), ...] with leading word w, and its irreducible words
        of length 1..N-1, is taken as it is; the caller proves it (see
        `algebra.AbstractAlgebra.certify_presentation`)."""
        if nilpotency < 2:
            raise ValueError("nilpotency bound must be at least 2")
        self.field = field
        self.quiver = quiver
        self.N = nilpotency
        self.relations = relations
        self._opposite: PathAlgebra | None = None

        rw = _Rewriter(field, nilpotency)
        if groebner is None:
            for rel in filter(None, relations):
                combo: dict = {}
                for coeff, word in rel:
                    w = tuple(word)
                    if len(w) < 2:
                        raise ValueError("non-admissible relation: path of length < 2")
                    if not quiver.composable(w):
                        raise ValueError(f"relation word not composable: {w}")
                    combo[w] = field.add(combo.get(w, field.zero), coeff)
                if len({(quiver.word_source(w), quiver.word_target(w)) for w in combo}) != 1:
                    raise ValueError("relation mixes non-parallel paths")
                rw.add_rule_from(combo)
            rw.complete()
            self._ensure_length_cutoff_consistent(rw)
            words, level = [], [()]
            for _ in range(nilpotency - 1):
                level = [w + (ai,) for w in level for ai in range(len(quiver.arrows))
                         if not w or quiver.arrows[w[-1]].target == quiver.arrows[ai].source]
                words += [w for w in level if rw.reduce({w: field.one}) == {w: field.one}]
        else:
            rules, words = groebner
            rw.rules = {tuple(rule[0][1]): {tuple(w): field.neg(c) for c, w in rule[1:]}
                        for rule in rules}
        self.rewriter = rw

        self.basis: list[tuple[int, tuple[int, ...]]] = [(v, ()) for v in range(1, quiver.n + 1)]
        self.basis += [(quiver.word_source(w), w) for w in words]
        self.basis.sort(key=lambda e: (len(e[1]), e[1], e[0]))
        self.basis_index = {e: k for k, e in enumerate(self.basis)}
        self.dim = len(self.basis)

        self._mul_table: dict[tuple[int, int], dict[int, object]] = {}
        # Representations over this algebra, one object per content (dims and
        # arrow-matrix entries, see rep.Representation), and the projective
        # and injective at each vertex and the left multiplication map of
        # each arrow, keyed (kind, vertex or arrow index).  Insert-only.
        self.modules: dict = {}
        self.vertex_modules: dict[tuple[str, int], object] = {}
        self.ordinary = None  # relative.ordinary_f (G = the projectives), built once

    def _ensure_length_cutoff_consistent(self, rw: _Rewriter):
        """Every composable word of length N must rewrite to something of
        length >= N or to 0 under the relation rules; otherwise the J^N
        truncation would disagree with the relation ideal and we add the
        residue as an extra rule."""
        q = self.quiver
        words = [()]
        for _ in range(self.N):
            words = [w + (ai,) for w in words for ai in range(len(q.arrows))
                     if not w or q.arrows[w[-1]].target == q.arrows[ai].source]
            if len(words) > 200000:
                raise ValueError("nilpotency sweep too large; lower N or simplify relations")
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

    # -- elements ---------------------------------------------------------

    def element_target(self, k: int) -> int:
        src, word = self.basis[k]
        return src if not word else self.quiver.word_target(word)

    def trivial_path(self, v: int) -> int:
        return self.basis_index[(v, ())]

    def arrow_element(self, ai: int) -> int:
        a = self.quiver.arrows[ai]
        return self.basis_index[(a.source, (ai,))]

    def reduce_word(self, src: int, word: tuple[int, ...]) -> dict[int, object]:
        """Image of a word in the basis, as index -> coeff."""
        if not word:
            return {self.trivial_path(src): self.field.one}
        combo = self.rewriter.reduce({tuple(word): self.field.one})
        return {self.basis_index[(src, w)]: c for w, c in combo.items()}

    def mul_basis(self, i: int, j: int) -> dict[int, object]:
        """Product basis_i * basis_j in diagrammatic order (i then j)."""
        key = (i, j)
        cached = self._mul_table.get(key)
        if cached is not None:
            return cached
        si, wi = self.basis[i]
        sj, wj = self.basis[j]
        if self.element_target(i) != sj:
            out: dict[int, object] = {}
        else:
            out = self.reduce_word(si, wi + wj)
        self._mul_table[key] = out
        return out

    def mul(self, x: dict[int, object], y: dict[int, object]) -> dict[int, object]:
        F = self.field
        out: dict[int, object] = {}
        for i, ci in x.items():
            if F.is_zero(ci):
                continue
            for j, cj in y.items():
                c = F.mul(ci, cj)
                for k, ck in self.mul_basis(i, j).items():
                    out[k] = F.add(out.get(k, F.zero), F.mul(c, ck))
        return {k: c for k, c in out.items() if not F.is_zero(c)}

    # -- opposite ----------------------------------------------------------

    def opposite(self) -> "PathAlgebra":
        if self._opposite is None:
            rels = []
            for rel in self.relations:
                rels.append([(c, tuple(reversed(tuple(w)))) for c, w in rel])
            op = PathAlgebra(self.field, self.quiver.opposite(), rels, self.N)
            op._opposite = self
            self._opposite = op
        return self._opposite

    def __repr__(self):
        return f"PathAlgebra(n={self.quiver.n}, arrows={len(self.quiver.arrows)}, dim={self.dim})"


def irredundant_relations(field: Field, relations, nilpotency: int) -> list:
    """The relations, in order, that the ones kept before them do not imply
    modulo J^N: each is reduced by the completed rules of those kept, and
    dropped when it reduces to 0.  Reductions stay in the ideal, so the kept
    relations generate the same ideal."""
    rw = _Rewriter(field, nilpotency)
    kept = []
    for rel in relations:
        combo: dict = {}
        for coeff, word in rel:
            combo[tuple(word)] = field.add(combo.get(tuple(word), field.zero), coeff)
        if rw.add_rule_from(combo):
            kept.append(rel)
            rw.complete()
    return kept
