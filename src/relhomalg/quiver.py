"""Path algebras kQ/I with admissible relations, built by linear algebra.

A word is a tuple of arrow indices (left-to-right composition: the word
(a, b) means "a then b").  The ideal presented is I + J^N, J the arrow
ideal.  The basis is the trivial paths and the normal words of length < N
(`_normal_words`), ordered by (length, word), and a product is read off its
image.  A model gives the images: the residue modulo the relations
(`_relations_model`), or the product of arrow lifts in an algebra given by
structure constants (`algebra.AbstractAlgebra.presentation`).

The sparse, labelled echelon form here (`_Echelon`, filled by `_add` and
read by `_reduce` and `_span`) is the program's one incremental
elimination: every routine that adds vectors one at a time to decide
independence or read coordinates uses it, and the dense `matrix.rref`
serves kernels and solves.
"""

from __future__ import annotations

from typing import NamedTuple

from .fields import Field


class Arrow(NamedTuple):
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


MAX_WORDS = 200000  # composable words of length < N a relations model may have


def _word_key(w: tuple[int, ...]):
    return (len(w), w)


def _axpy(F: Field, y: dict, c, x: dict) -> dict:
    """y += c·x for sparse vectors, in place."""
    for k, v in x.items():
        s = F.add(y.get(k, F.zero), F.mul(c, v))
        if F.is_zero(s):
            y.pop(k, None)
        else:
            y[k] = s
    return y


class _Echelon(dict):
    """An echelon form of sparse vectors, each added with a label (or None
    for no label), as a dict pivot -> (row, its combination of the labels),
    reduced: a row is 1 at its pivot and 0 at the others, so it enters x
    with coefficient x[pivot].  holders maps each other column to the
    pivots of the rows nonzero there, so that a new pivot is cleared from
    those rows alone, not looked for in every row."""

    __slots__ = ("holders",)  # set by the first `_add`


def _reduce(F: Field, span: dict, x: dict) -> tuple[dict, dict]:
    """x less its component in the span (x itself when the span is empty),
    and that component as a combination of the labels."""
    if not span:
        return x, {}
    rest, combo = dict(x), {}
    for p, c in x.items():
        if p in span:
            _axpy(F, rest, F.neg(c), span[p][0])
            _axpy(F, combo, c, span[p][1])
    return rest, combo


def _add(F: Field, span: _Echelon, rest: dict, combo: dict, label, pivot=None):
    """Add the vector whose `_reduce` gave rest ≠ 0 and combo, with its
    pivot at pivot, by default the first entry of rest; the row is a copy
    of rest, scaled unless it is 1 there.  Which vectors are kept, and the
    label combinations of those that reduce to 0, depend only on the spans."""
    p = next(iter(rest)) if pivot is None else pivot
    if rest[p] == F.one:
        s, row = F.one, dict(rest)
    else:
        s = F.inv(rest[p])
        row = {k: F.mul(s, c) for k, c in rest.items()}
    labels = {} if label is None else _axpy(F, {label: s}, F.neg(s), combo)
    if not span:
        span.holders = {}
    holders = span.holders
    for k in row:
        if k != p:
            holders.setdefault(k, set()).add(p)
    for q in holders.pop(p, ()):
        other, other_labels = span[q]
        c = F.neg(other[p])
        _axpy(F, other, c, row)
        _axpy(F, other_labels, c, labels)
        for k in row:
            if k != p:
                (holders[k].add if k in other else holders[k].discard)(q)
    span[p] = (row, labels)


def _span(F: Field, vectors, echelon: _Echelon | None = None, size: int | None = None,
          modulo: _Echelon | None = None) -> list[dict]:
    """The vectors (sparse, with no zero entries) that are independent of
    those before them and of the rows of echelon and of modulo, in order,
    added to echelon (a new one by default) with no label once reduced by
    modulo: a basis of their span modulo echelon's and modulo's, the pivot
    columns of `rref`.  With size, no vector is read after echelon reaches
    size rows."""
    echelon = _Echelon() if echelon is None else echelon
    kept = []
    for v in vectors:
        rest = _reduce(F, modulo, v)[0] if modulo else v
        if echelon:  # no call for an empty echelon: the greedy pass starts every trial with one
            rest = _reduce(F, echelon, rest)[0]
        if rest:
            _add(F, echelon, rest, {}, None)
            kept.append(v)
            if len(echelon) == size:
                break
    return kept


def _sparse(F: Field, vec) -> dict:
    """The nonzero entries of a coordinate list, by position (a 0 in normal
    form is false, and skips the field's test)."""
    return {k: a for k, a in enumerate(vec) if a and not F.is_zero(a)}


def _normal_words(field: Field, quiver: Quiver, nilpotency: int, unit, times):
    """The normal words of lengths 1..N-1 with their images, the echelon
    form of those images per (source, target), and the rules
    [(1, w), (-c_u, u), ...] of the other words tested.

    Words go by (length, word).  A word is normal when its image is
    independent of the images of the normal words before it with its source
    and target, which span the images of all words before it; otherwise
    w - Σ c_u·u lies in I, and so does x·(w - Σ c_u·u)·y, which leads with
    x·w·y.  So only a word whose prefix and suffix are normal is tested, and
    the rules of those that fail are the reduced Gröbner basis of I for this
    order, which with J^N generates I."""
    F, arrows = field, quiver.arrows
    spans: dict[tuple[int, int], _Echelon] = {(v, v): _Echelon() for v in range(1, quiver.n + 1)}
    for (v, _), span in spans.items():
        _add(F, span, unit(v), {}, ())  # the trivial path
    images: dict[tuple[int, ...], dict] = {}  # normal word -> image
    rules = []
    level = [(v, ()) for v in range(1, quiver.n + 1)]
    for _ in range(1, nilpotency):
        candidates = sorted((src, arrows[a].target, w + (a,)) for src, w in level
                            for a, arrow in enumerate(arrows)
                            if arrow.source == (arrows[w[-1]].target if w else src)
                            and (not w or w[1:] + (a,) in images))
        level = []
        for src, tgt, w in candidates:
            x = times(images[w[:-1]] if len(w) > 1 else unit(src), w[-1])
            span = spans.setdefault((src, tgt), _Echelon())
            rest, coords = _reduce(F, span, x)
            if rest:
                _add(F, span, rest, coords, w)
                images[w] = x
                level.append((src, w))
            else:
                rules.append([(F.one, w)] + [(F.neg(coords[u]), u) for u in sorted(coords, key=_word_key)])
        if not level:
            break
    return images, spans, rules


def _relations_model(field: Field, quiver: Quiver, relations, nilpotency: int):
    """(unit, times) for kQ/(I + J^N), I generated by the relations: a word's
    image is its residue modulo an echelon form, each row's pivot its largest
    word, of the span of the products u·r·w (paths u, w, relation r) cut
    below length N: the relations' span closed under multiplying by arrows
    on both sides, so each new row queues its products with the arrows.  A
    leading word's residue is the word less its row.  ValueError for a
    relation that is not admissible, and, before any row, when more than
    MAX_WORDS composable words have length < N."""
    F, arrows, vertices = field, quiver.arrows, range(1, quiver.n + 1)
    queue = []
    for rel in filter(None, relations):
        combo: dict = {}
        for coeff, word in rel:
            w = tuple(word)
            if len(w) < 2:
                raise ValueError("non-admissible relation: path of length < 2")
            if not quiver.composable(w):
                raise ValueError(f"relation word not composable: {w}")
            combo[w] = F.add(combo.get(w, F.zero), coeff)
        if len({(quiver.word_source(w), quiver.word_target(w)) for w in combo}) != 1:
            raise ValueError("relation mixes non-parallel paths")
        queue.append(combo)
    ending, total = dict.fromkeys(vertices, 1), 0  # words of one length, by their target
    for _ in range(1, nilpotency):
        longer = dict.fromkeys(vertices, 0)
        for a in arrows:
            longer[a.target] += ending[a.source]
        ending, total = longer, total + sum(longer.values())
        if total > MAX_WORDS:
            raise ValueError(f"more than {MAX_WORDS} paths of length < {nilpotency}; "
                             "lower the nilpotency bound")
        if not any(longer.values()):
            break
    rows = _Echelon()  # of the span, each row led by its largest word
    while queue:
        rest, _ = _reduce(F, rows, {w: c for w, c in queue.pop().items()
                                    if len(w) < nilpotency and not F.is_zero(c)})
        if rest:
            lead = max(rest, key=_word_key)
            _add(F, rows, rest, {}, None, lead)
            row = rows[lead][0]
            queue += [{(a,) + w: c for w, c in row.items()} for a, arrow in enumerate(arrows)
                      if arrow.target == quiver.word_source(lead)]
            queue += [{w + (a,): c for w, c in row.items()} for a, arrow in enumerate(arrows)
                      if arrow.source == quiver.word_target(lead)]
    return (lambda v: {(): F.one}), lambda x, a: _reduce(
        F, rows, {w + (a,): c for w, c in x.items() if len(w) + 1 < nilpotency})[0]


class PathAlgebra:
    """Finite-dimensional quotient kQ/(I + J^N): the normal words of a model
    of the words' images are its basis, and products are read off images.

    Basis elements are (source_vertex, word) with word a tuple of arrow
    indices; trivial paths have the empty word.
    """

    def __init__(self, field: Field, quiver: Quiver, relations, nilpotency: int, model=None):
        """model = (unit, times) gives the words' images as sparse vectors:
        unit(v) of the trivial path at v, times(x, a) of w·a from the image
        x of w; by default `_relations_model`.  relations=None keeps as
        `relations` the rules of `_normal_words`, a reduced Gröbner basis."""
        if nilpotency < 2:
            raise ValueError("nilpotency bound must be at least 2")
        self.field, self.quiver, self.N = field, quiver, nilpotency
        unit, self._times = model or _relations_model(field, quiver, relations, nilpotency)
        images, self._spans, rules = _normal_words(field, quiver, nilpotency, unit, self._times)
        self.relations = rules if relations is None else relations

        self.basis: list[tuple[int, tuple[int, ...]]] = [(v, ()) for v in range(1, quiver.n + 1)]
        self.basis += [(quiver.word_source(w), w) for w in images]
        self.basis.sort(key=lambda e: (len(e[1]), e[1], e[0]))
        self.basis_index = {e: k for k, e in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._images = [images[w] if w else unit(v) for v, w in self.basis]

        self._mul_table: dict[tuple[int, int], dict[int, object]] = {}
        # Representations over this algebra, one object per content (dims and
        # arrow-matrix entries, see rep.Representation); the projective and
        # injective at each vertex and the basis paths from and into it, keyed
        # (kind, vertex), and direct sums, keyed ("sum", parts).  Insert-only.
        self.modules: dict = {}
        self.vertex_modules: dict[tuple[str, int], object] = {}
        self.ordinary = None  # relative.ordinary_f (G = the projectives), built once

    # -- elements ---------------------------------------------------------

    def element_target(self, k: int) -> int:
        src, word = self.basis[k]
        return src if not word else self.quiver.word_target(word)

    def arrow_element(self, ai: int) -> int:
        a = self.quiver.arrows[ai]
        return self.basis_index[(a.source, (ai,))]

    def mul_basis(self, i: int, j: int) -> dict[int, object]:
        """Product basis_i * basis_j in diagrammatic order (i then j): the
        coordinates of its image against the images of the normal words
        with its source and target."""
        cached = self._mul_table.get((i, j))
        if cached is None:
            src, word = self.basis[i][0], self.basis[j][1]
            x, coords = self._images[i], {}
            if self.element_target(i) == self.basis[j][0]:
                for a in word:
                    x = self._times(x, a)
                rest, coords = _reduce(self.field, self._spans.get((src, self.element_target(j)), {}), x)
                if rest:
                    raise ValueError("a product lies outside the span of the basis words")
            cached = self._mul_table[(i, j)] = {self.basis_index[(src, w)]: c for w, c in coords.items()}
        return cached

    def __repr__(self):
        return f"PathAlgebra(n={self.quiver.n}, arrows={len(self.quiver.arrows)}, dim={self.dim})"
