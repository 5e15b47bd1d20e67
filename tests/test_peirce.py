"""The Peirce grading of Gamma = End(T) for T = ⊕ T_i: every basis vector lies
in one corner Hom_K(T_i, T_j), the idempotents are basis vectors, products
vanish unless their corners meet, and the algebra certifies the grading
instead of assuming it."""

import json
from pathlib import Path

import pytest
from helpers import (a2_algebra, basis_vector, composed_end_table, cycle3_selfinjective, mul,
                     nakayama_problem, structure_constants, uniserials, validated)

from relhomalg import complexes
from relhomalg.algebra import AbstractAlgebra
from relhomalg.complexes import HomotopyHom, hom_k, stalk_complex
from relhomalg.fields import QQ, PrimeField
from relhomalg.relative import gldim
from relhomalg.rep import ModuleMap
from relhomalg.schema import load_problem, parse_problem
from relhomalg.tilting import ComplexSum, end_algebra

DATA = Path(__file__).parent.parent / "src" / "relhomalg" / "data"
BUNDLED = ["section7", "section6", "a2_apr", "section6_symmetric"]


def bundled_sum(name, field=QQ):
    return load_problem(str(DATA / f"{name}.json"), field).tilting_sum()


def nakayama33_sum():
    """G = every uniserial of the Nakayama algebra (3, 3), as stalks."""
    modules = uniserials(cycle3_selfinjective())
    parts = [stalk_complex(m, 0, label=f"U{k}") for k, m in enumerate(modules)]
    return ComplexSum(parts, [f"U{k}" for k in range(len(parts))])


SUMS = [(name, lambda name=name: bundled_sum(name)) for name in BUNDLED]
SUMS.append(("nakayama(3,3) uniserials", nakayama33_sum))


@pytest.mark.parametrize("label, build", SUMS, ids=[s[0] for s in SUMS])
def test_end_algebra_basis_is_graded_by_summand_pairs(label, build):
    ts = build()
    n = len(ts.parts)
    corner_dims = {(i, j): hom_k(ts.parts[i], ts.parts[j], 0) for i in range(n) for j in range(n)}
    endo = end_algebra(ts)
    gamma = endo.to_abstract()
    # the layout: corner (i, j) holds dim Hom_K(T_i, T_j) consecutive basis vectors
    layout = [None] * endo.dim
    for key, start in endo.offsets.items():
        for b in range(start, start + corner_dims[key]):
            assert layout[b] is None
            layout[b] = key
    assert None not in layout
    # the certificate finds exactly that grading
    assert gamma.grading() == layout
    assert gamma.idempotents_split_basic()
    for key, d in corner_dims.items():
        assert gamma.grading().count(key) == d
    for i, e in enumerate(endo.idempotents):
        assert e == basis_vector(gamma, endo.offsets[(i, i)])
    # a product (i -> j) then (j' -> k) is zero unless j = j', and lies in (i, k)
    for (a, b), prod in endo.table.items():
        (i, j), (j2, k) = layout[a], layout[b]
        assert j == j2
        assert {layout[c] for c in prod} == {(i, k)}


@pytest.mark.parametrize("label, build", SUMS, ids=[s[0] for s in SUMS])
def test_end_algebra_composes_only_corners_that_meet(label, build, monkeypatch):
    """One `product_coordinates` per pair of representatives whose corners
    meet, (i -> j) then (j -> k), and only into a corner Hom_K(T_i, T_k)
    that is not zero; no composite map is built and no class is solved over
    all of Hom^0."""
    ts = build()
    n = len(ts.parts)
    d = {(i, j): len(ts.corner(i, j).representatives()) for i in range(n) for j in range(n)}
    calls = []
    product = HomotopyHom.product_coordinates

    def counted(self, f, g):
        calls.append(1)
        return product(self, f, g)

    def forbidden(*args):
        raise AssertionError("end_algebra built a composite or solved over all of Hom^0")

    monkeypatch.setattr(HomotopyHom, "product_coordinates", counted)
    monkeypatch.setattr(HomotopyHom, "class_coordinates", forbidden)
    monkeypatch.setattr(ModuleMap, "compose", forbidden)
    monkeypatch.setattr(complexes, "hom_coordinates", forbidden)
    endo = end_algebra(ts)
    expected = sum(d[(i, j)] * d[(j, k)] for i in range(n) for j in range(n) for k in range(n)
                   if d[(i, k)])
    assert len(calls) == expected
    assert endo.dim == sum(d.values())


def nakayama_sum(n, length, every, field):
    data = nakayama_problem(n, length, every_indecomposable=every, tilting=True)
    return parse_problem(json.dumps(data), field_override=field).tilting_sum()


TABLES = [(name, lambda field, name=name: bundled_sum(name, field)) for name in BUNDLED]
TABLES += [(f"nakayama({n},{length}) {'all' if every else 'P+S'}",
            lambda field, n=n, length=length, every=every: nakayama_sum(n, length, every, field))
           for n, length, every in ((3, 3, True), (4, 4, True), (4, 4, False))]


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["q", "fp:32003"])
@pytest.mark.parametrize("label, build", TABLES, ids=[t[0] for t in TABLES])
def test_end_algebra_matches_the_composed_products(label, build, field):
    """The structure constants read at the top columns are those of
    composing each pair of representatives and solving its class over all
    of Hom^0 (`helpers.composed_end_table`)."""
    ts = build(field)
    assert end_algebra(ts).table == composed_end_table(ts)


def mixed_a2():
    """A2's path algebra with the arrow a replaced by a + e1 in its basis:
    that basis vector mixes two corners, while the supplied idempotents stay
    the trivial paths e1 and e2."""
    lam = a2_algebra()
    a = structure_constants(lam)
    F = a.field
    trivial = [e.index(F.one) for e in a.idempotents]
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
    mixed = validated(AbstractAlgebra(F, a.dim, table, to_new(a.unit),
                                      idempotents=[to_new(e) for e in a.idempotents]))
    return a, mixed


def test_inhomogeneous_basis_fails_the_certificate():
    a, mixed = mixed_a2()
    F = a.field
    # the idempotents are still orthogonal, complete and basis vectors
    for i, e in enumerate(mixed.idempotents):
        assert e.count(F.one) == 1 and e.count(F.zero) == a.dim - 1
        for j, f in enumerate(mixed.idempotents):
            assert mul(mixed, e, f) == (e if i == j else [F.zero] * a.dim)
    assert a.grading() is not None
    assert mixed.grading() is None
    assert not mixed.idempotents_split_basic()
    # the presentation takes its corners by multiplication, with the same answer
    assert gldim(mixed.presentation(), 5).dim == gldim(a.presentation(), 5).dim
    assert gldim(a.presentation(), 5).dim.value == 1
