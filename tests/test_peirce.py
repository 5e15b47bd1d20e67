"""The Peirce grading of Gamma = End(T) for T = ⊕ T_i: every basis vector lies
in one corner Hom_K(T_i, T_j), the idempotents are basis vectors, products
vanish unless their corners meet, and the algebra certifies the grading
instead of assuming it."""

import json
from pathlib import Path

import pytest
from helpers import (a2_algebra, basis_vector, composed_end_table, cycle3_selfinjective, mixed_a2,
                     mul, nakayama_problem, structure_constants, uniserials)

from relhomalg import complexes
from relhomalg.complexes import HomotopyHom, chain_identity, hom_k, stalk_complex
from relhomalg.fields import QQ, PrimeField
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
    gamma = end_algebra(ts)
    # the layout: corner (i, j) holds dim Hom_K(T_i, T_j) consecutive basis
    # vectors, the corners in row-major order
    layout = [key for key, d in corner_dims.items() for _ in range(d)]
    assert gamma.dim == len(layout)
    # the certificate finds exactly that grading
    assert gamma.grading() == layout
    assert gamma.idempotents_split_basic()
    # e_i is the first basis vector of corner (i, i), the identity of T_i
    F = gamma.field
    for i, e in enumerate(gamma.idempotents):
        assert e == basis_vector(gamma, layout.index((i, i)))
        identity = ts.corner(i, i).class_coordinates(chain_identity(ts.parts[i]).comps)
        assert identity == [F.one] + [F.zero] * (corner_dims[(i, i)] - 1)
    # a product (i -> j) then (j' -> k) is zero unless j = j', and lies in (i, k)
    for (a, b), prod in gamma.products.items():
        (i, j), (j2, k) = layout[a], layout[b]
        assert j == j2
        assert {layout[c] for c, _ in prod} == {(i, k)}


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
    assert end_algebra(ts).products == composed_end_table(ts)


def test_inhomogeneous_basis_fails_the_certificate():
    a, mixed = structure_constants(a2_algebra()), mixed_a2()
    F = a.field
    # the idempotents are still orthogonal, complete and basis vectors
    for i, e in enumerate(mixed.idempotents):
        assert e.count(F.one) == 1 and e.count(F.zero) == a.dim - 1
        for j, f in enumerate(mixed.idempotents):
            assert mul(mixed, e, f) == (e if i == j else [F.zero] * a.dim)
    assert a.idempotents_split_basic()
    with pytest.raises(ValueError, match="do not grade the basis"):
        mixed.idempotents_split_basic()


@pytest.mark.parametrize("entry", ["grading", "radical", "presentation"])
def test_inhomogeneous_basis_raises_at_every_entry(entry):
    # no ungraded route: each reader of the corners meets the failed grading
    with pytest.raises(ValueError, match="do not grade the basis"):
        getattr(mixed_a2(), entry)()
