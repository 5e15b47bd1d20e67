"""The Peirce grading of Gamma = End(T) for T = ⊕ T_i: every basis vector lies
in one corner Hom_K(T_i, T_j), the idempotents are basis vectors, products
vanish unless their corners meet and are computed only when read, and the
algebra certifies the layout it is handed instead of assuming it."""

import json
from pathlib import Path

import pytest
from helpers import (a2_algebra, composed_end_table, cycle3_selfinjective, dense, mixed_a2, mul,
                     nakayama_problem, products_table, structure_constants, uniserials)

from relhomalg import cli, complexes
from relhomalg.algebra import AbstractAlgebra
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
        assert e == {layout.index((i, i)): F.one}
        identity = ts.corner(i, i).class_coordinates(chain_identity(ts.parts[i]).comps)
        assert identity == [F.one] + [F.zero] * (corner_dims[(i, i)] - 1)
    # a product (i -> j) then (j' -> k) is zero unless j = j', and lies in (i, k)
    for a in range(gamma.dim):
        for b in range(gamma.dim):
            (i, j), (j2, k) = layout[a], layout[b]
            prod = gamma.product(a, b)
            assert not prod or (j == j2 and {layout[c] for c, _ in prod} == {(i, k)})


@pytest.mark.parametrize("label, build", SUMS, ids=[s[0] for s in SUMS])
def test_end_algebra_composes_only_corners_that_meet(label, build, monkeypatch):
    """`end_algebra` builds no table: it computes no product.  Asked for
    every pair whose corners meet, Γ makes one `product_coordinates` per
    pair of representatives (i -> j) then (j -> k) into a corner
    Hom_K(T_i, T_k) that is not zero, however often the pair is read; no
    composite map is built and no class is solved over all of Hom^0."""
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
    assert not calls
    expected = sum(d[(i, j)] * d[(j, k)] for i in range(n) for j in range(n) for k in range(n)
                   if d[(i, k)])
    products_table(endo)
    products_table(endo)
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
    """The structure constants read at the top columns, asked for every
    pair of basis vectors whose corners meet, are those of composing each
    pair of representatives and solving its class over all of Hom^0
    (`helpers.composed_end_table`)."""
    ts = build(field)
    assert products_table(end_algebra(ts)) == composed_end_table(ts)


def test_inhomogeneous_basis_fails_the_certificate():
    a, mixed = structure_constants(a2_algebra()), mixed_a2()
    F = a.field
    # the idempotents are still orthogonal, complete and basis vectors
    for i, e in enumerate(mixed.idempotents):
        assert list(e.values()) == [F.one]
        for j, f in enumerate(mixed.idempotents):
            assert mul(mixed, dense(mixed, e), dense(mixed, f)) == (dense(mixed, e) if i == j
                                                                     else [F.zero] * a.dim)
    assert a.idempotents_split_basic()
    with pytest.raises(ValueError, match="do not grade the basis"):
        mixed.idempotents_split_basic()


@pytest.mark.parametrize("entry", ["grading", "radical", "presentation"])
def test_inhomogeneous_basis_raises_at_every_entry(entry):
    # no ungraded route: each reader of the corners meets the failed grading
    with pytest.raises(ValueError, match="do not grade the basis"):
        getattr(mixed_a2(), entry)()


@pytest.mark.parametrize("label, build", SUMS, ids=[s[0] for s in SUMS])
def test_a_basis_vector_laid_out_in_the_wrong_corner_fails_the_certificate(label, build):
    """Γ's own products with one basis vector moved to another corner's row
    or column: e_i' fixes no vector of Hom_K(T_i, T_j) for i' ≠ i, nor does
    e_j' on the right for j' ≠ j, so the certificate raises, at every
    reader of the corners."""
    gamma = end_algebra(build())
    n, layout = len(gamma.idempotents), gamma.grading()
    for b, (i, j) in enumerate(layout):
        for corner in (((i + 1) % n, j), (i, (j + 1) % n)):
            wrong = layout[:b] + [corner] + layout[b + 1:]
            for entry in ("grading", "radical", "presentation"):
                moved = AbstractAlgebra(gamma.field, wrong, gamma._product, gamma.idempotents)
                with pytest.raises(ValueError, match=f"basis vector {b} does not lie in corner"):
                    getattr(moved, entry)()


def test_theorem73_asks_only_for_the_products_it_reads(tmp_path, monkeypatch):
    """`bounds theorem73` on Nakayama (5,5) with G = every uniserial: a
    product table of Γ (dim 275) takes 1960 `product_coordinates`, one per
    pair of representatives whose corners meet into a nonzero corner; the
    radical, rad² stopped at each corner's radical, the Loewy layers and
    the certificate read fewer, and the verdict stands."""
    path = tmp_path / "nakayama55.json"
    path.write_text(json.dumps(nakayama_problem(5, 5, every_indecomposable=True, tilting=True)))
    calls = []
    product = HomotopyHom.product_coordinates

    def counted(self, f, g):
        calls.append(1)
        return product(self, f, g)

    monkeypatch.setattr(HomotopyHom, "product_coordinates", counted)
    assert cli.main(["--quiet", "bounds", "theorem73", str(path)]) == 0
    assert 0 < len(calls) < 1960
