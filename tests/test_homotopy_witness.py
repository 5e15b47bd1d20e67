from relhomalg.complexes import (
    Complex,
    HomotopyHom,
    chain_identity,
    cone,
    stalk_complex,
)
from relhomalg.rep import hom_space

from helpers import null_homotopy_witness


def test_null_homotopy_witness_on_contractible(L7_modules):
    m = L7_modules["P2"]
    contractible = cone(chain_identity(stalk_complex(m, 0, label="P2")))
    hh = HomotopyHom(contractible, contractible, 0)
    ident = chain_identity(contractible)
    wit = null_homotopy_witness(hh, ident.comps)
    assert wit is not None  # validated inside: id = s d + d s exactly
    assert wit.s  # a genuine nonzero homotopy


def test_null_homotopy_witness_absent_for_identity_stalk(L7_modules):
    x = stalk_complex(L7_modules["P1"], 0, label="P1")
    hh = HomotopyHom(x, x, 0)
    assert null_homotopy_witness(hh, chain_identity(x).comps) is None


def test_null_homotopy_witness_odd_shift(L7_modules):
    # degree 1 maps from a two-term complex: any cycle here is null-homotopic
    # exactly when it lies in the image of D, and the witness must validate
    # with the odd-shift sign convention
    m2, p1 = L7_modules["M2"], L7_modules["P1"]
    d = hom_space(m2, p1)[0]
    x = Complex(p1.algebra, {-1: m2, 0: p1}, {-1: d})
    hh = HomotopyHom(x, x, 1)
    if hh.boundaries.cols:
        vec = hh.boundaries.col(0)
        cm = hh.vector_to_chain_map(vec)
        wit = null_homotopy_witness(hh, cm.comps)
        assert wit is not None
