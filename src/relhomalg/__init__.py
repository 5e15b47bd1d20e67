"""Exact-arithmetic relative homological algebra over finite-dimensional
quiver algebras.

Layers, bottom up: exact linear algebra over Q and F_p (matrix), path
algebras and quiver representations (quiver, rep), the relative theory for
F = F_{add G} (relative), bounded complexes and homotopy-category Homs
(complexes), F-tilting verification and endomorphism algebras (tilting),
structure-constant algebras and their quiver presentations (algebra), the
headline dimension-bound checks (bounds), and a JSON problem-file front end
(schema, cli).
"""

from .fields import PrimeField, QQ, RationalField
from .matrix import Matrix, kernel_basis, rank, rref, solve
from .quiver import PathAlgebra, Quiver
from .rep import (
    ModuleMap,
    Representation,
    ShortExactSeq,
    hom_space,
    injective,
    is_isomorphic,
    projective,
    simple,
)
from .relative import (
    FResolution,
    SubbifunctorF,
    SummandDecl,
    dtr,
    ext_f,
    f_resolution,
    findim_f,
    gldim,
    gldim_f,
    id_f,
    is_f_exact,
    is_gorenstein,
    pd_f,
    relative_injectives,
    right_approximation,
)
from .complexes import (
    ChainMap,
    Complex,
    cone,
    hom_k,
    is_f_acyclic,
    radical_normalize,
    shift_complex,
    stalk_complex,
    term_length,
)
from .tilting import end_algebra, image_tilting_over_sigma, verify_f_tilting
from .algebra import AbstractAlgebra
from .bounds import corollary710_check, gorenstein_check, prop63_64_counts, theorem73_check
from .schema import load_problem, parse_problem

__version__ = "0.1.0"
