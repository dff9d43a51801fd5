"""Exact symmetry computations for quadric CR models.

Pipeline: define a model by Hermitian matrices (`QuadricModel`), validate it,
compute the graded algebra of its infinitesimal automorphisms degree by
degree (`prolong_full`), realize basis elements as holomorphic polynomial
vector fields (`realize_basis`), and check tangency symbolically with zero
tolerance (`verify_hol`).  All arithmetic is exact over the rationals and
Gaussian rationals.
"""

from .catalog import (CatalogEntry, extend_codim, make_codim4, make_codim5,
                      make_heisenberg, make_so_family, make_su_family)
from .errors import (AlgebraError, CRProlongError, DegenerateModelError,
                     DimensionError, InputError, InternalCheckError,
                     NonterminationError, ValidationError)
from .linalg import ExactMatrix
from .model import (LeviTanakaAlgebra, QuadricModel, ValidationReport,
                    build_levi_tanaka, tumanov_search)
from .poly import Poly, PolyVectorField
from .prolong import GradedLieAlgebra, ProlongationResult, jet_order, prolong_full
from .realize import (BRACKET_SIGN, euler_field, express_in_span,
                      realize_basis, realize_element)
from .scalars import GaussianRational, Rational
from .verify import TangencyCertificate, jet_certificate, verify_hol

__version__ = "0.1.0"

__all__ = [
    "AlgebraError", "BRACKET_SIGN", "CRProlongError", "CatalogEntry",
    "DegenerateModelError", "DimensionError", "ExactMatrix",
    "GaussianRational", "GradedLieAlgebra", "InputError",
    "InternalCheckError", "LeviTanakaAlgebra", "NonterminationError",
    "Poly", "PolyVectorField", "ProlongationResult", "QuadricModel",
    "Rational", "TangencyCertificate", "ValidationError", "ValidationReport",
    "build_levi_tanaka", "euler_field", "express_in_span",
    "extend_codim", "jet_certificate", "jet_order", "make_codim4",
    "make_codim5", "make_heisenberg", "make_so_family", "make_su_family",
    "prolong_full", "realize_basis", "realize_element", "tumanov_search",
    "verify_hol",
]
