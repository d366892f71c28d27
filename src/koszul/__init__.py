"""Exact exterior calculus on coordinate space with polynomial coefficients,
the symplectic operator calculus, and bracket-family identity verification.

Everything is computed over the rationals; identity checks succeed only when
the residual is the literal zero polynomial.
"""

__version__ = "0.1.0"

from .poly import Polynomial
from .forms import (
    DifferentialForm,
    MultiVectorField,
    contract_bivector,
    contract_vector,
    d,
    d_poly,
    wedge,
)
from .grammar import FormSyntaxError, parse_form, parse_polynomial, render_form, render_polynomial
from .symplectic import SymplecticSpace, operator_relations
from .linfty import (
    BracketFamily,
    GradedElement,
    ce_partial,
    koszul_sign,
    linfty_residual,
    permutation_sign,
)
from .brackets import (
    alt_m,
    bracket_coefficient,
    coefficient_recursions,
    l_bracket,
    series_coefficient,
    symplectic_family,
    tilde_l,
    verify_alt_m_identity,
    verify_chain_identity,
    verify_quotient_congruence,
    verify_strict_morphism,
)
from .volume import VolumeSpace, exact_divfree_vf, volume_bracket, volume_family
from .poisson import (
    PoissonSpace,
    jacobiator_residual,
    obstruction,
    obstruction_identity_residual,
    omega1_bracket,
    sl2_dual,
    standard_symplectic,
    symplectic_obstruction_witness,
    symplectic_witness_residual,
    zero_poisson,
)

__all__ = [
    "Polynomial",
    "DifferentialForm",
    "MultiVectorField",
    "wedge",
    "d",
    "d_poly",
    "contract_vector",
    "contract_bivector",
    "parse_form",
    "parse_polynomial",
    "render_form",
    "render_polynomial",
    "FormSyntaxError",
    "SymplecticSpace",
    "operator_relations",
    "GradedElement",
    "BracketFamily",
    "permutation_sign",
    "koszul_sign",
    "ce_partial",
    "linfty_residual",
    "alt_m",
    "tilde_l",
    "series_coefficient",
    "bracket_coefficient",
    "coefficient_recursions",
    "symplectic_family",
    "l_bracket",
    "verify_chain_identity",
    "verify_alt_m_identity",
    "verify_strict_morphism",
    "verify_quotient_congruence",
    "VolumeSpace",
    "exact_divfree_vf",
    "volume_bracket",
    "volume_family",
    "PoissonSpace",
    "standard_symplectic",
    "sl2_dual",
    "zero_poisson",
    "obstruction",
    "obstruction_identity_residual",
    "symplectic_obstruction_witness",
    "symplectic_witness_residual",
    "omega1_bracket",
    "jacobiator_residual",
]
