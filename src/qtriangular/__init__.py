"""Exact symbolic computation for the quantum upper-triangular bialgebra
and its Hopf localization, over Q(i) with a formal parameter q."""

from .coeff import GaussianRational, ScalarQ, qpow
from .qalgebra import (
    CenterLattice,
    Element,
    MorphismSpec,
    QAlgebra,
    TensorElement,
    center_lattice,
    is_point,
    quantum_affine,
    random_element,
    tensor_square,
)
from .triangular import (
    TriangularAlgebra,
    antipode,
    antipode_spec,
    b_element,
    b_recurrence,
    build,
    comm_exponent,
    coproduct,
    counit,
    delta_spec,
    gamma_spec,
    qdet,
    rho_spec,
    sigma_spec,
    star,
    star_spec,
    tgen,
    theta_spec,
)
from .structure import CheckReport, SUITES, negative_controls, negative_controls_report
from .deriv import (
    DerivationSpec,
    classify_T2,
    dertypes_expected,
    h1_membership_T2,
    inner_derivation,
    is_derivation,
    monomial_derivation,
    named_derivations,
    utq2_derivation_table,
)
from .autos import (
    LinearAuto2,
    Sextuple,
    delta_compatible,
    g_compose,
    g_decompose,
    g_inverse,
    g_to_endo,
    is_hopf_auto,
    linear_auto_spec,
    rho_conjugate,
)
from .cli import ParseError, format_element, format_tensor, parse, parse_scalar, parse_sextuple

__version__ = "0.1.0"
