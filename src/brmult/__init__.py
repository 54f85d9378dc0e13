"""Exact Buchsbaum-Rim, mixed, and generalized Samuel multiplicities.

Everything is computed over exact fields (rationals or prime fields):
length functions of bigraded quotients are tabulated on integer grids,
fitted by exact finite differences, and the total-degree-r leading form
is reported as the vector of multiplicities. A verification harness
checks the underlying identities on concrete instances.
"""

from .fields import FieldError, PrimeField, QQ, RationalField
from .linalg import subspace_dim
from .rings import (
    GradingError,
    Polynomial,
    RingSpec,
    SubmoduleSpec,
    monomial_basis,
    power_generators,
    product_generators,
)
from .modules import (
    CutoffExceeded,
    CutoffTooSmall,
    DEFAULT_CUTOFF,
    FreeModuleSpec,
    HilbertProbeError,
    LengthResult,
    ModulePresentation,
    SliceSpan,
    ZeroModuleError,
    graded_slice_length,
    krull_dimension,
    piece_basis,
    piece_dimension,
    slice_dims_up_to,
)
from .polyfit import (
    DEFAULT_WINDOW,
    DegreeExceedsError,
    GridTooSmallError,
    LeadingForm,
    LengthTable,
    StabilizationError,
    finite_difference,
    leading_form,
    total_degree_estimate,
)
from .filtration import (
    InclusionWitness,
    assoc_graded_piece_dims,
    check_filtration_inclusions,
    filtration_factor_lengths,
    mixed_factor_lengths,
    mixed_level,
)
from .multiplicity import (
    KInstabilityError,
    LocalQuery,
    LocalReport,
    MultiplicityReport,
    ProductQuery,
    SupportConditionError,
    br_multiplicities,
    generalized_samuel,
    generalized_samuel_report,
    has_maximal_analytic_spread,
    lambda_local,
    lambda_product,
    resolve_r,
    samuel_function,
)
from .verify import (
    VerificationReport,
    check_br_degree_bound,
    check_degree_bound,
    check_mixed_factor_sum,
    check_mixed_operator_formula,
    check_symmetry,
    check_telescoping,
)
from .cli import InstanceFile, ParseError, parse_instance, run

__version__ = "0.1.0"
