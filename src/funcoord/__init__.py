"""funcoord: integral-kernel coordinate transformations on discretized
function spaces — grids and quadrature, generalized functions, a kernel
catalog with regularized inversion, operator conjugation and locality
analysis, and executable verification suites."""

from .errors import (
    DomainError,
    FuncoordError,
    KernelEvaluationError,
    MetricDegeneracyError,
    NotASolutionError,
    PreconditionError,
    RiccatiBlowupError,
    SingularTransformError,
    UnsupportedOrderError,
)
from .grid import (
    Grid,
    OperatorMatrix,
    derivative_symbol,
    diff_matrix,
    make_uniform_grid,
    wavenumbers,
)
from .distributions import (
    GeneralizedFunction,
    SingularTerm,
    TestFunction,
    apply_constant_coeff_operator,
    differentiate,
    pair,
)
from .kernels import (
    ConditionReport,
    Kernel,
    apply,
    dilation,
    discretize,
    exp_exp,
    fourier,
    gaussian,
    invert,
    kernel_pde_residual,
    multiplication,
    residual_blocks,
    riccati_kernel,
    translation_tgauss,
)
from .operators import (
    Metric,
    conjugate,
    locality_score,
    transform_metric,
)
from .theorems import (
    VerificationReport,
    check_derivative_preservation,
    check_fourier_diagonalizes,
    check_nonlinear_tensor,
    check_product_preservation,
    check_xdx_intertwine,
    smooth_from_generalized,
    theorem_property_suite,
)

__version__ = "0.1.0"
