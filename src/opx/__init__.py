"""Kernel orthogonal polynomials, spectral transformations, and
continued-fraction ratio machinery, with a quadrature-based moment oracle.

Everything is pure and immutable after construction; see the module
docstrings for the conventions (monic sequences, 1-based coefficient
indices, lambda_1 = mu_0).
"""

from .errors import (
    DegenerateDenominator,
    Divergent,
    InvalidAlphas,
    IteratedUndefined,
    KernelUndefined,
    NonConvergent,
    NotPositiveDefinite,
    OpxError,
    ParameterOutOfRange,
    PoleAtSample,
    ShiftInsideSupport,
    TableTooShort,
    ZeroDenominator,
)
from .families import (
    FamilySpec,
    chebyshev1,
    custom_family,
    eval_derivs,
    eval_table,
    jacobi,
    laguerre,
    norm_products,
)
from .kernels import (
    IteratedKernelContext,
    KernelContext,
    iterated_kernel,
    kernel_family,
    kernel_poly,
    kernel_recurrence,
    kernel_table,
    ops_from_kernel_table,
)
from .moments import (
    Base,
    Christoffel,
    GaussRule,
    Geronimus,
    Uvarov,
    apply_functional,
    gauss_rule,
    integrate_until_stable,
    orthogonality_residual,
)
from .quasi import (
    QkOrthogonalityReport,
    difference_equation_residual,
    qk_orthogonality_check,
    quasi_kernel,
    quasi_table,
)
from .ratios import (
    ChainSequence,
    chain_params,
    confluent_cd,
    evaluate_cf,
    gauss_cf_ratio,
    hyp_series,
    jacobi_ratio_cf,
    kernel_ratio_limit,
    kernel_ratio_limits,
    kummer_cf_ratio,
    laguerre_ratio_cf,
)
from .transforms import (
    GeronimusData,
    RecoveryCoefficients,
    UvarovData,
    geronimus_data,
    geronimus_family,
    geronimus_table,
    recover_christoffel,
    recover_geronimus,
    recover_order2,
    recover_uvarov,
    recovery_table,
    uvarov_data,
    uvarov_table,
)

__version__ = "0.1.0"
