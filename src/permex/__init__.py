"""Exact and asymptotic moments of subpermanent sums over random
permutation-sum matrices: exact rational expectations, a brute-force
oracle, Monte Carlo estimation, and the variational rate-function layer.
"""

from .asymptotics import (
    RateComponents,
    StationarySolution,
    analytic_solution,
    product_rate,
    rate_components,
    single_rate,
    single_rate_limit,
    solve_stationary,
    solve_stationary_batch,
    stationarity_residuals,
    stirling_f,
)
from .errors import (
    CapacityError,
    DomainError,
    InfeasiblePointError,
    PermexError,
    SolverError,
)
from .model import (
    EnsembleSpec,
    SquareMatrix,
    assemble_matrix,
    enumerate_tuples,
    sample_matrix,
    sample_permutation,
    sample_stream,
    tuple_count,
)
from .moments import (
    ColorProfile,
    argmax_profile,
    expectation_perm,
    expectation_product,
    product_table,
    profile_iterator,
    validate_profile,
)
from .montecarlo import (
    MCEstimate,
    MomentEstimates,
    ScanRow,
    convergence_scan,
    estimate_moments,
)
from .permanents import (
    ExactMoment,
    ensemble_average_bruteforce,
    subpermanent_bruteforce,
    subpermanent_profile,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ColorProfile",
    "DomainError",
    "EnsembleSpec",
    "ExactMoment",
    "InfeasiblePointError",
    "MCEstimate",
    "MomentEstimates",
    "PermexError",
    "RateComponents",
    "ScanRow",
    "SolverError",
    "SquareMatrix",
    "StationarySolution",
    "analytic_solution",
    "argmax_profile",
    "assemble_matrix",
    "convergence_scan",
    "ensemble_average_bruteforce",
    "enumerate_tuples",
    "estimate_moments",
    "expectation_perm",
    "expectation_product",
    "product_rate",
    "product_table",
    "profile_iterator",
    "rate_components",
    "sample_matrix",
    "sample_permutation",
    "sample_stream",
    "single_rate",
    "single_rate_limit",
    "solve_stationary",
    "solve_stationary_batch",
    "stationarity_residuals",
    "stirling_f",
    "subpermanent_bruteforce",
    "subpermanent_profile",
    "tuple_count",
    "validate_profile",
    "__version__",
]
