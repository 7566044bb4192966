"""Exact and asymptotic moments of subpermanent sums over random
permutation-sum matrices: exact rational expectations, a brute-force
oracle, Monte Carlo estimation, and the variational rate-function layer.

Every public name is read from its home module, which is imported on the
name's first access (PEP 562), so ``import permex`` itself loads no layer
and a command pays only for the layers it runs.
"""

__version__ = "0.1.0"

# each public name -> the module that defines it
_HOME = {
    name: module
    for module, names in (
        ("asymptotics", "RateComponents StationarySolution analytic_solution"
                        " product_rate rate_components single_rate single_rate_limit"
                        " solve_stationary solve_stationary_batch"
                        " stationarity_residuals stirling_f"),
        ("errors", "CapacityError DomainError InfeasiblePointError PermexError"
                   " SolverError"),
        ("model", "EnsembleSpec SquareMatrix assemble_matrix enumerate_tuples"
                  " sample_matrix sample_permutation sample_stream tuple_count"),
        ("moments", "ColorProfile argmax_profile expectation_perm expectation_product"
                    " product_table profile_iterator validate_profile"),
        ("montecarlo", "MCEstimate MomentEstimates ScanRow convergence_scan"
                       " estimate_moments"),
        ("permanents", "ExactMoment ensemble_average_bruteforce"
                       " subpermanent_bruteforce subpermanent_profile"),
    )
    for name in names.split()
}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
