"""Exact identities and seeded simulations for exponential order statistics.

The package verifies a family of combinatorial identities that fall out of
computing the Laplace transform of the k-th exponential order statistic in
two ways, validates the distributional facts behind them with reproducible
Monte Carlo, and reproduces the Euler-constant and Basel-problem limits
numerically.

Submodules load on first use (PEP 562), so the exact layer runs without
numpy.  A name is looked up in its submodule on every access and never
cached here: whatever the submodule's attribute is bound to at that moment
is what ``exporder.<name>`` returns.
"""

import importlib

_EXPORTS = {
    "exact": ("Polynomial", "Rational", "RationalFunction", "binomial", "poly_gcd"),
    "laplace": (
        "OrderStatParams",
        "double_sum_form",
        "erlang_weighted_sum",
        "generalized_double_sum",
        "product_form",
        "product_value",
    ),
    "identities": (
        "IdentityReport",
        "binomial_invert",
        "report_to_json",
        "reports_to_json_lines",
        "run_suite",
        "verify_generalized",
        "verify_integer_rate",
        "verify_inversion_involution",
        "verify_main",
        "verify_max_order",
        "verify_max_order_value",
        "verify_min_order",
        "verify_nested",
        "verify_square_closed_form",
        "verify_square_min_order",
    ),
    "distributions": (
        "GammaParams",
        "orderstat_cdf",
        "orderstat_mean",
        "orderstat_var",
        "race_probability_exact",
    ),
    "sampling": (
        "SampleBatch",
        "SeededStream",
        "estimate_race",
        "race_chunk_summary",
        "sample_normalized_spacings",
        "sample_orderstat_direct",
        "sample_orderstat_representation",
        "sample_race_indicators",
    ),
    "convergence": (
        "ConvergenceRow",
        "EULER_GAMMA",
        "PI_SQUARED_OVER_6",
        "TestResult",
        "basel_table",
        "euler_gamma_table",
        "gumbel_approx_error",
        "ks_one_sample",
        "ks_two_sample",
        "tail_bound_audit",
        "variance_convergence_check",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_OWNER]
__version__ = "0.1.0"


def __getattr__(name: str):
    # submodules first: ``from . import identities`` must load identities alone
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})
