"""Pricing engine for weight-controlled options.

Three mutually validating routes: regularised HJB grid solvers,
closed-form tail-strategy quadrature, and Monte Carlo policy evaluation
under the risk-neutral measure.
"""

from .closed_form import hypothesis_report, switch_time, tail_strategy_price
from .errors import NumericalFailure, ParameterError, PricingError
from .hjb import (
    Policy,
    StateGrid,
    ValueFunction,
    default_grid,
    export_csv,
    extract_policy,
    ladder_price,
    price_from_value,
    refine_grid,
    refinement_delta,
    solve,
)
from .market import MarketParams, bs_expected_payoff, norm_cdf
from .mc import builtin_policies, evaluate_policy
from .payoffs import (
    ControlBounds,
    PayoffSpec,
    eval_f,
    eval_g,
    payoff_adapted,
    payoff_normalized,
    validate_spec,
)
from .results import PriceEstimate
from .smoothing import SmoothingFamily, build_family

__version__ = "0.1.0"

__all__ = [
    "ControlBounds",
    "MarketParams",
    "NumericalFailure",
    "ParameterError",
    "PayoffSpec",
    "Policy",
    "PriceEstimate",
    "PricingError",
    "SmoothingFamily",
    "StateGrid",
    "ValueFunction",
    "bs_expected_payoff",
    "build_family",
    "builtin_policies",
    "default_grid",
    "eval_f",
    "eval_g",
    "evaluate_policy",
    "export_csv",
    "extract_policy",
    "hypothesis_report",
    "ladder_price",
    "norm_cdf",
    "payoff_adapted",
    "payoff_normalized",
    "price_from_value",
    "refine_grid",
    "refinement_delta",
    "solve",
    "switch_time",
    "tail_strategy_price",
    "validate_spec",
    "__version__",
]
