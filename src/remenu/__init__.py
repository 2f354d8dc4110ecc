"""Optimal second-best reinsurance menus for VaR-minimizing insurers.

A monopolistic reinsurer screens a continuum of hidden types (VaR level,
loss scale) with menus drawn from the stop-loss, quota-share, or
change-loss contract classes.  The solvers reduce the menu design to a
one-dimensional search over the kink of the indirect utility; the
verification module audits the results independently.
"""

from . import change_loss, quota_share, stop_loss, verification
from .config import ScenarioConfig
from .errors import (
    AssumptionError,
    ConfigError,
    DivergenceError,
    DomainError,
    UnsupportedError,
)
from .menus import Contract, GenericMenu, MenuEntry, NULL_DEDUCTIBLE
from .risk_model import (
    CostFunctional,
    Distortion,
    ExponentialFamily,
    ExponentialLoss,
    GenericFamily,
    GenericLoss,
    KProfile,
    LossFamily,
    LossModel,
    ScaleFamily,
)
from .type_space import (
    DegenerateAlpha,
    DiscreteTypes,
    ProductUniform,
    TransformedType,
    TypeDistribution,
)
from .verification import (
    PiecewiseLinearConvexUtility,
    bl_decompose,
    check_ic,
    check_ir,
    first_best_demo,
    indirect_utility,
    j_general,
    monte_carlo_profit,
)

__all__ = [
    "AssumptionError",
    "ConfigError",
    "Contract",
    "CostFunctional",
    "DegenerateAlpha",
    "DiscreteTypes",
    "Distortion",
    "DivergenceError",
    "DomainError",
    "ExponentialFamily",
    "ExponentialLoss",
    "GenericFamily",
    "GenericLoss",
    "GenericMenu",
    "KProfile",
    "LossFamily",
    "LossModel",
    "MenuEntry",
    "NULL_DEDUCTIBLE",
    "PiecewiseLinearConvexUtility",
    "ProductUniform",
    "ScaleFamily",
    "ScenarioConfig",
    "TransformedType",
    "TypeDistribution",
    "UnsupportedError",
    "bl_decompose",
    "change_loss",
    "check_ic",
    "check_ir",
    "first_best_demo",
    "indirect_utility",
    "j_general",
    "monte_carlo_profit",
    "quota_share",
    "stop_loss",
    "verification",
]

__version__ = "0.1.0"
