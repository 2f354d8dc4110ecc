"""Optimal second-best reinsurance menus for VaR-minimizing insurers.

A monopolistic reinsurer screens a continuum of hidden types (VaR level,
loss scale) with menus drawn from the stop-loss, quota-share, or
change-loss contract classes.  The solvers reduce the menu design to a
one-dimensional search over the kink of the indirect utility; the
verification module audits the results independently.
"""

from . import threshold, verification
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
    LossModel,
    ScaleFamily,
)
from .type_space import (
    DegenerateAlpha,
    DiscreteTypes,
    ProductUniform,
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
    "LossModel",
    "MenuEntry",
    "NULL_DEDUCTIBLE",
    "PiecewiseLinearConvexUtility",
    "ProductUniform",
    "ScaleFamily",
    "ScenarioConfig",
    "TypeDistribution",
    "UnsupportedError",
    "bl_decompose",
    "check_ic",
    "check_ir",
    "first_best_demo",
    "indirect_utility",
    "j_general",
    "monte_carlo_profit",
    "threshold",
    "verification",
]

__version__ = "0.1.0"
