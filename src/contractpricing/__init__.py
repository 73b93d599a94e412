"""Target-profit pricing under rationality and incentive constraints.

The package computes two kinds of certified price systems:

* quality-price menus for a fixed profile of user types
  (:func:`~contractpricing.menu.solve_menu`),
* demand-price profiles for a fixed ladder of qualities
  (:func:`~contractpricing.profile.build_profile`),

plus the achievable profit-satisfaction region
(:mod:`~contractpricing.tradeoff`), an independent verifier with a
seeded market simulator (:mod:`~contractpricing.verify`), and a
config-driven CLI (:mod:`~contractpricing.cli`).
"""

from .errors import (
    BracketError,
    CertificationError,
    ConfigError,
    ConstraintViolationError,
    ContractPricingError,
    DegenerateSensitivityError,
    DegenerateTypesError,
    DomainError,
    EmptyPriceWindowError,
    NoInteriorMaximizerError,
    NotAchievableError,
    NumericalError,
    ReducedAccuracyWarning,
    RegularityError,
    ScenarioError,
    UnboundedFeasibleSetError,
)
from .functions import (
    BilinearTariff,
    ConditionCheck,
    ConditionReport,
    DomainBox,
    LinearFunction,
    LogFunction,
    PowerFunction,
    ScalarFunction,
    ScaledFunction,
    SeparableTariff,
    TabulatedFunction,
    TabulatedTariff,
    TariffFunction,
    check_marginal_budget,
    check_menu_regularity,
)
from .menu import MenuScenario, QualityPriceMenu, feasible_interval, maximize_net, solve_menu
from .profile import (
    DemandPriceProfile,
    MarginSpec,
    ProfileScenario,
    build_profile,
    check_achievability,
    price_window,
    sensitivity_bounds,
    step_sizes,
)
from .tradeoff import TradeoffCurve, empirical_region, homogeneous_region
from .verify import (
    BandStats,
    MarketSimReport,
    OutOfBandStats,
    VerificationReport,
    Violation,
    simulate_market,
    verify_menu,
    verify_profile,
)
from .config import ScenarioConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "BandStats",
    "BilinearTariff",
    "BracketError",
    "CertificationError",
    "ConditionCheck",
    "ConditionReport",
    "ConfigError",
    "ConstraintViolationError",
    "ContractPricingError",
    "DegenerateSensitivityError",
    "DegenerateTypesError",
    "DemandPriceProfile",
    "DomainBox",
    "DomainError",
    "EmptyPriceWindowError",
    "LinearFunction",
    "LogFunction",
    "MarginSpec",
    "MarketSimReport",
    "MenuScenario",
    "NoInteriorMaximizerError",
    "NotAchievableError",
    "NumericalError",
    "OutOfBandStats",
    "PowerFunction",
    "ProfileScenario",
    "QualityPriceMenu",
    "ReducedAccuracyWarning",
    "RegularityError",
    "ScalarFunction",
    "ScaledFunction",
    "ScenarioConfig",
    "ScenarioError",
    "SeparableTariff",
    "TabulatedFunction",
    "TabulatedTariff",
    "TariffFunction",
    "TradeoffCurve",
    "UnboundedFeasibleSetError",
    "VerificationReport",
    "Violation",
    "build_profile",
    "check_achievability",
    "check_marginal_budget",
    "check_menu_regularity",
    "empirical_region",
    "feasible_interval",
    "homogeneous_region",
    "load_config",
    "maximize_net",
    "price_window",
    "sensitivity_bounds",
    "simulate_market",
    "solve_menu",
    "step_sizes",
    "verify_menu",
    "verify_profile",
]
