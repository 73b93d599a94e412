"""Exception hierarchy and process exit codes.

Every error the solvers can raise maps onto one of three exit-code
families used by the command line front end:

* 2 -- configuration / input problems (bad config file, out-of-domain
  evaluation, malformed scenario),
* 3 -- a stated condition or constraint does not hold (regularity or
  achievability failure, certification failure),
* 4 -- a numerical procedure could not complete (bracketing failure,
  empty price window, unbounded feasible set).
"""


class ContractPricingError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(ContractPricingError):
    """Malformed or inconsistent configuration input."""

    exit_code = 2


class ScenarioError(ConfigError):
    """Scenario values violate a structural invariant (ordering, signs)."""


class DomainError(ConfigError):
    """A function was evaluated outside its declared domain."""


class ConstraintViolationError(ContractPricingError):
    """A required condition of the construction does not hold.

    Carries the condition or verification report, when there is one, on
    the ``report`` attribute.
    """

    exit_code = 3

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class RegularityError(ConstraintViolationError):
    """The menu-construction regularity conditions failed."""


class NotAchievableError(ConstraintViolationError):
    """The requested profit-satisfaction margin is not achievable."""


class NoInteriorMaximizerError(ConstraintViolationError):
    """Net-saving function has no interior maximizer (degenerate type)."""


class DegenerateTypesError(ConstraintViolationError):
    """Two user types produced numerically identical menu entries."""


class DegenerateSensitivityError(ConstraintViolationError):
    """Adjacent qualities are indistinguishable: delta_j <= 0 on the grid."""


class CertificationError(ConstraintViolationError):
    """A constructed solution failed its own post-build verification."""


class NumericalError(ContractPricingError):
    """A numerical search failed to complete."""

    exit_code = 4


class BracketError(NumericalError):
    """A root/maximizer search could not locate a sign change."""


class UnboundedFeasibleSetError(NumericalError):
    """No upper root found below the search cap; enlarge s_search_max."""


class EmptyPriceWindowError(NumericalError):
    """Price window [A_j, B_j] is empty: construction infeasible at step j."""


class ReducedAccuracyWarning(UserWarning):
    """No longer emitted (tabulated derivatives are exact); kept for filters."""
