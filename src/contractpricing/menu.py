"""Quality-price menu construction for a fixed user type profile.

Given per-type budgets P_i, a cost C and a profit target B, each type is
assigned the quality that maximizes its net saving
``f_i(s) = P_i(s) - C(s) - B(s)`` over the feasible set ``{f_i >= 0}``,
and the price tag ``p_i = C(s_i) + B(s_i)``.  Under the regularity
conditions checked by :func:`~contractpricing.functions.check_menu_regularity`
the resulting menu satisfies the individual-rationality and
incentive-compatibility constraints by construction; the solver still
certifies every menu through the independent verifier before returning it.

All searches use plain bisection: only continuity and monotonicity of
the derivative are guaranteed, and robustness beats speed at these
problem sizes.

A :class:`MenuScenario` is validated once, when it is built, and never in
the solvers; :meth:`MenuScenario.validate` proves that every budget, the
cost and the profit target are defined on ``[0, s_search_max]``, and every
search point lies in that window.  The searches and the per-type price and
net evaluate through the unchecked ``MenuScenario._net``/``_net_derivative``;
the public ``net``/``net_derivative`` and the verifier keep their checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketError,
    CertificationError,
    DegenerateTypesError,
    NoInteriorMaximizerError,
    RegularityError,
    ScenarioError,
    UnboundedFeasibleSetError,
)
from .fields import entry_list, number_column
from .functions import (DEFAULT_GRID_N, MAX_GRID_N, PROBE_SCAN_START,
                        ScalarFunction, _inside, check_menu_regularity,
                        check_size, tolerance)
from .verify import verify_menu

#: relative bracket width at which the maximizer bisection stops
MAXIMIZER_TOL = 1e-9

#: relative bracket width at which the feasible-boundary bisection stops
ROOT_TOL = 1e-12

#: lower end of the feasible-boundary scan, per s_search_max
SEARCH_SCAN_START = 1e-15


@dataclass(frozen=True)
class MenuScenario:
    """Inputs of the menu construction.

    ``budgets`` are ordered by type (lowest first) and must satisfy the
    single crossing condition for consecutive pairs; ``s_probe_max`` and
    ``grid_n`` control the regularity scan, ``s_search_max`` caps all
    bracketing searches.  Every budget, the cost and the profit target
    must be defined on [0, s_search_max].
    """

    budgets: tuple[ScalarFunction, ...]
    cost: ScalarFunction
    profit: ScalarFunction
    s_search_max: float = 1e6
    s_probe_max: float = 100.0
    grid_n: int = DEFAULT_GRID_N

    def __post_init__(self):
        object.__setattr__(self, "budgets", tuple(self.budgets))
        self.validate()

    @property
    def n_types(self) -> int:
        return len(self.budgets)

    def validate(self) -> None:
        if self.n_types < 1:
            raise ScenarioError("at least one budget function is required")
        # the regularity scan doubles its probe up to s_search_max
        if not 0 < self.s_search_max < math.inf:
            raise ScenarioError("s_search_max must be positive and finite")
        if not 0 < self.s_probe_max <= self.s_search_max:
            raise ScenarioError("s_probe_max must lie in (0, s_search_max]")
        # every point of the geometric scans is a normal float: a window
        # of subnormals fails the regularity scan on rounding alone
        tiny = float(np.finfo(float).tiny)
        for key, start in (("s_search_max", SEARCH_SCAN_START),
                           ("s_probe_max", PROBE_SCAN_START)):
            if not getattr(self, key) * start >= tiny:
                raise ScenarioError(f"{key} = {getattr(self, key):g} is too "
                                    f"small: {start:g} * {key} is below the "
                                    f"smallest normal float {tiny:g}")
        check_size("grid_n", self.grid_n, 16, MAX_GRID_N)
        named = [(f"budgets[{i}]", p) for i, p in enumerate(self.budgets)]
        for name, func in named + [("cost", self.cost), ("profit", self.profit)]:
            lo, hi = func.domain
            if not (_inside(0.0, lo, hi) and _inside(self.s_search_max, lo, hi)):
                raise ScenarioError(
                    f"{name} domain [{lo:g}, {hi:g}] does not cover the "
                    f"search window [0, {self.s_search_max:g}]")

    def _check_type(self, i: int) -> None:
        """Reject a type index outside 1..n_types."""
        if not 1 <= i <= self.n_types:
            raise ScenarioError(f"type index {i} outside 1..{self.n_types}")

    def net(self, i: int, s):
        """Net saving f_i(s) = P_i(s) - C(s) - B(s) for 1-based type i."""
        self._check_type(i)
        return (np.asarray(self.budgets[i - 1].value(s))
                - np.asarray(self.cost.value(s))
                - np.asarray(self.profit.value(s)))

    def net_derivative(self, i: int, s):
        self._check_type(i)
        return (np.asarray(self.budgets[i - 1].derivative(s))
                - np.asarray(self.cost.derivative(s))
                - np.asarray(self.profit.derivative(s)))

    def _net(self, i: int, s):
        """Unchecked :meth:`net`, for points of a validated window."""
        s = np.asarray(s, dtype=float)
        return (self.budgets[i - 1]._value(s) - self.cost._value(s)
                - self.profit._value(s))

    def _net_derivative(self, i: int, s):
        s = np.asarray(s, dtype=float)
        return (self.budgets[i - 1]._derivative(s) - self.cost._derivative(s)
                - self.profit._derivative(s))


@dataclass(frozen=True)
class QualityPriceMenu:
    """Solved menu: one (quality, price) entry per type, lowest first."""

    qualities: tuple[float, ...]
    prices: tuple[float, ...]
    net_values: tuple[float, ...]

    @property
    def entries(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.qualities, self.prices))

    def to_dict(self) -> dict:
        return {
            "entries": [
                {"type": k + 1, "s": s, "p": p, "net": net}
                for k, (s, p, net) in enumerate(
                    zip(self.qualities, self.prices, self.net_values))
            ]
        }

    @classmethod
    def from_dict(cls, data) -> "QualityPriceMenu":
        """Parse :meth:`to_dict` output; :class:`ConfigError` names the
        first field that is missing or not a finite number."""
        entries = entry_list(data)
        return cls(*(number_column(entries, key) for key in ("s", "p", "net")))


def feasible_interval(i: int, scenario: MenuScenario) -> tuple[float, float]:
    """Feasible quality interval [0, a_i] of type ``i`` (1-based).

    ``a_i`` is the positive boundary of ``{f_i >= 0}``, located by a
    geometric scan for a sign bracket followed by bisection.  Returns the
    degenerate interval (0, 0) when the net saving is negative everywhere
    on (0, s_search_max].
    """
    scenario._check_type(i)
    cap = scenario.s_search_max
    candidates = np.geomspace(cap * SEARCH_SCAN_START, cap, 256)
    vals = scenario._net(i, candidates)

    pos = np.flatnonzero(vals > 0.0)
    if pos.size == 0:
        return (0.0, 0.0)
    first_pos = int(pos[0])

    neg = np.flatnonzero(vals[first_pos:] < 0.0)
    if neg.size == 0:
        raise UnboundedFeasibleSetError(
            f"net saving of type {i} stays nonnegative up to s_search_max="
            f"{cap:g}; enlarge the search bracket")
    hi_idx = first_pos + int(neg[0])
    lo = float(candidates[hi_idx - 1])
    hi = float(candidates[hi_idx])

    while hi - lo > ROOT_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if float(scenario._net(i, mid)) >= 0.0:
            lo = mid
        else:
            hi = mid
    return (0.0, 0.5 * (lo + hi))


def maximize_net(i: int, scenario: MenuScenario) -> float:
    """Quality s_i maximizing the net saving of type ``i`` (1-based).

    The stationary point is the unique zero of the strictly decreasing
    derivative f'_i on the feasible interval, found by bisection down to
    a bracket width of ``MAXIMIZER_TOL * max(1, a_i)``.
    """
    _, a_i = feasible_interval(i, scenario)
    if a_i <= 0.0:
        raise NoInteriorMaximizerError(
            f"type {i} has a degenerate feasible interval; no quality earns "
            "a nonnegative net saving")

    lo = min(1e-9, 1e-9 * a_i)
    if float(scenario._net_derivative(i, lo)) <= 0.0:
        raise NoInteriorMaximizerError(
            f"net saving of type {i} is nonincreasing at 0+; the maximum "
            "sits at zero quality")
    if float(scenario._net_derivative(i, a_i)) >= 0.0:
        raise BracketError(
            f"net-saving derivative of type {i} does not change sign on "
            f"(0, {a_i:g}]")

    hi = a_i
    tol = MAXIMIZER_TOL * max(1.0, a_i)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if float(scenario._net_derivative(i, mid)) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_menu(scenario: MenuScenario) -> QualityPriceMenu:
    """Construct and certify the full quality-price menu.

    Runs the regularity checks, maximizes each type's net saving, prices
    every quality at cost plus target profit, and certifies the result
    through the independent verifier before returning it.
    """
    report = check_menu_regularity(scenario)
    if not report.passed:
        failed = ", ".join(c.cid for c in report.failures)
        raise RegularityError(
            f"regularity conditions failed: {failed}", report=report)

    qualities: list[float] = []
    prices: list[float] = []
    nets: list[float] = []
    for i in range(1, scenario.n_types + 1):
        s_i = maximize_net(i, scenario)
        s = np.asarray(s_i)
        p_i = float(scenario.cost._value(s)) + float(scenario.profit._value(s))
        qualities.append(s_i)
        prices.append(p_i)
        nets.append(float(scenario._net(i, s_i)))

    for k in range(1, scenario.n_types):
        if not all(x[k] - x[k - 1] > tolerance(x[k], x[k - 1])
                   for x in (qualities, prices)):
            raise DegenerateTypesError(
                f"types {k} and {k + 1} produced entries that do not increase "
                f"by more than the tolerance "
                f"(s: {qualities[k - 1]:g} -> {qualities[k]:g}, "
                f"p: {prices[k - 1]:g} -> {prices[k]:g}); budgets are too close")

    menu = QualityPriceMenu(tuple(qualities), tuple(prices), tuple(nets))
    report = verify_menu(menu, scenario)
    if not report.passed:
        raise CertificationError(
            "constructed menu failed verification", report=report)
    return menu
