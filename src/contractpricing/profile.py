"""Demand-price profile construction for a fixed quality ladder.

The provider already offers qualities s_1 < ... < s_L and wants nominal
demand values theta_k with price tags p_k such that every user whose
demand falls within m_k of theta_k saves most at quality s_k while the
provider clears at least b_k of profit per sale.  The construction is
iterative: theta_1 sits just above the demand floor, and each subsequent
nominal demand advances by a step Delta_j large enough that a nonempty
price window [A_j, B_j] exists.  Window ends are evaluated in closed
form as tariff differences; the quadrature forms survive only as a test
oracle (see :func:`contractpricing.verify.crosscheck_windows`).

A :class:`ProfileScenario` is validated once, when it is built, and never
in the solvers.  Every profile returned by :func:`build_profile` has been
certified by the independent verifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    CertificationError,
    ConfigError,
    DegenerateSensitivityError,
    EmptyPriceWindowError,
    NotAchievableError,
    ScenarioError,
)
from .fields import entry_list, number_column, number_list, require
from .functions import (
    DEFAULT_GRID_N,
    MAX_GRID_N,
    ConditionCheck,
    ConditionReport,
    DomainBox,
    ScalarFunction,
    TariffFunction,
    check_marginal_budget,
    check_size,
)
from .verify import verify_profile

#: absolute slack below which an inverted price window is tolerated
WINDOW_SLACK = 1e-9


@dataclass(frozen=True)
class MarginSpec:
    """Target profit-satisfaction margins.

    ``b`` holds per-quality profit floors, ``m`` per-quality demand
    half-widths; both must be finite, positive and strictly increasing.
    ``gap`` optionally widens the per-step savings premium and defaults
    to the consecutive profit increments ``b[k+1] - b[k]``.
    """

    b: tuple[float, ...]
    m: tuple[float, ...]
    gap: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))
        object.__setattr__(self, "m", tuple(float(x) for x in self.m))
        if self.gap is not None:
            object.__setattr__(self, "gap", tuple(float(x) for x in self.gap))

    @property
    def gaps(self) -> tuple[float, ...]:
        if self.gap is not None:
            return self.gap
        return tuple(self.b[k + 1] - self.b[k] for k in range(len(self.b) - 1))

    def validate(self, n_qualities: int) -> None:
        if len(self.b) != n_qualities or len(self.m) != n_qualities:
            raise ScenarioError("margins.b and margins.m must have one entry per quality")
        gaps = self.gaps
        for name, values in (("b", self.b), ("m", self.m), ("gap", gaps)):
            if not all(map(math.isfinite, values)):
                raise ScenarioError(f"margins.{name} must be finite")
        for name, values in (("b", self.b), ("m", self.m)):
            if values[0] <= 0:
                raise ScenarioError(f"margins.{name} must be positive")
            if any(x >= y for x, y in zip(values, values[1:])):
                raise ScenarioError(f"margins.{name} must be strictly increasing")
        if len(gaps) != n_qualities - 1:
            raise ScenarioError("margins.gap must have one entry per consecutive pair")
        for k, g in enumerate(gaps):
            if g < self.b[k + 1] - self.b[k] - 1e-12:
                raise ScenarioError(
                    f"margins.gap[{k}] = {g:g} below the profit increment "
                    f"{self.b[k + 1] - self.b[k]:g}")


@dataclass(frozen=True)
class ProfileScenario:
    """Inputs of the profile construction, validated when built."""

    qualities: tuple[float, ...]
    tariff: TariffFunction
    cost: ScalarFunction
    box: DomainBox
    margins: MarginSpec
    price_lambda: float = 0.5
    grid_n: int = DEFAULT_GRID_N

    def __post_init__(self):
        object.__setattr__(self, "qualities", tuple(float(s) for s in self.qualities))
        self.validate()

    @property
    def n_qualities(self) -> int:
        return len(self.qualities)

    def validate(self) -> None:
        s, box = self.qualities, self.box
        if len(s) < 1:
            raise ScenarioError("at least one quality is required")
        if not min(s) > 0:
            raise ScenarioError("qualities must be positive")
        if not all(x < y for x, y in zip(s, s[1:])):
            raise ScenarioError("qualities must be strictly increasing")
        if s[0] < box.s_low - 1e-12 or s[-1] > box.s_up + 1e-12:
            raise ScenarioError("qualities must lie within [s_low, s_up]")
        demand, quality = (box.theta_low, box.theta_up), (box.s_low, box.s_up)
        for what, (lo, hi), owner, (d_lo, d_hi) in (
                ("demand range", demand, "tariff's theta", self.tariff.theta_domain),
                ("quality range", quality, "tariff's s", self.tariff.s_domain),
                ("quality range", quality, "cost's", self.cost.domain)):
            if not (lo >= d_lo - 1e-12 and hi <= d_hi + 1e-12):
                raise ScenarioError(f"box {what} [{lo:g}, {hi:g}] exceeds the "
                                    f"{owner} domain [{d_lo:g}, {d_hi:g}]")
        self.margins.validate(len(s))
        if not 0.0 <= self.price_lambda <= 1.0:
            raise ScenarioError("price_lambda must lie in [0, 1]")
        check_size("grid_n", self.grid_n, 16, MAX_GRID_N)


@dataclass(frozen=True)
class DemandPriceProfile:
    """Solved profile: nominal demands, prices, price windows and steps.

    ``windows[0]`` is the entry window ``[C(s_1)+b_1, F(theta_low, s_1)]``;
    subsequent windows are the [A_j, B_j] intervals of the recursion.
    """

    demands: tuple[float, ...]
    prices: tuple[float, ...]
    windows: tuple[tuple[float, float], ...]
    step_sizes: tuple[float, ...]

    @property
    def entries(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.demands, self.prices))

    def to_dict(self) -> dict:
        return {
            "entries": [
                {"k": k + 1, "theta": th, "p": p, "window": [w[0], w[1]]}
                for k, (th, p, w) in enumerate(
                    zip(self.demands, self.prices, self.windows))
            ],
            "deltas": list(self.step_sizes),
        }

    @classmethod
    def from_dict(cls, data) -> "DemandPriceProfile":
        """Parse :meth:`to_dict` output; :class:`ConfigError` names the
        first field that is missing, not a finite number or of the wrong
        length (two-number windows, one step size per quality)."""
        entries = entry_list(data)
        windows = []
        for path, e in entries:
            window = number_list(require(e, "window", path), f"{path}.window")
            if len(window) != 2:
                raise ConfigError(f"{path}.window: expected two numbers")
            windows.append(tuple(window))
        deltas = number_list(require(data, "deltas", "solution"), "deltas")
        if len(deltas) != len(entries):
            raise ConfigError(
                f"deltas: expected {len(entries)} numbers, one per quality")
        return cls(demands=number_column(entries, "theta"),
                   prices=number_column(entries, "p"),
                   windows=tuple(windows), step_sizes=tuple(deltas))


def sensitivity_bounds(scenario: ProfileScenario, j: int) -> tuple[float, float]:
    """Demand-sensitivity bounds (epsilon_j, delta_j) for step ``j`` >= 2.

    ``epsilon_j`` is the largest marginal willingness to pay F_theta at
    the previous quality; ``delta_j`` the smallest increase of F_theta
    between consecutive qualities.  Both extrema are taken over a
    ``grid_n``-point demand grid (exact for families whose F_theta is
    monotone in demand, since the grid contains the endpoints).
    """
    if not 2 <= j <= scenario.n_qualities:
        raise ScenarioError(f"step index {j} outside 2..{scenario.n_qualities}")
    theta_grid = np.linspace(scenario.box.theta_low, scenario.box.theta_up,
                             scenario.grid_n)
    s_prev = scenario.qualities[j - 2]
    s_cur = scenario.qualities[j - 1]
    ft_prev = np.asarray(scenario.tariff.partials(theta_grid, s_prev)[0])
    ft_cur = np.asarray(scenario.tariff.partials(theta_grid, s_cur)[0])
    epsilon = float(np.max(ft_prev))
    delta = float(np.min(ft_cur - ft_prev))
    if delta <= 0.0:
        raise DegenerateSensitivityError(
            f"delta_{j} = {delta:g} <= 0: marginal willingness to pay does "
            f"not separate qualities {s_prev:g} and {s_cur:g}")
    return epsilon, delta


def step_size(m_cur: float, m_prev: float, epsilon: float, delta: float,
              gap: float) -> float:
    """Nominal-demand increment guaranteeing a nonempty price window."""
    return (m_cur + m_prev) * (1.0 + 2.0 * epsilon / delta) + gap / delta


def _increments(m, gaps, sens) -> tuple:
    """Delta_1 = m_1 followed by one :func:`step_size` per step.

    ``m`` and ``gaps`` may hold floats or numpy arrays that broadcast
    together; ``sens`` holds the (epsilon_j, delta_j) pairs of steps 2..L.
    """
    return (m[0],) + tuple(step_size(m[k + 1], m[k], eps, dlt, gaps[k])
                           for k, (eps, dlt) in enumerate(sens))


def step_sizes(scenario: ProfileScenario) -> tuple[float, ...]:
    """All demand increments Delta_1..Delta_L (Delta_1 = m_1)."""
    sens = [sensitivity_bounds(scenario, j)
            for j in range(2, scenario.n_qualities + 1)]
    return _increments(scenario.margins.m, scenario.margins.gaps, sens)


def _margin_conditions(scenario: ProfileScenario, b_1, m_last, deltas):
    """Entry and demand-range conditions as ``(passed, margin)`` pairs.

    ``b_1``, ``m_last`` and ``deltas`` may be floats or numpy arrays that
    broadcast together.  The arithmetic runs in the same order either
    way (increments summed left to right), so a grid evaluated in one
    broadcast agrees bit for bit with one scenario at a time.
    """
    box = scenario.box
    s1 = scenario.qualities[0]
    entry = (float(scenario.tariff.value(box.theta_low, s1))
             - float(scenario.cost.value(s1)) - b_1)
    spare = box.demand_range - (sum(deltas) + m_last)
    return (entry >= -1e-12, entry), (spare > 0.0, spare)


def _achievability(scenario: ProfileScenario
                   ) -> tuple[ConditionReport, tuple[float, ...]]:
    """Achievability report plus the increments it was decided on."""
    marginal = check_marginal_budget(scenario.tariff, scenario.cost,
                                     scenario.box, scenario.grid_n)
    deltas = step_sizes(scenario)
    margins = scenario.margins
    (entry_ok, entry), (spare_ok, spare) = _margin_conditions(
        scenario, margins.b[0], margins.m[-1], deltas)
    return ConditionReport(marginal.checks + (
        ConditionCheck("entry", entry_ok, entry, None,
                       "F(theta_low, s_1) - C(s_1) - b_1"),
        ConditionCheck("demand_range", spare_ok, spare, None,
                       "theta range minus sum of increments plus final "
                       "half-width (strict)"),
    )), deltas


def check_achievability(scenario: ProfileScenario) -> ConditionReport:
    """Report whether the requested margins are achievable.

    Three conditions, each with a signed margin:

    * ``marginal_budget``: worst-case marginal willingness to pay covers
      the marginal cost at every quality;
    * ``entry``: the cheapest quality is affordable at the demand floor,
      cost plus first profit target included;
    * ``demand_range``: the demand increments plus the final half-width
      fit strictly inside the demand range.
    """
    return _achievability(scenario)[0]


def price_window(scenario: ProfileScenario, j: int, theta_prev: float,
                 p_prev: float, theta_j: float) -> tuple[float, float]:
    """Price window [A_j, B_j] for step ``j`` >= 2.

    ``A_j`` is forced by the savings-premium (profit) constraint at the
    previous nominal demand, ``B_j`` by incentive compatibility at the
    new one.  Both are exact tariff differences (the line integrals of
    F_s and F_theta telescoped by the fundamental theorem of calculus).
    Raises :class:`EmptyPriceWindowError` when A_j exceeds B_j beyond a
    small absolute slack.
    """
    if not 2 <= j <= scenario.n_qualities:
        raise ScenarioError(f"step index {j} outside 2..{scenario.n_qualities}")
    s_prev = scenario.qualities[j - 2]
    s_cur = scenario.qualities[j - 1]
    m_prev = scenario.margins.m[j - 2]
    m_cur = scenario.margins.m[j - 1]
    gap_prev = scenario.margins.gaps[j - 2]
    F = scenario.tariff.value

    a_j = (p_prev + F(theta_prev + m_prev, s_cur)
           - F(theta_prev - m_prev, s_prev) + gap_prev)
    b_j = (p_prev + F(theta_j - m_cur, s_cur)
           - F(theta_j + m_cur, s_prev))
    if a_j > b_j + WINDOW_SLACK:
        raise EmptyPriceWindowError(
            f"empty price window at step {j}: A_{j} = {a_j:.12g} exceeds "
            f"B_{j} = {b_j:.12g}")
    return float(a_j), float(b_j)


def build_profile(scenario: ProfileScenario) -> DemandPriceProfile:
    """Construct and certify the full demand-price profile.

    Fails with :class:`NotAchievableError` when the achievability report
    has a failing condition; propagates window and sensitivity errors;
    raises :class:`CertificationError` if the finished profile does not
    pass the independent verifier.  Never returns an uncertified profile.
    """
    report, deltas = _achievability(scenario)
    if not report.passed:
        failed = ", ".join(c.cid for c in report.failures)
        raise NotAchievableError(
            f"profit-satisfaction margin not achievable; failing condition(s): "
            f"{failed}", report=report)

    box = scenario.box
    s = scenario.qualities
    b = scenario.margins.b
    m = scenario.margins.m
    lam = scenario.price_lambda

    theta_1 = box.theta_low + m[0]
    w_lo = float(scenario.cost.value(s[0])) + b[0]
    w_hi = float(scenario.tariff.value(box.theta_low, s[0]))
    demands = [theta_1]
    prices = [w_lo + lam * (w_hi - w_lo)]
    windows = [(w_lo, w_hi)]

    for j in range(2, scenario.n_qualities + 1):
        theta_j = demands[-1] + deltas[j - 1]
        a_j, b_j = price_window(scenario, j, demands[-1], prices[-1], theta_j)
        demands.append(theta_j)
        prices.append(a_j + lam * max(0.0, b_j - a_j))
        windows.append((a_j, b_j))

    if demands[-1] + m[-1] > box.theta_up + 1e-12:
        raise CertificationError(
            f"final band exceeds the demand range: theta_L + m_L = "
            f"{demands[-1] + m[-1]:.12g} > theta_up = {box.theta_up:.12g}")

    profile = DemandPriceProfile(tuple(demands), tuple(prices),
                                 tuple(windows), deltas)
    verification = verify_profile(profile, scenario)
    if not verification.passed:
        raise CertificationError(
            "constructed profile failed verification", report=verification)
    return profile
