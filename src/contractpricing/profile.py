"""Demand-price profile construction for a fixed quality ladder.

The provider already offers qualities s_1 < ... < s_L and wants nominal
demand values theta_k with price tags p_k such that every user whose
demand falls within m_k of theta_k saves most at quality s_k while the
provider clears at least b_k of profit per sale.  The construction is
iterative: theta_1 sits just above the demand floor, and each subsequent
nominal demand advances by a step Delta_j large enough that a nonempty
price window [A_j, B_j] exists.  Window ends are evaluated in closed
form as tariff differences; the quadrature forms survive only as a test
oracle, outside the package (``tests/oracles.py``).

A :class:`ProfileScenario` is validated once, when it is built, and never
in the solvers.  Every profile returned by :func:`build_profile` has been
certified by the independent verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificationError,
    ConfigError,
    DegenerateSensitivityError,
    EmptyPriceWindowError,
    NotAchievableError,
    ScenarioError,
)
from .fields import column, entry_list, require
from .functions import (
    DEFAULT_GRID_N,
    MAX_GRID_N,
    ConditionCheck,
    ConditionReport,
    DomainBox,
    ScalarFunction,
    TariffFunction,
    _coefficient,
    _coefficients,
    _inside,
    check_integer,
    check_marginal_budget,
    check_size,
    tolerance,
)
from .verify import verify_profile


@dataclass(frozen=True)
class MarginSpec:
    """Target profit-satisfaction margins.

    ``b`` holds per-quality profit floors, ``m`` per-quality demand
    half-widths; both must be finite, positive and strictly increasing.
    The savings premium of step j is the profit increment
    ``b[j-1] - b[j-2]``.
    """

    b: tuple[float, ...]
    m: tuple[float, ...]

    def __post_init__(self):
        for key in ("b", "m"):
            object.__setattr__(self, key, tuple(_coefficients(
                f"margins.{key}", getattr(self, key), "finite", ndim=1).tolist()))

    def validate(self, n_qualities: int) -> None:
        if len(self.b) != n_qualities or len(self.m) != n_qualities:
            raise ScenarioError("margins.b and margins.m must have one entry per quality")
        for name, values in (("b", self.b), ("m", self.m)):
            if values[0] <= 0:
                raise ScenarioError(f"margins.{name} must be positive")
            if any(x >= y for x, y in zip(values, values[1:])):
                raise ScenarioError(f"margins.{name} must be strictly increasing")


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
        object.__setattr__(self, "qualities", tuple(_coefficients(
            "qualities", self.qualities, "positive", ndim=1).tolist()))
        object.__setattr__(self, "price_lambda", _coefficient("price_lambda", self.price_lambda))
        self.validate()

    @property
    def n_qualities(self) -> int:
        return len(self.qualities)

    def validate(self) -> None:
        s, box = self.qualities, self.box
        if len(s) < 1:
            raise ScenarioError("at least one quality is required")
        if not all(x < y for x, y in zip(s, s[1:])):
            raise ScenarioError("qualities must be strictly increasing")
        if not all(_inside(x, box.s_low, box.s_up) for x in (s[0], s[-1])):
            raise ScenarioError("qualities must lie within [s_low, s_up]")
        demand, quality = (box.theta_low, box.theta_up), (box.s_low, box.s_up)
        for what, (lo, hi), owner, (d_lo, d_hi) in (
                ("demand range", demand, "tariff's theta", self.tariff.theta_domain),
                ("quality range", quality, "tariff's s", self.tariff.s_domain),
                ("quality range", quality, "cost's", self.cost.domain)):
            if not (_inside(lo, d_lo, d_hi) and _inside(hi, d_lo, d_hi)):
                raise ScenarioError(f"box {what} [{lo:g}, {hi:g}] exceeds the "
                                    f"{owner} domain [{d_lo:g}, {d_hi:g}]")
        self.margins.validate(len(s))
        if not self.price_lambda <= 1.0:
            raise ScenarioError("price_lambda must lie in [0, 1]")
        check_size("grid_n", self.grid_n, 16, MAX_GRID_N)

    def _check_step(self, j: int) -> None:
        """Reject a step index that is not an integer in 2..n_qualities."""
        check_integer("step index", j)
        if not 2 <= j <= self.n_qualities:
            raise ScenarioError(f"step index {j} outside 2..{self.n_qualities}")


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
        """Parse :meth:`to_dict` output; the error names the first field
        that is missing or a window that is not two numbers
        (:class:`ConfigError`), or a field that is not a finite number
        (:class:`ScenarioError`).  The verifier checks the column lengths."""
        entries = entry_list(data)
        windows = []
        for path, window in column(entries, "window"):
            window = tuple(_coefficients(path, window, "finite", ndim=1).tolist())
            if len(window) != 2:
                raise ConfigError(f"{path}: expected two numbers")
            windows.append(window)
        deltas = _coefficients("deltas", require(data, "deltas", "solution"), "finite", ndim=1)
        demands, prices = (tuple(_coefficient(path, value, "finite")
                                 for path, value in column(entries, key))
                           for key in ("theta", "p"))
        return cls(demands, prices, tuple(windows), tuple(deltas.tolist()))


def sensitivity_bounds(scenario: ProfileScenario, j: int) -> tuple[float, float]:
    """Demand-sensitivity bounds (epsilon_j, delta_j) for step ``j`` >= 2.

    ``epsilon_j`` is the largest marginal willingness to pay F_theta at
    the previous quality; ``delta_j`` the smallest increase of F_theta
    between consecutive qualities.  Both extrema are taken over a
    ``grid_n``-point demand grid (exact for families whose F_theta is
    monotone in demand, since the grid contains the endpoints).
    """
    scenario._check_step(j)
    theta_grid = np.linspace(scenario.box.theta_low, scenario.box.theta_up,
                             scenario.grid_n)
    s_prev = scenario.qualities[j - 2]
    s_cur = scenario.qualities[j - 1]
    ft_prev = scenario.tariff.partials(theta_grid, s_prev)[0]
    ft_cur = scenario.tariff.partials(theta_grid, s_cur)[0]
    epsilon = float(np.max(ft_prev))
    delta = float(np.min(ft_cur - ft_prev))
    if delta <= 0.0:
        raise DegenerateSensitivityError(
            f"delta_{j} = {delta:g} <= 0: marginal willingness to pay does "
            f"not separate qualities {s_prev:g} and {s_cur:g}")
    return epsilon, delta


def _step_size(m_cur: float, m_prev: float, epsilon: float, delta: float,
               premium: float) -> float:
    """Nominal-demand increment guaranteeing a nonempty price window."""
    return (m_cur + m_prev) * (1.0 + 2.0 * epsilon / delta) + premium / delta


def _increments(scenario: ProfileScenario, b, m) -> tuple:
    """Delta_1 = m_1 followed by one :func:`_step_size` per step 2..L, each
    with the profit increment ``b[j-1] - b[j-2]`` as its premium.

    ``b`` and ``m`` may hold floats or numpy arrays that broadcast
    together.
    """
    return (m[0],) + tuple(
        _step_size(m[j - 1], m[j - 2], *sensitivity_bounds(scenario, j),
                   b[j - 1] - b[j - 2])
        for j in range(2, scenario.n_qualities + 1))


def step_sizes(scenario: ProfileScenario) -> tuple[float, ...]:
    """All demand increments Delta_1..Delta_L (Delta_1 = m_1)."""
    return _increments(scenario, scenario.margins.b, scenario.margins.m)


def _conditions(scenario: ProfileScenario, b, m):
    """The achievability conditions of margins ``b`` and ``m``; each
    step's savings premium is the profit increment of ``b``.

    Returns the marginal-budget report, the increments, and the entry
    and demand-range conditions as ``(passed, margin)`` pairs.  The
    margins may be floats or numpy arrays that broadcast together; the
    arithmetic runs in the same order either way (increments summed left
    to right), so a grid evaluated in one broadcast agrees bit for bit
    with one scenario at a time.
    """
    box = scenario.box
    marginal = check_marginal_budget(scenario.tariff, scenario.cost, box,
                                     scenario.grid_n)
    deltas = _increments(scenario, b, m)
    s1 = scenario.qualities[0]
    f_entry = scenario.tariff.value(box.theta_low, s1)
    cost = scenario.cost.value(s1)
    entry = f_entry - cost - b[0]
    spare = box.demand_range - (sum(deltas) + m[-1])
    return (marginal, deltas, (entry >= -tolerance(f_entry, cost, b[0]), entry),
            (spare > 0.0, spare))


def _achievability(scenario: ProfileScenario
                   ) -> tuple[ConditionReport, tuple[float, ...]]:
    """Achievability report plus the increments it was decided on."""
    margins = scenario.margins
    marginal, deltas, (entry_ok, entry), (spare_ok, spare) = _conditions(
        scenario, margins.b, margins.m)
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
    Raises :class:`EmptyPriceWindowError` when A_j exceeds B_j by more
    than the tolerance of the price and tariff values that formed them.
    """
    scenario._check_step(j)
    theta_prev, p_prev, theta_j = (_coefficient(name, x, "finite") for name, x in zip(
        ("theta_prev", "p_prev", "theta_j"), (theta_prev, p_prev, theta_j)))
    s_prev = scenario.qualities[j - 2]
    s_cur = scenario.qualities[j - 1]
    b, m = scenario.margins.b, scenario.margins.m
    m_prev, m_cur, premium = m[j - 2], m[j - 1], b[j - 1] - b[j - 2]
    F = scenario.tariff.value

    f_a, f_a_prev = F(theta_prev + m_prev, s_cur), F(theta_prev - m_prev, s_prev)
    f_b, f_b_prev = F(theta_j - m_cur, s_cur), F(theta_j + m_cur, s_prev)
    a_j = p_prev + f_a - f_a_prev + premium
    b_j = p_prev + f_b - f_b_prev
    if a_j - b_j > tolerance(p_prev, f_a, f_a_prev, f_b, f_b_prev, premium):
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
    w_lo = scenario.cost.value(s[0]) + b[0]
    w_hi = scenario.tariff.value(box.theta_low, s[0])
    demands = [theta_1]
    prices = [w_lo + lam * (w_hi - w_lo)]
    windows = [(w_lo, w_hi)]

    for j in range(2, scenario.n_qualities + 1):
        theta_j = demands[-1] + deltas[j - 1]
        a_j, b_j = price_window(scenario, j, demands[-1], prices[-1], theta_j)
        demands.append(theta_j)
        prices.append(a_j + lam * max(0.0, b_j - a_j))
        windows.append((a_j, b_j))

    if demands[-1] + m[-1] - box.theta_up > tolerance(demands[-1], m[-1], box.theta_up):
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
