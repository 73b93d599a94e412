"""Independent certification of menus and profiles.

The verifier re-evaluates every constraint of a solution directly from
the scenario's functions, without reusing any intermediate quantity of
the solvers.  A seeded Monte Carlo market simulator doubles as a
behavioral oracle: users drawn inside a satisfaction band should pick
the intended quality, out-of-band users are only guaranteed
affordability.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, TYPE_CHECKING

import numpy as np

from .errors import ScenarioError
from .functions import check_size
from .serialize import null_non_finite

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .menu import MenuScenario, QualityPriceMenu
    from .profile import DemandPriceProfile, ProfileScenario

#: default slack below which a signed margin counts as a violation
DEFAULT_SLACK = 1e-9

#: tie tolerance of the simulated users' choice
CHOICE_TIE_TOL = 1e-9

#: users the simulator evaluates at once: a block's savings at every
#: quality stay in cache, and the simulation's memory does not grow with
#: the number of qualities
SIM_BLOCK = 1 << 14

# upper bounds of the sizing knobs, checked before anything is allocated
MAX_PROBES_PER_BAND = 1 << 16
MAX_SAMPLES_PER_BAND = 10 ** 7


@dataclass(frozen=True)
class Violation:
    """One violated constraint with its signed margin and witness values."""

    constraint: str
    k: int
    l: Optional[int]
    margin: float
    witness: dict

    def to_dict(self) -> dict:
        return null_non_finite(asdict(self))


@dataclass(frozen=True)
class VerificationReport:
    """Certification outcome: empty violation list means pass.

    ``worst_margin`` is the minimum signed slack across every checked
    constraint (negative means violated), regardless of pass/fail; NaN
    when any margin was NaN.
    """

    passed: bool
    violations: tuple[Violation, ...]
    worst_margin: float

    def to_dict(self) -> dict:
        return null_non_finite({
            "passed": self.passed,
            "worst_margin": self.worst_margin,
            "violations": [v.to_dict() for v in self.violations],
        })


class _Margins:
    """Accumulates signed margins and flags those below the slack.

    Fails closed: a margin that is not ``>= -slack`` (NaN included) is a
    violation, and a NaN margin stays the worst one.
    """

    def __init__(self, slack: float):
        self.slack = slack
        self.worst = math.inf
        self.violations: list[Violation] = []

    def add(self, constraint: str, k: int, l: Optional[int], margin: float,
            witness: dict) -> None:
        if margin < self.worst or math.isnan(margin):
            self.worst = margin
        if not margin >= -self.slack:
            self.violations.append(Violation(constraint, k, l, float(margin), witness))

    def report(self) -> VerificationReport:
        return VerificationReport(
            passed=not self.violations,
            violations=tuple(self.violations),
            worst_margin=self.worst,
        )


def verify_menu(menu: "QualityPriceMenu", scenario: "MenuScenario",
                slack: float = DEFAULT_SLACK) -> VerificationReport:
    """Check a menu against the rationality and incentive constraints.

    For every type k: the budget at the assigned quality covers the
    price, the price covers cost plus target profit, and no other entry
    offers a larger saving.  Exact arithmetic on the supplied function
    evaluations; report-valued.
    """
    n = len(menu.qualities)
    if n != scenario.n_types:
        raise ScenarioError(
            f"menu has {n} entries but scenario declares {scenario.n_types} types")

    acc = _Margins(slack)
    budgets_at = [
        [float(scenario.budgets[k].value(s_l)) for s_l in menu.qualities]
        for k in range(n)
    ]
    for k in range(n):
        s_k, p_k = menu.qualities[k], menu.prices[k]
        budget = budgets_at[k][k]
        floor = float(scenario.cost.value(s_k)) + float(scenario.profit.value(s_k))
        acc.add("IR.budget", k + 1, None, budget - p_k,
                {"budget": budget, "price": p_k})
        acc.add("IR.profit", k + 1, None, p_k - floor,
                {"price": p_k, "cost_plus_profit": floor})
        own_saving = budget - p_k
        for l in range(n):
            if l == k:
                continue
            other_saving = budgets_at[k][l] - menu.prices[l]
            acc.add("IC", k + 1, l + 1, own_saving - other_saving,
                    {"own_saving": own_saving, "other_saving": other_saving})
    return acc.report()


def _band_probes(theta_k: float, m_k: float, probes_per_band: int) -> np.ndarray:
    lo, hi = theta_k - m_k, theta_k + m_k
    probes = np.linspace(lo, hi, probes_per_band)
    return np.unique(np.concatenate([probes, [lo, theta_k, hi]]))


def verify_profile(profile: "DemandPriceProfile", scenario: "ProfileScenario",
                   probes_per_band: int = 9,
                   slack: float = DEFAULT_SLACK) -> VerificationReport:
    """Check a profile against rationality, incentive and premium constraints.

    Each satisfaction band is probed at its endpoints, its center and
    ``probes_per_band`` uniform interior points (endpoints alone suffice
    for monotone tariffs, but tabulated inputs may wiggle between knots).
    Per band k: affordability and the profit floor hold at every probe,
    quality s_k saves at least as much as any other quality, and for
    k < L the savings premium over the next quality meets the gap.
    Report-valued.
    """
    check_size("probes_per_band", probes_per_band, 3, MAX_PROBES_PER_BAND)
    n = len(profile.demands)
    if n != scenario.n_qualities:
        raise ScenarioError(
            f"profile has {n} entries but scenario declares "
            f"{scenario.n_qualities} qualities")

    s = scenario.qualities
    b = scenario.margins.b
    m = scenario.margins.m
    gaps = scenario.margins.gaps
    F = scenario.tariff.value
    qualities = np.asarray(s)[:, None]
    prices = np.asarray(profile.prices)[:, None]
    acc = _Margins(slack)

    for k in range(n):
        theta_k, p_k = profile.demands[k], profile.prices[k]
        probes = _band_probes(theta_k, m[k], probes_per_band)
        # every quality (rows) at every probe (columns) in one call
        values = F(probes[None, :], qualities)
        savings = values - prices

        own_saving = savings[k]
        worst = int(np.argmin(own_saving))
        acc.add("IR.budget", k + 1, None, float(own_saving[worst]),
                {"theta": float(probes[worst]), "tariff": float(values[k, worst]),
                 "price": p_k})

        floor = float(scenario.cost.value(s[k])) + b[k]
        acc.add("IR.profit", k + 1, None, p_k - floor,
                {"price": p_k, "cost_plus_target": floor})

        for l in range(n):
            if l == k:
                continue
            other_saving = savings[l]
            diff = own_saving - other_saving
            worst = int(np.argmin(diff))
            acc.add("IC", k + 1, l + 1, float(diff[worst]),
                    {"theta": float(probes[worst]),
                     "own_saving": float(own_saving[worst]),
                     "other_saving": float(other_saving[worst])})

    for k in range(n - 1):
        theta_k, p_k = profile.demands[k], profile.prices[k]
        omega = float(F(theta_k - m[k], s[k])) - p_k
        rhs = gaps[k] + float(F(theta_k + m[k], s[k + 1])) - profile.prices[k + 1]
        acc.add("profit_constraint", k + 1, k + 2, omega - rhs,
                {"saving_floor": omega, "next_quality_pull": rhs})

    return acc.report()


# ---------------------------------------------------------------------------
# market simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandStats:
    """Per-band outcome of the simulated market."""

    k: int
    theta: float
    quality: float
    price: float
    fraction_intended: float
    min_saving: float
    mean_saving: float
    provider_profit: float
    profit_target: float
    meets_profit_target: bool

    def to_dict(self) -> dict:
        return null_non_finite(asdict(self))


@dataclass(frozen=True)
class OutOfBandStats:
    """Users whose demand falls outside every satisfaction band.

    They are assigned the quality of the nearest nominal demand below
    them (clamped at the ends); only affordability is reported, savings
    carry no guarantee.
    """

    samples: int
    fraction_affordable: float
    min_saving: float

    def to_dict(self) -> dict:
        return null_non_finite(asdict(self))


@dataclass(frozen=True)
class MarketSimReport:
    samples_per_band: int
    rng_seed: int
    bands: tuple[BandStats, ...]
    out_of_band: Optional[OutOfBandStats]

    def to_dict(self) -> dict:
        return null_non_finite(asdict(self))


def _block_savings(profile: "DemandPriceProfile", scenario: "ProfileScenario",
                   draws: np.ndarray):
    """Yield ``(block, savings)`` for each block of ``SIM_BLOCK`` draws:
    the saving F(theta, s_l) - p_l of every draw in the block (columns)
    at every quality (rows), from one checked tariff call."""
    qualities = np.asarray(scenario.qualities)[:, None]
    prices = np.asarray(profile.prices)[:, None]
    for start in range(0, draws.size, SIM_BLOCK):
        block = slice(start, start + SIM_BLOCK)
        savings = scenario.tariff.value(draws[None, block], qualities)
        savings -= prices
        yield block, savings


def _picks(savings: np.ndarray, k: int) -> np.ndarray:
    """Whether each user (column) picks quality k: the lowest index whose
    saving is within ``CHOICE_TIE_TOL`` of the best.  A user with a NaN
    saving has no best and picks no quality."""
    top = savings >= savings.max(axis=0) - CHOICE_TIE_TOL
    return top[k] & ~top[:k].any(axis=0)


def simulate_market(profile: "DemandPriceProfile", scenario: "ProfileScenario",
                    samples_per_band: int, rng_seed: int) -> MarketSimReport:
    """Simulate utility-maximizing users drawn uniformly in each band.

    Every sampled user picks the quality with the largest saving; the
    report records the fraction that picked the intended quality, the
    saving statistics and the provider's per-sale profit.  Demands
    outside every band are sampled separately (one band's worth of
    draws over the complement) and checked for affordability only.
    Sampling is deterministic in ``rng_seed``: each band uses an
    independent substream derived from the seed.

    A band's draws are evaluated in blocks of ``SIM_BLOCK`` users, so
    memory is O(``samples_per_band``) whatever the number of qualities.
    """
    check_size("samples_per_band", samples_per_band, 1, MAX_SAMPLES_PER_BAND)
    if rng_seed < 0:
        raise ScenarioError("rng_seed must be nonnegative")
    n = len(profile.demands)
    s = scenario.qualities
    m = scenario.margins.m
    b = scenario.margins.b

    bands: list[BandStats] = []
    for k in range(n):
        rng = np.random.default_rng([int(rng_seed), k])
        lo, hi = profile.demands[k] - m[k], profile.demands[k] + m[k]
        draws = rng.uniform(lo, hi, samples_per_band)
        own = np.empty(samples_per_band)
        intended = 0
        for block, savings in _block_savings(profile, scenario, draws):
            own[block] = savings[k]
            intended += int(np.count_nonzero(_picks(savings, k)))
        profit = profile.prices[k] - float(scenario.cost.value(s[k]))
        bands.append(BandStats(
            k=k + 1,
            theta=profile.demands[k],
            quality=s[k],
            price=profile.prices[k],
            fraction_intended=intended / samples_per_band,
            min_saving=float(np.min(own)),
            mean_saving=float(np.mean(own)),
            provider_profit=profit,
            profit_target=b[k],
            meets_profit_target=bool(profit >= b[k] - 1e-12),
        ))

    out = _simulate_out_of_band(profile, scenario, samples_per_band, rng_seed)
    return MarketSimReport(
        samples_per_band=samples_per_band,
        rng_seed=int(rng_seed),
        bands=tuple(bands),
        out_of_band=out,
    )


def _simulate_out_of_band(profile: "DemandPriceProfile",
                          scenario: "ProfileScenario",
                          n_samples: int, rng_seed: int) -> Optional[OutOfBandStats]:
    n = len(profile.demands)
    m = scenario.margins.m
    box = scenario.box

    segments: list[tuple[float, float]] = []
    cursor = box.theta_low
    for k in range(n):
        lo, hi = profile.demands[k] - m[k], profile.demands[k] + m[k]
        if lo > cursor:
            segments.append((cursor, lo))
        cursor = max(cursor, hi)
    if box.theta_up > cursor:
        segments.append((cursor, box.theta_up))
    lengths = np.array([hi - lo for lo, hi in segments], dtype=float)
    total = float(lengths.sum()) if segments else 0.0
    if total <= 0.0:
        return None

    rng = np.random.default_rng([int(rng_seed), n])
    u = rng.uniform(0.0, total, n_samples)
    cum = np.cumsum(lengths)
    idx = np.searchsorted(cum, u, side="right")
    idx = np.clip(idx, 0, len(segments) - 1)
    seg_lo = np.array([seg[0] for seg in segments])
    offset = u - (cum[idx] - lengths[idx])
    draws = seg_lo[idx] + offset

    # assignment rule: demand in [theta_k, theta_{k+1}) buys quality k,
    # clamped to the first/last entry beyond the nominal range
    assign = np.clip(np.searchsorted(profile.demands, draws, side="right") - 1,
                     0, n - 1)
    assigned_saving = np.empty(n_samples)
    for block, savings in _block_savings(profile, scenario, draws):
        assigned_saving[block] = savings[assign[block], np.arange(savings.shape[1])]
    return OutOfBandStats(
        samples=n_samples,
        fraction_affordable=float(np.mean(assigned_saving >= 0.0)),
        min_saving=float(np.min(assigned_saving)),
    )
