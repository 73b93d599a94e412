"""Independent certification of menus and profiles.

The verifier re-evaluates every constraint of a solution directly from
the scenario's functions, without reusing any intermediate quantity of
the solvers.  Menus and profiles share one certificate
(:func:`_check_agent`): a menu type is a band of one point, and a
profile band is probed where the tariff may bend, so the certificate is
exact over the whole band.  A seeded Monte Carlo market simulator doubles as a
behavioral oracle: users drawn inside a satisfaction band should pick
the intended quality, out-of-band users are only guaranteed
affordability.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Optional, TYPE_CHECKING

import numpy as np

from .errors import ScenarioError
from .functions import (REL_TOL, _coefficient, _coefficients, _inside,
                        _sorted_distinct, check_integer, check_size, tolerance)
from .serialize import null_non_finite

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .menu import MenuScenario, QualityPriceMenu
    from .profile import DemandPriceProfile, ProfileScenario

#: users the simulator draws and evaluates at once: a block's savings at
#: every quality stay in cache, so memory is one float array of
#: ``samples_per_band`` (kept for the exact mean) plus
#: O(SIM_BLOCK x qualities), whatever the number of qualities
SIM_BLOCK = 1 << 14

#: upper bound of ``samples_per_band``, checked before anything is allocated
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
    """Accumulates signed margins and flags those below the tolerance.

    Fails closed: a margin that is not ``>= -tolerance(*terms,
    rel=slack)`` (NaN included) is a violation, and a NaN margin stays
    the worst one.
    """

    def __init__(self, slack: float):
        self.slack = _coefficient("slack", slack)
        self.worst = math.inf
        self.violations: list[Violation] = []

    def add(self, constraint: str, k: int, l: Optional[int], margin: float,
            witness: dict, *terms: float) -> None:
        if margin < self.worst or math.isnan(margin):
            self.worst = margin
        if not margin >= -tolerance(*terms, rel=self.slack):
            self.violations.append(Violation(constraint, k, l, float(margin), witness))

    def report(self) -> VerificationReport:
        return VerificationReport(
            passed=not self.violations,
            violations=tuple(self.violations),
            worst_margin=self.worst,
        )


def _check_shape(kind: str, solution, n: int, noun: str) -> None:
    """Reject a solution unless each of its fields, one column per entry
    attribute, holds ``n`` numbers (NaN and infinities fail the report, not
    this check): one per type or quality of its scenario."""
    for column in fields(solution):
        values = _coefficients(f"{kind}.{column.name}", getattr(solution, column.name), "number")
        size = len(values) if values.ndim else 0
        if size != n:
            raise ScenarioError(f"{kind}.{column.name} has {size} entries but "
                                f"scenario declares {n} {noun}")


def _check_agent(acc: _Margins, k: int, wtp: np.ndarray, prices: np.ndarray,
                 floor: float, points: Optional[np.ndarray]) -> None:
    """Add agent k's ``IR.budget``, ``IR.profit`` and ``IC`` margins, each
    the minimum over the agent's points: ``wtp[l, i]`` is its willingness
    to pay for quality l at point i (a menu type has one point, a profile
    band its probes, named ``theta``), ``floor`` its cost plus target."""
    with np.errstate(invalid="ignore"):  # an infinite price: a NaN margin, failed
        savings = wtp - prices[:, None]
        diffs = savings[k] - savings
    at = (lambda i: {}) if points is None else (lambda i: {"theta": float(points[i])})
    i, worst = int(np.argmin(savings[k])), np.argmin(diffs, axis=1).tolist()
    # Python floats from here: one conversion per value, not per lookup
    wtp, savings, diffs, prices = wtp.tolist(), savings.tolist(), diffs.tolist(), prices.tolist()
    p_k = prices[k]
    acc.add("IR.budget", k + 1, None, savings[k][i],
            {**at(i), "value": wtp[k][i], "price": p_k}, wtp[k][i], p_k)
    acc.add("IR.profit", k + 1, None, p_k - floor, {"price": p_k, "floor": floor}, p_k, floor)
    for l, i in enumerate(worst):
        if l != k:
            acc.add("IC", k + 1, l + 1, diffs[l][i],
                    {**at(i), "own_saving": savings[k][i], "other_saving": savings[l][i]},
                    wtp[k][i], p_k, wtp[l][i], prices[l])


def verify_menu(menu: "QualityPriceMenu", scenario: "MenuScenario",
                slack: float = REL_TOL) -> VerificationReport:
    """Check a menu against the rationality and incentive constraints.

    For every type k: the budget at the assigned quality covers the
    price, the price covers cost plus target profit, and no other entry
    offers a larger saving; a type is a band of one point.  ``slack`` is
    relative: each margin may fall short of zero by ``slack`` times the
    largest magnitude of the budget values, prices, costs and targets
    that formed it.  Report-valued.
    """
    _check_shape("menu", menu, scenario.n_types, "types")
    acc = _Margins(slack)
    qualities, prices = np.asarray(menu.qualities), np.asarray(menu.prices)
    for k, s_k in enumerate(menu.qualities):
        floor = float(scenario.cost.value(s_k)) + float(scenario.profit.value(s_k))
        _check_agent(acc, k, scenario.budgets[k].value(qualities)[:, None],
                     prices, floor, None)
    return acc.report()


def _band_probes(tariff, theta_k: float, m_k: float) -> np.ndarray:
    """The band's ends, its centre and the tariff's demand knots inside it,
    sorted, each once (:func:`_sorted_distinct`; a band of width 0 is one
    probe)."""
    lo, hi = theta_k - m_k, theta_k + m_k
    return _sorted_distinct([lo, theta_k, hi], tariff.theta_knots(lo, hi))


def verify_profile(profile: "DemandPriceProfile", scenario: "ProfileScenario",
                   slack: float = REL_TOL) -> VerificationReport:
    """Check a profile against rationality, incentive and premium constraints.

    Each band is probed at its ends, its centre and the tariff's demand
    knots inside it (:meth:`TariffFunction.theta_knots`), between which
    every budget and incentive margin is monotone in the demand: the
    minimum over the probes is the minimum over the band.  Per band k:
    affordability and the profit floor hold, quality s_k saves at least
    as much as any other quality, and for k < L the savings premium over
    the next quality meets the profit increment b_{k+1} - b_k.  ``slack``
    is relative, as in :func:`verify_menu`.  Report-valued.
    """
    n = scenario.n_qualities
    _check_shape("profile", profile, n, "qualities")
    s, b, m = scenario.qualities, scenario.margins.b, scenario.margins.m
    qualities, prices = np.asarray(s)[:, None], np.asarray(profile.prices)
    acc = _Margins(slack)
    bands = []
    for k in range(n):
        probes = _band_probes(scenario.tariff, profile.demands[k], m[k])
        # every quality (rows) at every probe (columns) in one call
        bands.append(scenario.tariff.value(probes[None, :], qualities))
        _check_agent(acc, k, bands[k], prices, scenario.cost.value(s[k]) + b[k],
                     probes)

    for k in range(n - 1):
        # F(theta_k - m_k, s_k) and F(theta_k + m_k, s_{k+1}): band k's ends
        f_low, f_next = float(bands[k][k, 0]), float(bands[k][k + 1, -1])
        p_k, p_next = profile.prices[k], profile.prices[k + 1]
        premium = b[k + 1] - b[k]
        omega, rhs = f_low - p_k, premium + f_next - p_next
        acc.add("profit_constraint", k + 1, k + 2, omega - rhs,
                {"saving_floor": omega, "next_quality_pull": rhs},
                f_low, p_k, premium, f_next, p_next)

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


@dataclass(frozen=True)
class OutOfBandStats:
    """Users whose demand falls outside every satisfaction band.

    A user buys quality 1 plus the number of nominal demands
    theta_2..theta_L at or below their demand: for increasing demands,
    the quality of the nearest nominal demand below them, clamped at the
    ends.  Each user is evaluated only at that quality; only
    affordability is reported, savings carry no guarantee.
    """

    samples: int
    fraction_affordable: float
    min_saving: float


@dataclass(frozen=True)
class MarketSimReport:
    samples_per_band: int
    rng_seed: int
    bands: tuple[BandStats, ...]
    out_of_band: Optional[OutOfBandStats]

    def to_dict(self) -> dict:
        return null_non_finite(asdict(self))


def _count_at_or_below(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """How many of ``edges`` lie at or below each value of ``x``, from one
    (edges x block) comparison summed in the narrowest unsigned integer
    that holds ``edges.size``.  For sorted edges and finite ``x`` this is
    ``np.searchsorted(edges, x, side="right")``; for unsorted edges it is
    still this count.  No domain is checked here: the simulator checks
    the demands it locates once per pass, from the generator's extreme
    draws (:func:`_tariff_value`)."""
    return np.add.reduce(edges[:, None] <= x, axis=0, dtype=np.min_scalar_type(edges.size))


def _tariff_value(tariff, theta_ends, qualities):
    """The tariff's unchecked ``_value`` if demands ``theta_ends`` and
    ``qualities`` pass its domain check, else its checked ``value``.

    The caller evaluates only demands that lie between two of
    ``theta_ends`` and qualities among ``qualities``; the containment rule
    is an interval, so those pass whenever the ends do.  A pass whose ends
    fail gets the checked call, which raises its ``DomainError`` at the
    first demand outside."""
    inside = all(np.all(_inside(np.asarray(x, dtype=float), *domain))
                 for x, (_, domain) in zip((theta_ends, qualities), tariff._named_domains()))
    return tariff._value if inside else tariff.value


def _draw_width(width: float, what: str) -> float:
    """``width``, the ``hi - lo`` that scales a pass's draws, if finite."""
    if not math.isfinite(width):
        raise ScenarioError(f"{what}: draw range width {width:g} is not finite")
    return width


def _uniform_fill(rng: np.random.Generator, out: np.ndarray, lo: float,
                  width: float) -> np.ndarray:
    """``out`` filled with ``rng.uniform(lo, lo + width, out.size)``: one
    ``random`` fill of ``0 <= u < 1``, then ``u * width`` and ``lo + ...``
    in place, each rounded once, as ``uniform`` computes them."""
    rng.random(out=out)
    out *= width
    out += lo
    return out


def _blocks(size: int):
    """``(start, stop)`` of each block of ``SIM_BLOCK`` users."""
    for start in range(0, size, SIM_BLOCK):
        yield start, min(start + SIM_BLOCK, size)


def simulate_market(profile: "DemandPriceProfile", scenario: "ProfileScenario",
                    samples_per_band: int, rng_seed: int) -> MarketSimReport:
    """Simulate utility-maximizing users drawn uniformly in each band.

    Every sampled user picks the quality with the largest saving (the
    lowest of those within the tolerance of the prices; a user with a NaN
    saving picks none); the report records the fraction that picked the
    intended quality, the saving statistics and the provider's per-sale
    profit.  Demands outside every band are sampled separately (one
    band's worth of draws over the complement) and checked for
    affordability only.  Sampling is deterministic in ``rng_seed``: each
    band uses an independent substream derived from the seed.

    Every pass draws and evaluates its users in blocks of ``SIM_BLOCK``,
    one tariff call per block; an out-of-band user is evaluated only at
    the quality assigned to them (see :class:`OutOfBandStats`).  A block
    is one ``Generator.random`` fill of ``0 <= u < 1``, scaled in place
    to ``lo + (hi - lo) * u`` (:func:`_uniform_fill`): a product and a
    sum, each rounded once, as ``Generator.uniform(lo, hi)`` computes
    them, bit for bit.  A band or out-of-band range whose width is not
    finite is a ``ScenarioError``.  The domain is checked once per pass,
    not per block, and rests on the simulator's own arithmetic: the
    product rounds to at most ``hi - lo`` and the sum is monotone, so
    every draw lies between ``lo`` and ``lo + (hi - lo)``, and those ends
    and the qualities are checked by the rule of the tariff's checked
    call.  A pass whose ends fail evaluates every block by the checked
    call, which raises its ``DomainError``.
    Memory is one float array of ``samples_per_band``, which holds each
    band's savings at its own quality in turn (kept whole because
    ``np.mean`` sums pairwise over the whole array), plus
    O(``SIM_BLOCK`` x qualities) per block.
    """
    check_size("samples_per_band", samples_per_band, 1, MAX_SAMPLES_PER_BAND)
    check_integer("rng_seed", rng_seed)
    if rng_seed < 0:
        raise ScenarioError("rng_seed must be nonnegative")
    n = scenario.n_qualities
    _check_shape("profile", profile, n, "qualities")
    s = scenario.qualities
    m = scenario.margins.m
    b = scenario.margins.b
    tie = tolerance(*profile.prices)
    qualities = np.asarray(s, dtype=float)[:, None]
    prices = np.asarray(profile.prices)[:, None]
    # each band's savings at its own quality, refilled band by band
    own = np.empty(samples_per_band)
    buf = np.empty(min(samples_per_band, SIM_BLOCK))

    bands: list[BandStats] = []
    for k in range(n):
        rng = np.random.default_rng([int(rng_seed), k])
        lo, hi = profile.demands[k] - m[k], profile.demands[k] + m[k]
        width = _draw_width(hi - lo, f"band {k + 1}")
        value = _tariff_value(scenario.tariff, [lo, lo + width], qualities)
        intended = 0
        for start, stop in _blocks(samples_per_band):
            draws = _uniform_fill(rng, buf[:stop - start], lo, width)
            savings = value(draws[None, :], qualities)
            savings -= prices
            own[start:stop] = savings[k]
            # k is picked when its saving is within ``tie`` of the best and
            # no lower quality's is.  The threshold needs only the best from
            # k on: a lower quality that beats it is not below the threshold
            # either way, so each quality is reduced once.  max propagates
            # NaN, so a NaN saving makes every comparison false and picks
            # nothing
            thr = savings[k:].max(axis=0)
            thr -= tie
            picked = savings[k] >= thr
            if k:
                picked &= savings[:k].max(axis=0) < thr
            intended += int(np.count_nonzero(picked))
        cost = scenario.cost.value(s[k])
        profit = profile.prices[k] - cost
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
            meets_profit_target=bool(profit >= b[k] - tolerance(profile.prices[k], cost, b[k])),
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
    with np.errstate(over="ignore"):  # an overflowing total is not finite
        total = _draw_width(float(lengths.sum()), "out-of-band") if segments else 0.0
    if total <= 0.0:
        return None

    rng = np.random.default_rng([int(rng_seed), n])
    cum = np.cumsum(lengths)
    seg_lo = np.array([seg[0] for seg in segments])
    seg_start = cum - lengths
    # a segment's draws, computed below as here (seg_start's rounding
    # included), rise with u: from its first u (0 or the previous
    # segment's end) to its last (just below its end, or in the last
    # segment the total, which bounds every u)
    u_ends = (np.r_[0.0, cum[:-1]], np.r_[np.nextafter(cum[:-1], -np.inf), total])
    s = np.asarray(scenario.qualities, dtype=float)
    value = _tariff_value(scenario.tariff,
                          np.concatenate([seg_lo + (u - seg_start) for u in u_ends]), s)
    # assignment rule of ``OutOfBandStats``: count theta_2..theta_L at or
    # below each draw
    upper_demands = np.asarray(profile.demands[1:], dtype=float)
    p = np.asarray(profile.prices)
    affordable = 0
    min_saving = math.inf
    buf = np.empty(min(n_samples, SIM_BLOCK))
    for start, stop in _blocks(n_samples):
        u = _uniform_fill(rng, buf[:stop - start], 0.0, total)
        # u's segment is the number of segments ending at or below it; a u
        # at the very end stays in the last segment
        idx = _count_at_or_below(cum[:-1], u)
        # ``take``: a narrow index is gathered without a cast to intp
        draws = seg_lo.take(idx) + (u - seg_start.take(idx))
        assign = _count_at_or_below(upper_demands, draws)
        saving = value(draws, s.take(assign)) - p.take(assign)
        affordable += int(np.count_nonzero(saving >= 0.0))
        min_saving = np.minimum(min_saving, np.min(saving))
    return OutOfBandStats(
        samples=n_samples,
        fraction_affordable=affordable / n_samples,
        min_saving=float(min_saving),
    )
