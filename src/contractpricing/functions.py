"""Scalar and bivariate function families consumed by the solvers.

Scalar functions model costs C(s), profit targets B(s) and per-type
budgets P_i(s); tariff functions model the bivariate willingness to pay
F(theta, s).  Parametric families carry analytic first derivatives;
tabulated families differentiate their own piecewise-linear interpolant,
reading values and slopes through one cell lookup.  The module also
hosts the numeric checks of the regularity assumptions behind the two
constructions (menu regularity, marginal budget increase).

All objects are immutable after construction and every operation is
pure, so values can be shared freely across threads or processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, ScenarioError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .menu import MenuScenario

ArrayLike = Union[float, np.ndarray]

#: slack used when certifying convexity/concavity from second differences
CURVATURE_SLACK = 1e-9

#: strict-inequality margin for the single crossing check
CROSSING_MARGIN = 1e-12

#: default number of grid points for all condition scans
DEFAULT_GRID_N = 512

#: largest grid accepted by the condition scans (work grows as grid_n**2)
MAX_GRID_N = 1 << 16


def _check_in_interval(x: np.ndarray, lo: float, hi: float, name: str) -> None:
    atol = 1e-12 * max(1.0, abs(lo), abs(hi) if math.isfinite(hi) else 1.0)
    bad = ~((x >= lo - atol) & (x <= hi + atol))  # NaN is outside too
    if np.any(bad):
        offender = float(np.asarray(x)[bad][0]) if np.ndim(x) else float(x)
        raise DomainError(
            f"{name}={offender:g} outside domain [{lo:g}, {hi:g}]"
        )


def _evaluate(method, named_domains, *args):
    """The one checked evaluation path of the public methods: check every
    argument against its (name, domain), call ``method`` on float arrays,
    and return floats (one or a tuple) for plain scalar arguments."""
    arrays = [np.asarray(x, dtype=float) for x in args]
    for arr, (name, domain) in zip(arrays, named_domains):
        _check_in_interval(arr, *domain, name=name)
    out = method(*arrays)
    if not all(isinstance(x, (int, float)) for x in args):
        return out
    return tuple(map(float, out)) if isinstance(out, tuple) else float(out)


def check_size(name: str, value: int, lo: int, hi: int) -> None:
    """Reject a sizing knob outside [lo, hi] before anything is allocated."""
    if not lo <= value <= hi:
        raise ScenarioError(f"{name} must be at least {lo}" if value < lo
                            else f"{name} must be at most {hi}")


def _cell(grid: np.ndarray, x: np.ndarray):
    """Cell index of ``x`` (the last knot closes the last cell) and the
    position of ``x`` in the cell, 0 on its left knot and 1 on its right."""
    k = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 2)
    return k, (x - grid[k]) / (grid[k + 1] - grid[k])


# ---------------------------------------------------------------------------
# scalar functions
# ---------------------------------------------------------------------------

class ScalarFunction:
    """One-variable function with an evaluable value and first derivative.

    Subclasses implement ``_value`` and ``_derivative`` on numpy arrays;
    the public methods add domain checking and scalar-in/scalar-out
    convenience.  ``domain`` is a closed interval of nonnegative reals
    (the upper end may be infinite).
    """

    def __init__(self, domain: tuple[float, float] = (0.0, math.inf)):
        lo, hi = float(domain[0]), float(domain[1])
        if lo < 0 or hi <= lo:
            raise ScenarioError(f"invalid function domain [{lo:g}, {hi:g}]")
        self.domain = (lo, hi)

    def value(self, s: ArrayLike) -> ArrayLike:
        return _evaluate(self._value, (("s", self.domain),), s)

    def derivative(self, s: ArrayLike) -> ArrayLike:
        return _evaluate(self._derivative, (("s", self.domain),), s)

    def _value(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _derivative(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class LinearFunction(ScalarFunction):
    """f(s) = slope * s."""

    def __init__(self, slope: float):
        super().__init__()
        if slope < 0:
            raise ScenarioError("linear slope must be nonnegative")
        self.slope = float(slope)

    def _value(self, s):
        return self.slope * s

    def _derivative(self, s):
        return np.full_like(s, self.slope)

    def __repr__(self):
        return f"LinearFunction(slope={self.slope:g})"


class LogFunction(ScalarFunction):
    """f(s) = scale * log(1 + s)."""

    def __init__(self, scale: float):
        super().__init__()
        if scale < 0:
            raise ScenarioError("log scale must be nonnegative")
        self.scale = float(scale)

    def _value(self, s):
        return self.scale * np.log1p(s)

    def _derivative(self, s):
        return self.scale / (1.0 + s)

    def __repr__(self):
        return f"LogFunction(scale={self.scale:g})"


class PowerFunction(ScalarFunction):
    """f(s) = scale * s ** exponent, exponent > 0."""

    def __init__(self, scale: float, exponent: float):
        super().__init__()
        if scale < 0:
            raise ScenarioError("power scale must be nonnegative")
        if exponent <= 0:
            raise ScenarioError("power exponent must be positive")
        self.scale = float(scale)
        self.exponent = float(exponent)

    def _value(self, s):
        return self.scale * np.power(s, self.exponent)

    def _derivative(self, s):
        # diverges at s = 0 when exponent < 1; s = 0 is a domain boundary
        with np.errstate(divide="ignore"):
            return self.scale * self.exponent * np.power(s, self.exponent - 1.0)

    def __repr__(self):
        return f"PowerFunction(scale={self.scale:g}, exponent={self.exponent:g})"


class ScaledFunction(ScalarFunction):
    """f(s) = factor * base(s); used for proportional profit targets."""

    def __init__(self, base: ScalarFunction, factor: float):
        super().__init__(base.domain)
        if factor < 0:
            raise ScenarioError("scale factor must be nonnegative")
        self.base = base
        self.factor = float(factor)

    def _value(self, s):
        return self.factor * np.asarray(self.base._value(s))

    def _derivative(self, s):
        return self.factor * np.asarray(self.base._derivative(s))

    def __repr__(self):
        return f"ScaledFunction({self.base!r}, factor={self.factor:g})"


class TabulatedFunction(ScalarFunction):
    """Piecewise-linear interpolant of a sampled function.

    Only the coordinate column is checked (strictly increasing); the
    values need not be monotone.  The derivative is the slope of the
    segment holding ``s``; on an interior knot, the mean of the two.
    """

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ScenarioError("tabulated data must be two equal 1-D columns")
        if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(ys)):
            raise ScenarioError("tabulated data must be finite")
        if np.any(np.diff(xs) <= 0):
            raise ScenarioError("tabulated coordinate column must be strictly increasing")
        super().__init__((float(xs[0]), float(xs[-1])))
        self.xs = xs
        self.ys = ys
        self.slopes = np.diff(ys) / np.diff(xs)

    def _value(self, s):
        return np.interp(s, self.xs, self.ys)

    def _derivative(self, s):
        k, w = _cell(self.xs, s)
        # on an interior knot (w == 0), the mean of the two one-sided slopes
        return 0.5 * (self.slopes[k] + self.slopes[k - ((w == 0) & (k > 0))])

    def __repr__(self):
        return f"TabulatedFunction({self.xs.size} knots on [{self.domain[0]:g}, {self.domain[1]:g}])"


# ---------------------------------------------------------------------------
# tariff functions
# ---------------------------------------------------------------------------

class TariffFunction:
    """Bivariate willingness to pay F(theta, s) with first/mixed partials.

    Implementations guarantee broadcasting over numpy inputs; scalar
    inputs produce scalar outputs.
    """

    def __init__(self, theta_domain=(0.0, math.inf), s_domain=(0.0, math.inf)):
        self.theta_domain = (float(theta_domain[0]), float(theta_domain[1]))
        self.s_domain = (float(s_domain[0]), float(s_domain[1]))

    def value(self, theta: ArrayLike, s: ArrayLike) -> ArrayLike:
        return _evaluate(self._value, self._named_domains(), theta, s)

    def partials(self, theta: ArrayLike, s: ArrayLike):
        """Return (F_theta, F_s, F_2) at (theta, s)."""
        return _evaluate(self._partials, self._named_domains(), theta, s)

    def _named_domains(self):
        return (("theta", self.theta_domain), ("s", self.s_domain))

    def _value(self, th, sv):
        raise NotImplementedError

    def _partials(self, th, sv):
        raise NotImplementedError


class BilinearTariff(TariffFunction):
    """F(theta, s) = d_p * theta * s."""

    def __init__(self, d_p: float):
        super().__init__()
        if d_p <= 0:
            raise ScenarioError("bilinear slope d_p must be positive")
        self.d_p = float(d_p)

    def _value(self, th, sv):
        return self.d_p * th * sv

    def _partials(self, th, sv):
        th, sv = np.broadcast_arrays(th, sv)
        return self.d_p * sv, self.d_p * th, np.full(th.shape, self.d_p)

    def __repr__(self):
        return f"BilinearTariff(d_p={self.d_p:g})"


class SeparableTariff(TariffFunction):
    """F(theta, s) = g(theta) * h(s) with g, h increasing."""

    def __init__(self, g: ScalarFunction, h: ScalarFunction):
        super().__init__(g.domain, h.domain)
        self.g = g
        self.h = h

    def _value(self, th, sv):
        return np.asarray(self.g._value(th)) * np.asarray(self.h._value(sv))

    def _partials(self, th, sv):
        th, sv = np.broadcast_arrays(th, sv)
        gv = np.asarray(self.g._value(th))
        gd = np.asarray(self.g._derivative(th))
        hv = np.asarray(self.h._value(sv))
        hd = np.asarray(self.h._derivative(sv))
        return gd * hv, gv * hd, gd * hd

    def __repr__(self):
        return f"SeparableTariff(g={self.g!r}, h={self.h!r})"


class TabulatedTariff(TariffFunction):
    """Bilinear interpolation of F sampled on a rectilinear grid.

    The partials are the interpolant's own: cell slopes, interpolated
    along the other coordinate, averaged over the cells on either side of
    an interior knot and one-sided at the grid edges.
    """

    def __init__(self, thetas: Sequence[float], ss: Sequence[float], values):
        thetas = np.asarray(thetas, dtype=float)
        ss = np.asarray(ss, dtype=float)
        values = np.asarray(values, dtype=float)
        if (thetas.ndim != 1 or ss.ndim != 1 or min(thetas.size, ss.size) < 2
                or values.shape != (thetas.size, ss.size)):
            raise ScenarioError("tabulated tariff needs 2+ knots per axis and a matching value matrix")
        if not all(np.all(np.isfinite(a)) for a in (thetas, ss, values)):
            raise ScenarioError("tabulated tariff grids and values must be finite")
        if np.any(np.diff(thetas) <= 0) or np.any(np.diff(ss) <= 0):
            raise ScenarioError("tabulated tariff grids must be strictly increasing")
        super().__init__((float(thetas[0]), float(thetas[-1])), (float(ss[0]), float(ss[-1])))
        self.thetas = thetas
        self.ss = ss
        self.values_grid = values
        ds = np.diff(ss)
        self.theta_slopes = np.diff(values, axis=0) / np.diff(thetas)[:, None]
        self.s_slopes = np.diff(values, axis=1) / ds
        self.cross_slopes = np.diff(self.theta_slopes, axis=1) / ds

    def _value(self, th, sv):
        # each axis is looked up before broadcasting: a (1, B) x (n, 1)
        # call runs B + n lookups, not 2 n B
        (i, wt), (j, ws) = _cell(self.thetas, th), _cell(self.ss, sv)
        v = self.values_grid
        return ((1 - wt) * (1 - ws) * v[i, j]
                + wt * (1 - ws) * v[i + 1, j]
                + (1 - wt) * ws * v[i, j + 1]
                + wt * ws * v[i + 1, j + 1])

    def _partials(self, th, sv):
        (i, wt), (j, ws) = _cell(self.thetas, th), _cell(self.ss, sv)
        # on an interior knot, il or jl is the cell on the other side
        il, jl = i - ((wt == 0) & (i > 0)), j - ((ws == 0) & (j > 0))
        st, ss, sc = self.theta_slopes, self.s_slopes, self.cross_slopes
        # off the knots il == i and jl == j, and each mean is exact
        f_theta = 0.5 * ((1 - ws) * (st[i, j] + st[il, j])
                         + ws * (st[i, j + 1] + st[il, j + 1]))
        f_s = 0.5 * ((1 - wt) * (ss[i, j] + ss[i, jl])
                     + wt * (ss[i + 1, j] + ss[i + 1, jl]))
        f_2 = 0.25 * ((sc[i, j] + sc[il, j]) + (sc[i, jl] + sc[il, jl]))
        return f_theta, f_s, f_2

    def __repr__(self):
        return (f"TabulatedTariff({self.thetas.size}x{self.ss.size} grid on "
                f"[{self.theta_domain[0]:g},{self.theta_domain[1]:g}]x"
                f"[{self.s_domain[0]:g},{self.s_domain[1]:g}])")


# ---------------------------------------------------------------------------
# domain box
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainBox:
    """Demand and quality bounds for the profile construction."""

    theta_low: float
    theta_up: float
    s_low: float
    s_up: float

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        # a zero-width demand range is tolerated here; the achievability
        # predicate reports it as a failing demand-range condition
        if not (0 < self.theta_low <= self.theta_up):
            raise ScenarioError("demand bounds must satisfy 0 < theta_low <= theta_up")
        if not (0 < self.s_low < self.s_up):
            raise ScenarioError("quality bounds must satisfy 0 < s_low < s_up")
        if not (math.isfinite(self.theta_up) and math.isfinite(self.s_up)):
            raise ScenarioError("bounds must be finite")

    @property
    def demand_range(self) -> float:
        return self.theta_up - self.theta_low

    @property
    def quality_range(self) -> float:
        return self.s_up - self.s_low


# ---------------------------------------------------------------------------
# condition reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of one sub-condition: signed margin, optional witness point."""

    cid: str
    passed: bool
    margin: float
    witness: Optional[float] = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "id": self.cid,
            "passed": self.passed,
            "margin": self.margin if math.isfinite(self.margin) else None,
            "witness": self.witness,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ConditionReport:
    """Bundle of sub-condition outcomes for one validation pass."""

    checks: tuple[ConditionCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[ConditionCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def check(self, cid: str) -> ConditionCheck:
        for c in self.checks:
            if c.cid == cid:
                return c
        raise KeyError(cid)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}


# ---------------------------------------------------------------------------
# regularity checks
# ---------------------------------------------------------------------------

def _second_differences(values: np.ndarray) -> np.ndarray:
    return values[2:] - 2.0 * values[1:-1] + values[:-2]


def _min_with_witness(values: np.ndarray, grid: np.ndarray):
    k = int(np.argmin(values))
    return float(values[k]), float(grid[k])


def check_menu_regularity(scenario: "MenuScenario") -> ConditionReport:
    """Certify the assumptions of the quality-price menu construction.

    A built scenario is valid, so every function is defined on
    [0, s_search_max] and the scan evaluates them unchecked.  Conditions,
    each sampled on a ``grid_n``-point grid over (0, s_probe_max]:

    * a1: cost strictly increasing and convex, profit target nondecreasing
      and convex, both vanish at the origin.  (A zero profit target is
      the plain break-even case and is accepted.)
    * a2: each budget strictly increasing, concave, vanishing at the
      origin; consecutive budgets satisfy the single crossing condition
      P'_i < P'_{i+1} with a strict numeric margin.
    * a3: the lowest type can afford some quality at cost-plus-profit,
      and the highest type cannot afford arbitrarily high quality.  The
      second witness may lie beyond the probe window, so the scan keeps
      doubling the quality up to ``s_search_max`` before giving up.

    Failures carry the witness grid point.  Report-valued: never raises
    on a condition failure.
    """
    budgets, cost, profit = scenario.budgets, scenario.cost, scenario.profit
    hi = scenario.s_probe_max
    grid = (hi / scenario.grid_n) * np.arange(1, scenario.grid_n + 1)

    checks: list[ConditionCheck] = []

    def zero_at_origin(cid, func):
        v0 = abs(float(func._value(np.asarray(0.0))))
        checks.append(ConditionCheck(cid, v0 <= 1e-12, -v0, 0.0 if v0 > 1e-12 else None,
                                     "value at 0"))

    def monotone(cid, values, strict):
        diffs = np.diff(values)
        margin, witness = _min_with_witness(diffs, grid[1:])
        ok = margin > 0 if strict else margin >= -1e-12
        checks.append(ConditionCheck(cid, bool(ok), margin,
                                     None if ok else witness,
                                     "min forward difference"))

    def curvature(cid, values, convex):
        d2 = _second_differences(values)
        if convex:
            margin, witness = _min_with_witness(d2, grid[1:-1])
        else:
            k = int(np.argmax(d2))
            margin, witness = -float(d2[k]), float(grid[1 + k])
        ok = margin >= -CURVATURE_SLACK
        checks.append(ConditionCheck(cid, bool(ok), margin,
                                     None if ok else witness,
                                     "second differences, %s" % ("convex" if convex else "concave")))

    c_vals = np.asarray(cost._value(grid))
    b_vals = np.asarray(profit._value(grid))
    zero_at_origin("a1.cost_zero_at_origin", cost)
    monotone("a1.cost_strictly_increasing", c_vals, strict=True)
    curvature("a1.cost_convex", c_vals, convex=True)
    zero_at_origin("a1.profit_zero_at_origin", profit)
    monotone("a1.profit_nondecreasing", b_vals, strict=False)
    curvature("a1.profit_convex", b_vals, convex=True)

    for idx, p in enumerate(budgets, start=1):
        p_vals = np.asarray(p._value(grid))
        zero_at_origin(f"a2.budget{idx}_zero_at_origin", p)
        monotone(f"a2.budget{idx}_strictly_increasing", p_vals, strict=True)
        curvature(f"a2.budget{idx}_concave", p_vals, convex=False)
    for idx in range(len(budgets) - 1):
        d_lo = np.asarray(budgets[idx]._derivative(grid))
        d_hi = np.asarray(budgets[idx + 1]._derivative(grid))
        margin, witness = _min_with_witness(d_hi - d_lo, grid)
        ok = margin >= CROSSING_MARGIN
        checks.append(ConditionCheck(f"a2.single_crossing_{idx + 1}_{idx + 2}",
                                     bool(ok), margin, None if ok else witness,
                                     "min derivative gap between consecutive budgets"))

    # existence scans include a geometric refinement near the origin so
    # that small feasible regions of the lowest type are not missed
    geo = np.geomspace(hi * 1e-9, hi, 64)
    scan = np.unique(np.concatenate([grid, geo]))
    cb_scan = np.asarray(cost._value(scan)) + np.asarray(profit._value(scan))
    entry_gap = np.asarray(budgets[0]._value(scan)) - cb_scan
    k = int(np.argmax(entry_gap))
    ok = bool(entry_gap[k] >= 0.0)
    checks.append(ConditionCheck("a3.entry_exists", ok, float(entry_gap[k]),
                                 float(scan[k]) if ok else None,
                                 "max of P_1 - (C+B); witness is a feasible x_1"))
    top_gap = cb_scan - np.asarray(budgets[-1]._value(scan))
    k = int(np.argmax(top_gap))
    best_gap, best_witness = float(top_gap[k]), float(scan[k])
    if best_gap <= 0.0:
        # keep doubling the probe: the boundedness witness may sit far
        # beyond the probe window
        y = 2.0 * hi
        while y <= scenario.s_search_max:
            at = np.asarray(y)
            gap = (float(cost._value(at)) + float(profit._value(at))
                   - float(budgets[-1]._value(at)))
            if gap > best_gap:
                best_gap, best_witness = gap, y
            if gap > 0.0:
                break
            y *= 2.0
    ok = best_gap > 0.0
    checks.append(ConditionCheck("a3.top_bounded", ok, best_gap,
                                 best_witness if ok else None,
                                 "max of (C+B) - P_L; witness is a bounding y_L"))

    return ConditionReport(tuple(checks))


def check_marginal_budget(tariff: TariffFunction,
                          cost: ScalarFunction,
                          box: DomainBox,
                          grid_n: int = DEFAULT_GRID_N) -> ConditionReport:
    """Check that the marginal budget dominates the marginal cost.

    Scans a ``grid_n`` x ``grid_n`` grid of the domain box and compares
    the worst-case (over demand) marginal willingness to pay F_s against
    the marginal cost C'(s) at every quality.  A NaN margin at any
    quality fails the check, with that point as the witness.
    Report-valued.
    """
    check_size("grid_n", grid_n, 16, MAX_GRID_N)
    theta_grid = np.linspace(box.theta_low, box.theta_up, grid_n)
    s_grid = np.linspace(box.s_low, box.s_up, grid_n)
    c_prime = np.asarray(cost.derivative(s_grid))
    worst = math.inf
    witness = (box.theta_low, box.s_low)
    for s, c_s in zip(s_grid, c_prime):
        _, f_s, _ = tariff.partials(theta_grid, float(s))
        f_s = np.asarray(f_s)
        k = int(np.argmin(f_s))
        margin = float(f_s[k]) - float(c_s)
        if margin < worst or math.isnan(margin):
            worst = margin
            witness = (float(theta_grid[k]), float(s))
            if math.isnan(margin):
                break  # fail closed at the first NaN point
    ok = worst >= -1e-12
    check = ConditionCheck("marginal_budget", bool(ok), worst,
                           witness[0] if not ok else None,
                           f"min_theta F_s - C' attained at (theta={witness[0]:g}, s={witness[1]:g})")
    return ConditionReport((check,))
