"""Scalar and bivariate function families consumed by the solvers.

Scalar functions model costs C(s), profit targets B(s) and per-type
budgets P_i(s); tariff functions model the bivariate willingness to pay
F(theta, s) and the two partials the profile construction reads, F_s
and F_theta.  Parametric families carry analytic first derivatives;
tabulated families differentiate their own piecewise-linear interpolant,
reading values and slopes through one cell lookup.  Each family names
the points where it may bend (``knots``, ``theta_knots``), so the
verifier can certify a whole band exactly.  The module also hosts the
numeric checks of the regularity assumptions behind the two
constructions (menu regularity, marginal budget increase).

All objects are immutable after construction and every operation is
pure, so values can be shared freely across threads or processes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, ScenarioError
from .serialize import null_non_finite

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .menu import MenuScenario

ArrayLike = Union[float, np.ndarray]

#: relative tolerance of every margin check (see :func:`tolerance`)
REL_TOL = 1e-9

#: default number of grid points for all condition scans
DEFAULT_GRID_N = 512

#: largest grid accepted by the condition scans (work grows as grid_n**2)
MAX_GRID_N = 1 << 16

#: lower end of the regularity scan's geometric refinement, per s_probe_max
PROBE_SCAN_START = 1e-9


def tolerance(*terms: ArrayLike, rel: float = REL_TOL) -> ArrayLike:
    """``rel`` times the largest magnitude of the finite terms that formed a
    margin, elementwise over arrays.  A check passes when ``margin >=
    -tolerance`` (non-strict) or ``margin > tolerance`` (strict)."""
    if all(isinstance(t, (int, float)) for t in terms):  # one margin: skip numpy
        return rel * max((abs(t) for t in terms if math.isfinite(t)), default=0.0)
    mags = np.abs(np.broadcast_arrays(*terms))
    return rel * np.where(np.isfinite(mags), mags, 0.0).max(axis=0)


def _inside(x: ArrayLike, lo: float, hi: float) -> ArrayLike:
    """Whether ``x`` lies in [lo, hi], allowing 1e-12 times the larger of 1
    and the finite ends' magnitudes; NaN and infinities are outside.  The
    one containment rule of domain checks and of scenario validation."""
    atol = 1e-12 * max(1.0, abs(lo), abs(hi) if math.isfinite(hi) else 1.0)
    return (x >= lo - atol) & (x <= (hi + atol if hi < math.inf else sys.float_info.max))


def _check_in_interval(x, lo: float, hi: float, name: str) -> np.ndarray:
    """``x`` as floats (:func:`_coefficients`), if all of it lies in [lo, hi]."""
    x = _coefficients(name, x, "number")
    bad = ~_inside(x, lo, hi)
    if np.any(bad):
        offender = float(x[bad][0]) if x.ndim else float(x)
        raise DomainError(f"{name}={offender:g} outside domain [{lo:g}, {hi:g}]")
    return x


def _evaluate(method, named_domains, *args):
    """The one checked evaluation path of the public methods: convert and
    check every argument against its (name, domain), call ``method`` on the
    float arrays, and return floats (one or a tuple) for scalar arguments."""
    arrays = [_check_in_interval(x, *dom, name) for x, (name, dom) in zip(args, named_domains)]
    out = method(*arrays)
    if not all(isinstance(x, (int, float)) for x in args):
        return out
    return tuple(map(float, out)) if isinstance(out, tuple) else float(out)


def check_integer(name: str, value: int) -> None:
    """Reject ``value`` unless it is an integer; numpy integers count,
    bools do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ScenarioError(f"{name} must be an integer")


def check_size(name: str, value: int, lo: int, hi: int) -> None:
    """Reject a sizing knob that is not an integer (:func:`check_integer`)
    in [lo, hi] before anything is allocated."""
    check_integer(name, value)
    if not lo <= value <= hi:
        raise ScenarioError(f"{name} must be at least {lo}" if value < lo
                            else f"{name} must be at most {hi}")


def _coefficients(name: str, values, rule: str = "nonnegative",
                  ndim: Optional[int] = None) -> np.ndarray:
    """The one rule by which a caller's numbers enter the library: ``values``
    as floats (``ndim``-D if given), then checked by ``rule``, one of
    "number" < "finite" < "nonnegative" < "positive".  Every entry goes
    through :func:`_entry`: a list or tuple's before numpy would promote a
    bool among them to 1.0 (:func:`_entries`), and a flat one is then
    checked in Python; a float64 array passes as is."""
    flat = None
    try:
        if isinstance(values, (list, tuple)):
            flat = _entries(values)
            array = np.array(flat, dtype=float)
        else:
            array = np.asarray(values)
            if array.dtype.char != "d":  # astype would read None as NaN
                array = np.vectorize(_entry, otypes=[float])(array)
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        kind = "finite" if isinstance(exc, OverflowError) else "numeric"
        raise ScenarioError(f"{name} must be {kind}") from None
    if ndim is not None and array.ndim != ndim:
        raise ScenarioError(f"{name} must be " + ("a number" if ndim == 0 else f"{ndim}-D"))
    if rule != "number" and array.size:
        if flat is None or array.ndim != 1:  # one number costs no ufunc, an array two
            flat = (array.min(), array.max()) if array.ndim else (float(array),)
        if not all(map(math.isfinite, flat)):
            raise ScenarioError(f"{name} must be finite")
        lo = min(flat)
        if rule != "finite" and not (lo > 0 if rule == "positive" else lo >= 0):
            raise ScenarioError(f"{name} must be {rule}")
    return array


def _entries(values) -> list:
    """A list or tuple's entries, nested as given (an array entry as a
    sequence), each through :func:`_entry`."""
    return [_entries(x) if isinstance(x, (list, tuple)) or getattr(x, "ndim", 0) else _entry(x)
            for x in values]


def _entry(x) -> float:
    """One entry as ``float`` converts it; a bool or a string is no number."""
    if isinstance(x, (bool, np.bool_, str, bytes)):
        raise TypeError(x)
    return float(x)


#: the bases' default domain [0, inf), which passes :func:`_domain` as is
_UNBOUNDED = (0.0, math.inf)


def _domain(name: str, domain) -> tuple[float, float]:
    """The one domain rule: two numbers with 0 <= lo < hi (hi may be infinite)."""
    if domain is _UNBOUNDED:  # converted once, not by every family
        return domain
    ends = _coefficients(name, domain, "number").ravel().tolist()
    if len(ends) != 2 or not 0 <= ends[0] < ends[1]:
        raise ScenarioError(f"invalid {name} [{', '.join(f'{x:g}' for x in ends)}]")
    return tuple(ends)


def _coefficient(name: str, value, rule: str = "nonnegative") -> float:
    """:func:`_coefficients` for one number: ``value`` as a float."""
    return float(_coefficients(name, value, rule, ndim=0))


def _sorted_distinct(*parts: ArrayLike) -> np.ndarray:
    """The sorted distinct values of the concatenated ``parts``: what
    numpy's ``unique`` returns for float input without NaN, by the same
    sort and neighbour mask, but without its masked-array test, which
    imports ``numpy.ma`` on first use."""
    x = np.sort(np.concatenate(parts))
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


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

    Subclasses implement the unchecked ``_value`` and ``_derivative``,
    which return numpy floats that broadcast like ``s``.  The checked
    ``value`` and ``derivative`` check ``s`` against ``domain`` (:func:`_domain`)
    and return a Python float for a scalar ``s``, a float array otherwise.
    """

    def __init__(self, domain: tuple[float, float] = _UNBOUNDED):
        self.domain = _domain("function domain", domain)

    def value(self, s: ArrayLike) -> ArrayLike:
        return _evaluate(self._value, (("s", self.domain),), s)

    def derivative(self, s: ArrayLike) -> ArrayLike:
        return _evaluate(self._derivative, (("s", self.domain),), s)

    def knots(self, lo: float, hi: float) -> np.ndarray:
        """Points in (lo, hi) between which the function is monotone."""
        return np.empty(0)

    def _value(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _derivative(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class LinearFunction(ScalarFunction):
    """f(s) = slope * s."""

    def __init__(self, slope: float):
        super().__init__()
        self.slope = _coefficient("linear slope", slope)

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
        self.scale = _coefficient("log scale", scale)

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
        self.scale = _coefficient("power scale", scale)
        self.exponent = _coefficient("power exponent", exponent, "positive")

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
        self.base = base
        self.factor = _coefficient("scale factor", factor)

    def _value(self, s):
        return self.factor * self.base._value(s)

    def _derivative(self, s):
        return self.factor * self.base._derivative(s)

    def knots(self, lo, hi):
        return self.base.knots(lo, hi)

    def __repr__(self):
        return f"ScaledFunction({self.base!r}, factor={self.factor:g})"


class TabulatedFunction(ScalarFunction):
    """Piecewise-linear interpolant of a sampled function.

    Only the coordinate column is checked (strictly increasing); the
    values need not be monotone.  The derivative is the slope of the
    segment holding ``s``; on an interior knot, the mean of the two.
    """

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        xs, ys = (_coefficients("tabulated data", a, "finite") for a in (xs, ys))
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ScenarioError("tabulated data must be two equal 1-D columns")
        if np.any(np.diff(xs) <= 0):
            raise ScenarioError("tabulated coordinate column must be strictly increasing")
        super().__init__(xs[[0, -1]])
        self.xs = xs
        self.ys = ys
        self.slopes = np.diff(ys) / np.diff(xs)

    def _value(self, s):
        return np.interp(s, self.xs, self.ys)

    def _derivative(self, s):
        k, w = _cell(self.xs, s)
        # on an interior knot (w == 0), the mean of the two one-sided slopes
        return 0.5 * (self.slopes[k] + self.slopes[k - ((w == 0) & (k > 0))])

    def knots(self, lo, hi):
        lo, hi = _coefficients("knots window", (lo, hi), "number", ndim=1)
        return self.xs[(self.xs > lo) & (self.xs < hi)]

    def __repr__(self):
        return f"TabulatedFunction({self.xs.size} knots on [{self.domain[0]:g}, {self.domain[1]:g}])"


# ---------------------------------------------------------------------------
# tariff functions
# ---------------------------------------------------------------------------

class TariffFunction:
    """Bivariate willingness to pay F(theta, s) and its first partials.

    The checked ``value`` and ``partials`` return Python floats for scalar
    arguments, float arrays otherwise; the unchecked ``_value`` and
    ``_partials`` return numpy floats that broadcast like theta and s.
    """

    def __init__(self, theta_domain=_UNBOUNDED, s_domain=_UNBOUNDED):
        self.theta_domain = _domain("theta_domain", theta_domain)
        self.s_domain = _domain("s_domain", s_domain)

    def value(self, theta: ArrayLike, s: ArrayLike) -> ArrayLike:
        return _evaluate(self._value, self._named_domains(), theta, s)

    def partials(self, theta: ArrayLike, s: ArrayLike):
        """Return (F_theta, F_s) at (theta, s)."""
        return _evaluate(self._partials, self._named_domains(), theta, s)

    def theta_knots(self, lo: float, hi: float) -> np.ndarray:
        """Demands in (lo, hi) between which F and its differences in s are monotone."""
        return np.empty(0)

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
        self.d_p = _coefficient("bilinear slope d_p", d_p, "positive")

    def _value(self, th, sv):
        return self.d_p * th * sv

    def _partials(self, th, sv):
        th, sv = np.broadcast_arrays(th, sv)
        return self.d_p * sv, self.d_p * th

    def __repr__(self):
        return f"BilinearTariff(d_p={self.d_p:g})"


class SeparableTariff(TariffFunction):
    """F(theta, s) = g(theta) * h(s) with g, h increasing."""

    def __init__(self, g: ScalarFunction, h: ScalarFunction):
        super().__init__(g.domain, h.domain)
        self.g = g
        self.h = h

    def _value(self, th, sv):
        return self.g._value(th) * self.h._value(sv)

    def _partials(self, th, sv):
        # each product broadcasts by itself: g and h run on their own argument
        return (self.g._derivative(th) * self.h._value(sv),
                self.g._value(th) * self.h._derivative(sv))

    def theta_knots(self, lo, hi):
        return self.g.knots(lo, hi)

    def __repr__(self):
        return f"SeparableTariff(g={self.g!r}, h={self.h!r})"


class TabulatedTariff(TariffFunction):
    """Bilinear interpolation of F sampled on a rectilinear grid.

    F_theta and F_s are the interpolant's own: cell slopes, interpolated
    along the other coordinate, averaged over the cells on either side of
    an interior knot and one-sided at the grid edges.
    """

    def __init__(self, thetas: Sequence[float], ss: Sequence[float], values):
        thetas, ss, values = (_coefficients("tabulated tariff grids and values", a, "finite")
                              for a in (thetas, ss, values))
        if (thetas.ndim != 1 or ss.ndim != 1 or min(thetas.size, ss.size) < 2
                or values.shape != (thetas.size, ss.size)):
            raise ScenarioError("tabulated tariff needs 2+ knots per axis and a matching value matrix")
        if np.any(np.diff(thetas) <= 0) or np.any(np.diff(ss) <= 0):
            raise ScenarioError("tabulated tariff grids must be strictly increasing")
        super().__init__(thetas[[0, -1]], ss[[0, -1]])
        self.thetas = thetas
        self.ss = ss
        self.values_grid = values
        self.theta_slopes = np.diff(values, axis=0) / np.diff(thetas)[:, None]
        self.s_slopes = np.diff(values, axis=1) / np.diff(ss)

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
        st, ss = self.theta_slopes, self.s_slopes
        # off the knots il == i and jl == j, and each mean is exact
        f_theta = 0.5 * ((1 - ws) * (st[i, j] + st[il, j])
                         + ws * (st[i, j + 1] + st[il, j + 1]))
        f_s = 0.5 * ((1 - wt) * (ss[i, j] + ss[i, jl])
                     + wt * (ss[i + 1, j] + ss[i + 1, jl]))
        return f_theta, f_s

    def theta_knots(self, lo, hi):
        lo, hi = _coefficients("knots window", (lo, hi), "number", ndim=1)
        return self.thetas[(self.thetas > lo) & (self.thetas < hi)]

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
        for key in ("theta_low", "theta_up", "s_low", "s_up"):
            object.__setattr__(self, key, _coefficient(key, getattr(self, key), "positive"))
        self.validate()

    def validate(self) -> None:
        # a zero-width demand range is tolerated here; the achievability
        # predicate reports it as a failing demand-range condition
        if not self.theta_low <= self.theta_up:
            raise ScenarioError("demand bounds must satisfy theta_low <= theta_up")
        if not self.s_low < self.s_up:
            raise ScenarioError("quality bounds must satisfy s_low < s_up")

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
        return null_non_finite({
            "id": self.cid,
            "passed": self.passed,
            "margin": self.margin,
            "witness": self.witness,
            "detail": self.detail,
        })


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
      P'_i < P'_{i+1} by more than the tolerance.
    * a3: the lowest type can afford some quality at cost-plus-profit,
      and the highest type cannot afford arbitrarily high quality.  The
      second witness may lie beyond the probe window, so the scan keeps
      doubling the quality up to ``s_search_max`` before giving up.

    Each function is evaluated once, at the origin and on the grid, and
    each a1/a2 kind is decided for all functions at once.  A "passed"
    report covers only (0, s_probe_max], plus the a3 doubling.  Failures
    carry the witness grid point.  Report-valued: never raises on a
    condition failure.
    """
    budgets, cost, profit = scenario.budgets, scenario.cost, scenario.profit
    hi = scenario.s_probe_max
    grid = (hi / scenario.grid_n) * np.arange(1, scenario.grid_n + 1)

    # one row per function: id prefix, monotone id, strict, curvature
    rows = [("a1.cost", "strictly_increasing", True, "convex"),
            ("a1.profit", "nondecreasing", False, "convex")]
    rows += [(f"a2.budget{i}", "strictly_increasing", True, "concave")
             for i in range(1, len(budgets) + 1)]
    strict = np.array([[row[2]] for row in rows])
    convex = np.array([[row[3] == "convex"] for row in rows])
    points = np.concatenate(([0.0], grid))
    values = np.array([f._value(points) for f in (cost, profit) + budgets])
    at_origin, v = np.abs(values[:, 0]), values[:, 1:]
    slopes = np.array([p._derivative(grid) for p in budgets])

    # each kind is decided for every row at once; zero at origin is
    # relative to the function's magnitude on the grid
    zero_ok = at_origin <= tolerance(v).max(axis=1)
    rise = np.diff(v, axis=1)
    rise_ok = np.all(np.where(strict, rise > 0,
                              rise >= -tolerance(v[:, 1:], v[:, :-1])), axis=1)
    d2 = v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]
    bend = np.where(convex, d2, -d2)  # concave rows negated
    bend_ok = np.all(bend >= -tolerance(v[:, 2:], 2.0 * v[:, 1:-1], v[:, :-2]),
                     axis=1)
    cross = np.diff(slopes, axis=0)
    cross_ok = np.all(cross > tolerance(slopes[1:], slopes[:-1]), axis=1)
    # argmin picks the first NaN, if any, as the worst margin
    at_rise, at_bend, at_cross = (np.argmin(m, axis=1) for m in (rise, bend, cross))

    checks: list[ConditionCheck] = []
    for r, (prefix, rise_id, _, shape) in enumerate(rows):
        i, j = at_rise[r], at_bend[r]
        checks += [
            ConditionCheck(f"{prefix}_zero_at_origin", bool(zero_ok[r]),
                           float(-at_origin[r]), None if zero_ok[r] else 0.0,
                           "value at 0"),
            ConditionCheck(f"{prefix}_{rise_id}", bool(rise_ok[r]), float(rise[r, i]),
                           None if rise_ok[r] else float(grid[1 + i]),
                           "min forward difference"),
            ConditionCheck(f"{prefix}_{shape}", bool(bend_ok[r]), float(bend[r, j]),
                           None if bend_ok[r] else float(grid[1 + j]),
                           f"second differences, {shape}")]
    for i, k in enumerate(at_cross):
        checks.append(ConditionCheck(f"a2.single_crossing_{i + 1}_{i + 2}",
                                     bool(cross_ok[i]), float(cross[i, k]),
                                     None if cross_ok[i] else float(grid[k]),
                                     "min derivative gap between consecutive budgets"))

    # existence scans include a geometric refinement near the origin so
    # that small feasible regions of the lowest type are not missed
    geo = np.geomspace(hi * PROBE_SCAN_START, hi, 64)
    scan = _sorted_distinct(grid, geo)
    cb_scan = cost._value(scan) + profit._value(scan)
    entry_gap = budgets[0]._value(scan) - cb_scan
    k = int(np.argmax(entry_gap))
    ok = bool(entry_gap[k] >= 0.0)
    checks.append(ConditionCheck("a3.entry_exists", ok, float(entry_gap[k]),
                                 float(scan[k]) if ok else None,
                                 "max of P_1 - (C+B); witness is a feasible x_1"))
    top_gap = cb_scan - budgets[-1]._value(scan)
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
    c_prime = cost.derivative(s_grid)
    f_s_min = np.empty(grid_n)
    at = np.empty(grid_n, dtype=int)
    for i, s in enumerate(s_grid):
        f_s = tariff.partials(theta_grid, s)[1]
        at[i] = np.argmin(f_s)
        f_s_min[i] = f_s[at[i]]
    margins = f_s_min - c_prime
    i = int(np.argmin(margins))  # the first NaN, if any: a NaN fails closed
    worst = float(margins[i])
    witness = (float(theta_grid[at[i]]), float(s_grid[i]))
    ok = np.all(margins >= -tolerance(f_s_min, c_prime))
    check = ConditionCheck("marginal_budget", bool(ok), worst,
                           witness[0] if not ok else None,
                           f"min_theta F_s - C' attained at (theta={witness[0]:g}, s={witness[1]:g})")
    return ConditionReport((check,))
