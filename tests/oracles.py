"""Independent oracles that the tests compare the library against.

Each oracle is defined here once, and none is part of the package.  The
oracles and the library code they check:

* ``simpson``, ``quadrature_window`` and ``crosscheck_windows`` check
  :func:`contractpricing.profile.price_window`, and so the windows of
  ``build_profile``.  The library takes the window ends in closed form,
  as tariff differences; these integrate F_s and F_theta along the
  paper's line integrals with composite Simpson.  ``MAX_QUAD_N`` bounds
  the number of intervals.
* ``bisect_root`` and ``grid_argmax`` (plain bisection and a grid scan)
  check the menu's feasible boundaries and maximizers
  (``feasible_interval``, ``maximize_net``).
* ``checked_feasible_interval``, ``checked_maximize_net`` and
  ``checked_menu`` check ``feasible_interval``, ``maximize_net`` and
  ``solve_menu``.  They are those searches as they were when every point
  went through the public, domain-checked ``MenuScenario.net`` and
  ``net_derivative``.
* ``oracle_simulate`` checks :func:`contractpricing.verify.simulate_market`.
  It is the simulator as it was before blockwise evaluation.
* ``fd_derivative`` and ``fd_partials`` (finite differences with relative
  step ``FD_STEP``) check ``TabulatedFunction.derivative`` and
  ``TabulatedTariff.partials``.  ``bilinear_value`` (the interpolation
  formula) checks ``TabulatedTariff._value``.  ``broadcast_first`` checks
  ``TabulatedTariff._value`` and ``_partials``; it is both as they were
  when they broadcast theta and s before their cell lookups.
* ``oracle_region`` checks :func:`contractpricing.tradeoff.empirical_region`
  with one ``check_achievability`` call per grid cell.
* ``exact_profile_margins`` checks
  :func:`contractpricing.verify.verify_profile`, and calibrates
  ``REL_TOL``: it recomputes the verifier's margins in exact rational
  arithmetic, for a bilinear tariff and a linear cost.
* ``dense_profile_margins`` checks that ``verify_profile`` is exact for a
  ``TabulatedTariff``: it minimizes the budget and incentive margins of
  each band over ``DENSE_POINTS`` uniform demands plus every knot.
"""

import dataclasses
from fractions import Fraction

import numpy as np

from contractpricing import (
    MarginSpec,
    QualityPriceMenu,
    VerificationReport,
    Violation,
    check_achievability,
)
from contractpricing.functions import check_size, tolerance
from contractpricing.menu import MAXIMIZER_TOL, ROOT_TOL
from contractpricing.verify import BandStats, MarketSimReport, OutOfBandStats, _band_probes

# ---------------------------------------------------------------------------
# price windows by quadrature
# ---------------------------------------------------------------------------

#: most Simpson intervals per integral
MAX_QUAD_N = 1 << 20


def simpson(func, a, b, n):
    """Composite Simpson integral of ``func`` over [a, b] with n intervals."""
    if b == a:
        return 0.0
    if n < 2:
        n = 2
    if n % 2:
        n += 1
    x = np.linspace(a, b, n + 1)
    y = np.asarray(func(x), dtype=float)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((b - a) / (3.0 * n) * np.dot(w, y))


def quadrature_window(scenario, j, theta_prev, p_prev, theta_j, quad_n=256):
    """The window ``(A_j, B_j)`` of ``price_window`` with the same
    arguments, as line integrals of F_s along the quality step and of
    F_theta across a band at the lower quality."""
    s_prev, s_j = scenario.qualities[j - 2], scenario.qualities[j - 1]
    m_prev, m_j = scenario.margins.m[j - 2], scenario.margins.m[j - 1]
    tariff = scenario.tariff

    def f_s_at(theta):
        return lambda s: np.asarray(tariff.partials(theta, s)[1])

    def f_theta(theta):
        return np.asarray(tariff.partials(theta, s_prev)[0])

    a_j = (p_prev
           + simpson(f_s_at(theta_prev + m_prev), s_prev, s_j, quad_n)
           + simpson(f_theta, theta_prev - m_prev, theta_prev + m_prev, quad_n)
           + (scenario.margins.b[j - 1] - scenario.margins.b[j - 2]))
    b_j = (p_prev
           + simpson(f_s_at(theta_j - m_j), s_prev, s_j, quad_n)
           - simpson(f_theta, theta_j - m_j, theta_j + m_j, quad_n))
    return a_j, b_j


def crosscheck_windows(scenario, profile, quad_n=256, rel_tol=1e-6):
    """Recompute every window of ``profile`` by quadrature and compare.

    Each window end's margin is ``rel_tol`` minus its relative error
    (negative means violated); a NaN margin is the worst one.
    """
    check_size("quad_n", quad_n, 64, MAX_QUAD_N)
    violations, margins = [], []
    for j in range(2, len(profile.demands) + 1):
        quadrature = quadrature_window(scenario, j, profile.demands[j - 2],
                                       profile.prices[j - 2],
                                       profile.demands[j - 1], quad_n)
        for name, closed, quad in zip(("window_A", "window_B"),
                                      profile.windows[j - 1], quadrature):
            margin = rel_tol - abs(closed - quad) / max(1.0, abs(closed))
            margins.append(margin)
            if not margin >= 0.0:
                violations.append(Violation(name, j, None, float(margin),
                                            {"closed_form": closed,
                                             "quadrature": quad}))
    return VerificationReport(passed=not violations,
                              violations=tuple(violations),
                              worst_margin=float(np.min(margins, initial=np.inf)))


# ---------------------------------------------------------------------------
# menu searches
# ---------------------------------------------------------------------------

def bisect_root(func, lo, hi, iterations=200):
    """Independent bisection oracle: root of func on [lo, hi]."""
    f_lo = func(lo)
    assert f_lo * func(hi) <= 0, "oracle bracket must straddle the root"
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if f_lo * func(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def grid_argmax(func, lo, hi, n=10_000):
    """Independent grid-scan oracle for a 1-D maximum."""
    grid = np.linspace(lo, hi, n)
    values = np.asarray(func(grid))
    k = int(np.argmax(values))
    return float(grid[k]), float(values[k])


def checked_feasible_interval(i, scenario):
    """``feasible_interval`` as it was when every point went through the
    public, domain-checked ``net`` (its error branches are asserts here)."""
    cap = scenario.s_search_max
    candidates = np.geomspace(cap * 1e-15, cap, 256)
    vals = scenario.net(i, candidates)
    pos = np.flatnonzero(vals > 0.0)
    if pos.size == 0:
        return (0.0, 0.0)
    first_pos = int(pos[0])
    neg = np.flatnonzero(vals[first_pos:] < 0.0)
    assert neg.size > 0
    hi_idx = first_pos + int(neg[0])
    lo = float(candidates[hi_idx - 1])
    hi = float(candidates[hi_idx])
    while hi - lo > ROOT_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if float(scenario.net(i, mid)) >= 0.0:
            lo = mid
        else:
            hi = mid
    return (0.0, 0.5 * (lo + hi))


def checked_maximize_net(i, scenario):
    """``maximize_net`` through the public ``net_derivative``."""
    _, a_i = checked_feasible_interval(i, scenario)
    assert a_i > 0.0
    lo = min(1e-9, 1e-9 * a_i)
    assert float(scenario.net_derivative(i, lo)) > 0.0
    assert float(scenario.net_derivative(i, a_i)) < 0.0
    hi = a_i
    tol = MAXIMIZER_TOL * max(1.0, a_i)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if float(scenario.net_derivative(i, mid)) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def checked_menu(scenario):
    """The menu from the checked searches and public evaluations."""
    qualities = [checked_maximize_net(i, scenario)
                 for i in range(1, scenario.n_types + 1)]
    prices = [float(scenario.cost.value(s)) + float(scenario.profit.value(s))
              for s in qualities]
    nets = [float(scenario.net(i, s)) for i, s in enumerate(qualities, start=1)]
    return QualityPriceMenu(tuple(qualities), tuple(prices), tuple(nets))


# ---------------------------------------------------------------------------
# market simulation
# ---------------------------------------------------------------------------

def oracle_simulate(profile, scenario, samples_per_band, rng_seed):
    """The simulator as it was before blockwise evaluation: one tariff call
    per quality, the rows stacked into a qualities x samples matrix, and
    each user's choice from an argmax over the qualities.  Ties and the
    profit target use the library's ``tolerance``."""
    tie = tolerance(*profile.prices)

    def savings_of(draws):
        return np.stack([np.asarray(scenario.tariff.value(draws, s_l), dtype=float) - p_l
                         for s_l, p_l in zip(scenario.qualities, profile.prices)])

    def choices(savings):
        best = savings.max(axis=0)
        return np.asarray(savings >= best - tie).argmax(axis=0)

    n = len(profile.demands)
    s, m, b = scenario.qualities, scenario.margins.m, scenario.margins.b
    bands = []
    for k in range(n):
        rng = np.random.default_rng([int(rng_seed), k])
        lo, hi = profile.demands[k] - m[k], profile.demands[k] + m[k]
        savings = savings_of(rng.uniform(lo, hi, samples_per_band))
        own = savings[k]
        cost = float(scenario.cost.value(s[k]))
        profit = profile.prices[k] - cost
        bands.append(BandStats(
            k=k + 1, theta=profile.demands[k], quality=s[k], price=profile.prices[k],
            fraction_intended=float(np.mean(choices(savings) == k)),
            min_saving=float(np.min(own)), mean_saving=float(np.mean(own)),
            provider_profit=profit, profit_target=b[k],
            meets_profit_target=bool(
                profit >= b[k] - tolerance(profile.prices[k], cost, b[k]))))

    box = scenario.box
    segments, cursor = [], box.theta_low
    for k in range(n):
        lo, hi = profile.demands[k] - m[k], profile.demands[k] + m[k]
        if lo > cursor:
            segments.append((cursor, lo))
        cursor = max(cursor, hi)
    if box.theta_up > cursor:
        segments.append((cursor, box.theta_up))
    lengths = np.array([hi - lo for lo, hi in segments], dtype=float)
    total = float(lengths.sum()) if segments else 0.0
    out = None
    if total > 0.0:
        u = np.random.default_rng([int(rng_seed), n]).uniform(0.0, total, samples_per_band)
        cum = np.cumsum(lengths)
        idx = np.clip(np.searchsorted(cum, u, side="right"), 0, len(segments) - 1)
        seg_lo = np.array([seg[0] for seg in segments])
        draws = seg_lo[idx] + (u - (cum[idx] - lengths[idx]))
        assign = np.clip(np.searchsorted(profile.demands, draws, side="right") - 1,
                         0, n - 1)
        assigned = savings_of(draws)[assign, np.arange(samples_per_band)]
        out = OutOfBandStats(samples=samples_per_band,
                             fraction_affordable=float(np.mean(assigned >= 0.0)),
                             min_saving=float(np.min(assigned)))
    return MarketSimReport(samples_per_band=samples_per_band, rng_seed=int(rng_seed),
                           bands=tuple(bands), out_of_band=out)


# ---------------------------------------------------------------------------
# tabulated families
# ---------------------------------------------------------------------------

#: relative step of the finite-difference oracles
FD_STEP = 1e-5


def fd_derivative(func, s):
    """Central difference of ``func._value``, one-sided at the domain ends."""
    lo, hi = func.domain
    h = FD_STEP * np.maximum(1.0, np.abs(s))
    left = np.maximum(s - h, lo)
    right = np.minimum(s + h, hi)
    return (func._value(right) - func._value(left)) / (right - left)


def fd_partials(tariff, th, sv):
    """Central differences of ``tariff._value`` clipped to the grid box."""
    th, sv = np.broadcast_arrays(th, sv)
    t_lo, t_hi = tariff.theta_domain
    s_lo, s_hi = tariff.s_domain
    ht = FD_STEP * np.maximum(1.0, np.abs(th))
    hs = FD_STEP * np.maximum(1.0, np.abs(sv))
    t0, t1 = np.maximum(th - ht, t_lo), np.minimum(th + ht, t_hi)
    s0, s1 = np.maximum(sv - hs, s_lo), np.minimum(sv + hs, s_hi)
    f_theta = (tariff._value(t1, sv) - tariff._value(t0, sv)) / (t1 - t0)
    f_s = (tariff._value(th, s1) - tariff._value(th, s0)) / (s1 - s0)
    return f_theta, f_s


def bilinear_value(thetas, ss, v, th, sv):
    """The bilinear interpolation formula, written out on its own."""
    th, sv = np.broadcast_arrays(np.asarray(th, float), np.asarray(sv, float))
    i = np.clip(np.searchsorted(thetas, th, side="right") - 1, 0, thetas.size - 2)
    j = np.clip(np.searchsorted(ss, sv, side="right") - 1, 0, ss.size - 2)
    t0, t1 = thetas[i], thetas[i + 1]
    s0, s1 = ss[j], ss[j + 1]
    wt = (th - t0) / (t1 - t0)
    ws = (sv - s0) / (s1 - s0)
    return ((1 - wt) * (1 - ws) * v[i, j]
            + wt * (1 - ws) * v[i + 1, j]
            + (1 - wt) * ws * v[i, j + 1]
            + wt * ws * v[i + 1, j + 1])


def broadcast_first(tariff):
    """``TabulatedTariff``'s ``_value`` and ``_partials`` as they were when
    both broadcast theta and s before their two cell lookups."""
    def cell(grid, x):
        k = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 2)
        return k, (x - grid[k]) / (grid[k + 1] - grid[k])

    def value(th, sv):
        th, sv = np.broadcast_arrays(np.asarray(th, float), np.asarray(sv, float))
        (i, wt), (j, ws) = cell(tariff.thetas, th), cell(tariff.ss, sv)
        v = tariff.values_grid
        return ((1 - wt) * (1 - ws) * v[i, j]
                + wt * (1 - ws) * v[i + 1, j]
                + (1 - wt) * ws * v[i, j + 1]
                + wt * ws * v[i + 1, j + 1])

    def partials(th, sv):
        th, sv = np.broadcast_arrays(th, sv)
        (i, wt), (j, ws) = cell(tariff.thetas, th), cell(tariff.ss, sv)
        il, jl = i - ((wt == 0) & (i > 0)), j - ((ws == 0) & (j > 0))
        st, ss = tariff.theta_slopes, tariff.s_slopes
        f_theta = 0.5 * ((1 - ws) * (st[i, j] + st[il, j])
                         + ws * (st[i, j + 1] + st[il, j + 1]))
        f_s = 0.5 * ((1 - wt) * (ss[i, j] + ss[i, jl])
                     + wt * (ss[i + 1, j] + ss[i + 1, jl]))
        return f_theta, f_s

    return value, partials


# ---------------------------------------------------------------------------
# achievable region
# ---------------------------------------------------------------------------

def oracle_region(template, b_grid, m_grid):
    """Reference matrix: the solver's predicate on one scenario per cell."""
    s = np.asarray(template.qualities)
    result = np.zeros((len(b_grid), len(m_grid)), dtype=bool)
    for i, b in enumerate(b_grid):
        for j, m in enumerate(m_grid):
            margins = MarginSpec(b=tuple(b * s), m=tuple(m * s))
            scenario = dataclasses.replace(template, margins=margins)
            result[i, j] = check_achievability(scenario).passed
    return result


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

#: uniform demands per band of ``dense_profile_margins``
DENSE_POINTS = 10 ** 4


def dense_profile_margins(profile, scenario, points=DENSE_POINTS):
    """The budget and incentive margins of a profile on a
    ``TabulatedTariff``, each minimized over ``points`` uniform demands
    of its band, the band's centre and every demand knot of the tariff in
    the band, with the tariff evaluated by ``bilinear_value``: a dict
    ``{(constraint, k, l): (margin, terms)}`` keyed as the verifier's
    violations, where ``terms`` are the values that formed the margin."""
    tariff = scenario.tariff
    s = np.asarray(scenario.qualities)
    p = np.asarray(profile.prices)
    out = {}
    for k, (theta, m) in enumerate(zip(profile.demands, scenario.margins.m)):
        lo, hi = theta - m, theta + m
        knots = tariff.thetas[(tariff.thetas >= lo) & (tariff.thetas <= hi)]
        demands = np.concatenate([np.linspace(lo, hi, points), [theta], knots])
        f = bilinear_value(tariff.thetas, tariff.ss, tariff.values_grid,
                           demands[None, :], s[:, None])
        own = f[k] - p[k]
        i = int(np.argmin(own))
        out["IR.budget", k + 1, None] = (own[i], (f[k, i], p[k]))
        for l in range(len(p)):
            if l != k:
                diff = own - (f[l] - p[l])
                i = int(np.argmin(diff))
                out["IC", k + 1, l + 1] = (diff[i], (f[k, i], p[k], f[l, i], p[l]))
    return out


def exact_profile_margins(profile, scenario):
    """``verify_profile``'s margins at its own probes, in ``Fraction``
    arithmetic on the same float inputs, for a ``BilinearTariff`` and a
    ``LinearFunction`` cost: a list of ``(margin, terms)``, where ``terms``
    are the values that formed the margin."""
    d_p, slope = Fraction(scenario.tariff.d_p), Fraction(scenario.cost.slope)
    s = [Fraction(x) for x in scenario.qualities]
    p = [Fraction(x) for x in profile.prices]
    b = [Fraction(x) for x in scenario.margins.b]
    m = scenario.margins.m
    n = len(p)
    out = []
    for k in range(n):
        for theta in map(Fraction, _band_probes(scenario.tariff, profile.demands[k], m[k])):
            f = [d_p * theta * s_l for s_l in s]
            out.append((f[k] - p[k], (f[k], p[k])))
            out += [((f[k] - p[k]) - (f[l] - p[l]), (f[k], p[k], f[l], p[l]))
                    for l in range(n) if l != k]
        floor = slope * s[k] + b[k]
        out.append((p[k] - floor, (p[k], floor)))
    for k in range(n - 1):
        # the verifier's band ends, rounded as it rounds them
        f_low = d_p * Fraction(profile.demands[k] - m[k]) * s[k]
        f_next = d_p * Fraction(profile.demands[k] + m[k]) * s[k + 1]
        premium = Fraction(scenario.margins.b[k + 1] - scenario.margins.b[k])
        out.append(((f_low - p[k]) - (premium + f_next - p[k + 1]),
                    (f_low, p[k], premium, f_next, p[k + 1])))
    return out
