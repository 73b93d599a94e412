"""Seeded scenario generators owned by the benchmark.

Every generator takes a ``numpy.random.Generator`` and returns plain
``contractpricing`` scenario objects, so the same seed always yields the
same inputs.  Structural choices (family, number of types or qualities)
are laid out on a fixed grid and only the continuous parameters are
drawn, so runs with different seeds do the same amount of work of the
same shape and their timings are comparable.

Profile margins are proportional to quality (``b_k = beta * s_k``,
``m_k = mu * s_k``) and are set by a *load* of the demand range: the
generator predicts the demand the increments will use from the tariff
family's closed-form sensitivity bounds, and a load above 1 makes the
margin unachievable.
"""

from __future__ import annotations

import numpy as np

from contractpricing import (
    BilinearTariff,
    DomainBox,
    LinearFunction,
    LogFunction,
    MarginSpec,
    MenuScenario,
    PowerFunction,
    ProfileScenario,
    ScaledFunction,
    SeparableTariff,
    TabulatedFunction,
    TabulatedTariff,
)

MENU_FAMILIES = ("log", "power", "tabulated")
TARIFF_FAMILIES = ("bilinear", "separable", "tabulated")

#: upper end of the tabulated budgets' domain (also their search cap)
TABULATED_BUDGET_CAP = 1e4


# ---------------------------------------------------------------------------
# menus
# ---------------------------------------------------------------------------

def menu_scenario(rng: np.random.Generator, family: str, n_types: int) -> MenuScenario:
    """A regular menu scenario whose per-type maximizers are well separated."""
    d_c = float(rng.uniform(0.4, 3.0))
    cost = LinearFunction(d_c)
    ratio = float(rng.uniform(0.05, 0.3))
    profit = ScaledFunction(cost, ratio)
    unit = d_c * (1.0 + ratio)  # marginal cost plus marginal profit target
    growth = float(rng.uniform(1.25, 1.6))
    first = float(rng.uniform(0.5, 2.0))
    targets = first * growth ** np.arange(n_types)  # maximizing qualities

    if family == "log":
        d_b = float(rng.uniform(1.0, 3.0))
        # P'(s) = d_b f / (1 + s) equals ``unit`` at s = target
        budgets = tuple(ScaledFunction(LogFunction(d_b), unit * (1.0 + t) / d_b)
                        for t in targets)
        return MenuScenario(budgets, cost, profit)
    if family == "power":
        e = float(rng.uniform(0.3, 0.7))
        budgets = tuple(PowerFunction(unit * t ** (1.0 - e) / e, e) for t in targets)
        return MenuScenario(budgets, cost, profit)
    if family == "tabulated":
        xs = np.concatenate([[0.0], np.geomspace(1e-3, TABULATED_BUDGET_CAP, 600)])
        shape = np.log1p(xs)
        budgets = tuple(TabulatedFunction(xs, unit * (1.0 + t) * shape) for t in targets)
        return MenuScenario(budgets, cost, profit,
                            s_search_max=TABULATED_BUDGET_CAP)
    raise ValueError(f"unknown menu family {family!r}")


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def _tariff_and_box(rng: np.random.Generator, family: str):
    """Tariff, cost and box, plus the tariff's F_theta = g'(theta) * h(s) extremes.

    Returns ``(tariff, cost, box, g_prime_low, g_prime_high, h)`` where
    ``h`` maps a quality to the quality factor of F_theta.
    """
    if family == "bilinear":
        theta_low = float(rng.uniform(0.3, 0.8))
        theta_up = theta_low + float(rng.uniform(0.5, 1.0))
        s_low = float(rng.uniform(0.5, 1.5))
        s_up = s_low + float(rng.uniform(1.0, 2.5))
        cost = LinearFunction(float(rng.uniform(0.5, 1.5)))
        d_p = cost.slope / theta_low * float(rng.uniform(1.5, 4.0))
        box = DomainBox(theta_low, theta_up, s_low, s_up)
        return BilinearTariff(d_p), cost, box, d_p, d_p, lambda s: s
    # separable and tabulated share the tariff a * theta**e * s
    theta_low = float(rng.uniform(1.1, 1.5))
    theta_up = theta_low + float(rng.uniform(0.6, 1.2))
    s_low = float(rng.uniform(0.6, 1.0))
    s_up = s_low + float(rng.uniform(0.8, 1.5))
    e = float(rng.uniform(1.2, 2.2))
    a = float(rng.uniform(1.0, 2.0))
    cost = LinearFunction(0.3)
    box = DomainBox(theta_low, theta_up, s_low, s_up)
    g_lo = a * e * theta_low ** (e - 1.0)
    g_hi = a * e * theta_up ** (e - 1.0)
    if family == "separable":
        tariff = SeparableTariff(PowerFunction(a, e), LinearFunction(1.0))
        return tariff, cost, box, g_lo, g_hi, lambda s: s
    if family == "tabulated":
        thetas = np.linspace(theta_low, theta_up, 48)
        ss = np.linspace(s_low, s_up, 12)
        values = a * np.outer(thetas ** e, ss)
        return TabulatedTariff(thetas, ss, values), cost, box, g_lo, g_hi, lambda s: s
    raise ValueError(f"unknown tariff family {family!r}")


def _margins_for_load(qualities, box, cost, tariff, g_lo, g_hi, h, load, split):
    """Margins ``b = beta * s``, ``m = mu * s`` that use ``load`` of the demand range.

    ``split`` is the share of the load given to satisfaction (``mu``);
    the rest goes to profit (``beta``), capped so that the entry
    condition keeps holding; what the cap cuts goes to satisfaction.
    """
    s = np.asarray(qualities)
    coef_m = s[0] + s[-1]
    coef_b = 0.0
    for j in range(1, s.size):
        eps = g_hi * h(s[j - 1])
        delta = g_lo * (h(s[j]) - h(s[j - 1]))
        coef_m += (s[j] + s[j - 1]) * (1.0 + 2.0 * eps / delta)
        coef_b += (s[j] - s[j - 1]) / delta
    entry_cap = (float(tariff.value(box.theta_low, s[0])) - float(cost.value(s[0]))) / s[0]
    budget = load * box.demand_range
    beta = min((1.0 - split) * budget / coef_b, 0.9 * entry_cap)
    mu = (budget - beta * coef_b) / coef_m
    return MarginSpec(b=tuple(beta * s), m=tuple(mu * s))


def profile_scenario(rng: np.random.Generator, family: str, n_qualities: int,
                     load: float) -> ProfileScenario:
    """A profile scenario whose margins use ``load`` of the demand range."""
    tariff, cost, box, g_lo, g_hi, h = _tariff_and_box(rng, family)
    qualities = tuple(np.linspace(box.s_low, box.s_up, n_qualities))
    margins = _margins_for_load(qualities, box, cost, tariff, g_lo, g_hi, h,
                                load, float(rng.uniform(0.3, 0.7)))
    return ProfileScenario(qualities, tariff, cost, box, margins)


def region_template(rng: np.random.Generator, family: str, n_qualities: int,
                    cells: int):
    """A margin-free profile template and a (b, m) grid that straddles its boundary.

    The grid runs from 2% to 130% of the largest profit and satisfaction
    scales that the closed-form sensitivity bounds predict, so it covers
    the boundary of the achievable region and cells on both sides.
    """
    tariff, cost, box, g_lo, g_hi, h = _tariff_and_box(rng, family)
    qualities = tuple(np.linspace(box.s_low, box.s_up, n_qualities))
    m_max = _margins_for_load(qualities, box, cost, tariff, g_lo, g_hi, h, 1.0, 1.0).m[0] / qualities[0]
    b_max = _margins_for_load(qualities, box, cost, tariff, g_lo, g_hi, h, 1.0, 1e-9).b[0] / qualities[0]
    placeholder = MarginSpec(b=tuple(1e-3 * s for s in qualities),
                             m=tuple(1e-3 * s for s in qualities))
    template = ProfileScenario(qualities, tariff, cost, box, placeholder)
    b_grid = np.geomspace(0.02 * b_max, 1.3 * b_max, cells)
    m_grid = np.geomspace(0.02 * m_max, 1.3 * m_max, cells)
    return template, b_grid, m_grid
