"""Shared scenario builders for the test suite."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

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
)


def make_log_menu_scenario(d_b=2.2, d_c=1.0, n_types=3, profit_factor=0.1):
    """Menu scenario with logarithmic budgets and linear cost.

    Budgets P_i(s) = d_b * i * log(1 + s), cost C(s) = d_c * s, profit
    target B = profit_factor * C.  Closed-form solution:
    s_i = (10 d_b / (11 d_c)) * i - 1 when profit_factor = 0.1.
    """
    cost = LinearFunction(d_c)
    profit = ScaledFunction(cost, profit_factor)
    budgets = tuple(ScaledFunction(LogFunction(d_b), float(i))
                    for i in range(1, n_types + 1))
    return MenuScenario(budgets, cost, profit)


def log_menu_closed_form(d_b, d_c, i):
    return (10.0 * d_b) / (11.0 * d_c) * i - 1.0


def make_bilinear_profile_scenario(d_p=4.0, d_c=1.0, price_lambda=0.5,
                                   b_scale=0.1, m_scale=0.01):
    """The reference three-quality bilinear scenario.

    Tariff d_p * theta * s on theta in [1/3, 1], qualities (1, 2, 3),
    margins b_k = b_scale * s_k and m_k = m_scale * s_k.
    """
    qualities = (1.0, 2.0, 3.0)
    margins = MarginSpec(b=tuple(b_scale * s for s in qualities),
                         m=tuple(m_scale * s for s in qualities))
    return ProfileScenario(
        qualities=qualities,
        tariff=BilinearTariff(d_p),
        cost=LinearFunction(d_c),
        box=DomainBox(1.0 / 3.0, 1.0, 1.0, 3.0),
        margins=margins,
        price_lambda=price_lambda,
    )


def make_separable_profile_scenario(m_scale=0.005, b_scale=0.05):
    """Separable tariff theta^2 * s on a narrow positive box."""
    qualities = (1.0, 1.5, 2.0)
    margins = MarginSpec(b=tuple(b_scale * s for s in qualities),
                         m=tuple(m_scale * s for s in qualities))
    return ProfileScenario(
        qualities=qualities,
        tariff=SeparableTariff(PowerFunction(1.0, 2.0), LinearFunction(1.0)),
        cost=LinearFunction(1.0),
        box=DomainBox(1.2, 2.0, 1.0, 2.0),
        margins=margins,
    )


#: hand-iterated solution of the reference bilinear scenario
WORKED_THETAS = (1.0 / 3.0 + 0.01, 1.0 / 3.0 + 0.01 + 0.115,
                 1.0 / 3.0 + 0.01 + 0.115 + 0.275)
WORKED_DELTAS = (0.01, 0.115, 0.275)
WORKED_P1 = 1.1 + 0.5 * (4.0 / 3.0 - 1.1)
WORKED_A2 = 2.81


@pytest.fixture
def log_menu_scenario():
    return make_log_menu_scenario()


@pytest.fixture
def bilinear_profile_scenario():
    return make_bilinear_profile_scenario()


@pytest.fixture
def separable_profile_scenario():
    return make_separable_profile_scenario()


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


def load_bench_scenarios():
    """The benchmark's seeded scenario generators, ``bench/scenarios.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "scenarios.py"
    spec = importlib.util.spec_from_file_location("bench_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
