"""Shared scenario builders and the loader of bench modules for the test suite."""

import importlib.util
import sys
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
    TabulatedTariff,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


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


#: demand knots of ``dip_tariff``, 1/2400 apart; the grid reaches below
#: the reference box, so that stored profiles, whose demands are rounded
#: to 9 digits, stay inside it
DIP_THETAS = np.linspace(0.25, 1.0, 1801)

#: the knot at which ``dip_tariff`` dips: 1/3 + 1/800, midway between two
#: of nine uniform probes of band 1 of the reference profile, which spans
#: [1/3, 1/3 + 0.02]
DIP_THETA = float(DIP_THETAS[203])


def dip_tariff():
    """4 theta s on ``DIP_THETAS`` and the qualities 1, 2, 3, except that
    F(DIP_THETA, 1) = 1.0: a user at that demand cannot afford the
    reference profile's first price, 1.2167."""
    ss = np.array([1.0, 2.0, 3.0])
    values = 4.0 * np.outer(DIP_THETAS, ss)
    values[203, 0] = 1.0
    return TabulatedTariff(DIP_THETAS, ss, values)


@pytest.fixture
def log_menu_scenario():
    return make_log_menu_scenario()


@pytest.fixture
def bilinear_profile_scenario():
    return make_bilinear_profile_scenario()


@pytest.fixture
def separable_profile_scenario():
    return make_separable_profile_scenario()


def load_bench(name):
    """``bench/<name>.py`` as module ``bench_<name>``.  Its sibling modules
    are importable while it loads, and it is registered under its name,
    which its dataclasses look up."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                      BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module
