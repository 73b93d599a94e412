"""Certification is scale-free.

The paper's sufficient conditions are homogeneous: scaling the tariff (or
the budgets), the cost and the profit targets by lambda scales every
price by lambda, and stretching the demand axis by mu (box and
half-widths times mu, d_p over mu) leaves the prices as they are.  Every
margin check counts against a tolerance relative to the terms that formed
the margin, so each scaled demo certifies, with the scale-1 prices scaled
to within a few ulps, and the demo with every price doubled fails at
every scale.
"""

import dataclasses

import numpy as np
import pytest

from contractpricing import (
    BilinearTariff,
    DomainBox,
    LinearFunction,
    MarginSpec,
    PowerFunction,
    SeparableTariff,
    build_profile,
    solve_menu,
    verify_menu,
    verify_profile,
)
from conftest import (
    make_bilinear_profile_scenario,
    make_log_menu_scenario,
    make_separable_profile_scenario,
)

SCALES = [10.0 ** k for k in range(-12, 13)]


def scaled_margins(margins, lam):
    return MarginSpec(b=tuple(lam * b for b in margins.b), m=margins.m)


def bilinear(lam):
    scenario = make_bilinear_profile_scenario()
    return dataclasses.replace(scenario, tariff=BilinearTariff(4.0 * lam),
                               cost=LinearFunction(lam),
                               margins=scaled_margins(scenario.margins, lam))


def separable(lam):
    scenario = make_separable_profile_scenario()
    return dataclasses.replace(
        scenario, tariff=SeparableTariff(PowerFunction(lam, 2.0), LinearFunction(1.0)),
        cost=LinearFunction(lam), margins=scaled_margins(scenario.margins, lam))


def stretched(mu):
    """The bilinear demo with its demand axis stretched by ``mu``."""
    scenario = make_bilinear_profile_scenario()
    box = scenario.box
    return dataclasses.replace(
        scenario, tariff=BilinearTariff(4.0 / mu),
        box=DomainBox(mu * box.theta_low, mu * box.theta_up, box.s_low, box.s_up),
        margins=MarginSpec(b=scenario.margins.b,
                           m=tuple(mu * m for m in scenario.margins.m)))


PROFILES = {"bilinear": (bilinear, 1), "separable": (separable, 1),
            "bilinear_demand": (stretched, 0)}


def assert_scaled(prices, base, factor):
    np.testing.assert_allclose(np.asarray(prices) / factor, base, rtol=1e-15, atol=0)


@pytest.mark.parametrize("scale", SCALES, ids=lambda x: f"{x:g}")
@pytest.mark.parametrize("case", sorted(PROFILES))
def test_profile_certification_is_scale_free(case, scale):
    make, price_power = PROFILES[case]
    scenario = make(scale)
    profile = build_profile(scenario)
    assert_scaled(profile.prices, build_profile(make(1.0)).prices, scale ** price_power)
    doubled = dataclasses.replace(profile, prices=tuple(2.0 * p for p in profile.prices))
    assert not verify_profile(doubled, scenario).passed


@pytest.mark.parametrize("scale", SCALES, ids=lambda x: f"{x:g}")
def test_menu_certification_is_scale_free(scale):
    scenario = make_log_menu_scenario(d_b=2.2 * scale, d_c=scale)
    menu = solve_menu(scenario)
    base = solve_menu(make_log_menu_scenario())
    assert menu.qualities == base.qualities
    assert_scaled(menu.prices, base.prices, scale)
    doubled = dataclasses.replace(menu, prices=tuple(2.0 * p for p in menu.prices))
    assert not verify_menu(doubled, scenario).passed
