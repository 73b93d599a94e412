"""Scenarios validate themselves once, when they are built, and the
solvers never validate them again."""

import collections
import dataclasses
import math

import pytest

from contractpricing import (
    BilinearTariff,
    DomainBox,
    LinearFunction,
    MarginSpec,
    MenuScenario,
    ProfileScenario,
    ScenarioError,
    build_profile,
    check_achievability,
    check_marginal_budget,
    check_menu_regularity,
    empirical_region,
    solve_menu,
)
from conftest import make_bilinear_profile_scenario, make_log_menu_scenario

NAN, INF = math.nan, math.inf


def count_validations(monkeypatch) -> collections.Counter:
    """Count the calls of each scenario class's ``validate`` from now on."""
    count = collections.Counter()
    for cls in (DomainBox, MenuScenario, ProfileScenario):
        def counted(self, _name=cls.__name__, _original=cls.validate):
            count[_name] += 1
            _original(self)
        monkeypatch.setattr(cls, "validate", counted)
    return count


class TestValidatedOnce:
    def test_building_and_replace_validate_once(self, monkeypatch):
        count = count_validations(monkeypatch)
        box = DomainBox(1.0 / 3.0, 1.0, 1.0, 3.0)
        menu = make_log_menu_scenario()
        profile = ProfileScenario((1.0, 2.0), BilinearTariff(4.0),
                                  LinearFunction(1.0), box,
                                  MarginSpec(b=(0.1, 0.2), m=(0.01, 0.02)))
        once = {"DomainBox": 1, "MenuScenario": 1, "ProfileScenario": 1}
        assert count == once
        count.clear()
        dataclasses.replace(box, s_up=4.0)
        dataclasses.replace(menu, grid_n=64)
        dataclasses.replace(profile, grid_n=64)
        assert count == once

    def test_solvers_do_not_revalidate(self, monkeypatch):
        menu = make_log_menu_scenario()
        profile = make_bilinear_profile_scenario()
        count = count_validations(monkeypatch)
        solve_menu(menu)
        check_menu_regularity(menu)
        build_profile(profile)
        check_achievability(profile)
        empirical_region(profile, [0.05, 0.1], [0.002, 0.004])
        check_marginal_budget(profile.tariff, profile.cost, profile.box,
                              profile.grid_n)
        assert not count


def replaced_margins(**margins):
    return lambda: dataclasses.replace(make_bilinear_profile_scenario(),
                                       margins=MarginSpec(**margins))


#: one non-finite value per field; a rule written as ``value < bound``
#: lets NaN through, since every comparison with NaN is False
NON_FINITE = {
    "qualities": (lambda: dataclasses.replace(make_bilinear_profile_scenario(),
                                              qualities=(1.0, NAN, 3.0)),
                  "qualities must be strictly increasing"),
    "margins.b": (replaced_margins(b=(0.1, NAN, 0.3), m=(0.01, 0.02, 0.03)),
                  "margins.b must be finite"),
    "margins.m_nan": (replaced_margins(b=(0.1, 0.2, 0.3), m=(NAN, 0.02, 0.03)),
                      "margins.m must be finite"),
    "margins.m_inf": (replaced_margins(b=(0.1, 0.2, 0.3), m=(0.01, 0.02, INF)),
                      "margins.m must be finite"),
    "margins.gap": (replaced_margins(b=(0.1, 0.2, 0.3), m=(0.01, 0.02, 0.03),
                                     gap=(NAN, NAN)),
                    "margins.gap must be finite"),
    "box": (lambda: DomainBox(1.0 / 3.0, INF, 1.0, 3.0),
            "bounds must be finite"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_value_is_a_scenario_error(case):
    build, message = NON_FINITE[case]
    with pytest.raises(ScenarioError, match=message):
        build()
