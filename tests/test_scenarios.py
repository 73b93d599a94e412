"""Scenarios validate themselves once, when they are built, and the
solvers never validate them again."""

import collections
import dataclasses
import math

import numpy as np
import pytest

from contractpricing import (
    BilinearTariff,
    DemandPriceProfile,
    DomainBox,
    LinearFunction,
    LogFunction,
    MarginSpec,
    MenuScenario,
    NoInteriorMaximizerError,
    PowerFunction,
    ProfileScenario,
    ScaledFunction,
    ScenarioError,
    TabulatedFunction,
    TabulatedTariff,
    UnboundedFeasibleSetError,
    build_profile,
    check_achievability,
    check_marginal_budget,
    check_menu_regularity,
    empirical_region,
    feasible_interval,
    maximize_net,
    price_window,
    sensitivity_bounds,
    solve_menu,
    verify_profile,
)
from contractpricing.functions import PROBE_SCAN_START
from contractpricing.menu import SEARCH_SCAN_START
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
    "box": (lambda: DomainBox(1.0 / 3.0, INF, 1.0, 3.0),
            "bounds must be finite"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_value_is_a_scenario_error(case):
    build, message = NON_FINITE[case]
    with pytest.raises(ScenarioError, match=message):
        build()


#: each closed-form family parameter, built from one value
CLOSED_FORMS = {
    "linear_slope": (LinearFunction, "linear slope"),
    "log_scale": (LogFunction, "log scale"),
    "power_scale": (lambda v: PowerFunction(v, 0.5), "power scale"),
    "power_exponent": (lambda v: PowerFunction(1.0, v), "power exponent"),
    "scaled_factor": (lambda v: ScaledFunction(LinearFunction(1.0), v),
                      "scale factor"),
    "bilinear_d_p": (BilinearTariff, "bilinear slope d_p"),
}


@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", sorted(CLOSED_FORMS))
def test_non_finite_parameter_is_a_scenario_error(case, value):
    # a sign rule alone lets NaN through, to fail later as the wrong class
    build, name = CLOSED_FORMS[case]
    with pytest.raises(ScenarioError, match=f"^{name} must be finite$"):
        build(value)


#: the smallest normal float, the floor of both scans' lower ends
TINY = np.finfo(float).tiny


@pytest.mark.parametrize("window, key", [
    ({"s_probe_max": 1e-320}, "s_probe_max"),
    ({"s_probe_max": 5e-324}, "s_probe_max"),
    ({"s_search_max": 1e-310, "s_probe_max": 1e-310}, "s_search_max"),
    # a scan from the smallest subnormal, then two from just below the floor
    ({"s_probe_max": 3e-315}, "s_probe_max"),
    ({"s_probe_max": 0.99 * TINY / PROBE_SCAN_START}, "s_probe_max"),
    ({"s_search_max": 0.99 * TINY / SEARCH_SCAN_START,
      "s_probe_max": 0.99 * TINY / SEARCH_SCAN_START}, "s_search_max"),
])
def test_subnormal_scan_window_is_a_scenario_error(window, key):
    # a geometric scan from 1e-9 s_probe_max or 1e-15 s_search_max
    # cannot start below the smallest normal float
    with pytest.raises(ScenarioError, match=f"^{key} = .* is too small"):
        dataclasses.replace(make_log_menu_scenario(), **window)


def test_smallest_scan_windows_are_scanned():
    # a window whose scans start at the smallest normal float is scanned,
    # not rejected: this one is too small to bound any type's feasible set
    window = TINY / SEARCH_SCAN_START
    scenario = dataclasses.replace(make_log_menu_scenario(),
                                   s_search_max=window, s_probe_max=window)
    assert not check_menu_regularity(scenario).check("a3.top_bounded").passed
    with pytest.raises(UnboundedFeasibleSetError):
        feasible_interval(1, scenario)


def test_smallest_probe_window_passes_on_rounding():
    # every point of the smallest probe window is a normal float, so the
    # shape checks hold as on the default window; on a window of
    # subnormals, rounding alone fails a1.profit_convex and a2.*_concave
    scenario = dataclasses.replace(make_log_menu_scenario(),
                                   s_probe_max=TINY / PROBE_SCAN_START)
    assert check_menu_regularity(scenario).passed


#: (call, message) of each in-process rule that no config reaches;
#: every call fails before any work is done
IN_PROCESS = {
    "no_qualities": (lambda: dataclasses.replace(
        make_bilinear_profile_scenario(), qualities=()),
        "at least one quality is required"),
    "no_budgets": (lambda: dataclasses.replace(
        make_log_menu_scenario(), budgets=()),
        "at least one budget function is required"),
    "feasible_interval_type": (lambda: feasible_interval(
        0, make_log_menu_scenario()),
        r"type index 0 outside 1\.\.3"),
    "maximize_net_type": (lambda: maximize_net(4, make_log_menu_scenario()),
                          r"type index 4 outside 1\.\.3"),
    # type 0 once read as type L through negative indexing
    "net_type": (lambda: make_log_menu_scenario().net(0, 1.0),
                 r"type index 0 outside 1\.\.3"),
    "net_derivative_type": (lambda: make_log_menu_scenario().net_derivative(-1, 1.0),
                            r"type index -1 outside 1\.\.3"),
    "net_beyond_last_type": (lambda: make_log_menu_scenario().net(4, 1.0),
                             r"type index 4 outside 1\.\.3"),
    "sensitivity_bounds_step": (lambda: sensitivity_bounds(
        make_bilinear_profile_scenario(), 1),
        r"step index 1 outside 2\.\.3"),
    "price_window_step": (lambda: price_window(
        make_bilinear_profile_scenario(), 4, 0.5, 1.0, 0.9),
        r"step index 4 outside 2\.\.3"),
    "empirical_region_2d": (lambda: empirical_region(
        make_bilinear_profile_scenario(), [[0.05, 0.1]], [0.002]),
        "b_grid must be a 1-D grid"),
    "verify_profile_entries": (lambda: verify_profile(
        DemandPriceProfile((0.5,), (1.5,), ((1.1, 2.0),), (0.01,)),
        make_bilinear_profile_scenario()),
        "profile.demands has 1 entries but scenario declares 3"),
}


@pytest.mark.parametrize("case", sorted(IN_PROCESS))
def test_in_process_rule(case):
    call, message = IN_PROCESS[case]
    with pytest.raises(ScenarioError, match=message):
        call()


def test_net_saving_falling_at_zero_has_no_interior_maximizer():
    # f = P - C is negative just above 0 and positive on (4/3, 3.5), so
    # the feasible interval is not degenerate but f'(0+) = -0.5
    budget = TabulatedFunction([0.0, 1.0, 2.0, 3.0, 10.0],
                               [0.0, 0.5, 3.0, 3.5, 3.5])
    cost = LinearFunction(1.0)
    scenario = MenuScenario((budget,), cost, ScaledFunction(cost, 0.0),
                            s_search_max=10.0, s_probe_max=10.0)
    assert feasible_interval(1, scenario)[1] == pytest.approx(3.5)
    with pytest.raises(NoInteriorMaximizerError, match="nonincreasing at 0"):
        maximize_net(1, scenario)


def knot_below(scale, over=0.0):
    """The reference profile scaled by ``scale`` in quality, on a tabulated
    tariff whose last s-knot sits one ulp below 3 * scale; the box and the
    top quality reach ``3 * scale * (1 + over)``."""
    s_up = 3.0 * scale * (1.0 + over)
    ss = [0.0, 1.5 * scale, math.nextafter(3.0 * scale, 0.0)]
    thetas = [1.0 / 3.0, 1.0]
    tariff = TabulatedTariff(thetas, ss, 4.0 * np.outer(thetas, ss))
    return dataclasses.replace(make_bilinear_profile_scenario(), tariff=tariff,
                               qualities=(scale, 2.0 * scale, s_up),
                               box=DomainBox(1.0 / 3.0, 1.0, scale, s_up))


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_scenario_containment_is_the_domain_check_rule(scale):
    # a scenario accepts what the checked evaluation accepts
    scenario = knot_below(scale)
    assert scenario.tariff.value(1.0, 3.0 * scale) > 0
    with pytest.raises(ScenarioError, match="exceeds the tariff's s domain"):
        knot_below(scale, over=1e-9)


def test_search_window_containment_is_the_domain_check_rule():
    cap = 3e6
    budget = TabulatedFunction([0.0, math.nextafter(cap, 0.0)], [0.0, cap])
    cost = LinearFunction(0.5)
    scenario = MenuScenario((budget,), cost, ScaledFunction(cost, 0.1),
                            s_search_max=cap)
    assert budget.value(cap) > 0
    with pytest.raises(ScenarioError, match="does not cover the search window"):
        dataclasses.replace(scenario, s_search_max=cap * (1.0 + 1e-9))
