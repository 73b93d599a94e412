"""Every number a caller hands the library enters through one rule
(``functions._coefficient`` and its array form): a public constructor or
entry point given a hostile value in place of one of its numbers returns,
or raises a declared :class:`ContractPricingError`, never Python's or
numpy's own error or a numpy warning (the suite turns those into errors).
A bool or a string is no number, and a function domain is exactly two
numbers 0 <= lo < hi.

A list or tuple's entries meet the rule before numpy sees them, so a
bool among floats is no number either.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contractpricing import (
    BilinearTariff,
    ContractPricingError,
    DemandPriceProfile,
    DomainBox,
    LinearFunction,
    LogFunction,
    MarginSpec,
    PowerFunction,
    QualityPriceMenu,
    ScalarFunction,
    ScaledFunction,
    ScenarioError,
    TabulatedFunction,
    TabulatedTariff,
    TariffFunction,
    build_profile,
    check_marginal_budget,
    empirical_region,
    feasible_interval,
    homogeneous_region,
    maximize_net,
    price_window,
    sensitivity_bounds,
    simulate_market,
    solve_menu,
    verify_menu,
    verify_profile,
)
from conftest import make_bilinear_profile_scenario, make_log_menu_scenario

#: values no parameter should turn into an undeclared error: a Python int
#: beyond the float range, the non-finite floats, the smallest subnormal,
#: a bool, a numpy integer, a string, None, and lists and arrays that hold
#: such values or have the wrong shape
HOSTILE = (10 ** 400, math.nan, math.inf, -math.inf, 5e-324, True,
           np.int64(3), "x", None, [1.0, None], [1.0, "x"], [[1.0], [2.0, 3.0]],
           [], np.array([math.nan, 1.0]), np.ones((2, 2)))

TAB = TabulatedFunction([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.5, 1.75])
TAB_TARIFF = TabulatedTariff([0.25, 0.5, 1.0], [0.0, 1.5, 3.0],
                             4.0 * np.outer([0.25, 0.5, 1.0], [0.0, 1.5, 3.0]))


@functools.cache
def solved():
    """The reference log menu and bilinear profile scenarios, solved."""
    menu, profile = make_log_menu_scenario(), make_bilinear_profile_scenario()
    return menu, solve_menu(menu), profile, build_profile(profile)


def entry(call, **defaults):
    """``call`` with the keyword ``defaults`` of each number it takes."""
    return call, defaults


def menu_columns(slack, **columns):
    """``verify_menu`` of the menu the keyword ``columns`` hold."""
    return verify_menu(QualityPriceMenu(**columns), solved()[0], slack)


def profile_columns(check):
    """``check`` (a verifier or the simulator) of the profile that its
    column keywords hold; its other keywords pass through."""
    def call(**kw):
        columns = {f.name: kw.pop(f.name) for f in dataclasses.fields(DemandPriceProfile)}
        return check(DemandPriceProfile(**columns), solved()[2], **kw)
    return call


def solution_defaults(kind):
    """The solved menu's or profile's columns, as the call's defaults."""
    _, menu_solution, _, profile_solution = solved()
    solution = menu_solution if kind == "menu" else profile_solution
    return {f.name: getattr(solution, f.name) for f in dataclasses.fields(solution)}


def entries():
    """Each public constructor and entry point: (call, numeric defaults)."""
    menu, _, profile, profile_solution = solved()
    curve = homogeneous_region(2.0, 0.5, 3, 4.0, 5)
    template = dataclasses.replace(profile, grid_n=16)
    pw = dict(j=2, theta_prev=profile_solution.demands[0],
              p_prev=profile_solution.prices[0], theta_j=profile_solution.demands[1])
    return {
        "ScalarFunction": entry(ScalarFunction, domain=(0.0, math.inf)),
        "TariffFunction": entry(TariffFunction, theta_domain=(0.0, math.inf),
                                s_domain=(0.0, math.inf)),
        "LinearFunction": entry(LinearFunction, slope=1.0),
        "LogFunction": entry(LogFunction, scale=2.2),
        "PowerFunction": entry(PowerFunction, scale=1.0, exponent=0.5),
        "ScaledFunction": entry(lambda factor: ScaledFunction(LinearFunction(1.0), factor),
                                factor=0.1),
        "TabulatedFunction": entry(TabulatedFunction, xs=[0.0, 1.0, 2.0],
                                   ys=[0.0, 1.0, 1.5]),
        "BilinearTariff": entry(BilinearTariff, d_p=4.0),
        "TabulatedTariff": entry(TabulatedTariff, thetas=[0.25, 1.0], ss=[0.0, 3.0],
                                 values=[[0.0, 0.75], [0.0, 3.0]]),
        "DomainBox": entry(DomainBox, theta_low=1.0 / 3.0, theta_up=1.0,
                           s_low=1.0, s_up=3.0),
        "MarginSpec": entry(MarginSpec, b=(0.1, 0.2, 0.3), m=(0.01, 0.02, 0.03)),
        "ProfileScenario": entry(functools.partial(dataclasses.replace, profile),
                                 qualities=(1.0, 2.0, 3.0), price_lambda=0.5,
                                 grid_n=16),
        "MenuScenario": entry(functools.partial(dataclasses.replace, menu),
                              s_search_max=1e6, s_probe_max=100.0, grid_n=16),
        "ScalarFunction.value": entry(LinearFunction(1.0).value, s=1.0),
        "ScalarFunction.derivative": entry(PowerFunction(1.0, 0.5).derivative, s=1.0),
        "TabulatedFunction.value": entry(TAB.value, s=1.0),
        "TabulatedFunction.derivative": entry(TAB.derivative, s=1.0),
        "TabulatedFunction.knots": entry(TAB.knots, lo=0.5, hi=2.5),
        "TariffFunction.value": entry(BilinearTariff(4.0).value, theta=0.5, s=1.0),
        "TariffFunction.partials": entry(BilinearTariff(4.0).partials, theta=0.5, s=1.0),
        "TabulatedTariff.value": entry(TAB_TARIFF.value, theta=0.5, s=1.0),
        "TabulatedTariff.partials": entry(TAB_TARIFF.partials, theta=0.5, s=1.0),
        "TabulatedTariff.theta_knots": entry(TAB_TARIFF.theta_knots, lo=0.3, hi=0.9),
        "MenuScenario.net": entry(menu.net, i=1, s=1.0),
        "MenuScenario.net_derivative": entry(menu.net_derivative, i=1, s=1.0),
        "feasible_interval": entry(lambda i: feasible_interval(i, menu), i=1),
        "maximize_net": entry(lambda i: maximize_net(i, menu), i=1),
        "check_marginal_budget": entry(
            lambda grid_n: check_marginal_budget(profile.tariff, profile.cost,
                                                 profile.box, grid_n), grid_n=16),
        "sensitivity_bounds": entry(lambda j: sensitivity_bounds(profile, j), j=2),
        "price_window": entry(functools.partial(price_window, profile), **pw),
        "homogeneous_region": entry(homogeneous_region, quality_range=2.0,
                                    demand_range=0.5, n_types=3, d_p=4.0,
                                    n_points=5),
        "TradeoffCurve.normalized_m": entry(curve.normalized_m, m=0.01),
        "empirical_region": entry(functools.partial(empirical_region, template),
                                  b_grid=[0.05, 0.1], m_grid=[0.002]),
        "verify_menu": entry(menu_columns, **solution_defaults("menu"), slack=1e-9),
        "verify_profile": entry(profile_columns(verify_profile),
                                **solution_defaults("profile"), slack=1e-9),
        "simulate_market": entry(profile_columns(simulate_market),
                                 **solution_defaults("profile"),
                                 samples_per_band=50, rng_seed=1),
    }


ENTRIES = entries()

#: (entry, parameter) of every number the entries take
PARAMETERS = sorted((name, key) for name, (_, defaults) in ENTRIES.items()
                    for key in defaults)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_defaults_return(name):
    # each call succeeds on its defaults, so a hostile value is what fails
    call, defaults = ENTRIES[name]
    call(**defaults)


@settings(max_examples=2 * len(PARAMETERS) * len(HOSTILE))
@given(parameter=st.sampled_from(PARAMETERS), value=st.sampled_from(HOSTILE),
       first_entry=st.booleans())
def test_hostile_number_returns_or_is_declared(parameter, value, first_entry):
    """The hostile value replaces the whole parameter, or with
    ``first_entry`` the first entry of a sequence parameter."""
    name, key = parameter
    call, defaults = ENTRIES[name]
    if first_entry and isinstance(defaults[key], (tuple, list)):
        value = [value, *defaults[key][1:]]
    try:
        call(**dict(defaults, **{key: value}))
    except ContractPricingError:
        pass


@pytest.mark.parametrize("build, message", [
    (lambda: LinearFunction(10 ** 400), "^linear slope must be finite$"),
    (lambda: LinearFunction(None), "^linear slope must be numeric$"),
    (lambda: LinearFunction([1.0, 2.0]), "^linear slope must be a number$"),
    (lambda: DomainBox(1.0 / 3.0, 1.0, 0.0, 3.0), "^s_low must be positive$"),
    (lambda: MarginSpec(b=0.1, m=(0.01,)), "^margins.b must be 1-D$"),
    (lambda: homogeneous_region("x", 0.5, 3, 4.0), "^quality_range must be numeric$"),
    (lambda: price_window(make_bilinear_profile_scenario(), 2, None, 1.0, 0.5),
     "^theta_prev must be numeric$"),
    (lambda: make_log_menu_scenario().net(1.0, 1.0), "^type index must be an integer$"),
    (lambda: verify_menu(QualityPriceMenu((1.0, 2.0, None), (1.0, 2.0, 3.0),
                                          (0.0, 0.0, 0.0)), make_log_menu_scenario()),
     "^menu.qualities must be numeric$"),
    (lambda: verify_menu(solved()[1], solved()[0], slack=-1.0), "^slack must be nonnegative$"),
    (lambda: ScalarFunction(5e-324), r"^invalid function domain \[4.94066e-324\]$"),
    (lambda: ScalarFunction((0, 1, 2)), r"^invalid function domain \[0, 1, 2\]$"),
    (lambda: TariffFunction((0, 1, 2)), r"^invalid theta_domain \[0, 1, 2\]$"),
    (lambda: TariffFunction((1, 0)), r"^invalid theta_domain \[1, 0\]$"),
    (lambda: TariffFunction(s_domain=(math.nan, 1)), r"^invalid s_domain \[nan, 1\]$"),
    (lambda: DomainBox(True, 1.0, 1.0, 3.0), "^theta_low must be numeric$"),
    (lambda: LinearFunction(np.bool_(True)), "^linear slope must be numeric$"),
    (lambda: LinearFunction("2"), "^linear slope must be numeric$"),
    (lambda: LinearFunction(1.0).value(np.str_("1")), "^s must be numeric$"),
    (lambda: homogeneous_region(b"2", 0.5, 3, 4.0), "^quality_range must be numeric$"),
    (lambda: MarginSpec(b=("0.1", "0.2", "0.3"), m=(0.01, 0.02, 0.03)),
     "^margins.b must be numeric$"),
    (lambda: MarginSpec(b=(True, 0.2, 0.3), m=(0.01, 0.02, 0.03)),
     "^margins.b must be numeric$"),
    (lambda: LinearFunction(1.0).value([True, 2.0]), "^s must be numeric$"),
], ids=["overflow", "none", "list", "sign", "ndim", "string", "demand", "index",
        "column_none", "slack", "domain_number", "domain_three", "theta_domain_three",
        "theta_domain_empty", "s_domain_nan", "bool", "numpy_bool", "numeric_string",
        "string_point", "bytes", "string_entries", "bool_entry", "bool_point_entry"])
def test_rule_names_the_parameter(build, message):
    with pytest.raises(ScenarioError, match=message):
        build()


def test_infinite_point_is_outside_an_unbounded_domain():
    # f(inf) - g(inf) is inf - inf: an infinite point is no real number
    with pytest.raises(ContractPricingError, match=r"^s=inf outside domain \[0, inf\]$"):
        make_log_menu_scenario().net(1, math.inf)
