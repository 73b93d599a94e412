"""Menu solver: feasible sets, maximizers, construction and failure modes."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contractpricing import (
    BracketError,
    ConditionReport,
    DegenerateTypesError,
    LinearFunction,
    LogFunction,
    MenuScenario,
    NoInteriorMaximizerError,
    PowerFunction,
    RegularityError,
    ScaledFunction,
    ScenarioError,
    TabulatedFunction,
    UnboundedFeasibleSetError,
    check_menu_regularity,
    feasible_interval,
    maximize_net,
    solve_menu,
    verify_menu,
)
from conftest import (
    bisect_root,
    grid_argmax,
    log_menu_closed_form,
    make_log_menu_scenario,
)


class TestFeasibleInterval:
    def test_first_type_boundary_matches_oracle(self, log_menu_scenario):
        # independent oracle: bisect 2.2*log(1+s) - 1.1*s on [1, 10]
        oracle = bisect_root(lambda s: 2.2 * math.log1p(s) - 1.1 * s, 1.0, 10.0)
        lo, hi = feasible_interval(1, log_menu_scenario)
        assert lo == 0.0
        assert hi == pytest.approx(oracle, abs=1e-6)
        assert hi == pytest.approx(2.513, abs=1e-3)

    def test_degenerate_interval(self):
        scenario = make_log_menu_scenario(d_b=0.5, d_c=1.0, n_types=1)
        assert feasible_interval(1, scenario) == (0.0, 0.0)

    def test_nesting(self, log_menu_scenario):
        bounds = [feasible_interval(i, log_menu_scenario)[1] for i in (1, 2, 3)]
        assert bounds[0] <= bounds[1] + 1e-9
        assert bounds[1] <= bounds[2] + 1e-9

    def test_unbounded_feasible_set(self):
        # convex budget grows past the linear cost: no upper crossing
        scenario = MenuScenario(
            budgets=(PowerFunction(1.0, 2.0),),
            cost=LinearFunction(1.0),
            profit=ScaledFunction(LinearFunction(1.0), 0.0),
            s_search_max=1e4,
        )
        with pytest.raises(UnboundedFeasibleSetError, match="s_search_max"):
            feasible_interval(1, scenario)


class TestMaximizeNet:
    def test_closed_form_first_type(self, log_menu_scenario):
        assert maximize_net(1, log_menu_scenario) == pytest.approx(1.0, abs=1e-6)

    def test_closed_form_third_type(self, log_menu_scenario):
        assert maximize_net(3, log_menu_scenario) == pytest.approx(5.0, abs=1e-6)

    def test_monotone_in_type(self, log_menu_scenario):
        s = [maximize_net(i, log_menu_scenario) for i in (1, 2, 3)]
        assert s[0] < s[1] < s[2]

    def test_stationarity(self, log_menu_scenario):
        for i in (1, 2, 3):
            s_i = maximize_net(i, log_menu_scenario)
            slope0 = float(log_menu_scenario.net_derivative(i, 1e-9))
            slope = float(log_menu_scenario.net_derivative(i, s_i))
            assert abs(slope) < 1e-7 * max(1.0, abs(slope0))

    def test_grid_oracle_optimality(self, log_menu_scenario):
        for i in (1, 2, 3):
            s_i = maximize_net(i, log_menu_scenario)
            _, a_i = feasible_interval(i, log_menu_scenario)
            _, best = grid_argmax(lambda s: log_menu_scenario.net(i, s), 0.0, a_i)
            assert float(log_menu_scenario.net(i, s_i)) >= best - 1e-6

    def test_degenerate_type_errors(self):
        scenario = make_log_menu_scenario(d_b=0.5, d_c=1.0, n_types=1)
        with pytest.raises(NoInteriorMaximizerError):
            maximize_net(1, scenario)

    def test_inconsistent_derivative_is_a_bracket_error(self):
        # net saving changes sign but its reported derivative never does;
        # the maximizer search must fail loudly instead of looping
        class Mischief:
            n_types = 1
            s_search_max = 10.0

            def net(self, i, s):
                s = np.asarray(s, dtype=float)
                return s * (2.0 - s)

            def net_derivative(self, i, s):
                return np.ones_like(np.asarray(s, dtype=float))

        with pytest.raises(BracketError):
            maximize_net(1, Mischief())


class TestMenuDomains:
    """MenuScenario.validate owns the rule that every function is defined
    on [0, s_search_max]; the regularity scan relies on it."""

    def test_cost_domain_must_cover_search_window(self, log_menu_scenario):
        cost = TabulatedFunction([0.0, 10.0], [0.0, 10.0])
        scenario = dataclasses.replace(log_menu_scenario, cost=cost)
        message = r"cost domain \[0, 10\] does not cover the search window \[0, 1e\+06\]"
        with pytest.raises(ScenarioError, match=message):
            scenario.validate()
        with pytest.raises(ScenarioError, match=message):
            check_menu_regularity(scenario)
        report = check_menu_regularity(
            dataclasses.replace(scenario, s_search_max=10.0, s_probe_max=10.0))
        assert report.check("a1.cost_zero_at_origin").passed

    def test_infinite_search_window_rejected(self):
        # a budget that outgrows the cost keeps the boundedness scan
        # doubling its probe; with no finite cap it never stopped
        cost = LinearFunction(1.0)
        scenario = MenuScenario((LinearFunction(2.0),), cost,
                                ScaledFunction(cost, 0.1), s_search_max=math.inf)
        with pytest.raises(ScenarioError, match="s_search_max must be positive and finite"):
            check_menu_regularity(scenario)

    def test_profit_undefined_at_origin(self, log_menu_scenario):
        profit = TabulatedFunction([1e-3, 1e6], [1e-4, 1e5])
        scenario = dataclasses.replace(log_menu_scenario, profit=profit)
        with pytest.raises(ScenarioError, match=r"profit domain \[0\.001, 1e\+06\]"):
            solve_menu(scenario)


class TestSolveMenu:
    def test_reference_menu(self, log_menu_scenario):
        menu = solve_menu(log_menu_scenario)
        np.testing.assert_allclose(menu.qualities, (1.0, 3.0, 5.0), atol=1e-6)
        np.testing.assert_allclose(menu.prices, (1.1, 3.3, 5.5), atol=2e-6)
        for s, p in menu.entries:
            assert p == pytest.approx(1.1 * s, abs=1e-12)

    def test_single_type(self):
        scenario = make_log_menu_scenario(n_types=1)
        menu = solve_menu(scenario)
        assert menu.qualities[0] == pytest.approx(1.0, abs=1e-6)
        assert menu.prices[0] == pytest.approx(1.1, abs=1e-6)
        assert menu.net_values[0] == pytest.approx(2.2 * math.log(2.0) - 1.1,
                                                   abs=1e-6)

    def test_zero_profit_target(self):
        scenario = make_log_menu_scenario(profit_factor=0.0)
        menu = solve_menu(scenario)
        for i, (s, p) in enumerate(menu.entries, start=1):
            assert s == pytest.approx(2.2 * i - 1.0, abs=1e-6)
            assert p == pytest.approx(float(scenario.cost.value(s)), abs=1e-12)

    def test_closed_form_agreement_50_random_pairs(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            d_c = float(rng.uniform(0.4, 3.0))
            d_b = d_c * float(rng.uniform(1.15, 8.0))
            scenario = make_log_menu_scenario(d_b=d_b, d_c=d_c, n_types=3)
            menu = solve_menu(scenario)
            for i, s in enumerate(menu.qualities, start=1):
                assert s == pytest.approx(log_menu_closed_form(d_b, d_c, i),
                                          abs=1e-6)

    def test_strict_double_monotonicity(self, log_menu_scenario):
        menu = solve_menu(log_menu_scenario)
        assert all(b > a for a, b in zip(menu.qualities, menu.qualities[1:]))
        assert all(b > a for a, b in zip(menu.prices, menu.prices[1:]))

    def test_ic_by_construction(self, log_menu_scenario):
        menu = solve_menu(log_menu_scenario)
        for i in (1, 2, 3):
            own = float(log_menu_scenario.net(i, menu.qualities[i - 1]))
            for j in (1, 2, 3):
                if j != i:
                    assert own >= float(
                        log_menu_scenario.net(i, menu.qualities[j - 1])) - 1e-12

    def test_certified_by_verifier(self, log_menu_scenario):
        menu = solve_menu(log_menu_scenario)
        report = verify_menu(menu, log_menu_scenario)
        assert report.passed
        assert report.worst_margin >= -1e-9

    def test_regularity_failure_raises(self):
        scenario = make_log_menu_scenario(d_b=1.0, d_c=1.0)
        with pytest.raises(RegularityError, match="a3"):
            solve_menu(scenario)

    def test_identical_budgets_rejected_as_ties(self, monkeypatch):
        # identical budgets fail single crossing; skip the regularity
        # report to reach the tie check behind it
        monkeypatch.setattr(MenuScenario, "check_regularity",
                            lambda self: ConditionReport(()))
        scenario = MenuScenario(
            budgets=(LogFunction(2.2), LogFunction(2.2)),
            cost=LinearFunction(1.0),
            profit=ScaledFunction(LinearFunction(1.0), 0.1),
        )
        with pytest.raises(DegenerateTypesError):
            solve_menu(scenario)

    def test_menu_roundtrips_through_dict(self, log_menu_scenario):
        menu = solve_menu(log_menu_scenario)
        restored = type(menu).from_dict(menu.to_dict())
        assert restored == menu

    @given(ratio=st.floats(1.2, 8.0), d_c=st.floats(0.3, 4.0),
           n_types=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_monotonicity_property(self, ratio, d_c, n_types):
        scenario = make_log_menu_scenario(d_b=ratio * d_c, d_c=d_c,
                                          n_types=n_types)
        menu = solve_menu(scenario)
        assert all(b > a for a, b in zip(menu.qualities, menu.qualities[1:]))
        assert all(b > a for a, b in zip(menu.prices, menu.prices[1:]))
        assert all(net >= -1e-12 for net in menu.net_values)
