"""Menu solver: feasible sets, maximizers, construction and failure modes."""

import dataclasses
import math
from pathlib import Path

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
    ScalarFunction,
    ScaledFunction,
    ScenarioError,
    TabulatedFunction,
    UnboundedFeasibleSetError,
    check_menu_regularity,
    feasible_interval,
    load_config,
    maximize_net,
    solve_menu,
    verify_menu,
)
from contractpricing import functions
from contractpricing import menu as menu_module
from contractpricing.menu import MAXIMIZER_TOL, ROOT_TOL
from conftest import load_bench, log_menu_closed_form, make_log_menu_scenario
from oracles import bisect_root, checked_menu, grid_argmax


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
        class Mischief(ScalarFunction):
            def _value(self, s):
                return s * (2.0 - s)

            def _derivative(self, s):
                return np.ones_like(s)

        zero = LinearFunction(0.0)
        scenario = MenuScenario((Mischief(),), zero, zero,
                                s_search_max=10.0, s_probe_max=10.0)
        with pytest.raises(BracketError):
            maximize_net(1, scenario)


class TestMenuDomains:
    """MenuScenario.validate owns the rule that every function is defined
    on [0, s_search_max] and runs when a scenario is built; the regularity
    scan relies on it."""

    def test_cost_domain_must_cover_search_window(self, log_menu_scenario):
        cost = TabulatedFunction([0.0, 10.0], [0.0, 10.0])
        message = r"cost domain \[0, 10\] does not cover the search window \[0, 1e\+06\]"
        with pytest.raises(ScenarioError, match=message):
            dataclasses.replace(log_menu_scenario, cost=cost)
        report = check_menu_regularity(dataclasses.replace(
            log_menu_scenario, cost=cost, s_search_max=10.0, s_probe_max=10.0))
        assert report.check("a1.cost_zero_at_origin").passed

    def test_infinite_search_window_rejected(self):
        # a budget that outgrows the cost keeps the boundedness scan
        # doubling its probe; with no finite cap it never stopped
        cost = LinearFunction(1.0)
        with pytest.raises(ScenarioError, match="^s_search_max must be finite$"):
            MenuScenario((LinearFunction(2.0),), cost,
                         ScaledFunction(cost, 0.1), s_search_max=math.inf)

    def test_profit_undefined_at_origin(self, log_menu_scenario):
        profit = TabulatedFunction([1e-3, 1e6], [1e-4, 1e5])
        with pytest.raises(ScenarioError, match=r"profit domain \[0\.001, 1e\+06\]"):
            dataclasses.replace(log_menu_scenario, profit=profit)


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
        monkeypatch.setattr(menu_module, "check_menu_regularity",
                            lambda scenario: ConditionReport(()))
        scenario = MenuScenario(
            budgets=(LogFunction(2.2), LogFunction(2.2)),
            cost=LinearFunction(1.0),
            profit=ScaledFunction(LinearFunction(1.0), 0.1),
        )
        with pytest.raises(DegenerateTypesError):
            solve_menu(scenario)

    def test_entries_within_the_tolerance_are_ties(self):
        """Two tabulated budgets whose maximizers both sit on the knot at
        s = 300 give qualities 1.86e-7 apart, below their tolerance of
        3.0e-7: the types are indistinguishable, not a certified menu."""
        xs = [0.0, 50.0, 150.0, 300.0, 1e6]
        slopes = np.array([3.0, 1.0, 2.0, 0.3])

        def budget(factor):
            ys = np.concatenate([[0.0], np.cumsum(factor * slopes * np.diff(xs))])
            return TabulatedFunction(xs, ys)

        cost = LinearFunction(1.0)
        scenario = MenuScenario((budget(1.0), budget(1.5)), cost,
                                ScaledFunction(cost, 0.1))
        with pytest.raises(DegenerateTypesError, match="types 1 and 2"):
            solve_menu(scenario)

    def test_menu_roundtrips_through_dict(self, log_menu_scenario):
        menu = solve_menu(log_menu_scenario)
        restored = type(menu).from_dict(menu.to_dict())
        assert restored == menu

    @given(ratio=st.floats(1.2, 8.0), d_c=st.floats(0.3, 4.0),
           n_types=st.integers(1, 5))
    @settings(max_examples=25)
    def test_monotonicity_property(self, ratio, d_c, n_types):
        scenario = make_log_menu_scenario(d_b=ratio * d_c, d_c=d_c,
                                          n_types=n_types)
        menu = solve_menu(scenario)
        assert all(b > a for a, b in zip(menu.qualities, menu.qualities[1:]))
        assert all(b > a for a, b in zip(menu.prices, menu.prices[1:]))
        assert all(net >= -1e-12 for net in menu.net_values)


# ---------------------------------------------------------------------------
# the unchecked searches against the checked ones they replaced
# ---------------------------------------------------------------------------

MENU_SIZES = (2, 4, 7, 12)


def bench_menus(family, seeds):
    """The benchmark's menus of ``family``, drawn as its generator draws
    them: one generator per seed, one menu per family and size."""
    scenarios = load_bench("scenarios")
    for seed in seeds:
        rng = np.random.default_rng(seed)
        menus = {f: [scenarios.menu_scenario(rng, f, n) for n in MENU_SIZES]
                 for f in scenarios.MENU_FAMILIES}
        yield from menus[family]


class Recording(ScalarFunction):
    """``base`` with every point its unchecked methods see recorded; it
    fails once it has been called more than ``limit`` times."""

    def __init__(self, base, limit=math.inf):
        super().__init__(base.domain)
        self.base, self.limit, self.points = base, limit, []

    def _record(self, s):
        self.points.append(np.array(s, dtype=float).ravel())
        if len(self.points) > self.limit:
            raise AssertionError(f"more than {self.limit} evaluations")

    def _value(self, s):
        self._record(s)
        return self.base._value(s)

    def _derivative(self, s):
        self._record(s)
        return self.base._derivative(s)


def recorded(scenario, limit=math.inf):
    return MenuScenario(tuple(Recording(p, limit) for p in scenario.budgets),
                        Recording(scenario.cost, limit), Recording(scenario.profit, limit),
                        scenario.s_search_max, scenario.s_probe_max, scenario.grid_n)


#: unchecked evaluations of one type's budget in ``maximize_net``: the
#: 256-point geometric scan (one call); the root bisection, whose bracket
#: [lo, hi] is one scan step, (1e15 ** (1/255) - 1) * lo wide, halved until
#: it is at most ROOT_TOL * max(1, hi) >= ROOT_TOL * lo; the two sign
#: probes; and the maximizer bisection, at most max(1, a_i) wide, halved
#: down to MAXIMIZER_TOL times that
EVALS_PER_TYPE = (1 + math.ceil(math.log2((1e15 ** (1.0 / 255) - 1.0) / ROOT_TOL))
                  + 2 + math.ceil(math.log2(1.0 / MAXIMIZER_TOL)))


class TestUncheckedSearch:
    """The searches validate the scenario once and then evaluate unchecked."""

    @pytest.mark.parametrize("family", ["log", "power", "tabulated"])
    def test_menus_match_checked_searches(self, family):
        for scenario in bench_menus(family, range(30)):
            assert solve_menu(scenario).to_dict() == checked_menu(scenario).to_dict()

    def test_demo_menu_matches_checked_searches(self):
        demo = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / "menu_log_budget.json"
        scenario = load_config(demo).menu
        assert solve_menu(scenario).to_dict() == checked_menu(scenario).to_dict()

    @pytest.mark.parametrize("family", ["log", "power", "tabulated"])
    def test_every_point_lies_in_search_window(self, family):
        scenario = recorded(next(bench_menus(family, [3])))
        solve_menu(scenario)
        for func in scenario.budgets + (scenario.cost, scenario.profit):
            points = np.concatenate(func.points)
            assert points.size > 0
            assert 0.0 <= points.min() and points.max() <= scenario.s_search_max

    @pytest.mark.parametrize("family", ["log", "power", "tabulated"])
    def test_evaluations_per_type_are_bounded(self, family):
        assert EVALS_PER_TYPE == 71
        scenario = list(bench_menus(family, [4]))[-1]
        for i in range(1, scenario.n_types + 1):
            counted = recorded(scenario, limit=EVALS_PER_TYPE)
            maximize_net(i, counted)
            assert len(counted.budgets[i - 1].points) <= EVALS_PER_TYPE

    def test_searches_make_no_domain_check(self, monkeypatch, log_menu_scenario):
        checks = []
        original = functions._check_in_interval
        monkeypatch.setattr(functions, "_check_in_interval",
                            lambda *args, **kw: checks.append(args) or original(*args, **kw))
        for i in range(1, log_menu_scenario.n_types + 1):
            maximize_net(i, log_menu_scenario)
        assert checks == []
        log_menu_scenario.net(1, 1.0)
        assert len(checks) == 3
