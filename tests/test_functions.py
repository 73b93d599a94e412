"""Function families: values, derivatives, partials, condition checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contractpricing import (
    BilinearTariff,
    DomainBox,
    DomainError,
    LinearFunction,
    LogFunction,
    MenuScenario,
    PowerFunction,
    ScaledFunction,
    ScenarioError,
    SeparableTariff,
    TabulatedFunction,
    TabulatedTariff,
    check_marginal_budget,
    check_menu_regularity,
    simpson,
)
from conftest import make_log_menu_scenario


def central_difference(func, x, h=None):
    h = h if h is not None else 1e-5 * max(1.0, abs(x))
    return (func(x + h) - func(x - h)) / (2.0 * h)


class TestScalarValues:
    def test_log_example(self):
        f = LogFunction(2.2)
        assert f.value(1.0) == pytest.approx(2.2 * math.log(2.0), abs=1e-12)
        assert f.value(1.0) == pytest.approx(1.524924, abs=5e-7)

    def test_zero_at_origin(self):
        assert LinearFunction(1.0).value(0.0) == 0.0
        assert LogFunction(3.7).value(0.0) == 0.0
        assert PowerFunction(2.0, 1.5).value(0.0) == 0.0
        assert ScaledFunction(LinearFunction(2.0), 0.25).value(0.0) == 0.0

    def test_power_square(self):
        assert PowerFunction(1.0, 2.0).value(3.0) == 9.0

    def test_vectorized_eval(self):
        f = LogFunction(2.0)
        s = np.array([0.0, 1.0, 4.0])
        np.testing.assert_allclose(f.value(s), 2.0 * np.log1p(s))

    def test_out_of_domain_names_coordinate(self):
        f = TabulatedFunction([1.0, 2.0, 3.0], [1.0, 4.0, 9.0])
        with pytest.raises(DomainError, match="s=0.5"):
            f.value(0.5)

    @pytest.mark.parametrize("method", ["value", "derivative", "partials"])
    def test_nan_argument_is_outside_domain(self, method):
        func, args = ((BilinearTariff(4.0), (0.5, math.nan))
                      if method == "partials" else (LinearFunction(1.0), (math.nan,)))
        with pytest.raises(DomainError, match="s=nan outside domain"):
            getattr(func, method)(*args)

    def test_tabulated_requires_increasing_grid(self):
        with pytest.raises(ScenarioError):
            TabulatedFunction([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])


class TestScalarDerivatives:
    def test_log_derivative(self):
        assert LogFunction(2.2).derivative(1.0) == pytest.approx(1.1, abs=1e-15)

    def test_linear_derivative_constant(self):
        assert LinearFunction(1.1).derivative(7.0) == pytest.approx(1.1, abs=1e-15)

    def test_tabulated_square_derivative(self):
        xs = np.arange(0.0, 5.0 + 1e-9, 0.01)
        f = TabulatedFunction(xs, xs ** 2)
        assert f.derivative(3.0) == pytest.approx(6.0, abs=1e-3)

    @pytest.mark.parametrize("func", [
        LinearFunction(1.7),
        LogFunction(2.2),
        PowerFunction(0.8, 2.0),
        PowerFunction(1.3, 0.6),
        PowerFunction(2.0, 3.0),
        ScaledFunction(LogFunction(1.4), 0.3),
    ])
    def test_analytic_matches_finite_difference(self, func):
        rng = np.random.default_rng(42)
        points = rng.uniform(0.1, 50.0, 100)
        for s in points:
            fd = central_difference(func.value, float(s))
            assert func.derivative(float(s)) == pytest.approx(fd, rel=1e-5)

    @given(scale=st.floats(0.1, 10.0), s=st.floats(0.05, 40.0))
    @settings(max_examples=40, deadline=None)
    def test_log_derivative_property(self, scale, s):
        f = LogFunction(scale)
        assert f.derivative(s) == pytest.approx(
            central_difference(f.value, s), rel=1e-5)


class TestTariffPartials:
    def test_bilinear_partials(self):
        ft, fs, f2 = BilinearTariff(3.0).partials(0.5, 2.0)
        assert (ft, fs, f2) == (6.0, 1.5, 3.0)

    def test_bilinear_partials_fractional(self):
        ft, fs, f2 = BilinearTariff(4.0).partials(1.0 / 3.0, 1.0)
        assert ft == pytest.approx(4.0, abs=1e-15)
        assert fs == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert f2 == pytest.approx(4.0, abs=1e-15)

    def test_separable_partials(self):
        tariff = SeparableTariff(PowerFunction(1.0, 2.0), LinearFunction(1.0))
        ft, fs, f2 = tariff.partials(1.0, 1.0)
        assert (ft, fs, f2) == (2.0, 1.0, 2.0)

    def test_partials_broadcast(self):
        tariff = BilinearTariff(2.0)
        thetas = np.array([0.5, 1.0, 1.5])
        ft, fs, f2 = tariff.partials(thetas, 2.0)
        np.testing.assert_allclose(ft, np.full(3, 4.0))
        np.testing.assert_allclose(fs, 2.0 * thetas)
        np.testing.assert_allclose(f2, np.full(3, 2.0))

    def test_tabulated_tariff_matches_bilinear(self):
        thetas = np.linspace(0.2, 1.2, 120)
        ss = np.linspace(0.5, 3.5, 120)
        values = 4.0 * np.outer(thetas, ss)
        tab = TabulatedTariff(thetas, ss, values)
        exact = BilinearTariff(4.0)
        for th, s in [(0.4, 1.0), (0.7, 2.0), (1.0, 3.0)]:
            assert tab.value(th, s) == pytest.approx(exact.value(th, s), abs=1e-9)
            for got, want in zip(tab.partials(th, s), exact.partials(th, s)):
                assert got == pytest.approx(want, abs=1e-3)

    def test_out_of_domain_names_theta(self):
        tab = TabulatedTariff([0.5, 1.0], [1.0, 2.0], [[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(DomainError, match="theta"):
            tab.value(0.1, 1.5)

    def test_partials_positive_on_interior(self):
        tariffs = [
            BilinearTariff(4.0),
            SeparableTariff(PowerFunction(1.0, 2.0), LinearFunction(1.5)),
            TabulatedTariff(np.linspace(0.3, 1.0, 80), np.linspace(0.5, 3.0, 80),
                            4.0 * np.outer(np.linspace(0.3, 1.0, 80),
                                           np.linspace(0.5, 3.0, 80))),
        ]
        thetas = np.linspace(0.35, 0.95, 16)
        for tariff in tariffs:
            for s in (0.8, 1.5, 2.5):
                ft, fs, f2 = tariff.partials(thetas, s)
                assert np.all(np.asarray(ft) > 0)
                assert np.all(np.asarray(fs) > 0)
                assert np.all(np.asarray(f2) > 0)

    def test_cross_equality_by_quadrature(self):
        # tariff increments along theta must equal the integral of F_theta
        cases = [
            (BilinearTariff(4.0), 0.4, 0.9, 2.0),
            (SeparableTariff(PowerFunction(1.0, 2.0), LogFunction(1.5)),
             0.6, 1.4, 1.0),
        ]
        for tariff, th_a, th_b, s in cases:
            integral = simpson(
                lambda th: np.asarray(tariff.partials(th, s)[0]), th_a, th_b, 512)
            increment = tariff.value(th_b, s) - tariff.value(th_a, s)
            assert increment == pytest.approx(integral, abs=1e-6)


class TestMenuRegularity:
    def test_reference_family_passes(self):
        scn = make_log_menu_scenario(d_b=2.2, d_c=1.0, n_types=3)
        report = check_menu_regularity(scn)
        assert report.passed, [c.cid for c in report.failures]

    def test_small_budget_fails_entry(self):
        scn = make_log_menu_scenario(d_b=0.5, d_c=1.0, n_types=1)
        report = check_menu_regularity(scn)
        entry = report.check("a3.entry_exists")
        assert not entry.passed
        assert entry.witness is None
        assert not report.passed

    def test_linear_cost_is_convex(self):
        scn = make_log_menu_scenario()
        report = check_menu_regularity(scn)
        assert report.check("a1.cost_convex").passed

    def test_single_crossing_flagged_for_equal_budgets(self):
        budgets = (LogFunction(2.2), LogFunction(2.2))
        cost = LinearFunction(1.0)
        report = check_menu_regularity(
            MenuScenario(budgets, cost, ScaledFunction(cost, 0.1)))
        assert not report.check("a2.single_crossing_1_2").passed

    def test_budget_ordering_consequence(self):
        # single crossing plus zero at origin forces pointwise ordering
        scn = make_log_menu_scenario(n_types=3)
        grid = np.linspace(0.05, 100.0, 512)
        low = np.asarray(scn.budgets[0].value(grid))
        mid = np.asarray(scn.budgets[1].value(grid))
        high = np.asarray(scn.budgets[2].value(grid))
        assert np.all(low < mid) and np.all(mid < high)

    def test_failure_stable_under_grid_refinement(self):
        scn = make_log_menu_scenario(d_b=0.5, d_c=1.0, n_types=1)
        coarse = check_menu_regularity(scn)
        fine = check_menu_regularity(dataclasses.replace(scn, grid_n=1024))
        assert not coarse.check("a3.entry_exists").passed
        assert not fine.check("a3.entry_exists").passed

    def test_zero_profit_target_accepted(self):
        cost = LinearFunction(1.0)
        scn = make_log_menu_scenario(profit_factor=0.0)
        report = check_menu_regularity(
            MenuScenario(scn.budgets, cost, ScaledFunction(cost, 0.0)))
        assert report.check("a1.profit_nondecreasing").passed
        assert report.passed


class TestMarginalBudget:
    BOX = DomainBox(1.0 / 3.0, 1.0, 1.0, 3.0)

    def test_comfortable_margin(self):
        report = check_marginal_budget(BilinearTariff(4.0), LinearFunction(1.0),
                                       self.BOX)
        check = report.check("marginal_budget")
        assert check.passed
        assert check.margin == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_boundary_case_zero_margin(self):
        report = check_marginal_budget(BilinearTariff(3.0), LinearFunction(1.0),
                                       self.BOX)
        check = report.check("marginal_budget")
        assert check.passed
        assert check.margin == pytest.approx(0.0, abs=1e-12)

    def test_failing_tariff(self):
        report = check_marginal_budget(BilinearTariff(1.0), LinearFunction(1.0),
                                       self.BOX)
        check = report.check("marginal_budget")
        assert not check.passed
        assert check.margin == pytest.approx(1.0 / 3.0 - 1.0, abs=1e-12)
        assert check.witness == pytest.approx(1.0 / 3.0, abs=1e-9)


    @pytest.mark.parametrize("h", [TabulatedFunction([0.0, 1.5, 3.0], [0.0, 1.0, 1.0]),
                                   LinearFunction(0.0)],
                             ids=["tabulated_h", "zero_h"])
    def test_nan_margin_fails_closed(self, h):
        # g overflows above theta ~ 1.34, and inf * h'(s) = inf * 0 is NaN
        # wherever h is flat (above s = 1.5, or everywhere for a zero h)
        tariff = SeparableTariff(PowerFunction(1e308, 2.0), h)
        theta_grid = np.linspace(1.2, 2.0, 512)
        s_grid = np.linspace(1.0, 2.0, 512)
        with np.errstate(over="ignore", invalid="ignore"):
            report = check_marginal_budget(tariff, LinearFunction(1.0),
                                           DomainBox(1.2, 2.0, 1.0, 2.0))
            first_theta = theta_grid[np.isinf(1e308 * theta_grid ** 2)][0]
        first_s = s_grid[s_grid > 1.5][0] if isinstance(h, TabulatedFunction) else s_grid[0]
        check = report.check("marginal_budget")
        assert not check.passed
        assert math.isnan(check.margin)
        assert check.to_dict()["margin"] is None
        assert check.witness == first_theta
        assert check.detail.endswith(f"(theta={first_theta:g}, s={first_s:g})")


class TestScanBounds:
    def test_marginal_budget_grid_n_bound(self):
        with pytest.raises(ScenarioError, match="grid_n"):
            check_marginal_budget(BilinearTariff(4.0), LinearFunction(1.0),
                                  TestMarginalBudget.BOX, grid_n=10 ** 20)

    def test_menu_regularity_grid_n_bound(self):
        scn = make_log_menu_scenario()
        with pytest.raises(ScenarioError, match="grid_n"):
            check_menu_regularity(dataclasses.replace(scn, grid_n=10 ** 20))
