"""Profile solver: sensitivities, steps, achievability, windows, recursion."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contractpricing import (
    BilinearTariff,
    CertificationError,
    DegenerateSensitivityError,
    DomainBox,
    EmptyPriceWindowError,
    LinearFunction,
    MarginSpec,
    NotAchievableError,
    ProfileScenario,
    ScenarioError,
    SeparableTariff,
    TabulatedFunction,
    TabulatedTariff,
    build_profile,
    check_achievability,
    price_window,
    sensitivity_bounds,
    step_size,
    step_sizes,
    verify_profile,
)
from conftest import (
    WORKED_A2,
    WORKED_DELTAS,
    WORKED_P1,
    WORKED_THETAS,
    make_bilinear_profile_scenario,
)
from oracles import quadrature_window


class TestSensitivityBounds:
    def test_bilinear_values(self, bilinear_profile_scenario):
        assert sensitivity_bounds(bilinear_profile_scenario, 2) == (4.0, 4.0)

    def test_bilinear_ladder_closed_form(self):
        # uniform ladder s_j = j * delta gives epsilon_j = d_p (j-1) delta
        # and delta_j = d_p * delta
        d_p, delta = 4.0, 1.0
        scenario = make_bilinear_profile_scenario(d_p=d_p)
        for j in (2, 3):
            eps_j, del_j = sensitivity_bounds(scenario, j)
            assert eps_j == d_p * (j - 1) * delta
            assert del_j == d_p * delta

    def test_tabulated_copy(self):
        thetas = np.linspace(1.0 / 3.0, 1.0, 200)
        ss = np.linspace(0.5, 3.5, 200)
        tariff = TabulatedTariff(thetas, ss, 4.0 * np.outer(thetas, ss))
        scenario = dataclasses.replace(make_bilinear_profile_scenario(),
                                       tariff=tariff)
        eps_2, del_2 = sensitivity_bounds(scenario, 2)
        assert eps_2 == pytest.approx(4.0, abs=1e-3)
        assert del_2 == pytest.approx(4.0, abs=1e-3)

    def test_degenerate_sensitivity(self):
        # tariff flat in quality: marginal willingness cannot separate rungs
        thetas = np.linspace(1.0 / 3.0, 1.0, 50)
        ss = np.linspace(0.5, 3.5, 50)
        values = 4.0 * np.outer(thetas, np.ones_like(ss))
        scenario = dataclasses.replace(
            make_bilinear_profile_scenario(),
            tariff=TabulatedTariff(thetas, ss, values))
        with pytest.raises(DegenerateSensitivityError):
            sensitivity_bounds(scenario, 2)

    def test_index_validation(self, bilinear_profile_scenario):
        with pytest.raises(ScenarioError):
            sensitivity_bounds(bilinear_profile_scenario, 1)


class TestStepSizes:
    def test_worked_values(self, bilinear_profile_scenario):
        deltas = step_sizes(bilinear_profile_scenario)
        np.testing.assert_allclose(deltas, WORKED_DELTAS, atol=1e-12)

    def test_proportional_margin_closed_form(self):
        # b_j = b s_j, m_j = m s_j on the unit ladder collapses to
        # Delta_j = m delta (2j-1)^2 + b / d_p
        d_p, delta, m, b = 4.0, 1.0, 0.01, 0.1
        scenario = make_bilinear_profile_scenario(d_p=d_p, b_scale=b, m_scale=m)
        deltas = step_sizes(scenario)
        assert deltas[0] == pytest.approx(m * delta, abs=1e-15)
        for j in (2, 3):
            expected = m * delta * (2 * j - 1) ** 2 + b / d_p
            assert deltas[j - 1] == pytest.approx(expected, abs=1e-12)

    def test_zero_margin_limit(self):
        # with all margins and gaps zero the step formula collapses to zero
        assert step_size(0.0, 0.0, 5.0, 2.0, 0.0) == 0.0

    def test_scale_equivariance_in_profit(self):
        # scaling b (hence the default gaps) by c shifts each Delta_j by
        # exactly c times the original b-contribution
        base = make_bilinear_profile_scenario(b_scale=0.1)
        base_deltas = step_sizes(base)
        satisfaction_part = [
            step_size(base.margins.m[j - 1], base.margins.m[j - 2],
                      *sensitivity_bounds(base, j), 0.0)
            for j in (2, 3)
        ]
        for c in (2.0, 5.0):
            scaled = make_bilinear_profile_scenario(b_scale=0.1 * c)
            scaled_deltas = step_sizes(scaled)
            assert scaled_deltas[0] == base_deltas[0]
            for j in (2, 3):
                b_part = base_deltas[j - 1] - satisfaction_part[j - 2]
                expected = satisfaction_part[j - 2] + c * b_part
                assert scaled_deltas[j - 1] == pytest.approx(expected, rel=1e-12)


class TestAchievability:
    def test_worked_scenario_passes(self, bilinear_profile_scenario):
        report = check_achievability(bilinear_profile_scenario)
        assert report.passed
        assert report.check("marginal_budget").margin == pytest.approx(
            1.0 / 3.0, abs=1e-12)
        assert report.check("entry").margin == pytest.approx(
            4.0 / 3.0 - 1.1, abs=1e-12)
        assert report.check("demand_range").margin == pytest.approx(
            2.0 / 3.0 - 0.43, abs=1e-12)

    def test_entry_failure(self):
        scenario = make_bilinear_profile_scenario(b_scale=0.5)
        report = check_achievability(scenario)
        entry = report.check("entry")
        assert not entry.passed
        assert entry.margin == pytest.approx(4.0 / 3.0 - 1.5, abs=1e-12)

    def test_empty_demand_range(self):
        scenario = dataclasses.replace(
            make_bilinear_profile_scenario(),
            box=DomainBox(1.0 / 3.0, 1.0 / 3.0, 1.0, 3.0))
        report = check_achievability(scenario)
        assert not report.check("demand_range").passed


class TestPriceWindow:
    def test_worked_second_step(self, bilinear_profile_scenario):
        a_2, b_2 = price_window(bilinear_profile_scenario, 2,
                                WORKED_THETAS[0], WORKED_P1, WORKED_THETAS[1])
        assert a_2 == pytest.approx(WORKED_A2, abs=1e-6)
        assert b_2 == pytest.approx(WORKED_A2, abs=1e-6)
        assert abs(b_2 - a_2) <= 1e-9

    def test_degenerate_window_formula(self):
        # half-widths that round away next to theta, profit increments
        # (the default gap) of 1e-16 and a zero step collapse both ends to
        # the price increment between qualities
        scenario = dataclasses.replace(
            make_bilinear_profile_scenario(),
            margins=MarginSpec(b=(0.1, 0.1 + 1e-16, 0.1 + 2e-16),
                               m=(1e-300, 2e-300, 3e-300)))
        theta, p_prev = 0.5, 1.0
        a_2, b_2 = price_window(scenario, 2, theta, p_prev, theta)
        expected = p_prev + 4.0 * theta * 2.0 - 4.0 * theta * 1.0
        assert a_2 == pytest.approx(expected, abs=1e-12)
        assert b_2 == pytest.approx(expected, abs=1e-12)

    def test_quadrature_crosscheck(self, bilinear_profile_scenario):
        args = (bilinear_profile_scenario, 2, WORKED_THETAS[0], WORKED_P1,
                WORKED_THETAS[1])
        a_2, b_2 = price_window(*args)
        quad_a, quad_b = quadrature_window(*args, quad_n=256)
        assert a_2 == pytest.approx(quad_a, rel=1e-6)
        assert b_2 == pytest.approx(quad_b, rel=1e-6)

    def test_empty_window_raises(self, bilinear_profile_scenario):
        # a step far smaller than Delta_2 cannot support any price
        with pytest.raises(EmptyPriceWindowError):
            price_window(bilinear_profile_scenario, 2, WORKED_THETAS[0],
                         WORKED_P1, WORKED_THETAS[0] + 0.01)


class TestBuildProfile:
    def test_worked_profile(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        np.testing.assert_allclose(profile.demands, WORKED_THETAS, atol=1e-6)
        assert profile.prices[0] == pytest.approx(WORKED_P1, abs=1e-9)
        assert profile.prices[1] == pytest.approx(WORKED_A2, abs=1e-6)
        np.testing.assert_allclose(profile.step_sizes, WORKED_DELTAS, atol=1e-12)
        # entry window brackets p_1
        assert profile.windows[0][0] == pytest.approx(1.1, abs=1e-12)
        assert profile.windows[0][1] == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_bilinear_windows_are_tight(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        for a_j, b_j in profile.windows[1:]:
            assert abs(b_j - a_j) <= 1e-6

    def test_separable_windows_nonempty(self, separable_profile_scenario):
        profile = build_profile(separable_profile_scenario)
        for a_j, b_j in profile.windows[1:]:
            assert b_j - a_j >= -1e-9

    def test_concave_demand_curve_windows_nonempty(self):
        # strictly concave willingness to pay in demand: the sensitivity
        # bounds are slack, so the incentive end strictly clears the
        # profit end of every window
        from contractpricing import LogFunction, SeparableTariff

        scenario = ProfileScenario(
            qualities=(1.0, 1.5, 2.0),
            tariff=SeparableTariff(LogFunction(1.0), LinearFunction(2.0)),
            cost=LinearFunction(1.0),
            box=DomainBox(1.2, 2.0, 1.0, 2.0),
            margins=MarginSpec(b=(0.02, 0.03, 0.04), m=(0.002, 0.003, 0.004)),
        )
        profile = build_profile(scenario)
        for a_j, b_j in profile.windows[1:]:
            assert b_j - a_j >= 0.0

    def test_single_quality(self):
        scenario = ProfileScenario(
            qualities=(1.0,),
            tariff=BilinearTariff(4.0),
            cost=LinearFunction(1.0),
            box=DomainBox(1.0 / 3.0, 1.0, 0.5, 1.5),
            margins=MarginSpec(b=(0.1,), m=(0.01,)),
        )
        profile = build_profile(scenario)
        assert profile.demands == (1.0 / 3.0 + 0.01,)
        assert profile.prices[0] == pytest.approx(WORKED_P1, abs=1e-12)
        assert len(profile.windows) == 1
        assert profile.step_sizes == (0.01,)

    def test_not_achievable_names_condition(self):
        scenario = dataclasses.replace(
            make_bilinear_profile_scenario(),
            box=DomainBox(1.0 / 3.0, 0.5, 1.0, 3.0))
        with pytest.raises(NotAchievableError, match="demand_range"):
            build_profile(scenario)

    def test_demands_inside_range(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        m = bilinear_profile_scenario.margins.m
        box = bilinear_profile_scenario.box
        assert all(b > a for a, b in zip(profile.demands, profile.demands[1:]))
        assert profile.demands[0] - m[0] >= box.theta_low - 1e-12
        assert profile.demands[-1] + m[-1] <= box.theta_up + 1e-12

    def test_price_increments_dominated_by_tariff_gap(self):
        scenario = make_bilinear_profile_scenario()
        profile = build_profile(scenario)
        F = scenario.tariff.value
        s = scenario.qualities
        m = scenario.margins.m
        gaps = scenario.margins.gaps
        for j in range(1, len(s)):
            th_prev = profile.demands[j - 1]
            lower = (F(th_prev + m[j - 1], s[j]) - F(th_prev + m[j - 1], s[j - 1])
                     + gaps[j - 1])
            assert profile.prices[j] - profile.prices[j - 1] >= lower - 1e-12
            assert lower > 0.0

    def test_per_step_profit_floor(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        for k, p_k in enumerate(profile.prices):
            floor = (float(bilinear_profile_scenario.cost.value(
                bilinear_profile_scenario.qualities[k]))
                + bilinear_profile_scenario.margins.b[k])
            assert p_k >= floor - 1e-12

    def test_sensitivity_bounds_once_per_step(self, monkeypatch):
        import contractpricing.profile as profile_module

        calls = []
        original = profile_module.sensitivity_bounds

        def counting(scenario, j):
            calls.append(j)
            return original(scenario, j)

        monkeypatch.setattr(profile_module, "sensitivity_bounds", counting)
        qualities = (1.0, 1.5, 2.0, 2.5, 3.0)
        scenario = dataclasses.replace(
            make_bilinear_profile_scenario(), qualities=qualities,
            margins=MarginSpec(b=tuple(0.02 * s for s in qualities),
                               m=tuple(0.002 * s for s in qualities)))
        build_profile(scenario)
        assert sorted(calls) == [2, 3, 4, 5]

    def test_certification_failure_is_surfaced(self, monkeypatch,
                                               bilinear_profile_scenario):
        import contractpricing.profile as profile_module

        def always_fail(profile, scenario, slack=1e-9):
            from contractpricing.verify import VerificationReport, Violation
            return VerificationReport(
                passed=False,
                violations=(Violation("IC", 1, 2, -1.0, {}),),
                worst_margin=-1.0)

        monkeypatch.setattr(profile_module, "verify_profile", always_fail)
        with pytest.raises(CertificationError):
            build_profile(bilinear_profile_scenario)

    def test_profile_roundtrips_through_dict(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        restored = type(profile).from_dict(profile.to_dict())
        assert restored == profile

    @given(lam=st.floats(0.0, 1.0), m_scale=st.floats(0.002, 0.012),
           b_scale=st.floats(0.02, 0.2))
    @settings(max_examples=25, deadline=None)
    def test_every_built_profile_verifies(self, lam, m_scale, b_scale):
        scenario = make_bilinear_profile_scenario(
            price_lambda=lam, m_scale=m_scale, b_scale=b_scale)
        report = check_achievability(scenario)
        if not report.passed:
            with pytest.raises(NotAchievableError):
                build_profile(scenario)
            return
        profile = build_profile(scenario)
        verification = verify_profile(profile, scenario)
        assert verification.passed
        assert verification.worst_margin >= -1e-9
        assert all(b > a for a, b in zip(profile.prices, profile.prices[1:]))


class TestMarginSpec:
    def test_default_gaps_are_profit_increments(self):
        spec = MarginSpec(b=(0.1, 0.25, 0.5), m=(0.01, 0.02, 0.03))
        assert spec.gaps == pytest.approx((0.15, 0.25))

    def test_explicit_gap_must_cover_increment(self):
        spec = MarginSpec(b=(0.1, 0.3), m=(0.01, 0.02), gap=(0.1,))
        with pytest.raises(ScenarioError, match="gap"):
            spec.validate(2)

    def test_non_increasing_margins_rejected(self):
        spec = MarginSpec(b=(0.1, 0.2), m=(0.02, 0.01))
        with pytest.raises(ScenarioError, match="margins.m"):
            spec.validate(2)


class TestScenarioDomains:
    def test_grid_n_bound(self):
        with pytest.raises(ScenarioError, match="grid_n"):
            dataclasses.replace(make_bilinear_profile_scenario(),
                                grid_n=10 ** 20)

    def test_separable_tabulated_g_must_cover_box(self):
        # g is sampled on [0.5, 0.9], the demand range is [1/3, 1]
        thetas = np.linspace(0.5, 0.9, 9)
        tariff = SeparableTariff(TabulatedFunction(thetas, 4.0 * thetas),
                                 LinearFunction(1.0))
        with pytest.raises(ScenarioError, match="demand range"):
            dataclasses.replace(make_bilinear_profile_scenario(),
                                tariff=tariff)

    def test_cost_domain_must_cover_quality_range(self):
        ss = np.linspace(0.0, 2.0, 9)
        with pytest.raises(ScenarioError, match="cost's domain"):
            dataclasses.replace(make_bilinear_profile_scenario(),
                                cost=TabulatedFunction(ss, ss))
