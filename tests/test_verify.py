"""Verifier: constraint certification, market simulation, quadrature oracle."""

import dataclasses
import json
import math

import numpy as np
import pytest

from contractpricing import (
    LogFunction,
    MarginSpec,
    PowerFunction,
    QualityPriceMenu,
    ScenarioError,
    SeparableTariff,
    crosscheck_windows,
    build_profile,
    simulate_market,
    solve_menu,
    verify_menu,
    verify_profile,
)
from contractpricing.serialize import dumps_canonical, write_csv
from conftest import (
    make_log_menu_scenario,
    make_separable_profile_scenario,
)


class TestVerifyMenu:
    def test_reference_menu_passes(self, log_menu_scenario):
        menu = QualityPriceMenu((1.0, 3.0, 5.0), (1.1, 3.3, 5.5),
                                net_values=(0.0, 0.0, 0.0))
        report = verify_menu(menu, log_menu_scenario)
        assert report.passed
        # first-type budget check: 2.2 log 2 >= 1.1
        assert 2.2 * math.log(2.0) - 1.1 >= report.worst_margin >= -1e-9

    def test_tampered_price_flags_budget(self, log_menu_scenario):
        menu = QualityPriceMenu((1.0, 3.0, 5.0), (1.6, 3.3, 5.5),
                                net_values=(0.0, 0.0, 0.0))
        report = verify_menu(menu, log_menu_scenario)
        assert not report.passed
        budget_violations = [v for v in report.violations
                             if v.constraint == "IR.budget" and v.k == 1]
        assert budget_violations
        assert budget_violations[0].margin == pytest.approx(
            2.2 * math.log(2.0) - 1.6, abs=1e-9)

    def test_single_type_has_no_pair_constraints(self):
        scenario = make_log_menu_scenario(n_types=1)
        menu = solve_menu(scenario)
        report = verify_menu(menu, scenario)
        assert report.passed
        # worst margin comes from one of the two rationality checks
        assert report.worst_margin == pytest.approx(
            min(float(scenario.net(1, menu.qualities[0])),
                menu.prices[0] - 1.1 * menu.qualities[0]), abs=1e-9)

    def test_length_mismatch_rejected(self, log_menu_scenario):
        menu = QualityPriceMenu((1.0,), (1.1,), (0.0,))
        with pytest.raises(ScenarioError):
            verify_menu(menu, log_menu_scenario)


class TestVerifyProfile:
    def test_worked_profile_passes(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        report = verify_profile(profile, bilinear_profile_scenario,
                                probes_per_band=9)
        assert report.passed
        assert report.worst_margin >= -1e-9

    def test_lowered_price_breaks_incentives(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        prices = list(profile.prices)
        prices[1] -= 0.5
        tampered = dataclasses.replace(profile, prices=tuple(prices))
        report = verify_profile(tampered, bilinear_profile_scenario)
        assert not report.passed
        assert any(v.constraint == "IC" and v.k == 1 and v.l == 2
                   for v in report.violations)

    def test_zero_width_bands_still_wellformed(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        degenerate = dataclasses.replace(
            bilinear_profile_scenario,
            margins=MarginSpec(b=(0.1, 0.2, 0.3), m=(0.0, 0.0, 0.0)))
        report = verify_profile(profile, degenerate)
        assert report.passed
        assert math.isfinite(report.worst_margin)

    def test_probe_floor(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        with pytest.raises(ScenarioError):
            verify_profile(profile, bilinear_profile_scenario, probes_per_band=2)

    def test_choice_matches_incentives_on_dense_grid(self,
                                                     bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        scn = bilinear_profile_scenario
        for k in range(3):
            grid = np.linspace(profile.demands[k] - scn.margins.m[k],
                               profile.demands[k] + scn.margins.m[k], 101)
            savings = np.stack([
                np.asarray(scn.tariff.value(grid, s_l)) - p_l
                for s_l, p_l in zip(scn.qualities, profile.prices)])
            best = savings.max(axis=0)
            assert np.all(savings[k] >= best - 1e-9)

    def test_savings_monotone_within_band(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        scn = bilinear_profile_scenario
        for k in range(3):
            grid = np.linspace(profile.demands[k] - scn.margins.m[k],
                               profile.demands[k] + scn.margins.m[k], 64)
            saving = np.asarray(scn.tariff.value(grid, scn.qualities[k])) \
                - profile.prices[k]
            assert np.all(np.diff(saving) >= -1e-12)


class TestFailClosed:
    """A NaN margin is a violation, never a pass."""

    def test_menu_with_nan_price_fails(self, log_menu_scenario):
        menu = solve_menu(log_menu_scenario)
        tampered = dataclasses.replace(
            menu, prices=(math.nan,) + menu.prices[1:])
        report = verify_menu(tampered, log_menu_scenario)
        assert not report.passed
        assert {(v.constraint, v.k) for v in report.violations} >= {
            ("IR.budget", 1), ("IR.profit", 1)}
        assert math.isnan(report.worst_margin)
        written = json.loads(dumps_canonical(report.to_dict()))
        assert written["worst_margin"] is None
        assert {v["margin"] for v in written["violations"]} == {None}

    def test_only_report_fields_map_non_finite_to_null(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            dumps_canonical({"p": math.nan})
        with pytest.raises(ValueError, match="non-finite"):
            write_csv(tmp_path / "t.csv", ["p"], [[math.inf]])

    def test_profile_with_nan_prices_fails(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        tampered = dataclasses.replace(
            profile, prices=(math.nan,) * len(profile.prices))
        report = verify_profile(tampered, bilinear_profile_scenario)
        assert not report.passed
        assert {v.constraint for v in report.violations} == {
            "IR.budget", "IR.profit", "IC", "profit_constraint"}
        assert math.isnan(report.worst_margin)


class TestSimulateMarket:
    def test_certified_profile_perfect_choice(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        report = simulate_market(profile, bilinear_profile_scenario, 1000, 42)
        assert report.samples_per_band == 1000
        for band in report.bands:
            assert band.fraction_intended == 1.0
            assert band.min_saving >= -1e-12
            assert band.provider_profit >= band.profit_target - 1e-12
            assert band.meets_profit_target

    def test_tampered_profile_loses_choices(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        prices = list(profile.prices)
        prices[1] -= 0.5
        tampered = dataclasses.replace(profile, prices=tuple(prices))
        report = simulate_market(tampered, bilinear_profile_scenario, 500, 7)
        assert any(band.fraction_intended < 1.0 for band in report.bands)

    def test_single_draw_zero_width_band(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        degenerate = dataclasses.replace(
            bilinear_profile_scenario,
            margins=MarginSpec(b=(0.1, 0.2, 0.3), m=(0.0, 0.0, 0.0)))
        report = simulate_market(profile, degenerate, 1, 3)
        for band, theta in zip(report.bands, profile.demands):
            assert band.theta == theta
            assert band.fraction_intended == 1.0

    def test_determinism(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        first = simulate_market(profile, bilinear_profile_scenario, 200, 99)
        second = simulate_market(profile, bilinear_profile_scenario, 200, 99)
        assert first.to_dict() == second.to_dict()

    def test_out_of_band_affordable_without_guarantee(self,
                                                      bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        report = simulate_market(profile, bilinear_profile_scenario, 400, 11)
        oob = report.out_of_band
        assert oob is not None
        assert oob.samples == 400
        assert oob.fraction_affordable == 1.0


class TestCrosscheckWindows:
    def test_bilinear_agreement_near_exact(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        report = crosscheck_windows(bilinear_profile_scenario, profile, 256)
        assert report.passed
        for check in report.violations:
            raise AssertionError(check)
        # integrands are polynomials: Simpson is exact up to rounding
        assert report.worst_margin >= 1e-6 - 1e-10

    def test_separable_agreement(self, separable_profile_scenario):
        profile = build_profile(separable_profile_scenario)
        report = crosscheck_windows(separable_profile_scenario, profile, 256)
        assert report.passed

    def test_log_quality_tariff_agreement(self):
        scenario = dataclasses.replace(
            make_separable_profile_scenario(),
            tariff=SeparableTariff(PowerFunction(1.0, 2.0), LogFunction(3.0)))
        profile = build_profile(scenario)
        report = crosscheck_windows(scenario, profile, 256)
        assert report.passed

    def test_refinement_does_not_worsen(self, separable_profile_scenario):
        profile = build_profile(separable_profile_scenario)
        coarse = crosscheck_windows(separable_profile_scenario, profile, 256)
        fine = crosscheck_windows(separable_profile_scenario, profile, 512)
        assert fine.worst_margin >= coarse.worst_margin - 1e-12

    def test_quad_n_floor(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        with pytest.raises(ScenarioError):
            crosscheck_windows(bilinear_profile_scenario, profile, 32)


class TestSizingBounds:
    """Sizing knobs beyond their bound are rejected before any allocation."""

    HUGE = 10 ** 20

    def test_samples_per_band_bound(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        with pytest.raises(ScenarioError, match="samples_per_band"):
            simulate_market(profile, bilinear_profile_scenario, self.HUGE, 0)

    def test_negative_seed_rejected(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        with pytest.raises(ScenarioError, match="rng_seed"):
            simulate_market(profile, bilinear_profile_scenario, 10, -1)

    def test_probes_per_band_bound(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        with pytest.raises(ScenarioError, match="probes_per_band"):
            verify_profile(profile, bilinear_profile_scenario,
                           probes_per_band=self.HUGE)

    def test_quad_n_bound(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        with pytest.raises(ScenarioError, match="quad_n"):
            crosscheck_windows(bilinear_profile_scenario, profile, self.HUGE)
