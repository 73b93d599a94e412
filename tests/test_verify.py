"""Verifier: constraint certification and market simulation; also the
quadrature window oracle of ``oracles``."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from contractpricing import (
    BilinearTariff,
    DomainError,
    LogFunction,
    MarginSpec,
    PowerFunction,
    QualityPriceMenu,
    ScenarioError,
    SeparableTariff,
    TabulatedTariff,
    build_profile,
    simulate_market,
    solve_menu,
    verify_menu,
    verify_profile,
)
from contractpricing.serialize import dumps_canonical, write_csv
from contractpricing.verify import CHOICE_TIE_TOL, SIM_BLOCK
from conftest import (
    load_bench,
    make_bilinear_profile_scenario,
    make_log_menu_scenario,
    make_separable_profile_scenario,
)
from oracles import crosscheck_windows, oracle_simulate

#: positive half-widths that round away next to every demand used here,
#: so each band is a single point (a scenario needs m > 0)
ZERO_WIDTH = (1e-300, 2e-300, 3e-300)


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
            margins=MarginSpec(b=(0.1, 0.2, 0.3), m=ZERO_WIDTH))
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
            margins=MarginSpec(b=(0.1, 0.2, 0.3), m=ZERO_WIDTH))
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


def tabulated_profile_scenario():
    """The reference bilinear scenario with its tariff sampled on a grid."""
    scenario = make_bilinear_profile_scenario()
    thetas = np.linspace(1.0 / 3.0, 1.0, 9)
    ss = np.linspace(1.0, 3.0, 5)
    return dataclasses.replace(
        scenario, tariff=TabulatedTariff(thetas, ss, 4.0 * np.outer(thetas, ss)))


def tie_case():
    """Zero-width bands of F = 4 theta s at demands and prices that are
    exact in binary.  At theta_1 qualities 1 and 2 save exactly 0.25; at
    theta_3 quality 3 saves half a tolerance more than quality 2.  The
    lower index must win both ties."""
    scenario = dataclasses.replace(make_bilinear_profile_scenario(),
                                   margins=MarginSpec(b=(0.1, 0.2, 0.3),
                                                      m=ZERO_WIDTH))
    profile = dataclasses.replace(
        build_profile(make_bilinear_profile_scenario()),
        demands=(0.375, 0.5, 0.75),
        prices=(1.25, 2.75, 5.75 - 0.5 * CHOICE_TIE_TOL))
    return profile, scenario


class NaNAboveTariff(BilinearTariff):
    """A bilinear tariff that returns NaN above a demand cut."""

    def __init__(self, d_p, cut):
        super().__init__(d_p)
        self.cut = cut

    def _value(self, th, sv):
        return np.where(th > self.cut, np.nan, super()._value(th, sv))


def nan_case():
    scenario = make_bilinear_profile_scenario()
    profile = build_profile(scenario)
    cut = profile.demands[0]
    return profile, dataclasses.replace(scenario, tariff=NaNAboveTariff(4.0, cut))


def certified(make_scenario):
    def case():
        scenario = make_scenario()
        return build_profile(scenario), scenario
    return case


def tampered():
    profile, scenario = certified(make_bilinear_profile_scenario)()
    prices = list(profile.prices)
    prices[1] -= 0.5
    return dataclasses.replace(profile, prices=tuple(prices)), scenario


def power_h_scenario():
    return dataclasses.replace(
        make_separable_profile_scenario(),
        tariff=SeparableTariff(PowerFunction(1.0, 2.0), PowerFunction(1.0, 1.5)))


ORACLE_CASES = {
    "bilinear": certified(make_bilinear_profile_scenario),
    "separable_power_g": certified(make_separable_profile_scenario),
    "separable_power_h": certified(power_h_scenario),
    "tabulated": certified(tabulated_profile_scenario),
    "tampered": tampered,
    "tie": tie_case,
}

ORACLE_SAMPLES = (1, SIM_BLOCK - 1, SIM_BLOCK, SIM_BLOCK + 1, 10 ** 5)


class TestSimulatorOracle:
    """The blockwise simulator reports exactly what the per-quality
    ``np.stack`` + ``argmax`` simulator reported."""

    @pytest.mark.parametrize("samples", ORACLE_SAMPLES)
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_oracle(self, case, samples):
        profile, scenario = ORACLE_CASES[case]()
        report = simulate_market(profile, scenario, samples, 5)
        assert report.to_dict() == oracle_simulate(profile, scenario, samples, 5).to_dict()

    @pytest.mark.parametrize("samples", ORACLE_SAMPLES)
    def test_nan_saving_counts_toward_no_band(self, samples):
        """A user whose saving is NaN picks no quality, where the argmax
        oracle gave them quality 1; every other field is the oracle's."""
        profile, scenario = nan_case()
        report = simulate_market(profile, scenario, samples, 5).to_dict()
        want = oracle_simulate(profile, scenario, samples, 5).to_dict()
        theta, m = profile.demands[0], scenario.margins.m[0]
        draws = np.random.default_rng([5, 0]).uniform(theta - m, theta + m, samples)
        # above the cut every saving is NaN; below it, quality 1 is the best
        below_cut = float(np.mean(draws <= scenario.tariff.cut))
        assert want["bands"][0]["fraction_intended"] == 1.0
        assert report["bands"][0]["fraction_intended"] == below_cut < 1.0
        want["bands"][0]["fraction_intended"] = below_cut
        assert report == want

    def test_lower_index_wins_ties(self):
        report = simulate_market(*tie_case(), SIM_BLOCK + 1, 5)
        assert [band.fraction_intended for band in report.bands] == [1.0, 1.0, 0.0]

    def test_band_beyond_tabulated_domain_raises_as_oracle(self):
        profile, scenario = certified(tabulated_profile_scenario)()
        theta_up = scenario.tariff.theta_domain[1]
        stored = dataclasses.replace(
            profile, demands=profile.demands[:-1] + (theta_up - 0.5 * scenario.margins.m[-1],))
        with pytest.raises(DomainError) as oracle_error:
            oracle_simulate(stored, scenario, 3 * SIM_BLOCK, 5)
        with pytest.raises(DomainError) as error:
            simulate_market(stored, scenario, 3 * SIM_BLOCK, 5)
        assert str(error.value) == str(oracle_error.value)


def test_simulation_memory_independent_of_quality_count():
    """Ten float arrays of 10**6 bound one simulation of 8 qualities; the
    qualities x samples savings matrix alone would take 61 MiB."""
    scenarios = load_bench("scenarios")
    scenario = scenarios.profile_scenario(np.random.default_rng(3), "bilinear", 8, 0.6)
    profile = build_profile(scenario)
    tracemalloc.start()
    try:
        simulate_market(profile, scenario, 10 ** 6, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 80e6, f"peak {peak / 2 ** 20:.1f} MiB"


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
