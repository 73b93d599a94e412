"""Verifier: constraint certification and market simulation; also the
quadrature window oracle of ``oracles``."""

import dataclasses
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

from contractpricing import (
    BilinearTariff,
    DemandPriceProfile,
    DomainBox,
    DomainError,
    LinearFunction,
    LogFunction,
    MarginSpec,
    PowerFunction,
    ProfileScenario,
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
from contractpricing import functions
from contractpricing.functions import tolerance
from contractpricing.verify import SIM_BLOCK, _count_at_or_below, _uniform_fill
from conftest import (
    BENCH,
    DIP_THETA,
    dip_tariff,
    load_bench,
    make_bilinear_profile_scenario,
    make_log_menu_scenario,
    make_separable_profile_scenario,
)
from oracles import (crosscheck_windows, dense_profile_margins, exact_profile_margins,
                     oracle_simulate)

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

    def test_length_mismatch_rejected(self, log_menu_scenario,
                                      bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        short_prices = dataclasses.replace(profile, prices=profile.prices[:2])
        two_entries = DemandPriceProfile(*(column[:2] for column in (
            profile.demands, profile.prices, profile.windows, profile.step_sizes)))
        for call, message in (
                (lambda: verify_menu(QualityPriceMenu((1.0,), (1.1,), (0.0,)),
                                     log_menu_scenario),
                 "menu.qualities has 1 entries but scenario declares 3 types"),
                (lambda: verify_menu(QualityPriceMenu((1.0, 3.0, 5.0), (1.1, 3.3),
                                                      (0.0, 0.0, 0.0)),
                                     log_menu_scenario),
                 "menu.prices has 2 entries"),
                (lambda: verify_profile(short_prices, bilinear_profile_scenario),
                 "profile.prices has 2 entries but scenario declares 3 qualities"),
                (lambda: simulate_market(two_entries, bilinear_profile_scenario, 10, 0),
                 "profile.demands has 2 entries")):
            with pytest.raises(ScenarioError, match=message):
                call()


class TestVerifyProfile:
    def test_worked_profile_passes(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        report = verify_profile(profile, bilinear_profile_scenario)
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


def wiggly_tariff(seed):
    """4 theta s on 401 demands over [1/3, 1] and 5 qualities over [1, 3],
    with about one value in ten moved by a random amount in [-0.3, 0.1]:
    each band of the reference profile holds 12 to 36 demand knots."""
    rng = np.random.default_rng(seed)
    thetas, ss = np.linspace(1.0 / 3.0, 1.0, 401), np.linspace(1.0, 3.0, 5)
    values = 4.0 * np.outer(thetas, ss)
    values += rng.uniform(-0.3, 0.1, values.shape) * (rng.random(values.shape) < 0.1)
    return TabulatedTariff(thetas, ss, values)


class TestExactCertificate:
    """A band is certified at its ends, its centre and the tariff's demand
    knots inside it, so no tabulated value between probes goes unseen."""

    def test_dip_between_uniform_probes_fails(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        scenario = dataclasses.replace(bilinear_profile_scenario, tariff=dip_tariff())
        report = verify_profile(profile, scenario)
        assert not report.passed
        budget = [v for v in report.violations if v.constraint == "IR.budget"]
        assert [(v.k, v.witness) for v in budget] == [
            (1, {"theta": DIP_THETA, "value": 1.0, "price": profile.prices[0]})]
        assert budget[0].margin == 1.0 - profile.prices[0] == report.worst_margin

    @pytest.mark.parametrize("seed", range(16))
    def test_violations_are_the_dense_grid_minima(self, bilinear_profile_scenario, seed):
        """The worst margin is at most the dense grid's minimum (plus the
        tolerance of its terms), and every budget or incentive margin the
        grid finds violated is reported, at the grid's margin."""
        profile = build_profile(bilinear_profile_scenario)
        scenario = dataclasses.replace(bilinear_profile_scenario,
                                       tariff=wiggly_tariff(seed))
        report = verify_profile(profile, scenario)
        dense = dense_profile_margins(profile, scenario)
        low, terms = min(dense.values(), key=lambda x: x[0])
        assert report.worst_margin <= low + tolerance(*terms)
        reported = {(v.constraint, v.k, v.l): v.margin for v in report.violations
                    if v.constraint in ("IR.budget", "IC")}
        violated = {key: margin for key, (margin, terms) in dense.items()
                    if margin < -tolerance(*terms)}
        assert reported.keys() == violated.keys()
        for key, margin in violated.items():
            assert abs(reported[key] - margin) <= tolerance(*dense[key][1])

    def test_wiggles_fail_some_bands(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        verdicts = [verify_profile(profile, dataclasses.replace(
            bilinear_profile_scenario, tariff=wiggly_tariff(seed))).passed
            for seed in range(16)]
        assert 0 < verdicts.count(False) < 16

    def test_failing_witnesses_share_one_schema(self, log_menu_scenario,
                                                bilinear_profile_scenario):
        """Menus and profiles name a point's willingness to pay ``value``
        and cost plus target ``floor``; only profiles name ``theta``."""
        menu = solve_menu(log_menu_scenario)
        profile = build_profile(bilinear_profile_scenario)
        reports = {
            "menu": verify_menu(dataclasses.replace(
                menu, prices=(1.6, 1.0, 10.0)), log_menu_scenario),
            "profile": verify_profile(dataclasses.replace(
                profile, prices=(2.0, 1.0, 10.0)), bilinear_profile_scenario)}
        point = {"menu": set(), "profile": {"theta"}}
        for kind, report in reports.items():
            keys = {v.constraint: set(v.witness) for v in report.violations}
            assert keys["IR.budget"] == point[kind] | {"value", "price"}
            assert keys["IR.profit"] == {"price", "floor"}
            assert keys["IC"] == point[kind] | {"own_saving", "other_saving"}
        assert reports["menu"].to_dict()["violations"][0]["witness"] == {
            "value": pytest.approx(2.2 * math.log(2.0)), "price": 1.6}


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

    def test_bands_cover_demand_range(self):
        # one band spans [theta_low, theta_up] exactly: no demand is out of band
        scenario = ProfileScenario((1.0,), BilinearTariff(4.0),
                                   LinearFunction(1.0),
                                   DomainBox(0.25, 0.75, 1.0, 3.0),
                                   MarginSpec(b=(0.1,), m=(0.25,)))
        profile = DemandPriceProfile((0.5,), (1.05,), ((1.1, 1.0),), (0.25,))
        report = simulate_market(profile, scenario, 100, 5)
        assert report.out_of_band is None
        assert json.loads(dumps_canonical(report.to_dict()))["out_of_band"] is None


class TestUniformFill:
    """The simulator draws a block as one ``random`` fill scaled in place;
    the oracle draws with ``Generator.uniform``.  The two agree bit for
    bit, so the simulator's extreme draws are ``uniform``'s."""

    RANGES = [(0.25, 0.75), (1e-300, 3e-300), (-2.0, -1e-300), (0.0, 1e300),
              (-1e300, 1e300), (1e300, 1.5e300), (0.7, 0.7)]

    @pytest.mark.parametrize("lo, hi", RANGES)
    @pytest.mark.parametrize("seed", [0, 5, 99])
    def test_equals_generator_uniform(self, seed, lo, hi):
        buf = np.empty(1000)
        got = _uniform_fill(np.random.default_rng([seed, 1]), buf[:999], lo, hi - lo)
        want = np.random.default_rng([seed, 1]).uniform(lo, hi, 999)
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def one_band(m):
        scenario = ProfileScenario((1.0,), BilinearTariff(4.0), LinearFunction(1.0),
                                   DomainBox(0.25, 0.75, 1.0, 3.0),
                                   MarginSpec(b=(0.1,), m=(m,)))
        return DemandPriceProfile((0.5,), (1.05,), ((1.1, 1.0),), (m,)), scenario

    def test_band_range_overflow_is_a_scenario_error(self):
        # without the check, the fill would scale every draw by inf
        profile, scenario = self.one_band(1e308)
        with pytest.raises(ScenarioError,
                           match=r"^band 1: draw range width inf is not finite$"):
            simulate_market(profile, scenario, 100, 5)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_out_of_band_range_overflow_is_a_scenario_error(self):
        # a box that validation rejects, set behind its back: the two
        # out-of-band segments each span 1.7e308
        profile, scenario = self.one_band(0.25)
        object.__setattr__(scenario.box, "theta_low", -1.7e308)
        object.__setattr__(scenario.box, "theta_up", 1.7e308)
        with pytest.raises(ScenarioError,
                           match=r"^out-of-band: draw range width inf is not finite$"):
            simulate_market(profile, scenario, 100, 5)


def tabulated_profile_scenario():
    """The reference bilinear scenario with its tariff sampled on a grid."""
    scenario = make_bilinear_profile_scenario()
    thetas = np.linspace(1.0 / 3.0, 1.0, 9)
    ss = np.linspace(1.0, 3.0, 5)
    return dataclasses.replace(
        scenario, tariff=TabulatedTariff(thetas, ss, 4.0 * np.outer(thetas, ss)))


def tie_case(offset=0.5):
    """Zero-width bands of F = 4 theta s at demands and prices that are
    exact in binary, but for the last price.  At theta_1 qualities 1 and 2
    save exactly 0.25; at theta_3 quality 3 saves ``offset`` tie
    tolerances (``tolerance`` of the prices) more than quality 2.  The
    lower index must win both ties when the offset is below 1."""
    scenario = dataclasses.replace(make_bilinear_profile_scenario(),
                                   margins=MarginSpec(b=(0.1, 0.2, 0.3),
                                                      m=ZERO_WIDTH))
    profile = dataclasses.replace(
        build_profile(make_bilinear_profile_scenario()),
        demands=(0.375, 0.5, 0.75),
        prices=(1.25, 2.75, 5.75 - offset * tolerance(1.25, 2.75, 5.75)))
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


def single_quality_case():
    """One quality whose band [0.4, 0.6] leaves out-of-band segments on
    both sides; users below 0.375 cannot afford it.  The pick rule has no
    lower and no higher quality to compare with."""
    scenario = ProfileScenario((1.0,), BilinearTariff(4.0), LinearFunction(1.0),
                               DomainBox(0.25, 1.0, 1.0, 3.0),
                               MarginSpec(b=(0.1,), m=(0.1,)))
    return DemandPriceProfile((0.5,), (1.5,), ((1.1, 1.6),), (0.1,)), scenario


def twelve_quality_case():
    scenarios = load_bench("scenarios")
    scenario = scenarios.profile_scenario(np.random.default_rng(3), "bilinear", 12, 0.6)
    return build_profile(scenario), scenario


@functools.lru_cache(maxsize=None)
def market_sim_profiles():
    """(profile, scenario) of each ``market_sim`` operation, keyed by the
    operation, as the benchmark's seed-1 set-up builds them."""
    run, workloads = load_bench("run"), load_bench("workloads")
    market = workloads.MarketSim(BENCH.parent, None, 1,
                                 run.WORKLOAD_NAMES.index("market_sim"), None)
    market.setup()
    return {op.key: op.data for op in market.ops}


def market_sim_case(family, n):
    return lambda: market_sim_profiles()[f"sim-{family}-{n}"]


ORACLE_CASES = {
    "bilinear": certified(make_bilinear_profile_scenario),
    "separable_power_g": certified(make_separable_profile_scenario),
    "separable_power_h": certified(power_h_scenario),
    "tabulated": certified(tabulated_profile_scenario),
    "tampered": tampered,
    "tie": tie_case,
    "beyond_tie": lambda: tie_case(1.5),
    "single_quality": single_quality_case,
    "twelve_qualities": twelve_quality_case,
    **{f"market_sim_{family}_{n}": market_sim_case(family, n)
       for family, n in load_bench("workloads").MarketSim.PROFILES},
}

ORACLE_SAMPLES = (1, SIM_BLOCK - 1, SIM_BLOCK, SIM_BLOCK + 1, 3 * SIM_BLOCK + 1, 10 ** 5)


class TestSimulatorOracle:
    """The blockwise simulator reports exactly what the per-quality
    ``np.stack`` + ``argmax`` simulator reported.  The oracle draws each
    band in one ``uniform`` call, so equality also shows that the draws
    streamed block by block are the same."""

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

    def test_higher_quality_wins_beyond_the_tie(self):
        report = simulate_market(*tie_case(1.5), SIM_BLOCK + 1, 5)
        assert [band.fraction_intended for band in report.bands] == [1.0, 1.0, 1.0]

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


def outcome(simulate, profile, scenario, samples):
    """The report of ``simulate`` as a dict, or the message of its DomainError."""
    try:
        return simulate(profile, scenario, samples, 5).to_dict()
    except DomainError as error:
        return f"DomainError: {error}"


class TestDomainChecks:
    """The simulator checks the domain once per pass, from the extreme
    draws of the generator, and behaves as the oracle's checked calls of
    every draw."""

    def test_check_count_independent_of_samples(self, monkeypatch):
        """Checked calls per simulation: the same at one block per band
        and at nine."""
        profile, scenario = certified(make_bilinear_profile_scenario)()
        checks = []
        check = functions._check_in_interval
        monkeypatch.setattr(functions, "_check_in_interval",
                            lambda *args, **kw: checks.append(1) or check(*args, **kw))
        counts = []
        for samples in (SIM_BLOCK, 8 * SIM_BLOCK + 1):
            checks.clear()
            simulate_market(profile, scenario, samples, 5)
            counts.append(len(checks))
        assert counts[0] == counts[1]

    @staticmethod
    def regridded(theta_end, theta_up):
        """The certified tabulated profile, its tariff's grid now ending at
        ``theta_end`` and its box at ``theta_up``."""
        profile, scenario = certified(tabulated_profile_scenario)()
        thetas = np.linspace(scenario.box.theta_low, theta_end, 9)
        ss = np.linspace(1.0, 3.0, 5)
        assert thetas[-1] == theta_end
        return profile, dataclasses.replace(
            scenario, tariff=TabulatedTariff(thetas, ss, 4.0 * np.outer(thetas, ss)),
            box=dataclasses.replace(scenario.box, theta_up=theta_up))

    @staticmethod
    def extreme_draw():
        """``lo + (hi - lo)``, the largest draw the simulator's fill (and
        ``uniform(lo, hi)``) can return, for the last band of the certified
        tabulated profile."""
        profile, scenario = certified(tabulated_profile_scenario)()
        lo = profile.demands[-1] - scenario.margins.m[-1]
        hi = profile.demands[-1] + scenario.margins.m[-1]
        return lo + (hi - lo)

    @pytest.mark.parametrize("ulps", [0, 1, -1])
    def test_grid_ending_at_the_extreme_draw(self, ulps):
        end = self.extreme_draw()
        end = np.nextafter(end, end + ulps) if ulps else end
        profile, scenario = self.regridded(end, end)
        samples = 3 * SIM_BLOCK
        assert (outcome(simulate_market, profile, scenario, samples)
                == outcome(oracle_simulate, profile, scenario, samples))

    @pytest.mark.parametrize("short", [1e-9, 1e-3])
    def test_grid_short_of_the_band_past_the_tolerance(self, short):
        """The band's ends fail the check: with no draw beyond the grid
        (1e-9) the report is the oracle's, with draws beyond it (1e-3) so
        is the error."""
        end = self.extreme_draw() - short
        profile, scenario = self.regridded(end, end)
        samples = 3 * SIM_BLOCK
        got = outcome(simulate_market, profile, scenario, samples)
        assert got == outcome(oracle_simulate, profile, scenario, samples)
        assert isinstance(got, str) == (short > 1e-6)

    @pytest.mark.parametrize("ulps", [0, 1])
    def test_out_of_band_segment_ending_on_the_last_knot(self, ulps):
        """The last out-of-band segment, (theta_3 + m_3, theta_up], ends on
        the grid's last knot, or one ulp beyond it."""
        theta_up = np.nextafter(1.0, 2.0) if ulps else 1.0
        profile, scenario = self.regridded(1.0, theta_up)
        samples = 3 * SIM_BLOCK + 1
        got = outcome(simulate_market, profile, scenario, samples)
        assert got == outcome(oracle_simulate, profile, scenario, samples)
        assert got["out_of_band"]["samples"] == samples

    def test_out_of_band_segment_beyond_the_grid_raises_as_oracle(self):
        """A box past the tariff's domain, which validation rejects, set
        behind its back: only the out-of-band draws leave the grid."""
        profile, scenario = self.regridded(1.0, 1.0)
        object.__setattr__(scenario, "box", dataclasses.replace(scenario.box, theta_up=1.001))
        samples = 3 * SIM_BLOCK + 1
        got = outcome(simulate_market, profile, scenario, samples)
        assert got == outcome(oracle_simulate, profile, scenario, samples)
        assert got.startswith("DomainError: theta=1.00")


class TestCountAtOrBelow:
    """The segment and assignment lookups of the out-of-band pass."""

    #: sorted, with repeated values
    EDGES = np.array([0.5, 1.0, 1.0, 1.0, 2.5, 4.0, 4.0])
    #: below every edge, exactly on each edge, between edges, above every edge
    X = np.concatenate([[-1.0, 0.0, 0.4999], EDGES, [0.75, 1.5, 3.0, 4.0001, 1e300]])

    def test_assignment_is_the_clipped_binary_search(self):
        n = self.EDGES.size
        want = np.clip(np.searchsorted(self.EDGES, self.X, side="right") - 1, 0, n - 1)
        assert np.array_equal(_count_at_or_below(self.EDGES[1:], self.X), want)

    def test_segment_is_the_clipped_binary_search(self):
        cum = np.cumsum([0.5, 0.5, 1e-300, 1.5, 1.5])
        u = np.concatenate([[0.0, 0.25], cum, cum + 0.125, [cum[-1] * 2]])
        want = np.clip(np.searchsorted(cum, u, side="right"), 0, cum.size - 1)
        assert np.array_equal(_count_at_or_below(cum[:-1], u), want)

    def test_no_edges_counts_zero(self):
        assert np.array_equal(_count_at_or_below(np.array([]), self.X),
                              np.zeros(self.X.size, dtype=int))

    @pytest.mark.parametrize("n_edges", [255, 256, 300])
    def test_counts_beyond_a_byte(self, n_edges):
        """Counts of 256 and more need a wider integer than 255 do."""
        edges = np.linspace(0.0, 1.0, n_edges)
        x = np.concatenate([[-1.0, 0.5, 1.0, 2.0], edges])
        want = np.count_nonzero(edges[:, None] <= x, axis=0)
        assert np.array_equal(_count_at_or_below(edges, x), want)
        assert _count_at_or_below(edges, x).max() == n_edges

    def test_unsorted_edges_are_counted(self):
        got = _count_at_or_below(np.array([0.8, 0.5]),
                                 np.array([0.4, 0.5, 0.7, 0.8, 0.9]))
        assert got.tolist() == [0, 1, 1, 2, 2]


def test_out_of_band_rule_for_demands_not_increasing():
    """A stored profile whose demands are not increasing parses, and its
    out-of-band users buy quality 1 + the number of theta_2..theta_L at or
    below them.  Demands (0.8, 0.5) on the box [0.25, 1] leave the
    segments [0.25, 0.7) and (0.9, 1]: users in [0.5, 0.55) buy quality 2
    and cannot afford it, where quality 1 would have been affordable."""
    profile = DemandPriceProfile.from_dict({
        "entries": [{"theta": 0.8, "p": 1.2, "window": [1.2, 1.2]},
                    {"theta": 0.5, "p": 4.4, "window": [4.4, 4.4]}],
        "deltas": [0.1, 0.1]})
    scenario = ProfileScenario((1.0, 2.0), BilinearTariff(4.0), LinearFunction(1.0),
                               DomainBox(0.25, 1.0, 1.0, 2.0),
                               MarginSpec(b=(0.1, 0.2), m=(0.1, 0.11)))
    samples, seed = 3 * SIM_BLOCK + 1, 5
    report = simulate_market(profile, scenario, samples, seed).out_of_band

    seg_lo = np.array([0.25, 0.8 + 0.1])
    lengths = np.array([(0.8 - 0.1) - 0.25, 1.0 - (0.8 + 0.1)])
    u = np.random.default_rng([seed, 2]).uniform(0.0, lengths.sum(), samples)
    cum = np.cumsum(lengths)
    idx = (u >= cum[0]).astype(int)
    draws = seg_lo[idx] + (u - (cum[idx] - lengths[idx]))
    assign = (draws >= 0.5).astype(int)
    saving = (scenario.tariff.value(draws, np.array([1.0, 2.0])[assign])
              - np.array([1.2, 4.4])[assign])
    unaffordable = (draws >= 0.5) & (draws < 0.55)
    assert np.any(unaffordable) and np.all(saving[unaffordable] < 0.0)
    assert report.samples == samples
    assert report.fraction_affordable == np.count_nonzero(saving >= 0.0) / samples
    assert report.min_saving == float(np.min(saving))


def simulation_peak(n_qualities):
    """tracemalloc's peak over one simulation of 10**6 users per band on a
    bench bilinear profile with ``n_qualities`` qualities."""
    scenarios = load_bench("scenarios")
    scenario = scenarios.profile_scenario(np.random.default_rng(3), "bilinear",
                                          n_qualities, 0.6)
    profile = build_profile(scenario)
    tracemalloc.start()
    try:
        simulate_market(profile, scenario, 10 ** 6, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulation_memory_independent_of_quality_count():
    """One float array of 10**6 (7.6 MiB, a band's savings at its own
    quality) plus a block's savings at every quality bound a simulation
    of 8 qualities; the qualities x samples savings matrix alone would
    take 61 MiB."""
    peak = simulation_peak(8)
    assert peak < 16e6, f"peak {peak / 2 ** 20:.1f} MiB"


def test_simulation_memory_at_32_qualities():
    """Four times the qualities grow only the per-block arrays (a block's
    savings at 32 qualities take 4 MiB)."""
    peak = simulation_peak(32)
    assert peak < 24e6, f"peak {peak / 2 ** 20:.1f} MiB"


def bilinear_profiles():
    """The bilinear demo and the bench's bilinear profiles at load 0.6:
    seeds 0-39 times 2, 3, 5 and 8 qualities."""
    scenarios = load_bench("scenarios")
    yield make_bilinear_profile_scenario()
    for seed in range(40):
        for n in (2, 3, 5, 8):
            yield scenarios.profile_scenario(np.random.default_rng(seed), "bilinear", n, 0.6)


def test_float_certificate_is_exact_to_far_below_the_tolerance():
    """Every profile is certified in exact arithmetic too, and the float
    worst margin of ``verify_profile`` lies within 1e-3 of the tolerance of
    its terms from the exact one, so ``REL_TOL`` leaves a wide berth for
    rounding.  A bilinear tariff has F_s = d_p theta and
    F_theta = d_p s, monotone in theta, so the smallest scan grid gives
    the profile the default one does."""
    for scenario in bilinear_profiles():
        profile = build_profile(dataclasses.replace(scenario, grid_n=16))
        report = verify_profile(profile, scenario)
        assert report.passed
        exact, terms = min(exact_profile_margins(profile, scenario), key=lambda x: x[0])
        # margins that are zero by construction round to either side
        assert exact >= -tolerance(*map(float, terms))
        assert abs(report.worst_margin - exact) <= 1e-3 * tolerance(*map(float, terms))


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
        for samples in (self.HUGE, 1.5, True):
            with pytest.raises(ScenarioError, match="samples_per_band"):
                simulate_market(profile, bilinear_profile_scenario, samples, 0)

    def test_negative_seed_rejected(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        with pytest.raises(ScenarioError, match="rng_seed"):
            simulate_market(profile, bilinear_profile_scenario, 10, -1)

    def test_seed_must_be_an_integer(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        for seed in (1.5, True):
            with pytest.raises(ScenarioError, match="rng_seed must be an integer"):
                simulate_market(profile, bilinear_profile_scenario, 10, seed)
        with pytest.raises(ScenarioError, match="rng_seed must be nonnegative"):
            simulate_market(profile, bilinear_profile_scenario, 10, np.int64(-1))
        assert (simulate_market(profile, bilinear_profile_scenario, 10, np.int64(3)).to_dict()
                == simulate_market(profile, bilinear_profile_scenario, 10, 3).to_dict())

    def test_quad_n_bound(self, bilinear_profile_scenario):
        profile = build_profile(bilinear_profile_scenario)
        with pytest.raises(ScenarioError, match="quad_n"):
            crosscheck_windows(bilinear_profile_scenario, profile, self.HUGE)
