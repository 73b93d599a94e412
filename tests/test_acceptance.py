"""Acceptance suite: one test per criterion, pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import dataclasses
import json
from contextlib import contextmanager

import numpy as np
import pytest

from contractpricing import (
    BilinearTariff,
    CertificationError,
    DegenerateSensitivityError,
    DomainBox,
    EmptyPriceWindowError,
    LinearFunction,
    MarginSpec,
    MenuScenario,
    NotAchievableError,
    PowerFunction,
    ProfileScenario,
    ScalarFunction,
    SeparableTariff,
    TabulatedTariff,
    TariffFunction,
    build_profile,
    check_achievability,
    crosscheck_windows,
    empirical_region,
    feasible_interval,
    homogeneous_region,
    sensitivity_bounds,
    simulate_market,
    solve_menu,
    step_sizes,
    verify_menu,
    verify_profile,
)
from contractpricing.cli import run
from conftest import (
    WORKED_DELTAS,
    WORKED_THETAS,
    log_menu_closed_form,
    make_bilinear_profile_scenario,
    make_log_menu_scenario,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} FAIL  {label}")
        raise
    print(f"[acceptance] criterion {number} PASS  {label}")


def count_evaluations(monkeypatch) -> dict:
    """Count the public function evaluations and the menu searches'
    unchecked net evaluations from now on; a deterministic bound on the
    solver's work (the benchmark owns wall-clock timing)."""
    count = {"calls": 0}
    for cls, names in ((ScalarFunction, ("value", "derivative")),
                       (TariffFunction, ("value", "partials")),
                       (MenuScenario, ("_net", "_net_derivative"))):
        for name in names:
            def counted(self, *args, _original=getattr(cls, name)):
                count["calls"] += 1
                return _original(self, *args)
            monkeypatch.setattr(cls, name, counted)
    return count


def random_menu_scenarios(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d_c = float(rng.uniform(0.4, 3.0))
        d_b = d_c * float(rng.uniform(1.15, 8.0))
        yield d_b, d_c, make_log_menu_scenario(d_b=d_b, d_c=d_c, n_types=3)


def random_profile_scenarios(count, seed):
    """Achievable randomized scenarios, half bilinear and half separable."""
    rng = np.random.default_rng(seed)
    scenarios = []
    while len(scenarios) < count:
        separable = len(scenarios) % 2 == 1
        n = int(rng.integers(2, 5))
        if separable:
            theta_low = float(rng.uniform(1.1, 1.5))
            theta_up = theta_low + float(rng.uniform(0.6, 1.2))
            s_low = float(rng.uniform(0.6, 1.0))
            s_up = s_low + float(rng.uniform(0.8, 1.5))
            exponent = float(rng.uniform(1.2, 2.2))
            tariff = SeparableTariff(PowerFunction(1.0, exponent),
                                     LinearFunction(float(rng.uniform(1.0, 2.0))))
            cost = LinearFunction(0.3)
        else:
            theta_low = float(rng.uniform(0.3, 0.8))
            theta_up = theta_low + float(rng.uniform(0.5, 1.0))
            s_low = float(rng.uniform(0.5, 1.5))
            s_up = s_low + float(rng.uniform(1.0, 2.5))
            cost = LinearFunction(float(rng.uniform(0.5, 1.5)))
            d_p = cost.slope / theta_low * float(rng.uniform(1.5, 4.0))
            tariff = BilinearTariff(d_p)
        qualities = tuple(np.linspace(s_low, s_up, n))
        box = DomainBox(theta_low, theta_up, s_low, s_up)
        m_scale, b_scale = 0.004, 0.04
        for _ in range(10):
            margins = MarginSpec(b=tuple(b_scale * s for s in qualities),
                                 m=tuple(m_scale * s for s in qualities))
            scenario = ProfileScenario(qualities, tariff, cost, box, margins,
                                       grid_n=128)
            if check_achievability(scenario).passed:
                scenarios.append(scenario)
                break
            m_scale *= 0.5
            b_scale *= 0.5
    return scenarios


def test_criterion_1_menu_closed_form_reproduction(monkeypatch):
    with criterion(1, "menu solver reproduces the log-budget closed form"):
        cases = list(random_menu_scenarios(50, seed=20260808))
        count = count_evaluations(monkeypatch)
        menus = [solve_menu(scn) for _, _, scn in cases]
        evaluations = count["calls"]
        for (d_b, d_c, _), menu in zip(cases, menus):
            for i, (s_i, p_i) in enumerate(menu.entries, start=1):
                assert s_i == pytest.approx(
                    log_menu_closed_form(d_b, d_c, i), abs=1e-6)
                assert p_i == pytest.approx(1.1 * d_c * s_i, abs=1e-12)
        # 11,465 evaluations (750 public, 10,715 unchecked net) when the
        # unchecked menu searches were first counted
        assert evaluations <= 1.25 * 11_465, f"50 menu solves: {evaluations}"


def test_criterion_2_menu_certification_and_grid_oracle():
    with criterion(2, "menus certify and match a 10,000-point grid oracle"):
        scenarios = [scn for _, _, scn in random_menu_scenarios(5, seed=99)]
        scenarios.append(make_log_menu_scenario())
        for scenario in scenarios:
            menu = solve_menu(scenario)
            report = verify_menu(menu, scenario)
            assert report.passed
            assert report.worst_margin >= -1e-9
            for i, s_i in enumerate(menu.qualities, start=1):
                _, a_i = feasible_interval(i, scenario)
                grid = np.linspace(0.0, a_i, 10_000)
                best = float(np.max(np.asarray(scenario.net(i, grid))))
                assert float(scenario.net(i, s_i)) >= best - 1e-6


def test_criterion_3_sensitivity_and_step_closed_forms():
    with criterion(3, "sensitivity bounds and step sizes match closed forms"):
        d_p, delta = 4.0, 1.0
        scenario = make_bilinear_profile_scenario(d_p=d_p)
        for j in (2, 3):
            eps_j, del_j = sensitivity_bounds(scenario, j)
            assert eps_j == d_p * (j - 1) * delta
            assert del_j == d_p * delta

        thetas = np.linspace(1.0 / 3.0, 1.0, 250)
        ss = np.linspace(0.5, 3.5, 250)
        tabulated = dataclasses.replace(
            scenario,
            tariff=TabulatedTariff(thetas, ss, d_p * np.outer(thetas, ss)))
        for j in (2, 3):
            eps_j, del_j = sensitivity_bounds(tabulated, j)
            assert eps_j == pytest.approx(d_p * (j - 1) * delta, abs=1e-3)
            assert del_j == pytest.approx(d_p * delta, abs=1e-3)

        for m_scale, b_scale in [(0.01, 0.1), (0.003, 0.05), (0.007, 0.22)]:
            scn = make_bilinear_profile_scenario(
                d_p=d_p, m_scale=m_scale, b_scale=b_scale)
            deltas = step_sizes(scn)
            assert deltas[0] == pytest.approx(m_scale * delta, abs=1e-15)
            for j in (2, 3):
                expected = m_scale * delta * (2 * j - 1) ** 2 + b_scale / d_p
                assert deltas[j - 1] == pytest.approx(expected, abs=1e-12)


def test_criterion_4_worked_profile_end_to_end(monkeypatch):
    with criterion(4, "reference profile: build, certify, simulate"):
        scenario = make_bilinear_profile_scenario()
        count = count_evaluations(monkeypatch)
        profile = build_profile(scenario)
        report = verify_profile(profile, scenario, probes_per_band=9)
        sim = simulate_market(profile, scenario, 1000, 42)
        evaluations = count["calls"]

        np.testing.assert_allclose(profile.demands, WORKED_THETAS, atol=1e-6)
        np.testing.assert_allclose(profile.step_sizes, WORKED_DELTAS, atol=1e-12)
        a_2, b_2 = profile.windows[1]
        assert a_2 == pytest.approx(2.81, abs=1e-6)
        assert b_2 == pytest.approx(2.81, abs=1e-6)
        assert report.passed and report.worst_margin >= -1e-9
        for band in sim.bands:
            assert band.fraction_intended == 1.0
            assert band.provider_profit >= band.profit_target - 1e-12
        # 1,087 evaluations when this bound replaced a wall-clock one
        assert evaluations <= 1.25 * 1_087, f"profile pipeline: {evaluations}"


def test_criterion_5_window_quadrature_equivalence():
    with criterion(5, "closed-form windows agree with Simpson quadrature"):
        scenarios = random_profile_scenarios(20, seed=20260809)
        assert len(scenarios) == 20
        for scenario in scenarios:
            profile = build_profile(scenario)
            report = crosscheck_windows(scenario, profile, quad_n=256)
            assert report.passed, report.violations


def test_criterion_6_tradeoff_reproduction():
    with criterion(6, "tradeoff boundary and its orderings"):
        for quality_range, demand_range in [(2.0, 2.0 / 3.0), (1.0, 0.5),
                                            (3.0, 1.0)]:
            curve = homogeneous_region(quality_range, demand_range, 3, 3.0, 41)
            for m, b in curve.points:
                assert 36.0 * m * quality_range + b == pytest.approx(
                    demand_range, abs=1e-12)
        # profit grows with the demand range at fixed quality range
        for m in (0.0, 0.001, 0.003):
            b_small = 0.5 - 36.0 * m * 2.0
            b_large = 1.0 - 36.0 * m * 2.0
            assert b_large > b_small
        # and shrinks when the quality range widens at fixed demand range
        for m in (0.001, 0.003):
            assert (1.0 - 36.0 * m * 3.0) < (1.0 - 36.0 * m * 1.0)


def test_criterion_7_property_suite(tmp_path):
    with criterion(7, "monotonicity, closure, determinism, error taxonomy"):
        # (i) strict monotonicity of certified menus and profiles
        for _, _, scenario in random_menu_scenarios(8, seed=5):
            menu = solve_menu(scenario)
            assert all(b > a for a, b in zip(menu.qualities, menu.qualities[1:]))
            assert all(b > a for a, b in zip(menu.prices, menu.prices[1:]))
        for scenario in random_profile_scenarios(6, seed=6):
            profile = build_profile(scenario)
            assert all(b > a for a, b in zip(profile.demands, profile.demands[1:]))
            assert all(b > a for a, b in zip(profile.prices, profile.prices[1:]))

        # (ii) downward closure of the empirical region on a 20 x 20 grid
        template = dataclasses.replace(make_bilinear_profile_scenario(),
                                       grid_n=64)
        b_grid = np.linspace(0.03, 0.9, 20)
        m_grid = np.linspace(0.001, 0.03, 20)
        matrix = empirical_region(template, b_grid, m_grid)
        assert matrix.any() and not matrix.all()
        for i in range(20):
            for j in range(20):
                if matrix[i, j]:
                    assert matrix[: i + 1, : j + 1].all()

        # (iii) determinism: identical config and seed give identical bytes
        config_path = tmp_path / "profile.json"
        config_path.write_text(json.dumps({
            "mode": "profile",
            "qualities": [1.0, 2.0, 3.0],
            "tariff": {"family": "bilinear", "d_p": 4.0},
            "cost": {"family": "linear", "slope": 1.0},
            "box": {"theta_low": 1.0 / 3.0, "theta_up": 1.0,
                    "s_low": 1.0, "s_up": 3.0},
            "margins": {"b": [0.1, 0.2, 0.3], "m": [0.01, 0.02, 0.03]},
        }))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run(["profile", str(config_path), "--out", str(out),
                        "--quiet"]) == 0
            assert run(["simulate", str(config_path),
                        str(out / "profile.json"), "--samples", "300",
                        "--seed", "42", "--out", str(out), "--quiet"]) == 0
        for name in ("profile.json", "profile.csv", "simulation.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

        # (iv) every build failure is one of the declared error classes,
        # and every success is certified: no silent bad profiles
        declared = (NotAchievableError, EmptyPriceWindowError,
                    DegenerateSensitivityError, CertificationError)
        candidates = []
        base = make_bilinear_profile_scenario()
        candidates.append(dataclasses.replace(
            base, box=DomainBox(1.0 / 3.0, 0.45, 1.0, 3.0)))     # range fails
        candidates.append(make_bilinear_profile_scenario(b_scale=0.6))  # entry
        candidates.append(make_bilinear_profile_scenario(d_p=1.0))  # marginal
        flat = TabulatedTariff(np.linspace(1.0 / 3.0, 1.0, 40),
                               np.linspace(0.5, 3.5, 40),
                               4.0 * np.outer(np.linspace(1.0 / 3.0, 1.0, 40),
                                              np.ones(40)))
        candidates.append(dataclasses.replace(base, tariff=flat))  # degenerate
        candidates.append(base)                                    # succeeds
        candidates.extend(random_profile_scenarios(4, seed=77))
        for scenario in candidates:
            try:
                profile = build_profile(scenario)
            except declared:
                continue
            certificate = verify_profile(profile, scenario)
            assert certificate.passed
            assert certificate.worst_margin >= -1e-9
