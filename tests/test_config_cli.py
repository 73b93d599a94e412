"""Config parsing and the command line front end."""

import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from contractpricing import ConfigError, load_config
from contractpricing.cli import run
from conftest import BENCH, DIP_THETA, ROOT, child_env, dip_tariff, run_cli

DEMOS = ROOT / "demos" / "scenarios"

MENU_CONFIG = {
    "mode": "menu",
    "budgets": [
        {"family": "scaled", "base": {"family": "log", "scale": 2.2}, "factor": 1.0},
        {"family": "scaled", "base": {"family": "log", "scale": 2.2}, "factor": 2.0},
        {"family": "scaled", "base": {"family": "log", "scale": 2.2}, "factor": 3.0},
    ],
    "cost": {"family": "linear", "slope": 1.0},
    "profit": {"family": "scaled",
               "base": {"family": "linear", "slope": 1.0}, "factor": 0.1},
}

PROFILE_CONFIG = {
    "mode": "profile",
    "qualities": [1.0, 2.0, 3.0],
    "tariff": {"family": "bilinear", "d_p": 4.0},
    "cost": {"family": "linear", "slope": 1.0},
    "box": {"theta_low": 1.0 / 3.0, "theta_up": 1.0, "s_low": 1.0, "s_up": 3.0},
    "margins": {"b": [0.1, 0.2, 0.3], "m": [0.01, 0.02, 0.03]},
}

TRADEOFF_CONFIG = {
    "mode": "tradeoff",
    "delta_s": 2.0,
    "delta_theta": 2.0 / 3.0,
    "types": 3,
    "d_p": 3.0,
}


#: scenario hashes of the demo configs; a drift would orphan every stored
#: solution of these scenarios
DEMO_HASHES = {
    "menu_log_budget.json":
        "e66e0a41370abd72e1039fb85f24c4fb0e89ae2b390567e97858c9b72c952cce",
    "profile_bilinear.json":
        "71e182cc777de52e7b7f6f876f26a303f90560dd365d6e7f5c123eb062373089",
    "profile_separable.json":
        "3c2811150e9b61bfc96dadbaf93d312bf49ca70c147e7ee30d7bae616cb1e4bc",
    "tradeoff_homogeneous.json":
        "85a76ed78ff07f0650c6691863d634702e5e460d5956ff39b0ad3e2da7110c48",
}


def edited(base, changes):
    """Deep copy of ``base`` with each dotted path ("margins.m.2") set."""
    payload = json.loads(json.dumps(base))
    for dotted, value in changes.items():
        *parents, last = [int(k) if k.isdigit() else k
                          for k in dotted.split(".")]
        node = payload
        for key in parents:
            node = node[key]
        node[last] = value
    return payload


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestLoadConfig:
    def test_menu_defaults_filled(self, tmp_path):
        config = load_config(write_config(tmp_path, MENU_CONFIG))
        assert config.mode == "menu"
        assert config.resolved["s_search_max"] == 1e6
        assert config.resolved["grid_n"] == 512
        assert config.menu.n_types == 3

    def test_profile_defaults_filled(self, tmp_path):
        config = load_config(write_config(tmp_path, PROFILE_CONFIG))
        assert config.resolved["price_lambda"] == 0.5
        assert config.resolved["probes"] == 9
        assert config.resolved["quad_n"] == 256
        assert config.profile.price_lambda == 0.5

    def test_unread_knobs_have_no_floor_and_are_hashed(self, tmp_path):
        # nothing reads probes or quad_n: any JSON integer loads, and the
        # scenario hash still tracks it
        default = load_config(write_config(tmp_path, PROFILE_CONFIG, "a.json"))
        low = load_config(write_config(tmp_path, dict(PROFILE_CONFIG, probes=1, quad_n=1),
                                       "b.json"))
        assert (low.resolved["probes"], low.resolved["quad_n"]) == (1, 1)
        assert low.hash != default.hash

    def test_non_increasing_margins_rejected(self, tmp_path):
        payload = json.loads(json.dumps(PROFILE_CONFIG))
        payload["margins"]["m"] = [0.02, 0.01, 0.03]
        with pytest.raises(ConfigError,
                           match="margins.m must be strictly increasing"):
            load_config(write_config(tmp_path, payload))

    def test_margin_rule_error_names_field(self, tmp_path):
        payload = json.loads(json.dumps(PROFILE_CONFIG))
        payload["margins"]["gap"] = [0.05, 0.1]
        with pytest.raises(ConfigError, match=r"margins: unknown key\(s\): gap"):
            load_config(write_config(tmp_path, payload))

    def test_box_rule_error_names_field(self, tmp_path):
        payload = json.loads(json.dumps(PROFILE_CONFIG))
        payload["box"]["theta_up"] = 0.2
        with pytest.raises(ConfigError, match="box: demand bounds"):
            load_config(write_config(tmp_path, payload))

    def test_huge_integer_literal_names_field(self, tmp_path):
        payload = json.loads(json.dumps(PROFILE_CONFIG))
        payload["cost"]["slope"] = 10 ** 400
        with pytest.raises(ConfigError, match="cost.slope: must be finite"):
            load_config(write_config(tmp_path, payload))

    def test_unknown_family_names_field(self, tmp_path):
        payload = json.loads(json.dumps(MENU_CONFIG))
        payload["budgets"][0] = {"family": "expp", "scale": 1.0}
        with pytest.raises(ConfigError, match=r"budgets\[0\].family"):
            load_config(write_config(tmp_path, payload))

    def test_unknown_keys_rejected(self, tmp_path):
        payload = dict(MENU_CONFIG, extra_knob=1)
        with pytest.raises(ConfigError, match="extra_knob"):
            load_config(write_config(tmp_path, payload))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed JSON"):
            load_config(str(path))

    def test_tabulated_function_from_csv(self, tmp_path):
        xs = np.linspace(0.0, 5.0, 200)
        csv = tmp_path / "budget.csv"
        csv.write_text("\n".join(f"{x},{2.2 * np.log1p(x)}" for x in xs))
        payload = json.loads(json.dumps(MENU_CONFIG))
        payload["budgets"][0] = {"family": "tabulated", "csv": "budget.csv"}
        # the table covers [0, 5], so the search window must too
        payload.update(s_search_max=5.0, s_probe_max=5.0)
        config = load_config(write_config(tmp_path, payload))
        assert config.menu.budgets[0].value(1.0) == pytest.approx(
            2.2 * np.log(2.0), abs=1e-4)
        assert "data_sha256" in config.resolved["budgets"][0]

    def test_tabulated_csv_parsed_from_hashed_bytes(self, tmp_path,
                                                    monkeypatch):
        """The table and its digest come from one read of the file, so a
        file rewritten between two reads cannot split them."""
        def table(scale):
            return "\n".join(f"{x},{scale * np.log1p(x)}"
                             for x in np.linspace(0.0, 5.0, 200)).encode()

        (tmp_path / "budget.csv").write_bytes(table(2.2))
        read = table(3.3)
        real_read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda self: (
            read if self.name == "budget.csv" else real_read_bytes(self)))
        payload = json.loads(json.dumps(MENU_CONFIG))
        payload["budgets"][0] = {"family": "tabulated", "csv": "budget.csv"}
        payload.update(s_search_max=5.0, s_probe_max=5.0)
        config = load_config(write_config(tmp_path, payload))
        assert config.menu.budgets[0].value(1.0) == pytest.approx(
            3.3 * np.log(2.0), abs=1e-4)
        assert config.resolved["budgets"][0]["data_sha256"] == \
            hashlib.sha256(read).hexdigest()

    def test_tabulated_requires_increasing_first_column(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("0.0,0.0\n1.0,1.0\n1.0,2.0\n")
        payload = json.loads(json.dumps(MENU_CONFIG))
        payload["budgets"][0] = {"family": "tabulated", "csv": "bad.csv"}
        with pytest.raises(ConfigError, match="strictly increasing"):
            load_config(write_config(tmp_path, payload))

    def test_csv_name_must_be_a_string(self, tmp_path):
        payload = json.loads(json.dumps(MENU_CONFIG))
        payload["budgets"][0] = {"family": "tabulated", "csv": 5}
        with pytest.raises(ConfigError,
                           match=r"budgets\[0\].csv: expected a string"):
            load_config(write_config(tmp_path, payload))

    def test_missing_csv(self, tmp_path):
        payload = json.loads(json.dumps(MENU_CONFIG))
        payload["budgets"][0] = {"family": "tabulated", "csv": "nope.csv"}
        with pytest.raises(ConfigError, match="not found"):
            load_config(write_config(tmp_path, payload))

    def test_hash_tracks_content_not_formatting(self, tmp_path):
        a = load_config(write_config(tmp_path, MENU_CONFIG, "a.json"))
        spaced = json.dumps(MENU_CONFIG, indent=4)
        path_b = tmp_path / "b.json"
        path_b.write_text(spaced)
        b = load_config(str(path_b))
        assert a.hash == b.hash
        payload = json.loads(json.dumps(MENU_CONFIG))
        payload["cost"]["slope"] = 2.0
        c = load_config(write_config(tmp_path, payload, "c.json"))
        assert c.hash != a.hash


    @pytest.mark.parametrize("name", sorted(DEMO_HASHES))
    def test_demo_scenario_hash_pinned(self, name):
        assert load_config(DEMOS / name).hash == DEMO_HASHES[name]


class TestRuleOwners:
    """Each value rule has one owner, a constructor or a scenario
    validator; loading still fails (exit 2) with the field path in front
    of the owner's message."""

    CASES = {
        "negative_slope": (MENU_CONFIG, {"cost.slope": -1.0},
                           "cost: linear slope must be nonnegative"),
        "negative_scale": (MENU_CONFIG, {"budgets.0.base.scale": -1.0},
                           r"budgets\[0\]\.base: log scale must be nonnegative"),
        "negative_factor": (MENU_CONFIG, {"profit.factor": -0.1},
                            "profit: scale factor must be nonnegative"),
        "zero_exponent": (PROFILE_CONFIG,
                          {"cost": {"family": "power", "scale": 1.0,
                                    "exponent": 0}},
                          "cost: power exponent must be positive"),
        "zero_d_p": (PROFILE_CONFIG, {"tariff.d_p": 0},
                     "tariff: bilinear slope d_p must be positive"),
        "zero_quality": (PROFILE_CONFIG, {"qualities.0": 0.0},
                         "qualities must be positive"),
        "profile_grid_n": (PROFILE_CONFIG, {"grid_n": 8},
                           "grid_n must be at least 16"),
        "menu_grid_n": (MENU_CONFIG, {"grid_n": 8},
                        "grid_n must be at least 16"),
        "probe_beyond_search": (MENU_CONFIG,
                                {"s_search_max": 50, "s_probe_max": 100},
                                r"s_probe_max must lie in \(0, s_search_max\]"),
        # the regularity scan's geometric grid would start below the
        # smallest normal float, at 0 or among the subnormals
        "subnormal_probe": (MENU_CONFIG, {"s_probe_max": 5e-324},
                            r"s_probe_max = 4\.94066e-324 is too small"),
        "subnormal_range_probe": (MENU_CONFIG, {"s_probe_max": 3e-315},
                                  r"s_probe_max = 3e-315 is too small"),
        "subnormal_search": (MENU_CONFIG,
                             {"s_search_max": 1e-310, "s_probe_max": 1e-310},
                             r"s_search_max = 1e-310 is too small"),
        "list_family": (MENU_CONFIG, {"cost.family": ["linear"]},
                        r"cost\.family: unknown family"),
        "object_family": (PROFILE_CONFIG, {"tariff.family": {"bilinear": 1}},
                          r"tariff\.family: unknown family"),
        "box_order": (PROFILE_CONFIG, {"box.s_up": 0.5},
                      "box: quality bounds must satisfy"),
        "quality_outside_box": (PROFILE_CONFIG, {"qualities.2": 3.5},
                                r"qualities must lie within \[s_low, s_up\]"),
        "first_profit_floor": (PROFILE_CONFIG, {"margins.b.0": 0.0},
                               "margins.b must be positive"),
        "price_lambda": (PROFILE_CONFIG, {"price_lambda": 1.5},
                         r"price_lambda must lie in \[0, 1\]"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_check_rejects_at_load(self, tmp_path, capsys, case):
        base, changes, message = self.CASES[case]
        config = write_config(tmp_path, edited(base, changes))
        assert run(["check", config, "--out", str(tmp_path / "o"),
                    "--quiet"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert re.match(message, error["message"]), error["message"]
        assert not (tmp_path / "o" / "check.json").exists()

    def test_template_rule_names_template_path(self, tmp_path):
        payload = dict(TRADEOFF_CONFIG, empirical={
            "b_grid": [0.05], "m_grid": [0.002],
            "scenario": edited(PROFILE_CONFIG, {"grid_n": 8, "cost.slope": -1.0}),
        })
        del payload["empirical"]["scenario"]["mode"]
        del payload["empirical"]["scenario"]["margins"]
        with pytest.raises(ConfigError,
                           match="empirical.scenario.cost: linear slope"):
            load_config(write_config(tmp_path, payload))
        payload["empirical"]["scenario"]["cost"]["slope"] = 1.0
        with pytest.raises(ConfigError,
                           match="empirical.scenario.grid_n must be at least 16"):
            load_config(write_config(tmp_path, payload))

    def test_template_takes_no_price_lambda(self, tmp_path, capsys):
        # the grid prices nothing, so the key would only change the hash
        scenario = {key: PROFILE_CONFIG[key] for key in
                    ("qualities", "tariff", "cost", "box")}
        payload = dict(TRADEOFF_CONFIG, empirical={
            "b_grid": [0.05], "m_grid": [0.002],
            "scenario": dict(scenario, price_lambda=0.5)})
        config = write_config(tmp_path, payload)
        assert run(["tradeoff", config, "--out", str(tmp_path / "o"),
                    "--quiet"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["message"] == ("empirical.scenario: unknown key(s): "
                                    "price_lambda")


class TestRulesAtTheirReader:
    """The config layer checks no value's range.  A config that breaks a
    rule owned by a library call loads; the command that reads the value
    exits 2 with that call's message, and commands that do not read it
    accept the config."""

    EMPIRICAL_CONFIG = dict(TRADEOFF_CONFIG, empirical={
        "b_grid": [0.05], "m_grid": [0.002, 0.01],
        "scenario": {key: PROFILE_CONFIG[key] for key in
                     ("qualities", "tariff", "cost", "box")}})

    TRADEOFF_CASES = {
        "delta_s": ({"delta_s": 0.0}, "quality_range must be positive"),
        "delta_theta": ({"delta_theta": -1.0}, "demand_range must be positive"),
        "types": ({"types": 0}, "n_types must be at least 1"),
        "d_p": ({"d_p": -3.0}, "d_p must be positive"),
        "points": ({"points": 1}, "n_points must be at least 2"),
        "b_grid": ({"empirical.b_grid.0": 0.0},
                   "b_grid must be finite, positive and increasing"),
        "m_grid": ({"empirical.m_grid.0": -0.002},
                   "m_grid must be finite, positive and increasing"),
        # the grid rule runs before the normalized margins are formed
        "m_grid_order": ({"empirical.m_grid": [1e308, 0.002]},
                         "m_grid must be finite, positive and increasing"),
    }

    def error(self, capsys) -> dict:
        # the whole of stderr is one JSON object
        return json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("case", sorted(TRADEOFF_CASES))
    def test_tradeoff_rule(self, tmp_path, capsys, case):
        changes, message = self.TRADEOFF_CASES[case]
        config = write_config(tmp_path, edited(self.EMPIRICAL_CONFIG, changes))
        load_config(config)
        out = tmp_path / "o"
        assert run(["tradeoff", config, "--out", str(out), "--quiet"]) == 2
        assert self.error(capsys) == {"type": "ScenarioError", "exit_code": 2,
                                      "message": message}
        assert not (out / "tradeoff.json").exists()

    @pytest.mark.parametrize("changes, message", [
        ({"seed": -1}, "rng_seed must be nonnegative"),
        ({"samples_per_band": 0}, "samples_per_band must be at least 1"),
    ], ids=["seed", "samples_per_band"])
    def test_simulator_knob_read_only_by_simulate(self, tmp_path, capsys,
                                                  changes, message):
        config = write_config(tmp_path, edited(PROFILE_CONFIG, changes))
        out = str(tmp_path / "o")
        solution = str(tmp_path / "o" / "profile.json")
        for argv in (["check", config], ["profile", config],
                     ["verify", config, solution]):
            assert run(argv + ["--out", out, "--quiet"]) == 0, argv
        assert run(["simulate", config, solution, "--out", out,
                    "--quiet"]) == 2
        assert self.error(capsys) == {"type": "ScenarioError", "exit_code": 2,
                                      "message": message}


class TestCliMenu:
    def test_reference_menu_csv(self, tmp_path):
        config = write_config(tmp_path, MENU_CONFIG)
        out = tmp_path / "out"
        assert run(["menu", config, "--out", str(out), "--quiet"]) == 0
        header, rows = read_csv(out / "menu.csv")
        assert header == ["type", "quality", "price", "budget_at_quality",
                          "net_saving"]
        got = [(float(r[1]), float(r[2])) for r in rows]
        for (s, p), (s_want, p_want) in zip(
                got, [(1.0, 1.1), (3.0, 3.3), (5.0, 5.5)]):
            assert s == pytest.approx(s_want, abs=1e-6)
            assert p == pytest.approx(p_want, abs=1e-6)

    def test_format_json_only(self, tmp_path):
        config = write_config(tmp_path, MENU_CONFIG)
        out = tmp_path / "out"
        run(["menu", config, "--out", str(out), "--format", "json", "--quiet"])
        assert (out / "menu.json").exists()
        assert not (out / "menu.csv").exists()

    def test_regularity_failure_exit_3(self, tmp_path):
        payload = json.loads(json.dumps(MENU_CONFIG))
        for budget in payload["budgets"]:
            budget["base"]["scale"] = 1.0
        config = write_config(tmp_path, payload)
        assert run(["menu", config, "--out", str(tmp_path / "o"),
                    "--quiet"]) == 3


class TestCliProfile:
    def test_worked_profile_csv(self, tmp_path):
        config = write_config(tmp_path, PROFILE_CONFIG)
        out = tmp_path / "out"
        assert run(["profile", config, "--out", str(out), "--quiet"]) == 0
        header, rows = read_csv(out / "profile.csv")
        assert header == ["k", "theta", "price", "window_lo", "window_hi",
                          "delta"]
        thetas = [float(r[1]) for r in rows]
        np.testing.assert_allclose(
            thetas, [0.343333333, 0.458333333, 0.733333333], atol=1e-6)

    def test_not_achievable_exit_3(self, tmp_path):
        payload = json.loads(json.dumps(PROFILE_CONFIG))
        payload["box"]["theta_up"] = 0.5
        config = write_config(tmp_path, payload)
        assert run(["profile", config, "--out", str(tmp_path / "o"),
                    "--quiet"]) == 3

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path, PROFILE_CONFIG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["profile", config, "--out", str(out1), "--quiet"]) == 0
        assert run(["profile", config, "--out", str(out2), "--quiet"]) == 0
        assert (out1 / "profile.json").read_bytes() == \
            (out2 / "profile.json").read_bytes()
        assert (out1 / "profile.csv").read_bytes() == \
            (out2 / "profile.csv").read_bytes()


class TestCliVerifySimulate:
    def test_roundtrip_verify(self, tmp_path):
        config = write_config(tmp_path, PROFILE_CONFIG)
        out = tmp_path / "out"
        assert run(["profile", config, "--out", str(out), "--quiet"]) == 0
        assert run(["verify", config, str(out / "profile.json"),
                    "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "verification.json").read_text())
        assert report["passed"] is True

    def test_menu_roundtrip_verify(self, tmp_path):
        config = write_config(tmp_path, MENU_CONFIG)
        out = tmp_path / "out"
        assert run(["menu", config, "--out", str(out), "--quiet"]) == 0
        assert run(["verify", config, str(out / "menu.json"),
                    "--out", str(out), "--quiet"]) == 0

    @pytest.mark.parametrize("base, changes", [
        (MENU_CONFIG, {f"budgets.{i}.base.scale": 2200.0 for i in range(3)}),
        (PROFILE_CONFIG, {"tariff.d_p": 4000.0, "cost.slope": 1000.0,
                          "margins.b": [100.0, 200.0, 300.0]}),
        (PROFILE_CONFIG, {"tariff.d_p": 4e9, "cost.slope": 1e9,
                          "margins.b": [1e8, 2e8, 3e8]}),
    ], ids=["menu", "profile", "profile_1e9"])
    def test_roundtrip_verify_at_large_prices(self, tmp_path, base, changes):
        # prices in the thousands and billions: 9 stored digits round them
        # by more than 1e-6, so the stored-solution slack scales with them
        config = write_config(tmp_path, edited(base, changes))
        mode, out = base["mode"], tmp_path / "out"
        assert run([mode, config, "--out", str(out), "--quiet"]) == 0
        stored = json.loads((out / f"{mode}.json").read_text())
        assert min(e["p"] for e in stored["entries"]) > 1000.0
        assert run(["verify", config, str(out / f"{mode}.json"),
                    "--out", str(out), "--quiet"]) == 0

    def test_roundtrip_verify_at_small_prices(self, tmp_path):
        # prices near 1e-9: the stored-solution slack is relative, so it
        # still rejects the solution with every price doubled
        config = write_config(tmp_path, edited(PROFILE_CONFIG, {
            "tariff.d_p": 4e-9, "cost.slope": 1e-9, "margins.b": [1e-10, 2e-10, 3e-10]}))
        out = tmp_path / "out"
        assert run(["profile", config, "--out", str(out), "--quiet"]) == 0
        assert run(["verify", config, str(out / "profile.json"),
                    "--out", str(out), "--quiet"]) == 0
        solution = json.loads((out / "profile.json").read_text())
        for entry in solution["entries"]:
            entry["p"] *= 2.0
        doubled = out / "doubled.json"
        doubled.write_text(json.dumps(solution))
        assert run(["verify", config, str(doubled), "--out", str(out), "--quiet"]) == 3

    def test_hash_drift_detected(self, tmp_path):
        config = write_config(tmp_path, PROFILE_CONFIG)
        out = tmp_path / "out"
        run(["profile", config, "--out", str(out), "--quiet"])
        drifted = json.loads(json.dumps(PROFILE_CONFIG))
        drifted["margins"]["b"] = [0.11, 0.2, 0.3]
        config2 = write_config(tmp_path, drifted, "drifted.json")
        assert run(["verify", config2, str(out / "profile.json"),
                    "--out", str(out), "--quiet"]) == 2

    @pytest.mark.parametrize("mode, name", [("menu", "menu_log_budget.json"),
                                            ("profile", "profile_bilinear.json")],
                             ids=["menu", "profile"])
    def test_tampered_solution_exit_3(self, tmp_path, mode, name):
        # the last price raised 10%: its agents save more one entry down
        config, out = str(DEMOS / name), tmp_path / "out"
        assert run([mode, config, "--out", str(out), "--quiet"]) == 0
        solution = json.loads((out / f"{mode}.json").read_text())
        solution["entries"][-1]["p"] *= 1.1
        tampered = out / "tampered.json"
        tampered.write_text(json.dumps(solution))
        assert run(["verify", config, str(tampered),
                    "--out", str(out), "--quiet"]) == 3
        report = json.loads((out / "verification.json").read_text())
        assert {v["constraint"] for v in report["violations"]} <= {"IC", "IR.budget"}

    def test_dip_between_probes_exit_3(self, tmp_path):
        """The reference profile, stored under a config whose tabulated
        tariff dips at one knot inside band 1, does not certify."""
        config = write_config(tmp_path, PROFILE_CONFIG)
        out = tmp_path / "out"
        assert run(["profile", config, "--out", str(out), "--quiet"]) == 0
        tariff = dip_tariff()
        rows = [[0.0, *tariff.ss]] + [[theta, *values] for theta, values
                                       in zip(tariff.thetas, tariff.values_grid)]
        (tmp_path / "dip.csv").write_text(
            "\n".join(",".join(f"{x:.17g}" for x in row) for row in rows))
        dip = write_config(tmp_path, dict(PROFILE_CONFIG, tariff={
            "family": "tabulated", "csv": "dip.csv"}), "dip.json")
        solution = json.loads((out / "profile.json").read_text())
        solution["scenario_sha256"] = load_config(dip).hash
        stored = out / "dip_profile.json"
        stored.write_text(json.dumps(solution))
        assert run(["verify", dip, str(stored), "--out", str(out), "--quiet"]) == 3
        report = json.loads((out / "verification.json").read_text())
        budget = [v for v in report["violations"] if v["constraint"] == "IR.budget"]
        assert [v["k"] for v in budget] == [1]
        assert budget[0]["witness"]["theta"] == pytest.approx(DIP_THETA, rel=1e-8)
        assert budget[0]["margin"] == pytest.approx(1.0 - 1.21666667, abs=1e-8)

    def test_simulate(self, tmp_path):
        config = write_config(tmp_path, PROFILE_CONFIG)
        out = tmp_path / "out"
        run(["profile", config, "--out", str(out), "--quiet"])
        assert run(["simulate", config, str(out / "profile.json"),
                    "--samples", "250", "--seed", "42",
                    "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "simulation.json").read_text())
        assert report["samples_per_band"] == 250
        assert report["rng_seed"] == 42
        assert all(band["fraction_intended"] == 1.0
                   for band in report["bands"])


class TestCliTradeoffCheck:
    def test_tradeoff_boundary(self, tmp_path):
        config = write_config(tmp_path, TRADEOFF_CONFIG)
        out = tmp_path / "out"
        assert run(["tradeoff", config, "--points", "7",
                    "--out", str(out), "--quiet"]) == 0
        header, rows = read_csv(out / "tradeoff.csv")
        assert header == ["m", "b", "normalized_m", "achievable"]
        assert len(rows) == 7
        for row in rows:
            m, b = float(row[0]), float(row[1])
            assert 36.0 * m * 2.0 + b == pytest.approx(2.0 / 3.0, abs=1e-7)
        summary = json.loads((out / "tradeoff.json").read_text())
        assert summary["b0"] == pytest.approx(2.0 / 3.0)

    def test_tradeoff_with_empirical_grid(self, tmp_path):
        payload = dict(TRADEOFF_CONFIG)
        payload["empirical"] = {
            "b_grid": [0.05, 0.2],
            "m_grid": [0.002, 0.01],
            "scenario": {
                "qualities": [1.0, 2.0, 3.0],
                "tariff": {"family": "bilinear", "d_p": 4.0},
                "cost": {"family": "linear", "slope": 1.0},
                "box": {"theta_low": 1.0 / 3.0, "theta_up": 1.0,
                        "s_low": 1.0, "s_up": 3.0},
                "grid_n": 64,
            },
        }
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run(["tradeoff", config, "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "tradeoff.json").read_text())
        assert summary["empirical"]["achievable"][0][0] is True

    def test_check_names_failing_condition(self, tmp_path):
        unit_scales = edited(MENU_CONFIG, {f"budgets.{i}.base.scale": 1.0
                                           for i in range(3)})
        equal_budgets = dict(MENU_CONFIG, budgets=[MENU_CONFIG["budgets"][0]] * 2)
        for payload, condition in ((unit_scales, "a3"),
                                   (equal_budgets, "a2.single_crossing_1_2")):
            config = write_config(tmp_path, payload)
            out = tmp_path / condition
            assert run(["check", config, "--out", str(out), "--quiet"]) == 3
            report = json.loads((out / "check.json").read_text())
            failing = [c["id"] for c in report["checks"] if not c["passed"]]
            assert any(cid.startswith(condition) for cid in failing), failing

    def test_check_zero_width_demand_range_not_achievable(self, tmp_path):
        payload = json.loads(json.dumps(PROFILE_CONFIG))
        payload["box"]["theta_up"] = payload["box"]["theta_low"]
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run(["check", config, "--out", str(out), "--quiet"]) == 3
        report = json.loads((out / "check.json").read_text())
        failing = [c["id"] for c in report["checks"] if not c["passed"]]
        assert failing == ["demand_range"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("quiet", [True, False])
    @pytest.mark.parametrize("base, changes", [
        (MENU_CONFIG, {"cost.slope": 1e308}),
        (PROFILE_CONFIG, {"margins.m.2": 1e308}),
        (PROFILE_CONFIG, {"tariff.d_p": 1e308}),
    ], ids=["menu_cost_slope", "profile_margin", "profile_d_p"])
    def test_check_overflowed_margin_is_null(self, tmp_path, capsys, base,
                                             changes, quiet):
        config = write_config(tmp_path, edited(base, changes))
        out = tmp_path / "out"
        code = run(["check", config, "--out", str(out)] + ["--quiet"] * quiet)
        report = json.loads((out / "check.json").read_text())
        assert code == (0 if report["passed"] else 3)
        assert any(c["margin"] is None for c in report["checks"])
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("changes", [{"types": 10 ** 200},
                                         {"delta_theta": 1e308}],
                             ids=["types", "delta_theta"])
    def test_tradeoff_overflowing_boundary_exit_2(self, tmp_path, capsys,
                                                   changes):
        config = write_config(tmp_path, edited(TRADEOFF_CONFIG, changes))
        out = tmp_path / "out"
        assert run(["tradeoff", config, "--out", str(out), "--quiet"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ScenarioError"
        assert "not finite" in error["message"]
        assert not (out / "tradeoff.json").exists()

    @pytest.mark.parametrize("changes", [
        {"empirical.m_grid.1": 1e308},
        {"empirical.scenario.box.s_up": 1e308},
    ], ids=["m_grid", "box"])
    def test_tradeoff_overflowing_normalized_margin_exit_2(self, tmp_path,
                                                           capsys, changes):
        payload = dict(TRADEOFF_CONFIG, empirical={
            "b_grid": [0.05], "m_grid": [0.002, 0.01],
            "scenario": {key: PROFILE_CONFIG[key] for key in
                         ("qualities", "tariff", "cost", "box")}})
        config = write_config(tmp_path, edited(payload, changes))
        assert run(["tradeoff", config, "--out", str(tmp_path / "o"),
                    "--quiet"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["message"].startswith("normalized margin")

    def test_check_profile_passes(self, tmp_path):
        config = write_config(tmp_path, PROFILE_CONFIG)
        assert run(["check", config, "--out", str(tmp_path / "o"),
                    "--quiet"]) == 0


COMMANDS = ("menu", "profile", "verify", "simulate", "tradeoff", "check")


def solution_argv(command, tmp_path):
    """The solution argument of ``verify`` and ``simulate``: the profile
    that ``profile --out tmp_path`` writes."""
    return ([str(tmp_path / "profile.json")]
            if command in ("verify", "simulate") else [])


class TestCliPlumbing:
    def test_error_object_on_stderr(self, tmp_path, capsys):
        payload = json.loads(json.dumps(MENU_CONFIG))
        payload["budgets"][0] = {"family": "expp"}
        config = write_config(tmp_path, payload)
        assert run(["menu", config, "--quiet"]) == 2
        err = capsys.readouterr().err
        parsed = json.loads(err)
        assert parsed["error"]["exit_code"] == 2
        assert "expp" in parsed["error"]["message"]

    def test_huge_integer_literal_is_config_error(self, tmp_path, capsys):
        payload = json.loads(json.dumps(PROFILE_CONFIG))
        payload["cost"]["slope"] = 10 ** 400
        config = write_config(tmp_path, payload)
        assert run(["check", config, "--quiet"]) == 2
        parsed = json.loads(capsys.readouterr().err)
        assert parsed["error"]["type"] == "ConfigError"
        assert "cost.slope" in parsed["error"]["message"]

    @pytest.mark.parametrize("command, payload, accepted", [
        ("menu", PROFILE_CONFIG, "menu"),
        ("profile", MENU_CONFIG, "profile"),
        ("verify", TRADEOFF_CONFIG, "menu or profile"),
        ("simulate", MENU_CONFIG, "profile"),
        ("tradeoff", PROFILE_CONFIG, "tradeoff"),
        ("check", TRADEOFF_CONFIG, "menu or profile"),
    ], ids=COMMANDS)
    def test_mode_mismatch(self, tmp_path, capsys, command, payload, accepted):
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run([command, config, *solution_argv(command, tmp_path),
                    "--out", str(out), "--quiet"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ConfigError"
        assert error["message"] == (f"'{command}' needs a {accepted} config, "
                                    f"got mode '{payload['mode']}'")
        assert not out.exists()  # the mode is checked before --out is made

    @pytest.mark.parametrize("command, payload, work", [
        ("menu", MENU_CONFIG, "solve_menu"),
        ("profile", PROFILE_CONFIG, "build_profile"),
        ("verify", PROFILE_CONFIG, "verify_profile"),
        ("simulate", PROFILE_CONFIG, "simulate_market"),
        ("tradeoff", TRADEOFF_CONFIG, "homogeneous_region"),
        ("check", MENU_CONFIG, "check_menu_regularity"),
    ], ids=COMMANDS)
    def test_unusable_out_fails_before_the_work(self, tmp_path, capsys,
                                                monkeypatch, command,
                                                payload, work):
        config = write_config(tmp_path, payload)
        solution = solution_argv(command, tmp_path)
        if solution:  # a real solution, so that only --out can stop the work
            assert run(["profile", config, "--out", str(tmp_path),
                        "--quiet"]) == 0

        def never(*args, **kwargs):
            raise AssertionError(f"{work} ran before --out was claimed")

        monkeypatch.setattr(f"contractpricing.cli.{work}", never)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert run([command, config, *solution, "--out", str(blocker),
                    "--quiet"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ConfigError"
        assert str(blocker) in error["message"]

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, MENU_CONFIG)
        target = tmp_path / "from_env"
        monkeypatch.setenv("CONTRACTPRICING_OUT", str(target))
        monkeypatch.chdir(tmp_path)
        assert run(["menu", config, "--quiet"]) == 0
        assert (target / "menu.json").exists()

    def test_missing_subcommand_is_parse_error(self):
        assert run([]) == 2

    @pytest.mark.parametrize("launcher", ["module", "script"])
    def test_module_entry_point(self, tmp_path, launcher):
        """Every command on the demos, one child each, exits 0, and
        ``simulate`` writes the pinned ``simulation.json`` bytes."""
        menu = str(DEMOS / "menu_log_budget.json")
        profile = str(DEMOS / "profile_bilinear.json")
        solved = str(tmp_path / "profile.json")
        for argv in (["menu", menu], ["verify", menu, str(tmp_path / "menu.json")],
                     ["profile", profile], ["verify", profile, solved],
                     ["simulate", profile, solved],
                     ["tradeoff", str(DEMOS / "tradeoff_homogeneous.json")],
                     ["check", menu], ["check", profile]):
            result = run_cli([*argv, "--out", str(tmp_path), "--quiet"], launcher)
            assert (result.returncode, result.stderr) == (0, ""), argv
        pinned = json.loads((BENCH / "cli_digests.json").read_text())
        assert hashlib.sha256((tmp_path / "simulation.json").read_bytes()).hexdigest() \
            == pinned["simulate_bilinear"]["simulation.json"]


#: a cold child's program: the commands ``sys.argv[1]`` (a JSON list of
#: argv) run in turn through ``cli.run``; it prints, as JSON, whether
#: ``numpy.ma`` was imported with the package, then per command the exit
#: code, the numpy modules the command imported and whether ``numpy.ma``
#: is imported after it
COLD_CHILD = """
import json, sys
from contractpricing.cli import run
records = ["numpy.ma" in sys.modules]
for argv in json.loads(sys.argv[1]):
    before = set(sys.modules)
    code = run(argv)
    records.append([code, sorted(m for m in set(sys.modules) - before
                                 if m.split(".")[0] == "numpy"),
                    "numpy.ma" in sys.modules])
print(json.dumps(records))
"""


def test_cold_child_imports_numpy_random_for_simulate_only(tmp_path):
    """One cold child runs the six commands on the demos: none imports
    ``numpy.ma``, and only ``simulate`` imports a numpy module that the
    package import did not, ``numpy.random``."""
    menu, profile = str(DEMOS / "menu_log_budget.json"), str(DEMOS / "profile_bilinear.json")
    solved = str(tmp_path / "profile.json")
    commands = [["menu", menu], ["verify", menu, str(tmp_path / "menu.json")],
                ["profile", profile], ["verify", profile, solved],
                ["tradeoff", str(DEMOS / "tradeoff_homogeneous.json")],
                ["check", menu], ["check", profile], ["simulate", profile, solved]]
    argvs = [[*argv, "--out", str(tmp_path), "--quiet"] for argv in commands]
    result = subprocess.run([sys.executable, "-c", COLD_CHILD, json.dumps(argvs)],
                            capture_output=True, text=True, env=child_env())
    assert (result.returncode, result.stderr) == (0, "")
    imported_with_package, *records = json.loads(result.stdout)
    assert not imported_with_package
    for argv, (code, numpy_modules, masked) in zip(commands, records, strict=True):
        assert (code, masked) == (0, False), argv
        if argv[0] == "simulate":
            assert "numpy.random" in numpy_modules
            assert all(m.startswith("numpy.random.") for m in numpy_modules
                       if m != "numpy.random")
        else:
            assert numpy_modules == [], argv


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("0*.py")))
def test_demo_runs_clean(tmp_path, demo):
    """A demo runs to its end with every warning an error, and writes
    nothing to stderr."""
    result = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
                            capture_output=True, text=True, cwd=tmp_path, env=child_env())
    assert (result.returncode, result.stderr) == (0, "")


def test_ci_leaves_cli_checks_to_tests():
    """No CI step runs an inline ``python -c`` program or the CLI, so that
    a new CLI check can only be added as a test, which runs before a push."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert not re.search(r"\bpython3?\b.*\s-c\b", workflow)
    assert "contractpricing" not in workflow


class TestCliStdout:
    """Without ``--quiet``, a command prints its table (a header row, a
    dashed rule and one row per entry), then its status line."""

    CHECK = (["condition", "passed", "margin"], ("check.json", "checks", "id"),
             "all conditions hold")

    #: argv on the demos (a solution is named by the command that wrote
    #: it) -> table header, (artifact, its entry list, each entry's first
    #: cell) and the start of the status line; a command without a table
    #: prints its status line alone
    CASES = {
        "menu": (["menu", "menu_log_budget.json"],
                 ["type", "quality", "price", "net_saving"],
                 ("menu.json", "entries", "type"), "menu certified; artifacts in "),
        "profile": (["profile", "profile_bilinear.json"],
                    ["k", "theta", "price", "window_lo", "window_hi", "delta"],
                    ("profile.json", "entries", "k"),
                    "profile certified; artifacts in "),
        "verify_menu": (["verify", "menu_log_budget.json", "menu.json"],
                        None, None, "solution certified; worst margin "),
        "verify_profile": (["verify", "profile_bilinear.json", "profile.json"],
                           None, None, "solution certified; worst margin "),
        "simulate": (["simulate", "profile_bilinear.json", "profile.json"],
                     ["k", "fraction_intended", "min_saving", "provider_profit",
                      "meets_target"], ("simulation.json", "bands", "k"),
                     "out-of-band: "),
        "tradeoff": (["tradeoff", "tradeoff_homogeneous.json"], None, None, "m0 = "),
        "check_menu": (["check", "menu_log_budget.json"], *CHECK),
        "check_profile": (["check", "profile_bilinear.json"], *CHECK),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_table_then_status(self, tmp_path, capsys, case):
        (command, config, *solution), header, entries, status = self.CASES[case]
        config = str(DEMOS / config)
        for name in solution:
            assert run([name[:-len(".json")], config, "--out", str(tmp_path),
                        "--quiet"]) == 0
        out = tmp_path / "out"
        assert run([command, config, *(str(tmp_path / name) for name in solution),
                    "--out", str(out)]) == 0
        *table, last = capsys.readouterr().out.splitlines()
        assert last.startswith(status)
        if header is None:
            assert table == []
            return
        artifact, key, cell = entries
        items = json.loads((out / artifact).read_text())[key]
        assert table[0].split() == header
        assert set(table[1]) == {"-", " "} and len(table[1]) == len(table[0])
        assert len(table[1].split()) == len(header)
        assert [row.split()[0] for row in table[2:]] == [str(i[cell]) for i in items]


class TestCliBounds:
    """Oversized knobs and a negative seed end in exit 2, not a traceback."""

    HUGE = 10 ** 20

    def solved(self, tmp_path, payload=PROFILE_CONFIG):
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run(["profile", config, "--out", str(out), "--quiet"]) == 0
        return config, str(out / "profile.json"), str(out)

    @pytest.mark.parametrize("command, grid_n", [
        ("check", HUGE), ("profile", HUGE), ("check", 64.5), ("profile", 64.5)],
        ids=["check", "profile", "check-fractional", "profile-fractional"])
    def test_profile_grid_n_bound(self, tmp_path, capsys, command, grid_n):
        payload = dict(PROFILE_CONFIG, grid_n=grid_n)
        config = write_config(tmp_path, payload)
        assert run([command, config, "--out", str(tmp_path / "o"),
                    "--quiet"]) == 2
        assert "grid_n" in json.loads(capsys.readouterr().err)["error"]["message"]

    @pytest.mark.parametrize("command, grid_n", [
        ("check", HUGE), ("menu", HUGE), ("check", 64.5), ("menu", 64.5)],
        ids=["check", "menu", "check-fractional", "menu-fractional"])
    def test_menu_grid_n_bound(self, tmp_path, command, grid_n):
        config = write_config(tmp_path, dict(MENU_CONFIG, grid_n=grid_n))
        assert run([command, config, "--out", str(tmp_path / "o"),
                    "--quiet"]) == 2

    def test_simulate_samples_bound(self, tmp_path):
        config, solution, out = self.solved(tmp_path)
        assert run(["simulate", config, solution, "--samples", str(self.HUGE),
                    "--out", out, "--quiet"]) == 2

    def test_simulate_negative_seed(self, tmp_path, capsys):
        config, solution, out = self.solved(tmp_path)
        assert run(["simulate", config, solution, "--seed", "-1",
                    "--out", out, "--quiet"]) == 2
        assert "rng_seed" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_tradeoff_points_bound(self, tmp_path):
        config = write_config(tmp_path, TRADEOFF_CONFIG)
        assert run(["tradeoff", config, "--points", str(self.HUGE),
                    "--out", str(tmp_path / "o"), "--quiet"]) == 2


def tariff_csv(thetas):
    """Matrix CSV text of the tariff 4 theta s on qualities 1 to 3: the
    quality grid in the first row, the demand grid in the first column."""
    ss = np.linspace(1.0, 3.0, 5)
    lines = [",".join(["0"] + [f"{s:.17g}" for s in ss])]
    lines += [",".join([f"{t:.17g}"] + [f"{4.0 * t * s:.17g}" for s in ss])
              for t in thetas]
    return "\n".join(lines)


class TestCliDomains:
    def test_box_beyond_tabulated_grid_names_box(self, tmp_path, capsys):
        # the tariff is sampled on theta in [0.5, 1], the box starts at 1/3
        (tmp_path / "tariff.csv").write_text(tariff_csv(np.linspace(0.5, 1.0, 6)))
        payload = dict(PROFILE_CONFIG,
                       tariff={"family": "tabulated", "csv": "tariff.csv"})
        config = write_config(tmp_path, payload)
        assert run(["check", config, "--out", str(tmp_path / "o"),
                    "--quiet"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["message"].startswith("box demand range")
        assert "tariff's theta domain" in error["message"]


def nested_cost_config(tmp_path, levels):
    """Menu config text whose cost nests ``levels`` scaled declarations;
    built as text because ``json.dumps`` itself stops near 1000 levels."""
    cost = ('{"family": "scaled", "factor": 1.0, "base": ' * levels
            + '{"family": "linear", "slope": 1.0}' + "}" * levels)
    text = json.dumps(dict(MENU_CONFIG, cost="COST")).replace('"COST"', cost)
    path = tmp_path / "nested.json"
    path.write_text(text)
    return str(path)


class TestCliErrorContract:
    """Every error exit leaves exactly one JSON object on stderr."""

    def error_of(self, result, code):
        assert result.returncode == code
        return json.loads(result.stderr)["error"]

    def test_numpy_warnings_stay_off_stderr(self, tmp_path):
        payload = json.loads((DEMOS / "profile_bilinear.json").read_text())
        config = write_config(tmp_path, edited(payload, {"tariff.d_p": 1e308}))
        error = self.error_of(run_cli(
            ["profile", config, "--out", str(tmp_path / "o"), "--quiet"]), 3)
        assert error["type"] == "NotAchievableError"

    def test_nesting_beyond_limit_names_path(self, tmp_path):
        config = nested_cost_config(tmp_path, 600)
        error = self.error_of(run_cli(
            ["menu", config, "--out", str(tmp_path / "o"), "--quiet"]), 2)
        assert error["type"] == "ConfigError"
        assert error["message"].startswith("cost.base.base")
        assert "nested deeper than 32 levels" in error["message"]

    def test_nesting_beyond_json_decoder_is_config_error(self, tmp_path):
        config = nested_cost_config(tmp_path, 3000)
        error = self.error_of(run_cli(
            ["check", config, "--out", str(tmp_path / "o"), "--quiet"]), 2)
        assert error["type"] == "ConfigError"
        assert error["message"].startswith("malformed JSON")

    def test_nesting_at_limit_loads(self, tmp_path):
        # the cost object sits at depth 1, so 31 scaled levels reach 32
        config = load_config(nested_cost_config(tmp_path, 31))
        assert config.menu.cost.value(2.0) == 2.0
        with pytest.raises(ConfigError, match="nested deeper"):
            load_config(nested_cost_config(tmp_path, 32))

    @pytest.mark.parametrize("content, message", [
        (None, "solution file not found"),
        ("{not json", "malformed solution JSON"),
        ('{"entries": []}', "lacks a mode field"),
        ('{"mode": "menu", "entries": []}', "does not match config mode"),
    ], ids=["missing", "malformed", "no_mode", "wrong_mode"])
    def test_bad_solution_file(self, tmp_path, capsys, content, message):
        config = write_config(tmp_path, PROFILE_CONFIG)
        solution = tmp_path / "solution.json"
        if content is not None:
            solution.write_text(content)
        assert run(["verify", config, str(solution), "--out",
                    str(tmp_path / "o"), "--quiet"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ConfigError"
        assert message in error["message"]

    @staticmethod
    def tabulated_menu(tmp_path, xs, **extra):
        """Menu config whose three budgets are tables on the knots ``xs``."""
        payload = edited(MENU_CONFIG, extra)
        for i in range(3):
            csv = tmp_path / f"budget{i}.csv"
            csv.write_text("\n".join(f"{x},{2.2 * (i + 1) * np.log1p(x)}"
                                     for x in xs))
            payload["budgets"][i] = {"family": "tabulated", "csv": csv.name}
        return write_config(tmp_path, payload)

    def test_menu_domains_checked_at_load_by_every_command(self, tmp_path):
        # the tables end at 200, the default search window at 1e6
        config = self.tabulated_menu(tmp_path, np.linspace(0.0, 200.0, 401))
        errors = [self.error_of(run_cli(
            [command, config, "--out", str(tmp_path / command), "--quiet"]), 2)
            for command in ("check", "menu")]
        assert errors[0] == errors[1]
        assert errors[0]["type"] == "ScenarioError"
        assert errors[0]["message"] == ("budgets[0] domain [0, 200] does not "
                                        "cover the search window [0, 1e+06]")
        covered = self.tabulated_menu(tmp_path, np.linspace(0.0, 200.0, 401),
                                      s_search_max=200.0)
        assert run(["menu", covered, "--out", str(tmp_path / "ok"),
                    "--quiet"]) == 0

    def test_function_undefined_at_origin_rejected_at_load(self, tmp_path):
        config = self.tabulated_menu(tmp_path, np.linspace(0.5, 200.0, 400),
                                     s_search_max=200.0)
        with pytest.raises(ConfigError, match=r"budgets\[0\] domain \[0\.5, 200\]"):
            load_config(config)

    @pytest.mark.parametrize("command, edit, kind, message", [
        ("verify", lambda d: d.pop("entries"), "ConfigError",
         "solution.entries: missing required field"),
        ("verify", lambda d: d["entries"][0].update(p="x"), "ConfigError",
         "entries[0].p: expected a number"),
        ("verify", lambda d: d["entries"][1].update(p=math.nan), "ConfigError",
         "entries[1].p: must be finite"),
        ("simulate", lambda d: d["entries"][0].update(theta=math.inf),
         "ConfigError", "entries[0].theta: must be finite"),
        # counts are the rule of the verifier or simulator that reads
        # the solution, not of the file reader
        ("verify", lambda d: (d["entries"].pop(), d["deltas"].pop()),
         "ScenarioError",
         "profile.demands has 2 entries but scenario declares 3 qualities"),
        ("simulate", lambda d: d["entries"].pop(), "ScenarioError",
         "profile.demands has 2 entries but scenario declares 3 qualities"),
        ("verify", lambda d: d["entries"][0].update(window=[1.0]),
         "ConfigError", "entries[0].window: expected two numbers"),
        ("simulate", lambda d: d.update(deltas=[0.1]), "ScenarioError",
         "profile.step_sizes has 1 entries but scenario declares 3 qualities"),
        ("verify", lambda d: d["deltas"].pop(), "ScenarioError",
         "profile.step_sizes has 2 entries but scenario declares 3 qualities"),
    ], ids=["no_entries", "string_price", "nan_price", "infinite_theta",
            "missing_entry", "simulate_missing_entry", "short_window",
            "short_deltas", "verify_short_deltas"])
    def test_malformed_solution_body_names_field(self, tmp_path, command,
                                                 edit, kind, message):
        config = write_config(tmp_path, PROFILE_CONFIG)
        assert run(["profile", config, "--out", str(tmp_path / "s"),
                    "--quiet"]) == 0
        stored = json.loads((tmp_path / "s" / "profile.json").read_text())
        edit(stored)
        solution = tmp_path / "solution.json"
        solution.write_text(json.dumps(stored))
        error = self.error_of(run_cli(
            [command, config, str(solution), "--out", str(tmp_path / "o"),
             "--quiet"]), 2)
        assert error["type"] == kind
        assert message in error["message"]

    @pytest.mark.parametrize("command, extra", [
        ("check", ["--bogus"]),
        ("simulate", ["--samples", "abc"]),
        ("verify", ["--format", "csv"]),
    ], ids=["unknown_option", "non_integer_samples", "format_on_verify"])
    def test_usage_error_is_json(self, tmp_path, command, extra):
        config = write_config(tmp_path, PROFILE_CONFIG)
        solution = [] if command == "check" else [str(tmp_path / "profile.json")]
        error = self.error_of(run_cli([command, config, *solution, *extra]), 2)
        assert error["type"] == "ConfigError"
        assert extra[0] in error["message"]

    @pytest.mark.parametrize("command", ["menu", "profile", "verify",
                                         "simulate", "tradeoff", "check"])
    def test_format_only_where_it_selects_artifacts(self, capsys, command):
        assert run([command, "--help"]) == 0
        usage, err = capsys.readouterr()
        assert err == ""
        assert "--out" in usage and "--quiet" in usage
        assert ("--format" in usage) == (command in ("menu", "profile", "tradeoff"))

    @pytest.mark.parametrize("via", ["--out", "CONTRACTPRICING_OUT"])
    def test_out_names_existing_file(self, tmp_path, via):
        config = write_config(tmp_path, MENU_CONFIG)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        if via == "--out":
            result = run_cli(["check", config, "--out", str(blocker), "--quiet"])
        else:
            result = run_cli(["check", config, "--quiet"],
                             CONTRACTPRICING_OUT=str(blocker))
        error = self.error_of(result, 2)
        assert error["type"] == "ConfigError"
        assert str(blocker) in error["message"]

    def test_artifact_onto_directory(self, tmp_path, capsys):
        config = write_config(tmp_path, MENU_CONFIG)
        target = tmp_path / "o" / "menu.json"
        target.mkdir(parents=True)
        assert run(["menu", config, "--out", str(tmp_path / "o"),
                    "--quiet"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ConfigError"
        assert error["message"].startswith(f"cannot use {target}: ")

    def test_unreadable_config(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path, MENU_CONFIG)

        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(Path, "read_text", denied)
        assert run(["check", config, "--out", str(tmp_path / "o"),
                    "--quiet"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["message"] == f"cannot use {config}: Permission denied"

    def test_config_not_utf8(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(json.dumps(MENU_CONFIG).encode() + b"\xff")
        error = self.error_of(run_cli(
            ["check", str(config), "--out", str(tmp_path / "o"), "--quiet"]), 2)
        assert error["type"] == "ConfigError"
        assert str(config) in error["message"]

    def test_solution_not_utf8(self, tmp_path):
        config = write_config(tmp_path, PROFILE_CONFIG)
        solution = tmp_path / "profile.json"
        solution.write_bytes(b'{"mode": "profile\xff"}')
        error = self.error_of(run_cli(
            ["verify", config, str(solution), "--out", str(tmp_path / "o"),
             "--quiet"]), 2)
        assert error["type"] == "ConfigError"
        assert str(solution) in error["message"]

    def test_tariff_csv_not_utf8(self, tmp_path):
        csv = tmp_path / "tariff.csv"
        csv.write_bytes(tariff_csv(np.linspace(0.3, 1.0, 6)).encode()
                        + b"\n0.9,\xff,1,1,1,1\n")
        config = write_config(tmp_path, dict(
            PROFILE_CONFIG, tariff={"family": "tabulated", "csv": "tariff.csv"}))
        error = self.error_of(run_cli(
            ["check", config, "--out", str(tmp_path / "o"), "--quiet"]), 2)
        assert error["type"] == "ConfigError"
        assert error["message"].startswith("tariff.csv: cannot parse")
        assert str(csv) in error["message"]

    def test_overflowed_saving_written_as_null(self, tmp_path, capsys):
        config = write_config(tmp_path, PROFILE_CONFIG)
        assert run(["profile", config, "--out", str(tmp_path / "s"),
                    "--quiet"]) == 0
        stored = json.loads((tmp_path / "s" / "profile.json").read_text())
        stored["entries"][0]["p"] = 1e308
        solution = tmp_path / "solution.json"
        solution.write_text(json.dumps(stored))
        out = tmp_path / "o"
        assert run(["simulate", config, str(solution), "--out", str(out),
                    "--samples", "200", "--quiet"]) == 0
        band = json.loads((out / "simulation.json").read_text())["bands"][0]
        assert band["mean_saving"] is None
        assert capsys.readouterr().err == ""

    def test_check_on_tradeoff_config(self, tmp_path, capsys):
        config = write_config(tmp_path, TRADEOFF_CONFIG)
        assert run(["check", config, "--out", str(tmp_path / "o"),
                    "--quiet"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert "'check' needs a menu or profile config" in error["message"]

    def test_tabulated_negative_coordinate(self, tmp_path, capsys):
        (tmp_path / "budget.csv").write_text("-1.0,0.0\n0.0,1.0\n5.0,3.0\n")
        payload = json.loads(json.dumps(MENU_CONFIG))
        payload["budgets"][0] = {"family": "tabulated", "csv": "budget.csv"}
        config = write_config(tmp_path, payload)
        assert run(["check", config, "--out", str(tmp_path / "o"),
                    "--quiet"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ScenarioError"
        assert error["message"].startswith(
            "budgets[0].csv: invalid function domain")

    def test_output_block_is_unknown_key(self, tmp_path):
        payload = dict(MENU_CONFIG, output={"dir": "out"})
        with pytest.raises(ConfigError, match="unknown key.*output"):
            load_config(write_config(tmp_path, payload))
