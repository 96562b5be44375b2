"""Command-line surface tests driven through cli.main with temp files."""

import hashlib
import json
import logging
import os
import sys
from pathlib import Path

import pytest

from posp import cli, crypto, econ, protocol, sim

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data, sort_keys=True, indent=2))
    return str(path)


@pytest.fixture
def baseline_params(tmp_path):
    return write_json(tmp_path / "params.json",
                      {"C": 1, "S": 150, "R": 1.2, "r": 0.1, "R_C": 100, "p": 0.01})


NETWORK = {"executors": 8, "fault_bound": 1, "challenge_probability": 0.5}


@pytest.fixture
def small_scenario(tmp_path):
    return write_json(tmp_path / "scenario.json", {
        "network": NETWORK,
        "master_seed": "17" * 32,
        "requests": 40,
        "byzantine_fraction": 0.25,
        "sweep_trials": 4000,
    })


@pytest.fixture
def silent_scenario(tmp_path):
    # no executor ever answers, so neither an asserter nor a validator is found
    return write_json(tmp_path / "silent.json", {
        "network": {"executors": 4, "fault_bound": 1, "challenge_probability": 1.0},
        "master_seed": "17" * 32,
        "requests": 1,
        "executor_overrides": {str(i): "unresponsive" for i in range(4)},
        "sweep_trials": 1,
    })


@pytest.fixture
def estimator_calls(monkeypatch):
    """The rows of each call to the estimator made after the fixture."""
    calls = []
    estimate = sim.estimate_strategy_payoff

    def counted(rows, strategies, trials):
        calls.append(list(rows))
        return estimate(rows, strategies, trials)
    monkeypatch.setattr(sim, "estimate_strategy_payoff", counted)
    return calls


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_baseline_params(self, baseline_params, capsys):
        code, out, _ = run_cli(["analyze", "--params", baseline_params], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["min_challenge_probability"] == pytest.approx(1 / 135.96, rel=1e-6)
        assert report["fraud_proof_undetected_fraud_probability"] == pytest.approx(
            150.2 / (151.2 * 101), rel=1e-6)
        assert report["stake_assumptions"]["holds"] is True
        assert report["equilibrium_holds"] is True
        assert report["validator_payoff_matrix"]["incorrect_vs_correct"][0] == -150.0

    def test_p_below_threshold_fails_equilibrium(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json",
                          {"C": 1, "S": 150, "R": 1.2, "r": 0.1, "p": 0.003})
        code, out, _ = run_cli(["analyze", "--params", path], capsys)
        assert code == 1
        assert json.loads(out)["equilibrium_holds"] is False

    def test_no_p_uses_feasibility(self, tmp_path, capsys):
        path = write_json(tmp_path / "f.json", {"C": 1, "S": 150, "R": 1.2, "r": 0.1})
        code, out, _ = run_cli(["analyze", "--params", path], capsys)
        assert code == 0 and json.loads(out)["equilibrium_holds"] is True

    def test_infeasible_reported(self, tmp_path, capsys):
        path = write_json(tmp_path / "i.json", {"C": 1, "S": 1, "R": 1, "r": 0.9})
        code, out, _ = run_cli(["analyze", "--params", path], capsys)
        assert code == 1
        assert json.loads(out)["min_challenge_probability"] == "infeasible"

    def test_single_validator_bound_null_when_not_applicable(self, tmp_path, capsys):
        # n = 1, but U2 != 2 R_A: a full record the shorthand bound does not cover
        path = write_json(tmp_path / "n1.json",
                          {"B": 30, "R_A": 12, "R_V": 10, "S": 1500, "C": 10,
                           "p": 0.01, "r": 0.1, "n": 1, "U1": 12, "U2": 24})
        _code, out, _ = run_cli(["analyze", "--params", path], capsys)
        report = json.loads(out)
        assert report["min_challenge_probability"] == pytest.approx(0.00736, abs=5e-6)
        assert report["single_validator_min_p"] is None

    @pytest.mark.parametrize("data", [
        {"C": 40, "S": 10, "R": 5, "r": 0.5},
        # shorthand-shaped, but a shorthand record rebuilt from it overflows B = 3R
        {"B": 1.7e308, "R_A": 8e307, "R_V": 8e307, "U1": 8e307, "U2": 1.6e308,
         "S": 10, "C": 1, "p": 0.1, "r": 0.1},
    ], ids=["infeasible", "huge-R"])
    def test_single_validator_bound_is_the_min_p(self, tmp_path, capsys, data):
        path = write_json(tmp_path / "s.json", data)
        code, out, err = run_cli(["analyze", "--params", path], capsys)
        assert code in (0, 1) and err == ""
        report = json.loads(out)
        assert report["single_validator_min_p"] == report["min_challenge_probability"]

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(["analyze", "--params", str(bad)], capsys)
        assert code == 2 and "invalid params file" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, _ = run_cli(["analyze", "--params", str(tmp_path / "nope.json")], capsys)
        assert code == 2

    RECORDS = {
        "full": {"B": 30, "R_A": 12, "R_V": 10, "S": 1500, "C": 10, "p": 0.01, "r": 0.1,
                 "n": 1, "U1": 12, "U2": 24, "R_C": 100},
        "shorthand": {"C": 1, "S": 150, "R": 1.2, "r": 0.1, "p": 0.01, "R_C": 100, "B": 4},
    }

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400,
                                       True, False],
                             ids=["NaN", "Infinity", "-Infinity", "huge-int", "true", "false"])
    @pytest.mark.parametrize("record,field", [
        (record, field) for record, data in RECORDS.items() for field in data if field != "n"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, record, field, value):
        # json.dumps writes the NaN, Infinity and -Infinity literals json.load
        # reads, and an int too large for a float in full; a bool is not a number
        path = write_json(tmp_path / "params.json", {**self.RECORDS[record], field: value})
        assert run_cli(["analyze", "--params", path], capsys)[:2] == (2, "")

    @pytest.mark.parametrize("record,key,n", [
        ("full", "n", 1.5), ("full", "n", True), ("full", "n", "1"),
        # only the full record takes an n, and a key that names no field is refused
        ("shorthand", "n", 3), ("full", "N", 1),
    ], ids=["1.5", "True", "1", "shorthand-n", "misspelled-n"])
    def test_non_integer_n_exits_2(self, tmp_path, capsys, record, key, n):
        data = {k: v for k, v in self.RECORDS[record].items() if k != "n"}
        path = write_json(tmp_path / "params.json", {**data, key: n})
        code, out, err = run_cli(["analyze", "--params", path], capsys)
        assert (code, out) == (2, "")
        assert "invalid params file" in err and "Traceback" not in err

    @pytest.mark.parametrize("n", [2**1024, 10**400], ids=["2**1024", "400-digits"])
    @pytest.mark.parametrize("r", [0.1, 0.0])
    def test_n_too_large_for_a_float_exits_2(self, tmp_path, capsys, n, r):
        path = write_json(tmp_path / "params.json", {**self.RECORDS["full"], "n": n, "r": r})
        assert run_cli(["analyze", "--params", path], capsys)[:2] == (2, "")

    def test_largest_n_a_float_holds_runs(self, tmp_path, capsys):
        path = write_json(tmp_path / "params.json",
                          {**self.RECORDS["full"], "n": int(sys.float_info.max)})
        assert run_cli(["analyze", "--params", path], capsys)[0] == 0

    @pytest.mark.parametrize("record", list(RECORDS))
    def test_base_records_run(self, tmp_path, capsys, record):
        path = write_json(tmp_path / "params.json", self.RECORDS[record])
        assert run_cli(["analyze", "--params", path], capsys)[0] == 0


class TestSimulate:
    def test_writes_report_and_ledger(self, small_scenario, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            ["simulate", "--scenario", small_scenario, "--out", str(out_dir)], capsys)
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        ledger = json.loads((out_dir / "ledger.json").read_text())
        assert report["requests"] == 40
        assert out.strip() == report["trace_hash"]
        assert "burn" in ledger and "user" in ledger

    def test_byte_identical_reruns(self, small_scenario, tmp_path, capsys):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert run_cli(["simulate", "--scenario", small_scenario,
                            "--out", str(d)], capsys)[0] == 0
        assert (dirs[0] / "report.json").read_bytes() == (dirs[1] / "report.json").read_bytes()
        assert (dirs[0] / "ledger.json").read_bytes() == (dirs[1] / "ledger.json").read_bytes()

    def test_invalid_scenario(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", {"network": {}, "master_seed": "00",
                                                "requests": 1})
        code, _, err = run_cli(["simulate", "--scenario", path,
                                "--out", str(tmp_path / "o")], capsys)
        assert code == 2 and "invalid scenario" in err

    @pytest.mark.parametrize("change", [
        {"model_dims": [4, 20000, 2]},
        {"model_dims": [4, 1e8, 2]},
        {"model_dims": [4, 0, 2]},
        {"model_dims": [4]},
        {"requests": 100_001},
        {"requests": 1.5},
        {"network": {"executors": 4097, "fault_bound": 1, "challenge_probability": 0.5}},
        {"network": {"executors": 8, "fault_bound": 65, "challenge_probability": 0.5}},
        {"arrival_spacing": 1.5},
        {"arrival_spacing": 10**18},
        {"network": {**NETWORK, "t_assert": 2.5}},
        {"network": {**NETWORK, "t_validate": 2.5}},
        {"network": {**NETWORK, "t_assert": 10**20}},
        {"network": {**NETWORK, "timeout_penalty": 1.5}},
        {"network": {**NETWORK, "payment_b": 10**40}},
        {"network": {**NETWORK, "compute_cost": "x"}},
        {"network": {**NETWORK, "compute_cost": float("inf")}},
    ], ids=["model-too-large", "float-dim", "zero-dim", "one-layer", "too-many-requests",
            "float-requests", "too-many-executors", "fault-bound-too-large",
            "float-arrival-spacing", "arrival-spacing-too-large", "float-t-assert",
            "float-t-validate", "t-assert-too-large", "float-timeout-penalty",
            "payment-too-large", "str-compute-cost", "infinite-compute-cost"])
    def test_input_out_of_bounds(self, small_scenario, tmp_path, capsys, change):
        path = write_json(tmp_path / "s.json",
                          {**json.loads(Path(small_scenario).read_text()), **change})
        code, _, err = run_cli(["simulate", "--scenario", path,
                                "--out", str(tmp_path / "o")], capsys)
        assert code == 2 and "invalid scenario" in err

    def test_protocol_error_exits_3(self, silent_scenario, tmp_path, capsys):
        code, _, err = run_cli(["simulate", "--scenario", silent_scenario,
                                "--out", str(tmp_path / "o")], capsys)
        assert code == 3 and "no responsive asserter" in err

    def test_scenario_at_the_caps_runs(self, tmp_path, capsys):
        # the longest waits a scenario may ask for, with timeouts on both roles
        path = write_json(tmp_path / "caps.json", {
            "network": {"executors": 4, "fault_bound": 0, "challenge_probability": 1.0,
                        "t_assert": protocol.MAX_TIMEOUT_EPOCHS,
                        "t_validate": protocol.MAX_TIMEOUT_EPOCHS,
                        "payment_b": protocol.MAX_AMOUNT, "reward_r": 1,
                        "slash_s": protocol.MAX_AMOUNT,
                        "timeout_penalty": protocol.MAX_AMOUNT},
            "master_seed": "17" * 32,
            "requests": 3,
            "arrival_spacing": sim.MAX_ARRIVAL_SPACING,
            "executor_overrides": {"1": "unresponsive", "2": "always-fraud"},
        })
        out_dir = tmp_path / "o"
        code, _, _ = run_cli(["simulate", "--scenario", path, "--out", str(out_dir)], capsys)
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["timeouts"] > 0 and report["arbitrations"] > 0

    def test_out_is_a_file_exits_2_before_the_run(self, small_scenario, tmp_path,
                                                  monkeypatch, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")

        def no_run(config):
            raise AssertionError("ran before checking the output directory")
        monkeypatch.setattr(sim, "run", no_run)
        code, _, err = run_cli(["simulate", "--scenario", small_scenario,
                                "--out", str(taken)], capsys)
        assert code == 2 and "cannot write output" in err


class TestSweep:
    def make_scenario(self, tmp_path):
        # scaled single-validator parameters with colluding Byzantine nodes
        return write_json(tmp_path / "sweep.json", {
            "network": {"executors": 50, "fault_bound": 1,
                        "challenge_probability": 0.01, "payment_b": 30,
                        "reward_r": 12, "slash_s": 1500, "compute_cost": 10.0},
            "master_seed": "28" * 32,
            "requests": 0,
            "byzantine_fraction": 0.1,
            "byzantine_strategy": {"kind": "collude", "group": 0},
            "focal_executor": 0,
            "sweep_trials": 20000,
        })

    def test_p_sweep_sign_flip_near_threshold(self, tmp_path, capsys):
        scenario = self.make_scenario(tmp_path)
        p_star = econ.single_validator_min_p(10.0, 1500.0, 12.0, 0.1)
        steps = 7
        code, out, _ = run_cli(
            ["sweep", "--scenario", scenario, "--axis", "p",
             "--from", str(0.5 * p_star), "--to", str(2.0 * p_star),
             "--steps", str(steps)], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == steps
        # analytic margin crosses zero exactly once, at p_star
        margins = [row["dominance_margin"] for row in rows]
        sign_changes = sum(1 for a, b in zip(margins, margins[1:]) if (a > 0) != (b > 0))
        assert sign_changes == 1
        # the empirical fraud advantage flips within one grid step of p_star
        advantages = [row["fraud_advantage"] for row in rows]
        assert advantages[0] > 0 and advantages[-1] < 0
        flip_values = [rows[i + 1]["value"]
                       for i, (a, b) in enumerate(zip(advantages, advantages[1:]))
                       if (a > 0) != (b > 0)]
        step = rows[1]["value"] - rows[0]["value"]
        assert any(abs(v - p_star) <= step for v in flip_values)

    # PRF evaluations, counted as when each was one hmac.digest call: each
    # Monte Carlo draw is one evaluation, through ``crypto.prf`` or a
    # ``crypto.keyed_prf`` function, so a faster PRF must come from cheaper
    # evaluations, not from fewer.  No validator of this scenario reads the
    # request, so no row redraws a trial: 62,949 - 3 * 831 = 60,456, where
    # the four rows' 831 challenges cost 3 PRFs each to redraw.
    PRF_CALLS = 60456

    def test_prf_calls_per_sweep(self, tmp_path, monkeypatch, capsys):
        calls = []

        def counted(prf):
            def evaluate(*args):
                calls.append(None)
                return prf(*args)
            return evaluate
        # sim binds prf by name; crypto's own callers look it up in crypto
        prf = counted(crypto.prf)
        monkeypatch.setattr(crypto, "prf", prf)
        monkeypatch.setattr(sim, "prf", prf)
        keyed_prf = crypto.keyed_prf
        monkeypatch.setattr(crypto, "keyed_prf", lambda seed: counted(keyed_prf(seed)))
        # one CPU: a forked worker's calls would never reach this counter
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        code, _, _ = run_cli(
            ["sweep", "--scenario", self.make_scenario(tmp_path), "--axis", "p",
             "--from", "0.005", "--to", "0.02", "--steps", "4"], capsys)
        assert code == 0 and len(calls) == self.PRF_CALLS

    def test_empty_range(self, small_scenario, capsys):
        code, out, _ = run_cli(
            ["sweep", "--scenario", small_scenario, "--axis", "p",
             "--from", "0.0", "--to", "1.0", "--steps", "0"], capsys)
        assert code == 0 and json.loads(out)["rows"] == []

    def test_r_sweep_reports_infeasible_region(self, tmp_path, capsys):
        scenario = self.make_scenario(tmp_path)
        code, out, _ = run_cli(
            ["sweep", "--scenario", scenario, "--axis", "r",
             "--from", "0.0", "--to", "0.45", "--steps", "4"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["value"] for row in rows] == [0.0, 0.15, 0.3, 0.45]
        assert all(isinstance(row["min_challenge_probability"], (float, str))
                   for row in rows)

    def test_rows_use_effective_r(self, tmp_path, capsys):
        # no Byzantine fraction: the two overrides alone make r = 2/8
        path = write_json(tmp_path / "overrides.json", {
            "network": {"executors": 8, "fault_bound": 1, "challenge_probability": 0.1},
            "master_seed": "17" * 32,
            "requests": 0,
            "executor_overrides": {"3": "always-fraud", "5": "always-fraud"},
            "sweep_trials": 10,
        })
        code, out, _ = run_cli(["sweep", "--scenario", path, "--axis", "p",
                                "--from", "0.1", "--to", "0.1", "--steps", "1"], capsys)
        assert code == 0
        [row] = json.loads(out)["rows"]
        assert row["r"] == 0.25
        params = econ.EconomicParams.single_validator(C=10.0, S=1500, R=12, r=0.25,
                                                      p=0.1, B=30)
        assert row["dominance_margin"] == econ.dominance_margin(params)

    def test_one_estimator_call_per_sweep(self, small_scenario, estimator_calls, capsys):
        code, out, _ = run_cli(["sweep", "--scenario", small_scenario, "--axis", "p",
                                "--from", "0.1", "--to", "0.5", "--steps", "3"], capsys)
        assert code == 0
        config = cli._load_scenario(small_scenario)
        rows = json.loads(out)["rows"]
        assert estimator_calls == [[cli._apply_axis(config, "p", row["value"]) for row in rows]]
        [[honest, fraud]] = sim.estimate_strategy_payoff(
            estimator_calls[0][-1:], (sim.HONEST, sim.ALWAYS_FRAUD), config.sweep_trials)
        assert (rows[-1]["honest_mean"], rows[-1]["fraud_mean"]) == (honest.mean, fraud.mean)

    def test_row_over_budget_exits_2_before_any_estimate(self, tmp_path, estimator_calls,
                                                         capsys):
        # floor(r * 8) covers the one adversarial override at r 0.4 and 0.2,
        # not at 0.0
        path = write_json(tmp_path / "overrides.json", {
            "network": NETWORK, "master_seed": "17" * 32, "requests": 0,
            "byzantine_fraction": 0.25, "executor_overrides": {"3": "always-fraud"},
            "sweep_trials": 10})
        code, out, err = run_cli(["sweep", "--scenario", path, "--axis", "r",
                                  "--from", "0.4", "--to", "0.0", "--steps", "3"], capsys)
        assert (code, out) == (2, "") and "exceed the budget" in err
        assert estimator_calls == []

    @pytest.mark.parametrize("penalty,code", [(None, 0), (150, 2)], ids=["derived", "explicit"])
    def test_s_sweep_below_the_scenario_penalty(self, tmp_path, capsys, penalty, code):
        # S 1500 gives a derived penalty of 150; rows at S 100 and 200 derive
        # 10 and 20, while a penalty the file sets must fit every row's S
        network = {"executors": 8, "fault_bound": 1, "challenge_probability": 0.1,
                   "slash_s": 1500, "timeout_penalty": penalty}
        path = write_json(tmp_path / "s.json", {
            "network": network, "master_seed": "17" * 32, "requests": 0,
            "sweep_trials": 10})
        result, out, err = run_cli(["sweep", "--scenario", path, "--axis", "S",
                                    "--from", "100", "--to", "200", "--steps", "2"], capsys)
        assert result == code
        if code == 0:
            assert [row["value"] for row in json.loads(out)["rows"]] == [100.0, 200.0]
            row_config = cli._apply_axis(cli._load_scenario(path), "S", 100)
            assert row_config.network.timeout_penalty == 10
        else:
            assert "timeout_penalty must be" in err and out == ""

    @pytest.mark.parametrize("bounds", [
        ("inf", "inf", "1"),
        ("0.1", "nan", "3"),
        ("1e300", "1e308", "3"),
        ("0.1", "0.2", str(cli.MAX_SWEEP_STEPS + 1)),
        ("0.1", "0.2", "-1"),
    ], ids=["infinite", "nan", "overflowing-span", "too-many-steps", "negative-steps"])
    def test_bad_axis_exits_2(self, small_scenario, capsys, bounds):
        start, stop, steps = bounds
        code, out, err = run_cli(["sweep", "--scenario", small_scenario, "--axis", "S",
                                  f"--from={start}", f"--to={stop}", f"--steps={steps}"],
                                 capsys)
        assert code == 2 and "invalid sweep" in err and out == ""

    def test_protocol_error_exits_3(self, silent_scenario, capsys):
        # the focal asserter answers, but no validator does
        code, _, err = run_cli(
            ["sweep", "--scenario", silent_scenario, "--axis", "p",
             "--from", "1.0", "--to", "1.0", "--steps", "1"], capsys)
        assert code == 3 and "no responsive validator" in err


COMMANDS = {
    "simulate": lambda path, tmp_path: ["simulate", "--scenario", path,
                                        "--out", str(tmp_path / "o")],
    "replay": lambda path, tmp_path: ["replay", "--scenario", path, "--hash", "00" * 32],
    "sweep": lambda path, tmp_path: ["sweep", "--scenario", path, "--axis", "p",
                                     "--from", "0.1", "--to", "0.1", "--steps", "1"],
}


class TestScenarioValidation:
    """Inputs every load path rejects: each command exits 2 before it runs
    anything, never with a traceback."""

    def run_all(self, scenario: dict, tmp_path, capsys) -> list[tuple[int, str]]:
        """(exit code, stderr) of each command on the scenario."""
        path = write_json(tmp_path / "s.json", {
            "network": NETWORK, "master_seed": "17" * 32, "requests": 4,
            "sweep_trials": 10, **scenario})
        results = []
        for argv in COMMANDS.values():
            code, _, err = run_cli(argv(path, tmp_path), capsys)
            results.append((code, err))
        return results

    def test_over_budget_overrides_exit_2(self, tmp_path, capsys):
        # floor(0.1 * 8) = 0 adversarial nodes allowed, and one is overridden
        results = self.run_all({"byzantine_fraction": 0.1,
                                "executor_overrides": {"3": "always-fraud"}}, tmp_path, capsys)
        for code, err in results:
            assert code == 2 and "exceed the budget" in err and "Traceback" not in err

    @pytest.mark.parametrize("scenario", [
        {"focal_executor": 1.5},
        {"focal_executor": 8},
        {"focal_executor": -1},
        {"user_colludes_with": 99},
        {"user_colludes_with": 1.0},
        {"executor_overrides": {"1": {"kind": "collude", "group": "a"}}},
        {"executor_overrides": {"1": {"kind": "collude", "group": 1.5}}},
        {"executor_overrides": {"1": {"kind": "collude", "group": 2**63}}},
        {"executor_overrides": {"1": {"kind": "collude", "group": -1}}},
        {"byzantine_fraction": 0.25,
         "byzantine_strategy": {"kind": "collude", "group": 2**32}},
    ], ids=["float-focal", "focal-too-large", "negative-focal", "colluder-too-large",
            "float-colluder", "str-group", "float-group", "huge-group", "negative-group",
            "byzantine-group-too-large"])
    def test_bad_index_or_group_exits_2(self, tmp_path, capsys, scenario):
        for code, err in self.run_all(scenario, tmp_path, capsys):
            assert code == 2 and "invalid" in err and "Traceback" not in err

    @pytest.mark.parametrize("scenario", [
        {"executor_overrides": {"1": 5}},
        {"executor_overrides": [1]},
        {"orchestrator_overrides": ["withhold"]},
        {"byzantine_fraction": 0.25, "byzantine_strategy": ["x"]},
        {"sweep_trials": "x"},
        {"sweep_trials": 0},
        {"sweep_trials": 2.0},
        {"sweep_trials": sim.MAX_SWEEP_TRIALS + 1},
        {"sweep_trails": 3},
        {"byzantine_fraction": 0.25,
         "byzantine_strategy": {"kind": sim.FRAUD_WITH_PROBABILITY, "fraud_probabilty": 0.3}},
        {"executor_overrides": {"1": {"kind": sim.FRAUD_WITH_PROBABILITY,
                                      "fraud_probabilty": 0.3}}},
        {"network": {**NETWORK, "t_asert": 3}},
        {"network": {**NETWORK, "challenge_probability": True}},
        {"byzantine_fraction": 0.25,
         "byzantine_strategy": {"kind": sim.FRAUD_WITH_PROBABILITY, "fraud_probability": True}},
        {"byzantine_fraction": False},
        {"focal_executor": None},
    ], ids=["number-override", "list-of-overrides", "list-of-orchestrator-overrides",
            "list-strategy", "str-trials", "zero-trials", "float-trials", "too-many-trials",
            "misspelled-key", "misspelled-strategy-key", "misspelled-override-key",
            "misspelled-network-key", "bool-challenge-probability", "bool-fraud-probability",
            "bool-byzantine-fraction", "null-focal-executor"])
    def test_malformed_shape_exits_2(self, tmp_path, capsys, estimator_calls, scenario):
        for code, err in self.run_all(scenario, tmp_path, capsys):
            assert code == 2 and "invalid" in err and "Traceback" not in err
        assert estimator_calls == []

    @pytest.mark.parametrize("name,value", [
        ("executor_overrides", "always-fraud"),
        ("orchestrator_overrides", protocol.ORCH_WITHHOLD),
    ])
    @pytest.mark.parametrize("key", ["01", " 2", "1_0", "+1", "-0"])
    def test_override_key_not_in_plain_decimal_exits_2(self, tmp_path, capsys,
                                                       estimator_calls, name, value, key):
        # "01" and "+1" would name index 1 a second time, and with 12
        # executors "1_0" (int() reads 10) would name a real executor
        overrides = {"1": value, key: "honest"}
        scenario = {"network": {**NETWORK, "executors": 12}, name: overrides}
        for code, err in self.run_all(scenario, tmp_path, capsys):
            assert code == 2 and repr(key) in err and "Traceback" not in err
        assert estimator_calls == []

    def test_model_that_overflows_exits_2(self, tmp_path, capsys):
        # valid dims (63,360 values), but forward leaves the signed 64-bit range
        scenario = json.loads((SCENARIOS / "all_honest.json").read_text())
        path = write_json(tmp_path / "s.json", {**scenario, "model_dims": [32] * 60,
                                                "requests": 3})
        for argv in COMMANDS.values():
            code, out, err = run_cli(argv(path, tmp_path), capsys)
            assert code == 2 and out == ""
            assert err.startswith("invalid") and err.count("\n") == 1

    def test_wrong_output_that_overflows_exits_2(self, tmp_path, capsys, monkeypatch):
        # the simulator derives a liar's output when the node returns it; the
        # estimator compares amounts and never derives one
        monkeypatch.setattr(sim, "_wrong_amount", lambda strategy, node: 1 << 63)
        path = write_json(tmp_path / "s.json", {
            "network": NETWORK, "master_seed": "17" * 32, "requests": 4,
            "sweep_trials": 10,
            "executor_overrides": {str(i): "always-fraud" for i in range(1, 8)}})
        codes = []
        for argv in COMMANDS.values():
            code, _, err = run_cli(argv(path, tmp_path), capsys)
            codes.append(code)
            assert code == 0 or (err.startswith("invalid") and err.count("\n") == 1)
        assert codes == [2, 2, 0]

    @pytest.mark.parametrize("shape", ["array", "object"])
    @pytest.mark.parametrize("command", ["analyze", *COMMANDS])
    def test_deeply_nested_record_exits_2(self, tmp_path, capsys, command, shape):
        # 1,200 levels, deeper than the JSON parser's recursion allows
        depth = 1200
        path = tmp_path / "deep.json"
        path.write_text("[" * depth + "]" * depth if shape == "array"
                        else '{"a": ' * depth + "1" + "}" * depth)
        argv = (["analyze", "--params", str(path)] if command == "analyze"
                else COMMANDS[command](str(path), tmp_path))
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("invalid") and err.count("\n") == 1

    def test_largest_group_runs(self, tmp_path, capsys):
        scenario = {"executor_overrides": {"1": {"kind": "collude", "group": sim.MAX_GROUP - 1}},
                    "user_colludes_with": 7, "focal_executor": 7}
        codes = [code for code, _ in self.run_all(scenario, tmp_path, capsys)]
        assert codes == [0, 1, 0]  # replay runs, and its hash is a dummy


class TestReplay:
    def test_golden_scenarios_pass(self, capsys):
        hashes = json.loads((SCENARIOS / "golden_hashes.json").read_text())
        for name, expected in hashes.items():
            code, out, _ = run_cli(
                ["replay", "--scenario", str(SCENARIOS / f"{name}.json"),
                 "--hash", expected], capsys)
            assert code == 0 and "replay ok" in out

    def test_wrong_hash_fails(self, capsys):
        code, out, _ = run_cli(
            ["replay", "--scenario", str(SCENARIOS / "all_honest.json"),
             "--hash", "00" * 32], capsys)
        assert code == 1 and "mismatch" in out

    def test_altered_request_count_fails(self, tmp_path, capsys):
        data = json.loads((SCENARIOS / "all_honest.json").read_text())
        hashes = json.loads((SCENARIOS / "golden_hashes.json").read_text())
        data["requests"] += 1
        path = write_json(tmp_path / "altered.json", data)
        code, _, _ = run_cli(
            ["replay", "--scenario", path, "--hash", hashes["all_honest"]], capsys)
        assert code == 1

    def test_protocol_error_exits_3(self, silent_scenario, capsys):
        code, _, err = run_cli(
            ["replay", "--scenario", silent_scenario, "--hash", "00" * 32], capsys)
        assert code == 3 and "no responsive asserter" in err


class TestGoldenOutputs:
    """``posp simulate`` on each shipped scenario writes exactly the
    ``report.json`` and ``ledger.json`` it wrote when these SHA-256 digests
    were recorded.  The trace hash does not cover everything in them: the
    report's ``node_payoffs`` read the ``computations`` charges.  ``sweep``
    and ``analyze`` print exactly the stdout they printed then."""

    DIGESTS = {
        "all_honest": {
            "report.json": "d530a627cfd1d8278df600a667c47cf6e95b4ab5013daed2bb7db8ead94b21ab",
            "ledger.json": "b1db6b6e26d792e25a74db75bd7912acd1a6463a425e879cef0fa75181ab1c1e"},
        "leak_attack": {
            "report.json": "410e55583bf3132307150dab06c01c89b7cb0f3a9a6e0051340a7b777f439fc4",
            "ledger.json": "70d0fc76d3b4a940bbdce73f654ac426501e0a9f77acaacea25f926b98a2f9ac"},
        "mixed_adversaries": {
            "report.json": "276a1be05e2fd23247ec7a4bed50fae51c413d9cf095088b9f449900dbe581bc",
            "ledger.json": "b7a9367e5ce7798285c2d27a7bd26dabe97587efd7f3ebb488779d53f113af16"},
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_simulate_writes_the_golden_files(self, tmp_path, capsys, name):
        code, _, _ = run_cli(["simulate", "--scenario", str(SCENARIOS / f"{name}.json"),
                              "--out", str(tmp_path)], capsys)
        assert code == 0
        assert {file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
                for file in self.DIGESTS[name]} == self.DIGESTS[name]


    SWEEP_DIGESTS = {
        ("mixed_adversaries.json", "p", "0.01", "0.2", "3"):
            "c72011343fde258b21629a2a5b1ef493ba5bf00b01b091f9e9600e8aa0185d76",
        ("mixed_adversaries.json", "r", "0.1", "0.4", "4"):
            "efd5267d70cbc1fad9e9c7410b288aeed73666d31438d6be836509aefb4290cf",
        ("leak_attack.json", "S", "200", "3000", "4"):
            "6f093d4bab1ce3cd411afb44d4d7f73f121989cb3ec8fa02261983f7390029a2",
    }

    @pytest.mark.parametrize("sweep", list(SWEEP_DIGESTS), ids=["p", "r", "S"])
    def test_sweep_prints_the_golden_rows(self, capsys, sweep):
        scenario, axis, start, stop, steps = sweep
        code, out, _ = run_cli(["sweep", "--scenario", str(SCENARIOS / scenario),
                                "--axis", axis, "--from", start, "--to", stop,
                                "--steps", steps], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.SWEEP_DIGESTS[sweep]

    ANALYZE_DIGESTS = {
        "params_baseline": "4d48ca861f16abc2a08fc2b2b7d2e9d3c635455fc77988aa71ba89c207c311ae",
        "full": "a72576e8a90becd083281cd8df7887c79e9ce660563ecbcd609895576138b2d2",
        "shorthand": "91952a72803914e4cb749bf4534771b059ae2bcb3d256b010ab5eb408fd6ae05",
    }

    @pytest.mark.parametrize("name", list(ANALYZE_DIGESTS))
    def test_analyze_prints_the_golden_report(self, tmp_path, capsys, name):
        if name in TestAnalyze.RECORDS:
            path = write_json(tmp_path / "params.json", TestAnalyze.RECORDS[name])
        else:
            path = str(SCENARIOS / f"{name}.json")
        code, out, _ = run_cli(["analyze", "--params", path], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.ANALYZE_DIGESTS[name]


class TestLogging:
    def test_event_logging_does_not_change_output(self, small_scenario, tmp_path,
                                                  capsys, monkeypatch):
        out_a = tmp_path / "quiet"
        run_cli(["simulate", "--scenario", small_scenario, "--out", str(out_a)], capsys)
        monkeypatch.setenv("POSP_LOG", "events")
        out_b = tmp_path / "loud"
        code, _, _ = run_cli(
            ["simulate", "--scenario", small_scenario, "--out", str(out_b)], capsys)
        assert code == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_summary_logs_one_line_per_run(self, small_scenario, tmp_path, capsys,
                                           monkeypatch):
        quiet, loud = tmp_path / "quiet", tmp_path / "loud"
        code, _, err = run_cli(["simulate", "--scenario", small_scenario, "--out", str(quiet)],
                               capsys)
        assert code == 0 and err == ""
        monkeypatch.setenv("POSP_LOG", "summary")
        code, _, err = run_cli(["simulate", "--scenario", small_scenario, "--out", str(loud)],
                               capsys)
        assert code == 0
        [line] = err.splitlines()
        report = json.loads((loud / "report.json").read_text())
        assert line.startswith("posp.sim INFO run: ")
        assert (f"{report['requests']} requests, {report['challenges']} challenges, "
                f"{report['arbitrations']} arbitrations, {report['timeouts']} timeouts, "
                f"trace {report['trace_hash']}") in line
        assert (quiet / "report.json").read_bytes() == (loud / "report.json").read_bytes()

    def test_repeated_calls_keep_one_handler(self, baseline_params, capsys, monkeypatch):
        monkeypatch.setenv("POSP_LOG", "summary")
        for _ in range(3):
            run_cli(["analyze", "--params", baseline_params], capsys)
        logging.getLogger("posp.sim").info("one line")
        assert capsys.readouterr().err.count("one line") == 1
        monkeypatch.delenv("POSP_LOG")
        cli._setup_logging()
        logging.getLogger("posp.sim").warning("no handler")
        assert "posp.sim WARNING" not in capsys.readouterr().err
