"""Command-line surface tests driven through cli.main with temp files."""

import json
from pathlib import Path

import pytest

from posp import cli, econ

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data, sort_keys=True, indent=2))
    return str(path)


@pytest.fixture
def baseline_params(tmp_path):
    return write_json(tmp_path / "params.json",
                      {"C": 1, "S": 150, "R": 1.2, "r": 0.1, "R_C": 100, "p": 0.01})


@pytest.fixture
def small_scenario(tmp_path):
    return write_json(tmp_path / "scenario.json", {
        "network": {"executors": 8, "fault_bound": 1, "challenge_probability": 0.5},
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

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(["analyze", "--params", str(bad)], capsys)
        assert code == 2 and "invalid params file" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, _ = run_cli(["analyze", "--params", str(tmp_path / "nope.json")], capsys)
        assert code == 2


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

    def test_protocol_error_exits_3(self, silent_scenario, tmp_path, capsys):
        code, _, err = run_cli(["simulate", "--scenario", silent_scenario,
                                "--out", str(tmp_path / "o")], capsys)
        assert code == 3 and "no responsive asserter" in err


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

    def test_protocol_error_exits_3(self, silent_scenario, capsys):
        # the focal asserter answers, but no validator does
        code, _, err = run_cli(
            ["sweep", "--scenario", silent_scenario, "--axis", "p",
             "--from", "1.0", "--to", "1.0", "--steps", "1"], capsys)
        assert code == 3 and "no responsive validator" in err


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
