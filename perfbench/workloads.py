"""The three benchmark workloads: how each builds its input from a seed, runs
one closed-batch round through the public `posp` API, and checks the round's
output.

Importing this module imports `posp` from the checkout's `src/` directory;
callers check `paths.checkout_ready()` before importing it.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import traceback
from dataclasses import replace

from paths import OUT, PINNED, SCENARIOS
from posp import cli, econ, sim

# At this seed every workload runs on its shipped master seed, so its trace
# hash can be checked against hashes.json and the golden hashes.
DEFAULT_SEED = 0

SIM_WORKLOADS = ("mixed_10k", "wide_model")

SWEEP_STEPS = 7

# The scenario of tests/test_cli.py TestSweep: 50 executors, a colluding
# Byzantine group at r=0.1, 20000 Monte Carlo trials per estimate.
SWEEP_SCENARIO = {
    "network": {"executors": 50, "fault_bound": 1,
                "challenge_probability": 0.01, "payment_b": 30,
                "reward_r": 12, "slash_s": 1500, "compute_cost": 10.0},
    "master_seed": "28" * 32,
    "requests": 0,
    "byzantine_fraction": 0.1,
    "byzantine_strategy": {"kind": "collude", "group": 0},
    "focal_executor": 0,
    "sweep_trials": 20000,
}


def scenario_dict(workload: str, seed: int) -> dict:
    """The workload's scenario as the JSON dict `posp` reads."""
    if workload == "mixed_10k":
        data = json.loads((SCENARIOS / "mixed_adversaries.json").read_text())
        data["requests"] = 10_000
    elif workload == "wide_model":
        data = json.loads((SCENARIOS / "all_honest.json").read_text())
        data["model_dims"] = [32, 64, 32]
        data["network"]["challenge_probability"] = 0.5
    elif workload == "sweep_p":
        data = copy.deepcopy(SWEEP_SCENARIO)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if seed != DEFAULT_SEED:
        data["master_seed"] = hashlib.sha256(f"perfbench:{workload}:{seed}".encode()).hexdigest()
    return data


def write_scenario(workload: str, seed: int, data: dict):
    """Write a scenario into the checkout's output directory for the CLI."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps(data, sort_keys=True))
    return path


class Workload:
    """One workload at one seed.  `round()` runs one closed batch and returns
    (units of work done, failed checks, the run's metrics or sweep rows)."""

    def __init__(self, name: str, seed: int, requests: int | None = None):
        """`requests` overrides the request count, or on sweep_p the trials
        per estimate."""
        self.name = name
        data = scenario_dict(name, seed)
        if requests is not None:
            data["sweep_trials" if name == "sweep_p" else "requests"] = requests
        self.config = sim.ScenarioConfig.from_dict(data)
        self.pinned = None
        if seed == DEFAULT_SEED and requests is None and name in SIM_WORKLOADS:
            self.pinned = json.loads(PINNED.read_text())[name]
        if name == "sweep_p":
            p_star = econ.single_validator_min_p(10.0, 1500.0, 12.0, 0.1)
            self.argv = ["sweep", "--scenario", str(write_scenario(name, seed, data)),
                         "--axis", "p", "--from", str(0.5 * p_star),
                         "--to", str(2.0 * p_star), "--steps", str(SWEEP_STEPS)]
            self.units = SWEEP_STEPS * 2 * self.config.sweep_trials
        else:
            self.units = self.config.requests

    def round(self):
        if self.name == "sweep_p":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(self.argv)
            failures = sweep_failures(code, buf.getvalue())
            return self.units, failures, None if failures else json.loads(buf.getvalue())
        result = sim.run(self.config)
        return self.units, sim_failures(self.config, result, self.pinned), result.metrics


def sim_failures(config, result, pinned_hash: str | None) -> list[str]:
    """Checks that hold at any seed, plus the pinned trace hash at the default."""
    failures = []
    net = config.network
    expected = net.payment_b * config.requests + net.executors * net.slash_s
    total = sum(result.ledger.values())
    if total != expected:
        failures.append(f"ledger sums to {total}, expected {expected}")
    open_ = sum(1 for lc in result.lifecycles.values() if not lc.concluded)
    if open_ or len(result.lifecycles) != config.requests:
        failures.append(f"{open_} of {len(result.lifecycles)} lifecycles not concluded "
                        f"({config.requests} requested)")
    m = result.metrics
    if m.challenges != m.matched_challenges + m.arbitrations:
        failures.append(f"challenges {m.challenges} != matched {m.matched_challenges} "
                        f"+ arbitrations {m.arbitrations}")
    if pinned_hash is not None and m.trace_hash != pinned_hash:
        failures.append(f"trace hash {m.trace_hash} != pinned {pinned_hash}")
    return failures


def sweep_failures(code: int, out: str) -> list[str]:
    if code != 0:
        return [f"sweep exited {code}"]
    rows = json.loads(out)["rows"]
    if len(rows) != SWEEP_STEPS:
        return [f"sweep gave {len(rows)} rows, expected {SWEEP_STEPS}"]
    failures = []
    if not rows[0]["fraud_advantage"] > 0:
        failures.append(f"fraud_advantage {rows[0]['fraud_advantage']} at 0.5 p* is not > 0")
    if not rows[-1]["fraud_advantage"] < 0:
        failures.append(f"fraud_advantage {rows[-1]['fraud_advantage']} at 2 p* is not < 0")
    return failures


def golden_failures() -> list[list[str]]:
    """Run the three shipped scenarios; one list of failures per scenario."""
    hashes = json.loads((SCENARIOS / "golden_hashes.json").read_text())
    out = []
    for name in sorted(hashes):
        try:
            config = sim.ScenarioConfig.from_dict(
                json.loads((SCENARIOS / f"{name}.json").read_text()))
            result = sim.run(config)
        except Exception as exc:  # a failed golden run is counted, not fatal
            traceback.print_exc()
            out.append([f"golden {name} raised {type(exc).__name__}: {exc}"])
            continue
        out.append([f"golden {name}: {f}"
                    for f in sim_failures(config, result, hashes[name])])
    return out


def setup(workload: str, seed: int) -> None:
    """The work `setup_s` times once `posp` is imported: load the scenario and,
    for the simulator workloads, run it with zero requests (keys, model,
    contracts)."""
    config = sim.ScenarioConfig.from_dict(scenario_dict(workload, seed))
    if workload in SIM_WORKLOADS:
        sim.run(replace(config, requests=0))
