"""Acceptance gate: one test per shipped claim, each printing a single
pass/fail line with the measured numbers.  Tolerances are part of the claim
and must not be loosened.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

from posp import cli, crypto, econ, sim
from posp.model import decode_vector, encode_vector, forward
from posp.protocol import NetworkConfig, Reason

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# the on-ledger integer economy: ten tokens per analysis unit
SCALED = dict(payment_b=30, reward_r=12, slash_s=1500, compute_cost=10.0)
P_STAR = econ.single_validator_min_p(10.0, 1500.0, 12.0, 0.1)


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def collected_runs():
    """SimResults shared across criteria so arbitration auditing sees every
    simulated trace produced by this suite."""
    return []


@pytest.fixture(scope="module")
def golden_runs(collected_runs):
    hashes = json.loads((SCENARIOS / "golden_hashes.json").read_text())
    runs = {}
    for name in sorted(hashes):
        config = sim.ScenarioConfig.from_dict(
            json.loads((SCENARIOS / f"{name}.json").read_text()))
        result = sim.run(config)
        runs[name] = (config, result, hashes[name])
        collected_runs.append(result)
    return runs


@pytest.fixture(scope="module")
def mixed_large_run(collected_runs):
    config = sim.ScenarioConfig.from_dict(
        json.loads((SCENARIOS / "mixed_adversaries.json").read_text()))
    result = sim.run(replace(config, requests=10_000))
    collected_runs.append(result)
    return config, result


class TestAcceptance:
    def test_01_minimum_challenge_probability(self, capsys, tmp_path):
        start = time.perf_counter()
        code = cli.main(["analyze", "--params", str(SCENARIOS / "params_baseline.json")])
        elapsed = time.perf_counter() - start
        out = json.loads(capsys.readouterr().out)
        min_p_pct = out["min_challenge_probability"] * 100.0
        ok = code == 0 and abs(min_p_pct - 0.736) <= 0.001 and elapsed < 1.0
        with capsys.disabled():
            report(1, ok, f"min challenge probability {min_p_pct:.4f}% "
                          f"(target 0.736% +/- 0.001pp), {elapsed:.3f}s")

    def test_02_fraud_proof_comparison(self, capsys):
        start = time.perf_counter()
        code = cli.main(["analyze", "--params", str(SCENARIOS / "params_baseline.json")])
        elapsed = time.perf_counter() - start
        out = json.loads(capsys.readouterr().out)
        fraud_proof_pct = out["fraud_proof_undetected_fraud_probability"] * 100.0
        ok = code == 0 and abs(fraud_proof_pct - 0.98) <= 0.01 and elapsed < 1.0
        with capsys.disabled():
            report(2, ok, f"fraud-proof undetected-fraud rate {fraud_proof_pct:.4f}% "
                          f"(target 0.98% +/- 0.01pp), {elapsed:.3f}s")

    def test_03_equilibrium_confirmation(self, capsys):
        start = time.perf_counter()
        trials = 100_000
        seed = bytes(32)

        # above threshold: independent Byzantine fraudsters, no collusion
        above = sim.ScenarioConfig(
            network=NetworkConfig(executors=100, fault_bound=1,
                                  challenge_probability=1.05 * P_STAR, **SCALED),
            master_seed=seed, requests=0, byzantine_fraction=0.1,
            byzantine_strategy=sim.ExecStrategy(kind=sim.ALWAYS_FRAUD))
        [[honest_hi, fraud_hi]] = sim.estimate_strategy_payoff(
            [above], (sim.HONEST, sim.ALWAYS_FRAUD), trials)
        gap = honest_hi.mean - fraud_hi.mean
        stderr = (honest_hi.stderr ** 2 + fraud_hi.stderr ** 2) ** 0.5
        z = gap / stderr if stderr else float("inf")

        # far below threshold with a colluding fraction: ordering reverses
        collude = sim.ExecStrategy(kind=sim.COLLUDE, group=0)
        below = sim.ScenarioConfig(
            network=NetworkConfig(executors=100, fault_bound=1,
                                  challenge_probability=0.5 * P_STAR, **SCALED),
            master_seed=seed, requests=0, byzantine_fraction=0.1,
            byzantine_strategy=collude)
        [[honest_lo, fraud_lo]] = sim.estimate_strategy_payoff(
            [below], (sim.HONEST, collude), trials)
        elapsed = time.perf_counter() - start

        ok = z > 5.0 and fraud_lo.mean > honest_lo.mean and elapsed < 120.0
        with capsys.disabled():
            report(3, ok,
                   f"at p=1.05*p_min honest {honest_hi.mean:.3f} vs fraud "
                   f"{fraud_hi.mean:.3f} (gap {z:.2f} stderr, need >5); at "
                   f"p=0.5*p_min with collusion fraud {fraud_lo.mean:.3f} > "
                   f"honest {honest_lo.mean:.3f}; {elapsed:.1f}s")

    def test_04_oracle_equivalence(self, capsys):
        import random

        rng = random.Random(20260823)
        worst = 0.0
        checked = 0
        for _ in range(1000):
            n = rng.randint(1, 6)
            C = rng.uniform(0.01, 5.0)
            S = rng.uniform(0.1, 500.0)
            R_A = rng.uniform(0.01, 20.0)
            R_V = rng.uniform(0.01, 20.0)
            params = econ.EconomicParams(
                B=R_A + R_V + 1.0, R_A=R_A, R_V=R_V, S=S, C=C,
                p=rng.uniform(0.0, 1.0), r=rng.uniform(0.0, 0.9), n=n,
                U1=rng.uniform(0.0, 1.5) * R_A,
                U2=rng.uniform(0.0, 2.0) * (R_A + R_V))
            model = econ.CollusionModel(rng.uniform(0.0, params.r))
            honest_closed = econ.honest_payoff_lower_bound(params, model)
            honest_brute = econ.brute_force_expected_payoff(params, model, econ.HONEST)
            fraud_closed = econ.fraud_payoff_upper_bound(params, model)
            fraud_brute = econ.brute_force_expected_payoff(params, model, econ.FRAUD)
            worst = max(worst, honest_closed - honest_brute, fraud_brute - fraud_closed)
            checked += 1
        ok = checked == 1000 and worst <= 1e-9
        with capsys.disabled():
            report(4, ok, f"{checked} random parameter sets bracketed by the "
                          f"closed forms; worst violation {worst:.2e} (limit 1e-9)")

    def test_05_sampling_statistics(self, capsys):
        start = time.perf_counter()
        seed = bytes([3] * 32)
        p = 0.00736
        draws = 1_000_000
        hits = sum(
            crypto.sampled(seed, i.to_bytes(8, "big"), p) for i in range(draws))
        sigma = (draws * p * (1 - p)) ** 0.5
        dev = abs(hits - draws * p)

        counts = [0] * 10
        for i in range(100_000):
            counts[crypto.bucket(seed, i.to_bytes(8, "big"), 10)] += 1
        expected = 100_000 / 10
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        elapsed = time.perf_counter() - start

        ok = dev <= 3 * sigma and chi2 < 27.877 and elapsed < 30.0
        with capsys.disabled():
            report(5, ok, f"sampled {hits}/{draws} at p={p} "
                          f"(deviation {dev:.0f} <= 3 sigma {3 * sigma:.0f}); bucket "
                          f"chi-square {chi2:.2f} < 27.877 (df=9, alpha=0.001); "
                          f"{elapsed:.1f}s")

    def test_06_protocol_conservation(self, capsys, mixed_large_run):
        config, result = mixed_large_run
        net = result.committee.config
        bad = 0
        settled = 0
        for reqid, lc in result.committee.lifecycles.items():
            if not lc.concluded:
                bad += 1
                continue
            group = result.committee.pending_deltas[reqid]
            slashed = sum(-d.amount for d in group
                          if d.reason in (Reason.SLASH, Reason.TIMEOUT_PENALTY))
            credits = sum(d.amount for d in group if d.amount > 0)
            if sum(d.amount for d in group) != 0 or credits != net.payment_b + slashed:
                bad += 1
            settled += 1
        executors = len(result.committee.executor_pks)
        initial_supply = net.payment_b * 10_000 + executors * net.slash_s
        supply_ok = sum(result.ledger.values()) == initial_supply
        circulating = initial_supply - result.ledger["burn"]
        ok = bad == 0 and settled == 10_000 and supply_ok
        with capsys.disabled():
            report(6, ok, f"{settled} requests each settle with credits = B + "
                          f"slashed exactly; total supply {sum(result.ledger.values())} "
                          f"constant ({circulating} circulating after burns); "
                          f"{bad} violations")

    def test_07_cheat_pass_rate(self, capsys):
        p, r = 0.00736, 0.1
        trials = 100_000
        collude = sim.ExecStrategy(kind=sim.COLLUDE, group=0)
        config = sim.ScenarioConfig(
            network=NetworkConfig(executors=100, fault_bound=1,
                                  challenge_probability=p, **SCALED),
            master_seed=bytes(32), requests=0, byzantine_fraction=r,
            byzantine_strategy=collude)
        [[est]] = sim.estimate_strategy_payoff([config], [collude], trials)
        expected = econ.cheat_pass_probability(p, r, 1)  # one validator per challenge
        sigma = (expected * (1 - expected) / trials) ** 0.5
        dev = abs(est.empirical_cheat_pass_rate - expected)
        ok = est.fraud_assertions == trials and dev <= 3 * sigma
        with capsys.disabled():
            report(7, ok, f"cheat-pass rate {est.empirical_cheat_pass_rate:.6f} vs "
                          f"(1-p)+p*r = {expected:.6f} "
                          f"(deviation {dev:.6f} <= 3 sigma {3 * sigma:.6f})")

    def test_08_deterministic_replay(self, capsys, golden_runs):
        failures = []
        for name, (config, result, expected) in golden_runs.items():
            if result.metrics.trace_hash != expected:
                failures.append(f"{name} hash mismatch")
            flipped = bytes([config.master_seed[0] ^ 1]) + config.master_seed[1:]
            other = sim.run(replace(config, master_seed=flipped))
            if other.metrics.trace_hash == expected:
                failures.append(f"{name} insensitive to seed bit flip")
        ok = not failures
        with capsys.disabled():
            report(8, ok, f"{len(golden_runs)} golden scenarios replay exactly and "
                          f"diverge on a single-bit seed change"
                          + (f"; failures: {failures}" if failures else ""))

    def test_09_arbitration_correctness(self, capsys, collected_runs):
        checked = 0
        violations = 0
        for result in collected_runs:
            for reqid, outcome in result.arbitration_outcomes.items():
                lc = result.lifecycles[reqid]
                truth = encode_vector(
                    forward(result.model, decode_vector(lc.x)))
                if truth != encode_vector(outcome.y_true):
                    violations += 1
                asserted, validated = lc.responses
                parties = {
                    f"exec:{asserted.node_index}": asserted.y_bytes,
                    f"exec:{validated.node_index}": validated.y_bytes,
                }
                for delta in outcome.deltas:
                    if delta.reason is Reason.SLASH:
                        if parties.get(delta.account) == truth:
                            violations += 1
                    elif delta.reason in (Reason.ASSERTER_REWARD,
                                          Reason.VALIDATOR_REWARD):
                        if parties.get(delta.account) != truth:
                            violations += 1
                if outcome.asserter_honest != (asserted.y_bytes == truth):
                    violations += 1
                if outcome.validator_honest != (validated.y_bytes == truth):
                    violations += 1
                checked += 1
        ok = checked > 0 and violations == 0
        with capsys.disabled():
            report(9, ok, f"{checked} arbitrations across all acceptance runs; "
                          f"every slashed output differs from the recomputed "
                          f"truth and every rewarded output matches; "
                          f"{violations} violations")


def test_10k_run_has_the_benchmark_pinned_trace_hash(mixed_large_run):
    """The 10k ``mixed_adversaries`` run is the benchmark's ``mixed_10k``
    workload, so an event-order slip at 10k fails here and not only there."""
    _, result = mixed_large_run
    pinned = json.loads((ROOT / "perfbench" / "hashes.json").read_text())["mixed_10k"]
    assert result.metrics.trace_hash == pinned
