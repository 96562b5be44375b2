"""End-to-end simulator tests: determinism, adversary assignment, payoff
estimation, the leak attack, timeouts, and liveness under faulty
orchestrators."""

from dataclasses import replace

import pytest

from posp import econ, protocol, sim
from posp.model import encode_vector
from posp.protocol import NetworkConfig, Phase

SEED = bytes([42] * 32)


def config(executors=8, fault_bound=1, p=0.0, requests=50, seed=SEED, **kw):
    return sim.ScenarioConfig(
        network=NetworkConfig(executors=executors, fault_bound=fault_bound,
                              challenge_probability=p),
        master_seed=seed,
        requests=requests,
        **kw,
    )


class TestScenarioConfig:
    def test_roundtrip_dict(self):
        cfg = config(p=0.3, executor_overrides={1: sim.ExecStrategy(kind=sim.COLLUDE, group=2)},
                     orchestrator_overrides={0: protocol.ORCH_WITHHOLD},
                     byzantine_fraction=0.25, user_colludes_with=3)
        assert sim.ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            config(seed=b"short")

    def test_rejects_too_many_byzantine_orchestrators(self):
        with pytest.raises(ValueError):
            config(orchestrator_overrides={0: protocol.ORCH_WITHHOLD,
                                           1: protocol.ORCH_EQUIVOCATE})

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            sim.ExecStrategy(kind="random")

    def test_collude_requires_group(self):
        with pytest.raises(ValueError):
            sim.ExecStrategy(kind=sim.COLLUDE)


class TestBeaconOracle:
    def test_deterministic(self):
        a, b = sim.BeaconOracle(SEED), sim.BeaconOracle(SEED)
        a.current_epoch = b.current_epoch = 5
        assert a.tau(5) == b.tau(5)
        assert a.tau(5) != a.tau(4)

    def test_future_epoch_rejected(self):
        oracle = sim.BeaconOracle(SEED)
        with pytest.raises(protocol.ProtocolError):
            oracle.tau(1)


class TestAssignAdversaries:
    def test_zero_fraction_all_honest(self):
        table = sim.assign_adversaries(config(byzantine_fraction=0.0))
        assert all(not s.adversarial for s in table)

    def test_fraction_rounds_down(self):
        table = sim.assign_adversaries(config(executors=100, byzantine_fraction=0.1))
        assert sum(1 for s in table if s.adversarial) == 10

    def test_deterministic_in_seed(self):
        cfg = config(executors=100, byzantine_fraction=0.1)
        assert sim.assign_adversaries(cfg) == sim.assign_adversaries(cfg)

    def test_overrides_win(self):
        cfg = config(executors=10, byzantine_fraction=0.2,
                     executor_overrides={3: sim.ExecStrategy(kind=sim.UNRESPONSIVE)})
        table = sim.assign_adversaries(cfg)
        assert table[3].kind == sim.UNRESPONSIVE
        assert sum(1 for s in table if s.adversarial) == 2

    def test_over_budget_rejected(self):
        cfg = config(executors=10, byzantine_fraction=0.1,
                     executor_overrides={i: sim.ExecStrategy(kind=sim.ALWAYS_FRAUD)
                                         for i in range(3)})
        with pytest.raises(ValueError):
            sim.assign_adversaries(cfg)

    def test_collusion_group_shares_wrong_output(self):
        strat = sim.ExecStrategy(kind=sim.COLLUDE, group=4)
        cfg = config(executors=6,
                     executor_overrides={i: strat for i in (1, 2, 5)})
        result = sim.run(replace(cfg, requests=0))
        outputs = {encode_vector(sim._wrong_output(result.y_true, strat, i))
                   for i in (1, 2, 5)}
        assert len(outputs) == 1

    def test_ungrouped_nodes_differ(self):
        strat = sim.ExecStrategy(kind=sim.ALWAYS_FRAUD)
        result = sim.run(config(requests=0))
        a = encode_vector(sim._wrong_output(result.y_true, strat, 1))
        b = encode_vector(sim._wrong_output(result.y_true, strat, 2))
        assert a != b


class TestRun:
    def test_all_honest_p_zero(self):
        result = sim.run(config(p=0.0, requests=100))
        m = result.metrics
        assert m.requests == 100 and m.challenges == 0 and m.arbitrations == 0
        assert all(lc.phase is Phase.UNCHALLENGED_DONE
                   for lc in result.lifecycles.values())
        net = result.committee.config
        # each request paid exactly R to its asserter
        total_exec = sum(result.ledger[k] for k in result.ledger if k.startswith("exec:"))
        assert total_exec == len(result.committee.executor_pks) * net.slash_s \
            + 100 * net.reward_r

    def test_all_honest_p_one(self):
        result = sim.run(config(p=1.0, requests=100))
        m = result.metrics
        assert m.challenges == 100 and m.matched_challenges == 100
        assert m.arbitrations == 0
        assert all(lc.phase is Phase.MATCHED_DONE for lc in result.lifecycles.values())

    def test_fraud_node_always_slashed_under_certain_challenge(self):
        cfg = config(p=1.0, requests=60,
                     executor_overrides={2: sim.ExecStrategy(kind=sim.ALWAYS_FRAUD)})
        result = sim.run(cfg)
        fraud_requests = [lc for lc in result.lifecycles.values() if lc.asserter == 2]
        assert fraud_requests
        for lc in fraud_requests:
            assert lc.phase is Phase.ARBITRATED_DONE
            outcome = result.arbitration_outcomes[lc.reqid]
            assert not outcome.asserter_honest
        assert result.metrics.detected_frauds == len(fraud_requests)
        assert result.metrics.node_payoffs["exec:2"] < 0

    def test_deterministic_trace_hash(self):
        cfg = config(p=0.3, requests=40, byzantine_fraction=0.2)
        assert sim.run(cfg).metrics.trace_hash == sim.run(cfg).metrics.trace_hash

    def test_seed_changes_trace_hash(self):
        cfg = config(p=0.3, requests=40)
        other = replace(cfg, master_seed=bytes([43]) + SEED[1:])
        assert sim.run(cfg).metrics.trace_hash != sim.run(other).metrics.trace_hash

    def test_conservation(self):
        cfg = config(p=0.5, requests=80, byzantine_fraction=0.25)
        result = sim.run(cfg)
        net = result.committee.config
        executors = len(result.committee.executor_pks)
        initial = net.payment_b * cfg.requests + executors * net.slash_s
        assert sum(result.ledger.values()) == initial

    def test_unresponsive_node_triggers_timeouts(self):
        cfg = config(p=1.0, requests=60,
                     executor_overrides={1: sim.ExecStrategy(kind=sim.UNRESPONSIVE)})
        result = sim.run(cfg)
        assert result.metrics.timeouts > 0
        assert all(lc.concluded for lc in result.lifecycles.values())

    def test_fraud_with_probability_mixes(self):
        cfg = config(p=1.0, requests=120, executor_overrides={
            0: sim.ExecStrategy(kind=sim.FRAUD_WITH_PROBABILITY, fraud_probability=0.5)})
        result = sim.run(cfg)
        asserted = [lc for lc in result.lifecycles.values() if lc.asserter == 0]
        outcomes = {lc.phase for lc in asserted}
        assert Phase.ARBITRATED_DONE in outcomes and Phase.MATCHED_DONE in outcomes

    def test_user_collusion_counts_undetected_fraud(self):
        cfg = config(p=0.0, requests=60, user_colludes_with=3)
        result = sim.run(cfg)
        colluded = [lc for lc in result.lifecycles.values() if lc.asserter == 3]
        assert colluded
        assert result.metrics.fraud_assertions == len(colluded)
        assert result.metrics.undetected_frauds == len(colluded)

    def test_empirical_challenge_rate(self):
        result = sim.run(config(p=0.25, requests=2000))
        rate = result.metrics.empirical_challenge_rate
        # 3 sigma of binomial(2000, 0.25)
        assert abs(rate - 0.25) < 3 * (0.25 * 0.75 / 2000) ** 0.5


class TestLiveness:
    def test_withholding_orchestrator(self):
        cfg = config(p=1.0, requests=50,
                     orchestrator_overrides={0: protocol.ORCH_WITHHOLD})
        result = sim.run(cfg)
        assert all(lc.concluded for lc in result.lifecycles.values())
        assert sum(result.ledger.values()) > 0

    def test_equivocating_orchestrator(self):
        cfg = config(p=1.0, requests=50,
                     orchestrator_overrides={2: protocol.ORCH_EQUIVOCATE})
        result = sim.run(cfg)
        assert all(lc.concluded for lc in result.lifecycles.values())


class TestLeakAttack:
    def test_honest_asserter_free_rider_matches(self):
        cfg = config(p=1.0, requests=60,
                     executor_overrides={1: sim.ExecStrategy(kind=sim.ALWAYS_FRAUD)},
                     orchestrator_overrides={0: protocol.ORCH_LEAK})
        result = sim.run(cfg)
        # every honest assertion settles as matched even when the free-riding
        # Byzantine node validates: it copies the correct leaked result
        honest_asserted = [lc for lc in result.lifecycles.values() if lc.asserter != 1]
        assert honest_asserted
        assert all(lc.phase is Phase.MATCHED_DONE for lc in honest_asserted)
        assert result.metrics.arbitrations == sum(
            1 for lc in result.lifecycles.values() if lc.asserter == 1)

    def test_fraudulent_asserter_free_rider_is_undetected_fraud(self):
        cfg = config(p=1.0, requests=80,
                     executor_overrides={1: sim.ExecStrategy(kind=sim.ALWAYS_FRAUD),
                                         2: sim.ExecStrategy(kind=sim.ALWAYS_FRAUD)},
                     orchestrator_overrides={0: protocol.ORCH_LEAK})
        result = sim.run(cfg)
        free_ridden = [lc for lc in result.lifecycles.values()
                       if lc.asserter in (1, 2) and lc.validator in (1, 2)]
        assert free_ridden
        assert all(lc.phase is Phase.MATCHED_DONE for lc in free_ridden)
        assert result.metrics.undetected_frauds >= len(free_ridden)

    def test_leak_without_byzantine_validators_is_inert(self):
        base = config(p=1.0, requests=40)
        leaky = replace(base, orchestrator_overrides={0: protocol.ORCH_LEAK})
        assert sim.run(base).metrics.trace_hash == \
            sim.run(leaky).metrics.trace_hash


def scaled_params(p):
    # on-ledger integer scale: ten tokens per analysis unit
    return NetworkConfig(executors=50, fault_bound=1, challenge_probability=p,
                         payment_b=30, reward_r=12, slash_s=1500, compute_cost=10.0)


class TestEstimateStrategyPayoff:
    def test_honest_p_zero_exact(self):
        cfg = config(p=0.0)
        est = sim.estimate_strategy_payoff(cfg, sim.HONEST, trials=500)
        net = cfg.network
        assert est.mean == pytest.approx(net.reward_r - net.compute_cost)
        assert est.stderr == 0.0

    def test_fraud_always_caught(self):
        cfg = config(p=1.0)
        est = sim.estimate_strategy_payoff(cfg, sim.ALWAYS_FRAUD, trials=500)
        assert est.mean == pytest.approx(-cfg.network.slash_s)
        assert est.empirical_cheat_pass_rate == 0.0

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            sim.estimate_strategy_payoff(config(), sim.HONEST, trials=0)

    def test_rejects_unresponsive_focal(self):
        with pytest.raises(ValueError):
            sim.estimate_strategy_payoff(config(), sim.UNRESPONSIVE, trials=10)

    def test_fraud_mean_tracks_enumeration_oracle(self):
        # colluding-fraction scenario at slightly-above-threshold p
        p_star = econ.single_validator_min_p(10.0, 1500.0, 12.0, 0.1)
        p = 1.05 * p_star
        cfg = sim.ScenarioConfig(
            network=scaled_params(p), master_seed=SEED, requests=0,
            byzantine_fraction=0.1,
            byzantine_strategy=sim.ExecStrategy(kind=sim.COLLUDE, group=0))
        est = sim.estimate_strategy_payoff(
            cfg, sim.ExecStrategy(kind=sim.COLLUDE, group=0), trials=40_000)
        params = econ.EconomicParams.single_validator(
            C=10.0, S=1500.0, R=12.0, r=0.1, p=p)
        exact = econ.brute_force_expected_payoff(
            params, econ.CollusionModel(0.1), econ.FRAUD)
        assert abs(est.mean - exact) < 3 * est.stderr + 1e-9

    def test_unresponsive_validator_is_redrawn(self):
        # p=1: every request is challenged, and only node 3 can answer it
        cfg = config(executors=4, p=1.0, executor_overrides={
            1: sim.ExecStrategy(kind=sim.UNRESPONSIVE),
            2: sim.ExecStrategy(kind=sim.UNRESPONSIVE),
            3: sim.ExecStrategy(kind=sim.ALWAYS_FRAUD)})
        est = sim.estimate_strategy_payoff(cfg, sim.HONEST, trials=300)
        net = cfg.network
        assert est.mean == net.reward_r + net.slash_s - net.compute_cost == 1502.0
        assert est.stderr == 0.0 and est.arbitrations == 300

    def test_leaked_result_lets_fraud_pass(self):
        cfg = config(p=1.0, executor_overrides={
            i: sim.ExecStrategy(kind=sim.ALWAYS_FRAUD) for i in range(1, 8)},
            orchestrator_overrides={0: protocol.ORCH_LEAK})
        est = sim.estimate_strategy_payoff(cfg, sim.ALWAYS_FRAUD, trials=300)
        assert est.mean == cfg.network.reward_r == 12.0
        assert est.empirical_cheat_pass_rate == 1.0


# StrategyEstimate.to_dict() as recorded when the estimator still derived
# the payouts and draws itself; the shared protocol rules reproduce it bit
# for bit wherever no validator is unresponsive and no orchestrator leaks.
PINNED_ESTIMATES = [
    (0.5, "honest", {"mean": 2.375, "stderr": 0.37495312206994624,
                     "challenges": 13, "arbitrations": 1,
                     "fraud_assertions": 0, "fraud_passes": 0}),
    (0.5, "always-fraud", {"mean": 7.086, "stderr": 1.3606818698726018,
                           "challenges": 13, "arbitrations": 13,
                           "fraud_assertions": 4000, "fraud_passes": 3987}),
    (0.5, "collude", {"mean": 7.464, "stderr": 1.3074647895832607,
                      "challenges": 13, "arbitrations": 12,
                      "fraud_assertions": 4000, "fraud_passes": 3988}),
    (2.0, "honest", {"mean": 2.375, "stderr": 0.37495312206994624,
                     "challenges": 42, "arbitrations": 1,
                     "fraud_assertions": 0, "fraud_passes": 0}),
    (2.0, "always-fraud", {"mean": -3.876, "stderr": 2.4368250154658213,
                           "challenges": 42, "arbitrations": 42,
                           "fraud_assertions": 4000, "fraud_passes": 3958}),
    (2.0, "collude", {"mean": -3.498, "stderr": 2.4079445589547945,
                      "challenges": 42, "arbitrations": 41,
                      "fraud_assertions": 4000, "fraud_passes": 3959}),
    (50.0, "honest", {"mean": 59.0, "stderr": 4.534616852612798,
                      "challenges": 1487, "arbitrations": 152,
                      "fraud_assertions": 0, "fraud_passes": 0}),
    (50.0, "collude", {"mean": -492.63, "stderr": 11.273299462668415,
                       "challenges": 1487, "arbitrations": 1335,
                       "fraud_assertions": 4000, "fraud_passes": 2665}),
]


class TestPinnedEstimates:
    @pytest.mark.parametrize("factor,kind,expected", PINNED_ESTIMATES)
    def test_sweep_scenario(self, factor, kind, expected):
        # the `posp sweep` scenario, at a multiple of its threshold p*
        p_star = econ.single_validator_min_p(10.0, 1500.0, 12.0, 0.1)
        cfg = sim.ScenarioConfig(
            network=scaled_params(factor * p_star), master_seed=bytes([0x28] * 32),
            requests=0, byzantine_fraction=0.1,
            byzantine_strategy=sim.ExecStrategy(kind=sim.COLLUDE, group=0))
        strategy = sim.ExecStrategy(kind=kind, group=0 if kind == sim.COLLUDE else None)
        est = sim.estimate_strategy_payoff(cfg, strategy, trials=4000)
        assert est.to_dict() == {"strategy": kind, "trials": 4000, **expected}

    @pytest.mark.parametrize("kind,expected", [
        ("honest", {"mean": 146.75, "stderr": 9.90384868371887,
                    "challenges": 1023, "arbitrations": 193,
                    "fraud_assertions": 0, "fraud_passes": 0}),
        ("always-fraud", {"mean": -761.388, "stderr": 16.900202032165176,
                          "challenges": 1023, "arbitrations": 1023,
                          "fraud_assertions": 2000, "fraud_passes": 977}),
    ])
    def test_fraud_with_probability_validators(self, kind, expected):
        cfg = config(p=0.5, requests=0, byzantine_fraction=0.5,
                     byzantine_strategy=sim.ExecStrategy(
                         kind=sim.FRAUD_WITH_PROBABILITY, fraud_probability=0.5))
        est = sim.estimate_strategy_payoff(cfg, kind, trials=2000)
        assert est.to_dict() == {"strategy": kind, "trials": 2000, **expected}
