"""End-to-end simulator tests: determinism, adversary assignment, payoff
estimation, the leak attack, timeouts, and liveness under faulty
orchestrators."""

import json
from collections import OrderedDict
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from posp import crypto, econ, protocol, sim
from posp.model import generate_model
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


def trace_paths_config(spacing, requests):
    """A run that traces every tag (``TestTracePaths``): a fraudulent, an
    unresponsive and a sometimes-fraudulent executor, a leaking orchestrator
    and a colluding user."""
    return config(p=0.5, requests=requests, seed=bytes([7] * 32), arrival_spacing=spacing,
                  executor_overrides={
                      1: sim.ExecStrategy(kind=sim.ALWAYS_FRAUD),
                      2: sim.ExecStrategy(kind=sim.UNRESPONSIVE),
                      3: sim.ExecStrategy(kind=sim.FRAUD_WITH_PROBABILITY,
                                          fraud_probability=0.5)},
                  orchestrator_overrides={0: protocol.ORCH_LEAK},
                  user_colludes_with=4)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# ids of the golden-scenario tests, so a re-pinned count keeps the test's name
GOLDEN = ["all_honest", "leak_attack", "mixed_adversaries"]


class TestOpCounts:
    """Exact sign, signature-check, verify and forward counts per golden
    scenario, and the real Ed25519 verifies among them, so a rise in work
    per request fails without any timing.

    Every signature check starts with a sign-memo probe: ``_quorum`` probes
    each vote it looks at, and each ``PublicKey.verify`` probes first.  So
    checks are counted as probes, and verifies as calls to ``verify``.

    Each golden scenario has arrival spacing 0: all its requests arrive in
    one epoch, so the user signs one message for all of them, and the
    committee accepts them all before the first task message.  So all of
    them form one task batch, and each voting orchestrator signs once for
    all the task messages of the run.  An executor signs once per batch of
    responses, not once per response."""

    # verifies: the quorum votes the memo cannot prove, the user's message
    # and the executor response roots
    VERIFY_CALLS = {"all_honest": 318, "leak_attack": 448, "mixed_adversaries": 524}

    @staticmethod
    def count_ops(monkeypatch, config):
        """Signs (and those by the user), verify calls, memo probes and
        forwards of one run of ``config``."""
        counts = {"sign": 0, "user_sign": 0, "verify": 0, "probe": 0, "forward": 0}
        user = sim._World(config).user_keys.public.raw

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        sign = counted("sign", crypto.KeyPair.sign)

        def signed(kp, *fields):
            counts["user_sign"] += kp.public.raw == user
            return sign(kp, *fields)
        monkeypatch.setattr(crypto.KeyPair, "sign", signed)
        monkeypatch.setattr(crypto.PublicKey, "verify",
                            counted("verify", crypto.PublicKey.verify))
        monkeypatch.setattr(crypto.PublicKey, "signed_here",
                            counted("probe", crypto.PublicKey.signed_here))
        forward = counted("forward", sim.forward)
        monkeypatch.setattr(sim, "forward", forward)
        monkeypatch.setattr(protocol, "forward", forward)
        sim.run(config)
        return counts

    @pytest.mark.parametrize("name,signs,checks,forwards", [
        ("all_honest", 40, 1272, 318),
        ("leak_attack", 70, 1786, 399),
        ("mixed_adversaries", 108, 3650, 435),
    ], ids=GOLDEN)
    def test_golden_op_counts(self, monkeypatch, name, signs, checks, forwards):
        counts = self.count_ops(monkeypatch, sim.ScenarioConfig.from_dict(
            json.loads((SCENARIOS / f"{name}.json").read_text())))
        assert counts == {"sign": signs, "user_sign": 1, "verify": self.VERIFY_CALLS[name],
                          "probe": checks, "forward": forwards}

    @pytest.mark.parametrize("spacing,requests,signs,verifies,checks,forwards", [
        (1, 32, 174, 98, 272, 39),
        (2, 24, 170, 75, 213, 34),
    ])
    def test_spaced_arrivals_sign_once_per_request(self, monkeypatch, spacing, requests,
                                                   signs, verifies, checks, forwards):
        """At spacing >= 1 each arrival epoch holds one request, so the user
        signs once per request; the configs are those of ``TestTracePaths``."""
        counts = self.count_ops(monkeypatch, trace_paths_config(spacing, requests))
        assert counts == {"sign": signs, "user_sign": requests, "verify": verifies,
                          "probe": checks, "forward": forwards}

    @pytest.mark.parametrize("name,real_verifies", [
        # the sign memo still holds every signature when it is checked
        ("all_honest", 0),
        ("leak_attack", 0),
        ("mixed_adversaries", 0),
    ], ids=GOLDEN)
    def test_golden_real_verifies(self, monkeypatch, name, real_verifies):
        """Verifies that run the Ed25519 check: those the sign memo cannot
        answer.  The memo starts empty, so earlier tests do not count."""
        real = 0

        class CountingKey:
            def __init__(self, key):
                self.key = key

            def public_bytes(self, *args, **kwargs):
                return self.key.public_bytes(*args, **kwargs)

            def verify(self, signature, message):
                nonlocal real
                real += 1
                return self.key.verify(signature, message)

        init = crypto.PublicKey.__init__
        monkeypatch.setattr(crypto.PublicKey, "__init__",
                            lambda pk, key: init(pk, CountingKey(key)))
        monkeypatch.setattr(crypto, "_SIGNED", OrderedDict())
        sim.run(sim.ScenarioConfig.from_dict(
            json.loads((SCENARIOS / f"{name}.json").read_text())))
        assert real == real_verifies

    @pytest.mark.parametrize("name", GOLDEN)
    def test_one_task_root_vote_per_voting_orchestrator(self, monkeypatch, name):
        # an equivocating orchestrator votes on b"tasks?", and a withholding
        # one not at all
        signers = []
        sign = crypto.KeyPair.sign

        def recording(kp, *fields):
            if fields[0] in (b"tasks", b"tasks?"):
                signers.append(kp.public.raw)
            return sign(kp, *fields)
        monkeypatch.setattr(crypto.KeyPair, "sign", recording)
        config = sim.ScenarioConfig.from_dict(
            json.loads((SCENARIOS / f"{name}.json").read_text()))
        sim.run(config)
        withholding = list(config.orchestrator_overrides.values()).count(protocol.ORCH_WITHHOLD)
        assert len(signers) == len(set(signers)) == \
            config.network.committee_size - withholding


@st.composite
def small_scenarios(draw):
    """Random small runs: any executor and orchestrator mix the protocol must
    stay live under.  At most (executors - 2) // 2 executors are
    unresponsive, so the 64-attempt redraws practically never run out."""
    executors = draw(st.integers(min_value=2, max_value=8))
    fault_bound = draw(st.integers(min_value=0, max_value=2))
    kinds = st.sampled_from([sim.HONEST, sim.ALWAYS_FRAUD, sim.FRAUD_WITH_PROBABILITY,
                             sim.COLLUDE, sim.UNRESPONSIVE])
    overrides = {}
    unresponsive_left = (executors - 2) // 2
    for i in range(executors):
        kind = draw(kinds)
        if kind == sim.UNRESPONSIVE:
            if unresponsive_left == 0:
                kind = sim.HONEST
            else:
                unresponsive_left -= 1
        overrides[i] = sim.ExecStrategy(
            kind=kind, fraud_probability=0.5,
            group=draw(st.integers(0, 1)) if kind == sim.COLLUDE else None)
    byzantine = draw(st.lists(
        st.sampled_from([protocol.ORCH_WITHHOLD, protocol.ORCH_EQUIVOCATE,
                         protocol.ORCH_LEAK]), max_size=fault_bound))
    return sim.ScenarioConfig(
        network=NetworkConfig(
            executors=executors, fault_bound=fault_bound,
            challenge_probability=draw(st.sampled_from([0.0, 0.3, 1.0]))),
        master_seed=draw(st.binary(min_size=32, max_size=32)),
        requests=draw(st.integers(min_value=1, max_value=20)),
        arrival_spacing=draw(st.integers(min_value=0, max_value=2)),
        model_dims=(2, 3, 2),
        executor_overrides=overrides,
        orchestrator_overrides=dict(enumerate(byzantine)),
        user_colludes_with=draw(st.none() | st.integers(0, executors - 1)),
    )


class TestRunInvariants:
    """Run-level invariants over random small scenarios, with every
    signature passing through the sign memo."""

    @settings(max_examples=50)
    @given(small_scenarios())
    def test_invariants(self, cfg):
        result = sim.run(cfg)
        net = cfg.network
        assert sum(result.ledger.values()) == (
            net.payment_b * cfg.requests + net.executors * net.slash_s)
        assert len(result.lifecycles) == cfg.requests
        for reqid, lc in result.lifecycles.items():
            assert lc.history[0] is Phase.SUBMITTED and lc.concluded
            for a, b in zip(lc.history, lc.history[1:]):
                assert b in protocol.PHASE_TRANSITIONS[a]
            assert sum(d.amount for d in result.committee.pending_deltas[reqid]) == 0
        m = result.metrics
        assert m.challenges == m.matched_challenges + m.arbitrations


class TestScenarioConfig:
    def test_from_dict_reads_every_field(self):
        data = {
            "network": {"executors": 8, "fault_bound": 1, "challenge_probability": 0.3,
                        "t_assert": 4, "t_validate": 5, "payment_b": 40, "reward_r": 13,
                        "slash_s": 1600, "compute_cost": 9.5, "timeout_penalty": 7},
            "master_seed": SEED.hex(),
            "requests": 12,
            "arrival_spacing": 3,
            "model_dims": [3, 5, 2],
            "byzantine_fraction": 0.25,
            "byzantine_strategy": {"kind": sim.FRAUD_WITH_PROBABILITY, "fraud_probability": 0.4},
            "executor_overrides": {"1": {"kind": sim.COLLUDE, "group": 2},
                                   "6": sim.UNRESPONSIVE},
            "orchestrator_overrides": {"0": protocol.ORCH_WITHHOLD},
            "user_colludes_with": 3,
            "focal_executor": 2,
            "sweep_trials": 17,
        }
        expected = sim.ScenarioConfig(
            network=NetworkConfig(executors=8, fault_bound=1, challenge_probability=0.3,
                                  t_assert=4, t_validate=5, payment_b=40, reward_r=13,
                                  slash_s=1600, compute_cost=9.5, timeout_penalty=7),
            master_seed=SEED, requests=12, arrival_spacing=3, model_dims=(3, 5, 2),
            byzantine_fraction=0.25,
            byzantine_strategy=sim.ExecStrategy(kind=sim.FRAUD_WITH_PROBABILITY,
                                                fraud_probability=0.4),
            executor_overrides={1: sim.ExecStrategy(kind=sim.COLLUDE, group=2),
                                6: sim.ExecStrategy(kind=sim.UNRESPONSIVE)},
            orchestrator_overrides={0: protocol.ORCH_WITHHOLD},
            user_colludes_with=3, focal_executor=2, sweep_trials=17)
        # the literal names every field, and no field keeps its default
        for record, names in ((expected, data), (expected.network, data["network"])):
            assert set(names) == {f.name for f in fields(record)}
            for f in fields(record):
                default = f.default if f.default_factory is MISSING else f.default_factory()
                assert getattr(record, f.name) != default, f.name
        assert sim.ScenarioConfig.from_dict(data) == expected

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
        with pytest.raises(ValueError, match="exceed the budget"):
            config(executors=10, byzantine_fraction=0.1,
                   executor_overrides={i: sim.ExecStrategy(kind=sim.ALWAYS_FRAUD)
                                       for i in range(3)})

    def test_collusion_group_shares_wrong_output(self):
        strat = sim.ExecStrategy(kind=sim.COLLUDE, group=4)
        cfg = config(executors=6,
                     executor_overrides={i: strat for i in (1, 2, 5)})
        world = sim._World(replace(cfg, requests=0))
        outputs = {world.wrong_output(strat, i) for i in (1, 2, 5)}
        assert len(outputs) == 1 and world.y_true_b not in outputs

    def test_ungrouped_nodes_differ(self):
        strat = sim.ExecStrategy(kind=sim.ALWAYS_FRAUD)
        world = sim._World(config(requests=0))
        a = world.wrong_output(strat, 1)
        b = world.wrong_output(strat, 2)
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


TRACE_TAGS = {"accept", "assign", "timeout-asserter", "assert", "challenge", "validator",
              "timeout-validator", "validate", "arbitrate", "conclude", "settle"}


class TestTracePaths:
    """Every simulator path, pinned by its trace hash: a fraudulent, an
    unresponsive and a sometimes-fraudulent executor, a leaking orchestrator
    and a colluding user make runs that trace every tag.  The hashes were
    recorded before the request pipeline became one generator per request,
    so the event order of every path is what it was."""

    @pytest.mark.parametrize("spacing,requests,expected", [
        (0, 24, "d932e4e7d6c3fb2a7d35bfb956ee7597bc0cc7dd3c08281e98707f5222f20ec4"),
        (1, 32, "002c39a7a6cd696452b3f27d9d262c4eb742be7b5ccaca31a0c3d9fe6831ccf5"),
        (2, 24, "8f3075adb7b392fd9d0cf2dd039f95d906117f549e0ae939e1dc5d709b45e8fe"),
    ])
    def test_every_tag_traced(self, monkeypatch, spacing, requests, expected):
        tags = set()
        trace = sim._Simulation.trace

        def recorded(self, tag, epoch, *payload):
            tags.add(tag)
            trace(self, tag, epoch, *payload)
        monkeypatch.setattr(sim._Simulation, "trace", recorded)
        result = sim.run(trace_paths_config(spacing, requests))
        assert tags == TRACE_TAGS
        assert result.metrics.trace_hash == expected


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
        [est] = sim.estimate_strategy_payoff(cfg, [sim.HONEST], trials=500)
        net = cfg.network
        assert est.mean == pytest.approx(net.reward_r - net.compute_cost)
        assert est.stderr == 0.0

    def test_fraud_always_caught(self):
        cfg = config(p=1.0)
        [est] = sim.estimate_strategy_payoff(cfg, [sim.ALWAYS_FRAUD], trials=500)
        assert est.mean == pytest.approx(-cfg.network.slash_s)
        assert est.empirical_cheat_pass_rate == 0.0

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            sim.estimate_strategy_payoff(config(), [sim.HONEST], trials=0)

    def test_rejects_unresponsive_focal(self):
        with pytest.raises(ValueError):
            sim.estimate_strategy_payoff(config(), [sim.UNRESPONSIVE], trials=10)

    def test_fraud_mean_tracks_enumeration_oracle(self):
        # colluding-fraction scenario at slightly-above-threshold p
        p_star = econ.single_validator_min_p(10.0, 1500.0, 12.0, 0.1)
        p = 1.05 * p_star
        cfg = sim.ScenarioConfig(
            network=scaled_params(p), master_seed=SEED, requests=0,
            byzantine_fraction=0.1,
            byzantine_strategy=sim.ExecStrategy(kind=sim.COLLUDE, group=0))
        [est] = sim.estimate_strategy_payoff(
            cfg, [sim.ExecStrategy(kind=sim.COLLUDE, group=0)], trials=40_000)
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
        [est] = sim.estimate_strategy_payoff(cfg, [sim.HONEST], trials=300)
        net = cfg.network
        assert est.mean == net.reward_r + net.slash_s - net.compute_cost == 1502.0
        assert est.stderr == 0.0 and est.arbitrations == 300

    def test_leaked_result_lets_fraud_pass(self):
        cfg = config(p=1.0, executor_overrides={
            i: sim.ExecStrategy(kind=sim.ALWAYS_FRAUD) for i in range(1, 8)},
            orchestrator_overrides={0: protocol.ORCH_LEAK})
        [est] = sim.estimate_strategy_payoff(cfg, [sim.ALWAYS_FRAUD], trials=300)
        assert est.mean == cfg.network.reward_r == 12.0
        assert est.empirical_cheat_pass_rate == 1.0

    @pytest.mark.parametrize("one", [sim.HONEST, sim.ExecStrategy(kind=sim.ALWAYS_FRAUD)])
    def test_rejects_a_single_strategy(self, one):
        # a string would otherwise be iterated character by character
        with pytest.raises(TypeError):
            sim.estimate_strategy_payoff(config(), one, trials=10)


@st.composite
def estimator_cases(draw):
    """A random small scenario with a random focal node, and a trial count."""
    cfg = draw(small_scenarios())
    focal = draw(st.integers(0, cfg.network.executors - 1))
    return replace(cfg, focal_executor=focal), draw(st.integers(1, 60))


def estimate_or_error(cfg, strategies, trials):
    try:
        return [e.to_dict() for e in sim.estimate_strategy_payoff(cfg, strategies, trials)]
    except protocol.ProtocolError as exc:
        return [repr(exc)] * len(strategies)


class TestEstimateOnePass:
    """One pass over the trials scores several focal strategies, each
    exactly as a call with that strategy alone would."""

    FOCALS = (sim.HONEST, sim.ALWAYS_FRAUD, sim.ExecStrategy(kind=sim.COLLUDE, group=0))

    @settings(max_examples=60)
    @given(estimator_cases())
    @example((config(executors=4, p=1.0, orchestrator_overrides={0: protocol.ORCH_LEAK},
                     executor_overrides={1: sim.ExecStrategy(kind=sim.UNRESPONSIVE),
                                         2: sim.ExecStrategy(kind=sim.FRAUD_WITH_PROBABILITY,
                                                             fraud_probability=0.5),
                                         3: sim.ExecStrategy(kind=sim.COLLUDE, group=0)}),
              200))
    @example((config(executors=6, p=0.5, byzantine_fraction=0.5,
                     byzantine_strategy=sim.ExecStrategy(kind=sim.FRAUD_WITH_PROBABILITY,
                                                         fraud_probability=0.3)),
              200))
    def test_matches_one_strategy_calls(self, case):
        cfg, trials = case
        one_pass = estimate_or_error(cfg, self.FOCALS, trials)
        assert one_pass == [d for s in self.FOCALS for d in estimate_or_error(cfg, [s], trials)]

    def test_sweep_row_work_is_exact(self, monkeypatch):
        """PRF and payout calls of one honest/fraud estimate on the `posp
        sweep` scenario: three PRFs per trial, one per challenge and 63 to
        set up; one payout per strategy for all the unchallenged trials
        together, and one per strategy per challenge."""
        counts = {"prf": 0, "payout": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        prf = counted("prf", crypto.prf)
        monkeypatch.setattr(crypto, "prf", prf)
        monkeypatch.setattr(sim, "prf", prf)
        monkeypatch.setattr(sim, "payout", counted("payout", sim.payout))
        cfg = sim.ScenarioConfig(
            network=scaled_params(0.01), master_seed=bytes([0x28] * 32), requests=0,
            byzantine_fraction=0.1,
            byzantine_strategy=sim.ExecStrategy(kind=sim.COLLUDE, group=0))
        honest, fraud = sim.estimate_strategy_payoff(cfg, (sim.HONEST, sim.ALWAYS_FRAUD), 2000)
        assert honest.challenges == fraud.challenges == 12
        assert counts == {"prf": 3 * 2000 + 12 + 63, "payout": 2 + 2 * 12}


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
        [est] = sim.estimate_strategy_payoff(cfg, [strategy], trials=4000)
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
        [est] = sim.estimate_strategy_payoff(cfg, [kind], trials=2000)
        assert est.to_dict() == {"strategy": kind, "trials": 2000, **expected}


class TestDeriveInput:
    def test_matches_the_biases_of_a_whole_model(self):
        seed = crypto.prf(SEED, b"input-seed")
        for dim in range(1, 41):
            whole = generate_model(seed, (dim, dim)).biases[0]
            assert sim._derive_input(SEED, dim) == whole

    def test_draws_only_the_blocks_it_uses(self, monkeypatch):
        calls = []
        prf = crypto.prf
        monkeypatch.setattr(crypto, "prf", lambda *args: calls.append(args) or prf(*args))
        for dim in (1, 8, 40):
            calls.clear()
            sim._derive_input(SEED, dim)
            start = dim * dim
            assert len(calls) == (start + dim - 1) // 8 - start // 8 + 1
