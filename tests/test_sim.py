"""End-to-end simulator tests: determinism, adversary assignment, payoff
estimation, the leak attack, timeouts, and liveness under faulty
orchestrators."""

import errno
import heapq
import json
import math
import os
import threading
import tracemalloc
from array import array
from dataclasses import MISSING, fields, replace
from fractions import Fraction
from itertools import count
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from posp import cli, crypto, econ, protocol, sim
from posp.model import Fixed, generate_model
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
        """Signs (and those by the user), verify calls, memo probes,
        forwards and request-prefix encodings of one run of ``config``."""
        counts = {"sign": 0, "user_sign": 0, "verify": 0, "probe": 0, "forward": 0,
                  "prefix": 0}
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
        monkeypatch.setattr(crypto, "request_prefix",
                            counted("prefix", crypto.request_prefix))
        sim.run(config)
        return counts

    @pytest.mark.parametrize("name,signs,checks,forwards", [
        ("all_honest", 40, 1272, 318),
        ("leak_attack", 70, 1786, 399),
        ("mixed_adversaries", 108, 3650, 435),
    ], ids=GOLDEN)
    def test_golden_op_counts(self, monkeypatch, name, signs, checks, forwards):
        # the run's one message has one x: user_submit and accept_request
        # each encode its prefix once
        counts = self.count_ops(monkeypatch, sim.ScenarioConfig.from_dict(
            json.loads((SCENARIOS / f"{name}.json").read_text())))
        assert counts == {"sign": signs, "user_sign": 1, "verify": self.VERIFY_CALLS[name],
                          "probe": checks, "forward": forwards, "prefix": 2}

    @pytest.mark.parametrize("spacing,requests,signs,verifies,checks,forwards", [
        (1, 32, 174, 98, 272, 39),
        (2, 24, 170, 75, 213, 34),
    ])
    def test_spaced_arrivals_sign_once_per_request(self, monkeypatch, spacing, requests,
                                                   signs, verifies, checks, forwards):
        """At spacing >= 1 each arrival epoch holds one request, so the user
        signs once per request, and each message's prefix is encoded twice
        (``user_submit``, ``accept_request``); the configs are those of
        ``TestTracePaths``."""
        counts = self.count_ops(monkeypatch, trace_paths_config(spacing, requests))
        assert counts == {"sign": signs, "user_sign": requests, "verify": verifies,
                          "probe": checks, "forward": forwards, "prefix": 2 * requests}

    @pytest.mark.parametrize("name,requests", [
        ("all_honest", None),
        ("leak_attack", None),
        ("mixed_adversaries", None),
        # 1 and 14 real verifies when one memo held the process's 64 most
        # recent signatures
        ("leak_attack", 1000),
        ("mixed_adversaries", 1000),
    ], ids=GOLDEN + ["leak_attack-1000", "mixed_adversaries-1000"])
    def test_golden_real_verifies(self, ed25519_checks, name, requests):
        """No verify runs the Ed25519 check: each key's sign memo holds
        every signature made with it for as long as the run's keys live.
        ``requests`` overrides the scenario's request count."""
        data = json.loads((SCENARIOS / f"{name}.json").read_text())
        if requests is not None:
            data["requests"] = requests
        sim.run(sim.ScenarioConfig.from_dict(data))
        assert ed25519_checks == []

    @pytest.mark.parametrize("name", GOLDEN)
    def test_sign_memo_never_changes_an_answer(self, monkeypatch, name):
        """With the memo probe answering False, every signature check runs
        Ed25519, and the run gives its golden trace hash and ledger."""
        config = sim.ScenarioConfig.from_dict(
            json.loads((SCENARIOS / f"{name}.json").read_text()))
        ledger = sim.run(config).ledger
        monkeypatch.setattr(crypto.PublicKey, "signed_here", lambda pk, sig, message: False)
        result = sim.run(config)
        golden = json.loads((SCENARIOS / "golden_hashes.json").read_text())[name]
        assert result.metrics.trace_hash == golden
        assert result.ledger == ledger

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

    def test_lifecycle_repr_is_small(self):
        # a failing test's traceback reprs its lifecycles; each must print in
        # a few lines, not with its task batch's whole Merkle tree
        data = json.loads((SCENARIOS / "mixed_adversaries.json").read_text())
        result = sim.run(sim.ScenarioConfig.from_dict({**data, "requests": 1000}))
        assert len(result.lifecycles) == 1000
        assert max(len(repr(lc)) for lc in result.lifecycles.values()) < 4096


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
            "sweep_trials": sim.MAX_SWEEP_TRIALS,  # the largest accepted
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
            user_colludes_with=3, focal_executor=2, sweep_trials=sim.MAX_SWEEP_TRIALS)
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


class TestWrongOutputs:
    """A world derives no wrong output up front, and the estimator compares
    wrong results by their ``_wrong_amount``."""

    @pytest.mark.parametrize("name", ["mixed_adversaries", "leak_attack"])
    def test_bytes_equal_exactly_when_amounts_do(self, name):
        world = sim._World(sim.ScenarioConfig.from_dict(
            json.loads((SCENARIOS / f"{name}.json").read_text())))
        group = sim.ExecStrategy(kind=sim.COLLUDE, group=9)
        liars = [*enumerate(world.strategies), (1, group), (2, group)]
        named = [(sim._wrong_amount(strategy, node), world.wrong_output(strategy, node))
                 for node, strategy in liars]
        assert all(y != world.y_true_b for _, y in named)
        for amount, y in named:
            for other_amount, other_y in named:
                assert (y == other_y) == (amount == other_amount)

    def test_world_memory_does_not_scale_with_liars(self):
        # 253 liars with 16,384 outputs each: 32 MiB of wrong outputs if encoded
        cfg = replace(config(executors=256, requests=0, byzantine_fraction=0.99),
                      model_dims=(1, 16384))
        tracemalloc.start()
        try:
            world = sim._World(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(s.adversarial for s in world.strategies) == 253
        assert peak < 16 * 1024 * 1024

    def test_estimator_encodes_no_wrong_output(self, monkeypatch):
        rows = benchmark_sweep_rows()
        focals = (sim.HONEST, sim.ALWAYS_FRAUD, sim.ExecStrategy(kind=sim.COLLUDE, group=0))
        expected = sim.estimate_strategy_payoff(rows, focals, 2000)

        def corrupt(y, amount=1):
            raise AssertionError("encoded a wrong output")
        monkeypatch.setattr(sim, "corrupt", corrupt)
        for row in rows:
            sim._World(row)
        assert sim.estimate_strategy_payoff(rows, focals, 2000) == expected


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
        fraud_requests = [lc for lc in result.lifecycles.values() if lc.nodes[0] == 2]
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
        asserted = [lc for lc in result.lifecycles.values() if lc.nodes[0] == 0]
        outcomes = {lc.phase for lc in asserted}
        assert Phase.ARBITRATED_DONE in outcomes and Phase.MATCHED_DONE in outcomes

    def test_user_collusion_counts_undetected_fraud(self):
        cfg = config(p=0.0, requests=60, user_colludes_with=3)
        result = sim.run(cfg)
        colluded = [lc for lc in result.lifecycles.values() if lc.nodes[0] == 3]
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


class _HeapOrderSimulation(sim._Simulation):
    """The reference event loop: one heap of (epoch, scheduling counter,
    step), which steps an epoch's requests in the order they were scheduled."""

    def __init__(self, config):
        super().__init__(config)
        self._heap = []
        self._counter = count()

    def schedule(self, epoch, step):
        heapq.heappush(self._heap, (epoch, next(self._counter), step))

    def _drain(self):
        last_epoch = 0
        while self._heap:
            epoch, _, step = heapq.heappop(self._heap)
            self.beacon.current_epoch = max(self.beacon.current_epoch, epoch)
            try:
                self.schedule(epoch + step.send(epoch), step)
            except StopIteration:
                pass
            last_epoch = epoch
        return last_epoch


class TestEventOrder:
    """The per-epoch lists step requests in the reference heap's order, under
    drawn arrival spacings and response timeouts, on the runs of
    ``TestTracePaths`` (which pin the default timeouts only)."""

    @settings(max_examples=60)
    @example(spacing=1, t_assert=2, t_validate=4, requests=24)
    @given(spacing=st.integers(0, 3), t_assert=st.integers(1, 4),
           t_validate=st.integers(1, 4), requests=st.integers(1, 24))
    def test_epoch_lists_step_in_heap_order(self, spacing, t_assert, t_validate, requests):
        cfg = trace_paths_config(spacing, requests)
        cfg = replace(cfg, network=replace(cfg.network, t_assert=t_assert,
                                           t_validate=t_validate))
        expected = _HeapOrderSimulation(cfg).run().metrics.trace_hash
        assert sim._Simulation(cfg).run().metrics.trace_hash == expected


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
        honest_asserted = [lc for lc in result.lifecycles.values() if lc.nodes[0] != 1]
        assert honest_asserted
        assert all(lc.phase is Phase.MATCHED_DONE for lc in honest_asserted)
        assert result.metrics.arbitrations == sum(
            1 for lc in result.lifecycles.values() if lc.nodes[0] == 1)

    def test_fraudulent_asserter_free_rider_is_undetected_fraud(self):
        cfg = config(p=1.0, requests=80,
                     executor_overrides={1: sim.ExecStrategy(kind=sim.ALWAYS_FRAUD),
                                         2: sim.ExecStrategy(kind=sim.ALWAYS_FRAUD)},
                     orchestrator_overrides={0: protocol.ORCH_LEAK})
        result = sim.run(cfg)
        free_ridden = [lc for lc in result.lifecycles.values()
                       if lc.nodes[0] in (1, 2) and lc.nodes[1] in (1, 2)]
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
        [[est]] = sim.estimate_strategy_payoff([cfg], [sim.HONEST], trials=500)
        net = cfg.network
        assert est.mean == pytest.approx(net.reward_r - net.compute_cost)
        assert est.stderr == 0.0

    def test_fraud_always_caught(self):
        cfg = config(p=1.0)
        [[est]] = sim.estimate_strategy_payoff([cfg], [sim.ALWAYS_FRAUD], trials=500)
        assert est.mean == pytest.approx(-cfg.network.slash_s)
        assert est.empirical_cheat_pass_rate == 0.0

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            sim.estimate_strategy_payoff([config()], [sim.HONEST], trials=0)

    def test_rejects_more_trials_than_a_packed_candidate_holds(self):
        with pytest.raises(ValueError):
            sim.estimate_strategy_payoff([config()], [sim.HONEST],
                                         trials=sim.MAX_SWEEP_TRIALS + 1)

    def test_rejects_more_thresholds_than_a_packed_rank_holds(self, monkeypatch):
        # a packed candidate leaves 64 - 24 - 12 = 28 bits for its rank
        assert sim._RANK_LIMIT == 1 << 28
        monkeypatch.setattr(sim, "_RANK_LIMIT", 2)

        def no_world(config):
            raise AssertionError("built a world")
        monkeypatch.setattr(sim, "_World", no_world)
        rows = [config(p=0.1), config(p=0.2)]
        with pytest.raises(ValueError, match="fewer than 2 distinct"):
            sim.estimate_strategy_payoff(rows, [sim.HONEST], trials=10)

    def test_repeated_thresholds_count_once(self, monkeypatch):
        monkeypatch.setattr(sim, "_RANK_LIMIT", 2)
        rows = [config(p=0.3), config(p=0.3)]
        first, second = sim.estimate_strategy_payoff(rows, [sim.HONEST], trials=10)
        assert first == second

    def test_rejects_unresponsive_focal(self):
        with pytest.raises(ValueError):
            sim.estimate_strategy_payoff([config()], [sim.UNRESPONSIVE], trials=10)

    def test_fraud_mean_tracks_enumeration_oracle(self):
        # colluding-fraction scenario at slightly-above-threshold p
        p_star = econ.single_validator_min_p(10.0, 1500.0, 12.0, 0.1)
        p = 1.05 * p_star
        cfg = sim.ScenarioConfig(
            network=scaled_params(p), master_seed=SEED, requests=0,
            byzantine_fraction=0.1,
            byzantine_strategy=sim.ExecStrategy(kind=sim.COLLUDE, group=0))
        [[est]] = sim.estimate_strategy_payoff(
            [cfg], [sim.ExecStrategy(kind=sim.COLLUDE, group=0)], trials=40_000)
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
        [[est]] = sim.estimate_strategy_payoff([cfg], [sim.HONEST], trials=300)
        net = cfg.network
        assert est.mean == net.reward_r + net.slash_s - net.compute_cost == 1502.0
        assert est.stderr == 0.0 and est.arbitrations == 300

    def test_leaked_result_lets_fraud_pass(self):
        cfg = config(p=1.0, executor_overrides={
            i: sim.ExecStrategy(kind=sim.ALWAYS_FRAUD) for i in range(1, 8)},
            orchestrator_overrides={0: protocol.ORCH_LEAK})
        [[est]] = sim.estimate_strategy_payoff([cfg], [sim.ALWAYS_FRAUD], trials=300)
        assert est.mean == cfg.network.reward_r == 12.0
        assert est.empirical_cheat_pass_rate == 1.0

    @pytest.mark.parametrize("one", [sim.HONEST, sim.ExecStrategy(kind=sim.ALWAYS_FRAUD)])
    def test_rejects_a_single_strategy(self, one):
        # a string would otherwise be iterated character by character
        with pytest.raises(TypeError):
            sim.estimate_strategy_payoff([config()], one, trials=10)


@st.composite
def estimator_cases(draw):
    """A random small scenario with a random focal node, one to four rows of
    it along one `posp sweep` axis, and a trial count."""
    cfg = draw(small_scenarios())
    cfg = replace(cfg, focal_executor=draw(st.integers(0, cfg.network.executors - 1)))
    axis = draw(st.sampled_from(cli.SWEEP_AXES))
    count = draw(st.integers(1, 4))
    if axis == "p":
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count))
    elif axis == "S":
        values = draw(st.lists(st.integers(0, 3000).map(float), min_size=count,
                               max_size=count))
    else:
        # a Byzantine fraction fills the nodes left without an override, and
        # each row's floor(r * N) must cover the adversarial overrides kept
        n = cfg.network.executors
        kept = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
        overrides = {i: cfg.executor_overrides[i] for i in kept}
        cfg = replace(cfg, executor_overrides=overrides, byzantine_strategy=draw(
            st.sampled_from([sim.ExecStrategy(kind=sim.ALWAYS_FRAUD),
                             sim.ExecStrategy(kind=sim.FRAUD_WITH_PROBABILITY,
                                              fraud_probability=0.5),
                             sim.ExecStrategy(kind=sim.COLLUDE, group=0)])))
        adversarial = sum(s.adversarial for s in overrides.values())
        values = [(k + 0.5) / n for k in draw(st.lists(
            st.integers(adversarial, n - 1), min_size=count, max_size=count))]
    return along(cfg, axis, values), draw(st.integers(1, 60))


def along(cfg, axis, values):
    """The sweep rows of ``cfg`` at ``values`` on ``axis``."""
    return [cli._apply_axis(cfg, axis, value) for value in values]


def estimate_or_error(rows, strategies, trials):
    """Each row's estimates as dicts, or the repr of the ProtocolError the
    call raised."""
    try:
        return [[e.to_dict() for e in estimates]
                for estimates in sim.estimate_strategy_payoff(rows, strategies, trials)]
    except protocol.ProtocolError as exc:
        return repr(exc)


LEAK_REDRAW_FRAUD_COLLUDE = config(
    executors=4, p=1.0, orchestrator_overrides={0: protocol.ORCH_LEAK},
    executor_overrides={1: sim.ExecStrategy(kind=sim.UNRESPONSIVE),
                        2: sim.ExecStrategy(kind=sim.FRAUD_WITH_PROBABILITY,
                                            fraud_probability=0.5),
                        3: sim.ExecStrategy(kind=sim.COLLUDE, group=0)})
FRAUD_WITH_PROBABILITY_HALF = config(
    executors=6, p=0.5, byzantine_fraction=0.5,
    byzantine_strategy=sim.ExecStrategy(kind=sim.FRAUD_WITH_PROBABILITY,
                                        fraud_probability=0.3))


def sweep_scenario(p):
    """The `posp sweep` benchmark scenario at challenge probability p."""
    return sim.ScenarioConfig(
        network=scaled_params(p), master_seed=bytes([0x28] * 32), requests=0,
        byzantine_fraction=0.1,
        byzantine_strategy=sim.ExecStrategy(kind=sim.COLLUDE, group=0))


def benchmark_sweep_rows():
    """The benchmark's seven-row p sweep, 0.5 p* to 2 p*."""
    p_star = econ.single_validator_min_p(10.0, 1500.0, 12.0, 0.1)
    return along(sweep_scenario(0.01), "p", cli._axis_values(0.5 * p_star, 2 * p_star, 7))


class TestTrialDraws:
    """``_trial_draws`` makes each trial's draws by the protocol's rules,
    with the master seed's key blocks hashed once per call."""

    TRIALS = [0, 1, 255, 256, 1 << 16, sim.MAX_SWEEP_TRIALS - 1]

    def test_draws_follow_the_protocol_rules(self):
        world = sim._World(sweep_scenario(0.01))
        master, focal = world.config.master_seed, world.config.focal_executor
        prefix = crypto.request_prefix(world.user_keys.public.raw, world.x)
        draws = list(sim._trial_draws(master, prefix, iter(self.TRIALS)))
        assert len(draws) == len(self.TRIALS)
        for t, (reqid, tau_chal, s, u) in zip(self.TRIALS, draws):
            nonce = t.to_bytes(8, "big")
            assert reqid == crypto.derive_reqid(prefix, nonce)
            assert tau_chal == crypto.prf(crypto.prf(master, b"trial" + nonce), b"tau-chal")
            assert s == protocol.selection_string(prefix, reqid)
            assert u == crypto.prf_u64(tau_chal, s)
            # the estimator's first validator is the protocol's first draw,
            # also when that draw lands on the asserter
            for asserter in (focal, u % 50):
                assert (protocol.validator_of(u, asserter, 50)
                        == protocol.draw_validator(tau_chal, s, asserter, 50))

    @pytest.mark.parametrize("factors", [
        (float("inf"), 2.0, 1.0, 1.0, 0.5, 0.0),
        (1.0, 0.0, float("inf"), 0.5, 1.0, 2.0),
    ], ids=["descending", "unsorted"])
    def test_each_row_equals_a_one_row_call(self, factors):
        # inf stands for p = 1, where every trial is challenged; each list
        # repeats p* and holds p = 0, where none is
        p_star = econ.single_validator_min_p(10.0, 1500.0, 12.0, 0.1)
        rows = [sweep_scenario(1.0 if f == float("inf") else f * p_star) for f in factors]
        focals = (sim.HONEST, sim.ALWAYS_FRAUD)
        together = sim.estimate_strategy_payoff(rows, focals, 2000)
        alone = [sim.estimate_strategy_payoff([row], focals, 2000)[0] for row in rows]
        assert together == alone
        challenges = {f: honest.challenges for f, (honest, _) in zip(factors, together)}
        assert challenges[float("inf")] == 2000 and challenges[0.0] == 0


class TestEstimateOnePass:
    """One pass over the trials scores several focal strategies and several
    sweep rows, each exactly as a call with that row and that strategy
    alone would."""

    FOCALS = (sim.HONEST, sim.ALWAYS_FRAUD, sim.ExecStrategy(kind=sim.COLLUDE, group=0))

    @settings(max_examples=60)
    @given(estimator_cases())
    @example((along(LEAK_REDRAW_FRAUD_COLLUDE, "p", [1.0, 0.3, 0.0, 0.7]), 200))
    @example((along(LEAK_REDRAW_FRAUD_COLLUDE, "S", [1500.0, 0.0, 200.0]), 200))
    @example((along(FRAUD_WITH_PROBABILITY_HALF, "r", [0.5, 0.2, 0.0, 0.84]), 200))
    @example((along(FRAUD_WITH_PROBABILITY_HALF, "p", [0.5]), 200))
    def test_matches_one_strategy_calls(self, case):
        rows, trials = case
        expected = []
        for row in rows:
            singles = [estimate_or_error([row], [s], trials) for s in self.FOCALS]
            if isinstance(singles[0], str):
                # a trial's draws fail whatever the focal strategy
                assert singles == singles[:1] * len(singles)
                expected = singles[0]  # and the call stops at its first failing row
                break
            expected.append([d for [[d]] in singles])
        assert estimate_or_error(rows, self.FOCALS, trials) == expected

    @pytest.mark.parametrize("change", [
        {"master_seed": bytes(32)},
        {"model_dims": (4, 8, 3)},
        {"network": NetworkConfig(executors=9, fault_bound=1, challenge_probability=0.0)},
        {"focal_executor": 1},
    ], ids=["master_seed", "model_dims", "executors", "focal_executor"])
    def test_rows_must_share_their_draws(self, change):
        base = config()
        with pytest.raises(ValueError, match="rows must agree"):
            sim.estimate_strategy_payoff([base, replace(base, **change)], self.FOCALS, 10)

    @pytest.fixture
    def counts(self, monkeypatch):
        """PRF and payout calls made after the fixture; each evaluation of a
        ``crypto.keyed_prf`` function is one PRF."""
        counts = {"prf": 0, "payout": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        prf = counted("prf", crypto.prf)
        monkeypatch.setattr(crypto, "prf", prf)
        monkeypatch.setattr(sim, "prf", prf)
        keyed_prf = crypto.keyed_prf
        monkeypatch.setattr(crypto, "keyed_prf",
                            lambda seed: counted("prf", keyed_prf(seed)))
        monkeypatch.setattr(sim, "payout", counted("payout", sim.payout))
        return counts

    def test_sweep_row_work_is_exact(self, counts):
        """PRF and payout calls of one honest/fraud estimate on the `posp
        sweep` scenario, at 2,000 trials, too few to fork a worker: three
        PRFs per trial to draw its u and 63 to set up, and no redraw, since
        no validator of this scenario reads the request; one payout per
        strategy for all the unchallenged trials together, and one per
        strategy per outcome class.  All 12 challenges go to honest
        validators, one class.  Redrawing each challenged trial took
        6,000 + 3 * 12 + 63 = 6,099 PRFs, and one payout per strategy per
        challenge 2 + 2 * 12 = 26 payouts."""
        [[honest, fraud]] = sim.estimate_strategy_payoff(
            [sweep_scenario(0.01)], (sim.HONEST, sim.ALWAYS_FRAUD), 2000)
        assert honest.challenges == fraud.challenges == 12
        assert counts == {"prf": 3 * 2000 + 63, "payout": 2 + 2 * 1}

    def test_sweep_work_is_exact(self, counts):
        """The same counts for the benchmark's seven-row p sweep, 0.5 p* to
        2 p*, at 2,000 trials, so one process draws every u.  Each trial's u
        costs 3 PRFs, drawn once for every row.  Each row, the first
        included, scans those values, so it pays 63 to set up its world and
        counts its challenges per first validator, all of them honest here:
        no PRF to redraw a trial, and one outcome class.  Payouts are per
        row as in one-row calls."""
        estimates = sim.estimate_strategy_payoff(
            benchmark_sweep_rows(), (sim.HONEST, sim.ALWAYS_FRAUD), 2000)
        assert [(h.challenges, f.challenges) for h, f in estimates] == [
            (c, c) for c in (6, 8, 10, 12, 13, 18, 20)]
        # PRFs: every u 3 * 2000 = 6000 and the rows 7 * 63 = 441 to set up.
        # Payouts: per row 2 unchallenged and 2 for its one class, 7 * 4 = 28.
        # Redrawing each row's challenges took 3 * 87 = 261 more PRFs, and
        # one payout per strategy per challenge 7 * 2 + 2 * 87 = 188 payouts;
        # drawing every row afresh took 7 * (3 * 2000 + 63) + 87 = 42,528 PRFs.
        assert counts == {"prf": 6000 + 441, "payout": 28}

    def test_memory_is_the_kept_challenge_values(self):
        """At p = 1 every trial is challenged, yet the estimate keeps only
        each trial's 8-byte u: its traced peak stays under 8 bytes per trial
        plus a fixed 256 KiB for the world."""
        trials = 5000
        tracemalloc.start()
        try:
            [[honest, fraud]] = sim.estimate_strategy_payoff(
                [sweep_scenario(1.0)], (sim.HONEST, sim.ALWAYS_FRAUD), trials)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert honest.challenges == fraud.challenges == trials
        assert peak < 8 * trials + 256 * 1024

    def test_memory_is_the_kept_challenge_values_when_redrawn(self):
        """The same bound when nine validators in ten decide from the
        request, so nearly every challenged trial is redrawn and answered
        one by one: each answer joins its class as it comes, and none is
        kept."""
        trials = 5000
        row = replace(sweep_scenario(1.0), byzantine_fraction=0.9,
                      byzantine_strategy=sim.ExecStrategy(kind=sim.FRAUD_WITH_PROBABILITY,
                                                          fraud_probability=0.5))
        tracemalloc.start()
        try:
            [[honest, fraud]] = sim.estimate_strategy_payoff(
                [row], (sim.HONEST, sim.ALWAYS_FRAUD), trials)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert honest.challenges == fraud.challenges == trials
        assert peak < 8 * trials + 256 * 1024


class TestPackCandidates:
    """``_pack_candidates`` moves the trials below the largest threshold to
    the front of the map, in trial order, each packed as its rank, its first
    validator's bucket and its index."""

    @settings(max_examples=200)
    @given(st.data())
    def test_candidates_unpack_to_rank_bucket_and_trial(self, data):
        levels = sorted(data.draw(st.lists(st.integers(0, 1 << 64), min_size=1, max_size=5,
                                           unique=True)), reverse=True)
        # besides any u, one at a level and one just below it
        near = st.sampled_from(levels).flatmap(lambda level: st.sampled_from(
            [level, level - 1])).filter(lambda u: 0 <= u < 1 << 64)
        values = data.draw(st.lists(st.integers(0, (1 << 64) - 1) | near, max_size=60))
        n = data.draw(st.sampled_from([2, 3, 50, protocol.MAX_EXECUTORS]))
        us = array("Q", values)
        found = sim._pack_candidates(memoryview(us), levels, n)
        trials = [t for t, u in enumerate(values) if u < levels[0]]
        assert [c & sim._TRIAL_MASK for c in us[:found]] == trials
        for packed, t in zip(us[:found], trials):
            u = values[t]
            assert packed >> sim._TRIAL_BITS & sim._BUCKET_MASK == u % n
            assert packed >> sim._RANK_SHIFT == sum(level > u for level in levels)


def reference_row(row, strategies, trials):
    """One row's estimates scored trial by trial, as the estimator did
    before it counted challenged trials per first validator: every trial
    whose u lies below the row's threshold is redrawn through
    ``_trial_draws``, classed by its own validator, and pays each strategy
    its own payout."""
    world = sim._World(row)
    net = row.network
    master, focal = row.master_seed, row.focal_executor
    account = f"exec:{focal}"
    table, leak = world.strategies, world.leak
    prefix = crypto.request_prefix(world.user_keys.public.raw, world.x)
    threshold = crypto.sample_threshold(net.challenge_probability)
    challenged = [t for t, (_, _, _, u) in enumerate(
        sim._trial_draws(master, prefix, range(trials))) if u < threshold]

    def focal_delta(deltas):
        return sum(d.amount for d in deltas if d.account == account)

    paid = [[] for _ in strategies]
    arbitrations = [0] * len(strategies)
    for reqid, tau_chal, s, u in sim._trial_draws(master, prefix, challenged):
        attempt = 1
        j = protocol.validator_of(u, focal, net.executors)
        while table[j].kind == sim.UNRESPONSIVE:
            if attempt > sim.MAX_ATTEMPTS:
                raise protocol.ProtocolError("no responsive validator found")
            attempt += 1
            j = protocol.draw_validator(
                tau_chal, protocol.selection_string(prefix, reqid, attempt),
                focal, net.executors)
        copied = leak and table[j].adversarial
        y_j = None if copied else (
            sim._wrong_amount(table[j], j) if sim._lies(master, table[j], j, reqid) else 0)
        for i, strategy in enumerate(strategies):
            fraud = strategy.adversarial
            if copied or y_j == (sim._wrong_amount(strategy, focal) if fraud else 0):
                deltas = protocol.payout(net, reqid, focal, j)
            else:
                arbitrations[i] += 1
                deltas = protocol.payout(net, reqid, focal, j, (not fraud, y_j == 0))
            paid[i].append((focal_delta(deltas), 1))
    unchallenged = (focal_delta(protocol.payout(net, b"", focal)), trials - len(challenged))
    return [sim._estimate(strategy, trials, len(challenged), arbitrations[i],
                          paid[i] + [unchallenged],
                          0.0 if strategy.adversarial else net.compute_cost)
            for i, strategy in enumerate(strategies)]


def per_request_challenges(row, trials):
    """How many trials the row challenges whose first validator reads the
    request: an unresponsive or a fraud-with-probability one."""
    world = sim._World(row)
    net = row.network
    prefix = crypto.request_prefix(world.user_keys.public.raw, world.x)
    threshold = crypto.sample_threshold(net.challenge_probability)
    return sum(
        u < threshold and world.strategies[protocol.validator_of(
            u, row.focal_executor, net.executors)].kind in sim._PER_REQUEST
        for _, _, _, u in sim._trial_draws(row.master_seed, prefix, range(trials)))


def redrawn_estimates(monkeypatch, rows, strategies, trials):
    """The estimator's answer, and how many trials it drew through
    ``_trial_draws`` beyond every trial's one u draw."""
    drawn = []
    draws = sim._trial_draws

    def counted(master, prefix, ts):
        for draw in draws(master, prefix, ts):
            drawn.append(None)
            yield draw
    with monkeypatch.context() as patched:
        # one CPU: a forked worker's draws would never reach this counter
        patched.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        patched.setattr(sim, "_trial_draws", counted)
        estimates = sim.estimate_strategy_payoff(rows, strategies, trials)
    return estimates, len(drawn) - trials


def golden_scenario(name):
    return sim.ScenarioConfig.from_dict(json.loads((SCENARIOS / f"{name}.json").read_text()))


class TestCountingOracle:
    """Counting a row's challenged trials per first validator gives exactly
    what scoring each challenged trial on its own gave, and redraws only the
    trials whose first validator reads the request."""

    FOCALS = (sim.HONEST_STRATEGY, sim.ExecStrategy(kind=sim.ALWAYS_FRAUD),
              sim.ExecStrategy(kind=sim.COLLUDE, group=0),
              sim.ExecStrategy(kind=sim.COLLUDE, group=1))
    PS = (0.0, 0.01, 0.3, 1.0)

    @pytest.mark.parametrize("name", ["mixed_adversaries", "leak_attack", "sweep"])
    def test_equals_the_per_trial_scorer(self, monkeypatch, name):
        base = sweep_scenario(0.01) if name == "sweep" else golden_scenario(name)
        rows = along(base, "p", self.PS)
        trials = 2000
        expected = [reference_row(row, self.FOCALS, trials) for row in rows]
        for row, reference in zip(rows, expected):
            alone, redraws = redrawn_estimates(monkeypatch, [row], self.FOCALS, trials)
            assert alone == [reference]
            assert redraws == per_request_challenges(row, trials)
        assert sim.estimate_strategy_payoff(rows, self.FOCALS, trials) == expected
        # p = 1 challenges every trial, and each scenario reaches its path
        assert expected[-1][0].challenges == trials
        if name == "mixed_adversaries":
            # unresponsive and fraud-with-probability validators are redrawn
            assert per_request_challenges(rows[-1], trials) > 0
        elif name == "leak_attack":
            # a validator that copies the leaked result lets fraud pass
            fraud = expected[-1][1]
            assert 0 < fraud.arbitrations < trials
        else:
            # no validator reads the request
            assert redrawn_estimates(monkeypatch, rows, self.FOCALS, trials)[1] == 0

    @settings(max_examples=60)
    @given(estimator_cases())
    @example((along(LEAK_REDRAW_FRAUD_COLLUDE, "p", [1.0, 0.3, 0.0, 0.7]), 200))
    @example((along(FRAUD_WITH_PROBABILITY_HALF, "r", [0.5, 0.2, 0.0, 0.84]), 200))
    def test_small_worlds_equal_the_per_trial_scorer(self, case):
        rows, trials = case
        expected, per_request = [], 0
        for row in rows:
            try:
                expected.append(reference_row(row, self.FOCALS, trials))
            except protocol.ProtocolError as exc:
                expected = repr(exc)  # the call stops at its first failing row
                break
            per_request += per_request_challenges(row, trials)
        with pytest.MonkeyPatch.context() as monkeypatch:
            try:
                actual, redraws = redrawn_estimates(monkeypatch, rows, self.FOCALS, trials)
            except protocol.ProtocolError as exc:
                actual = redraws = repr(exc)
        assert actual == expected
        if not isinstance(expected, str):
            assert redraws == per_request


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="the tests set the CPUs a call sees through os.sched_getaffinity")
class TestChallengeValueWorkers:
    """Each trial's u is drawn once, split across forked workers, one per
    available CPU; the estimates never depend on how many there were."""

    FOCALS = (sim.HONEST, sim.ALWAYS_FRAUD)

    @pytest.fixture(autouse=True)
    def own_cpus(self):
        """A call under patched CPUs restores the patched set when it is
        done; each test starts from this process's own CPUs."""
        mask = os.sched_getaffinity(0)
        yield
        os.sched_setaffinity(0, mask)

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    @staticmethod
    def no_fork(monkeypatch):
        def fork():
            raise AssertionError("forked a worker")
        monkeypatch.setattr(os, "fork", fork)

    def estimates(self, trials, rows=None):
        """The benchmark sweep's estimates, or those of ``rows``, as dicts."""
        rows = sim.estimate_strategy_payoff(rows or benchmark_sweep_rows(), self.FOCALS, trials)
        return [[e.to_dict() for e in row] for row in rows]

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("trials", [20_000, 20_011])
    def test_parallel_equals_serial(self, monkeypatch, trials):
        # 20,011 is prime, so no worker count splits it evenly; the
        # mixed_adversaries rows send trials back through the per-trial redraw
        sweeps = [None, along(golden_scenario("mixed_adversaries"), "p", [0.0, 0.5, 1.0])]
        with monkeypatch.context() as serial:
            self.cpus(serial, 1)
            self.no_fork(serial)
            expected = [self.estimates(trials, rows) for rows in sweeps]
        for n in (2, 3):
            self.cpus(monkeypatch, n)
            assert [self.estimates(trials, rows) for rows in sweeps] == expected
            self.assert_no_child()

    @pytest.mark.parametrize("cpus,trials", [(1, 20_000),
                                             (2, 2 * sim.MIN_TRIALS_PER_WORKER - 1)])
    def test_one_process_draws_too_few_trials_per_worker(self, monkeypatch, cpus, trials):
        self.cpus(monkeypatch, cpus)
        self.no_fork(monkeypatch)
        assert len(self.estimates(trials)) == 7

    @pytest.mark.parametrize("failing,error", [
        (lambda t: t == 20_000 - 1, RuntimeError),  # the worker's slice
        (lambda t: t == 0, KeyError),  # this process's own slice
    ], ids=["worker", "parent"])
    def test_a_failed_slice_raises_and_leaves_no_child(self, monkeypatch, failing, error):
        draws = sim._trial_draws

        def checked(ts):
            for t in ts:
                if failing(t):
                    raise KeyError(t)
                yield t

        def trial_draws(master, prefix, ts):
            return draws(master, prefix, checked(ts))
        # the forked worker inherits the patch
        monkeypatch.setattr(sim, "_trial_draws", trial_draws)
        self.cpus(monkeypatch, 2)
        with pytest.raises(error):
            self.estimates(20_000)
        self.assert_no_child()

    @pytest.mark.parametrize("cpus,failing", [(2, 1), (3, 2)], ids=["first", "second"])
    def test_a_failed_fork_leaves_the_slices_to_this_process(self, monkeypatch, cpus,
                                                             failing):
        with monkeypatch.context() as serial:
            self.cpus(serial, 1)
            self.no_fork(serial)
            expected = self.estimates(20_000)
        forks = []
        fork = os.fork

        def flaky_fork():
            forks.append(None)
            if len(forks) == failing:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()
        monkeypatch.setattr(os, "fork", flaky_fork)
        self.cpus(monkeypatch, cpus)
        assert self.estimates(20_000) == expected
        assert len(forks) == failing  # no fork after the failed one
        self.assert_no_child()

    def test_caller_keeps_its_cpus(self):
        # each worker and this process run on their own CPU while they draw
        mask = os.sched_getaffinity(0)
        self.estimates(20_000)
        assert os.sched_getaffinity(0) == mask
        self.assert_no_child()

    def test_threaded_caller_draws_in_one_process(self, monkeypatch):
        self.cpus(monkeypatch, 1)
        expected = self.estimates(20_000)
        self.cpus(monkeypatch, 2)
        self.no_fork(monkeypatch)
        done = threading.Event()
        waiter = threading.Thread(target=done.wait)
        waiter.start()
        try:
            assert self.estimates(20_000) == expected
        finally:
            done.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()


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


def sweep_rows_at_cost(cost):
    """The sweep scenario at 0.5, 1 and 2 times its threshold p*, with
    ``compute_cost`` set to ``cost``."""
    p_star = econ.single_validator_min_p(10.0, 1500.0, 12.0, 0.1)
    rows = [sweep_scenario(factor * p_star) for factor in (0.5, 1.0, 2.0)]
    return [replace(row, network=replace(row.network, compute_cost=cost)) for row in rows]


class TestPinnedEstimates:
    @pytest.mark.parametrize("factor,kind,expected", PINNED_ESTIMATES)
    def test_sweep_scenario(self, factor, kind, expected):
        # the `posp sweep` scenario, at a multiple of its threshold p*
        p_star = econ.single_validator_min_p(10.0, 1500.0, 12.0, 0.1)
        cfg = sweep_scenario(factor * p_star)
        strategy = sim.ExecStrategy(kind=kind, group=0 if kind == sim.COLLUDE else None)
        [[est]] = sim.estimate_strategy_payoff([cfg], [strategy], trials=4000)
        assert est.to_dict() == {"strategy": kind, "trials": 4000, **expected}

    @pytest.mark.parametrize("kind,expected", [
        ("honest", {"mean": 146.75, "stderr": 9.90384868371887,
                    "challenges": 1023, "arbitrations": 193,
                    "fraud_assertions": 0, "fraud_passes": 0}),
        ("always-fraud", {"mean": -761.388, "stderr": 16.90020203216518,
                          "challenges": 1023, "arbitrations": 1023,
                          "fraud_assertions": 2000, "fraud_passes": 977}),
    ])
    def test_fraud_with_probability_validators(self, kind, expected):
        cfg = config(p=0.5, requests=0, byzantine_fraction=0.5,
                     byzantine_strategy=sim.ExecStrategy(
                         kind=sim.FRAUD_WITH_PROBABILITY, fraud_probability=0.5))
        [[est]] = sim.estimate_strategy_payoff([cfg], [kind], trials=2000)
        assert est.to_dict() == {"strategy": kind, "trials": 2000, **expected}

    def test_sums_are_exact_at_any_cost(self):
        # A trial's payoff is an integer delta minus the compute cost, so an
        # honest mean is the exact integer total over the trials, less the
        # cost, rounded once; the cost shifts every payoff alike, so the
        # standard error and the fraud estimate do not move with it.
        focals = (sim.HONEST, sim.ALWAYS_FRAUD)
        free = sim.estimate_strategy_payoff(sweep_rows_at_cost(0.0), focals, 4000)
        for cost in (10.3, 0.1, 1 / 3):
            costly = sim.estimate_strategy_payoff(sweep_rows_at_cost(cost), focals, 4000)
            for (honest_free, fraud_free), (honest, fraud) in zip(free, costly):
                total = round(Fraction(honest_free.mean) * 4000)
                assert honest.mean == float(Fraction(total, 4000) - Fraction(cost))
                assert honest.stderr == honest_free.stderr
                assert fraud == fraud_free

    def test_each_row_alone_equals_the_rows_together(self):
        honest = {"strategy": "honest", "trials": 4000, "mean": 2.0749999999999993,
                  "stderr": 0.37495312206994624, "arbitrations": 1,
                  "fraud_assertions": 0, "fraud_passes": 0}
        fraud = {"strategy": "always-fraud", "trials": 4000}
        pinned = {
            0.5: [{**honest, "challenges": 13},
                  {**fraud, "mean": 7.086, "stderr": 1.3606818698726018, "challenges": 13,
                   "arbitrations": 13, "fraud_assertions": 4000, "fraud_passes": 3987}],
            1.0: [{**honest, "challenges": 22},
                  {**fraud, "mean": 3.684, "stderr": 1.7680947474612327, "challenges": 22,
                   "arbitrations": 22, "fraud_assertions": 4000, "fraud_passes": 3978}],
            2.0: [{**honest, "challenges": 42},
                  {**fraud, "mean": -3.876, "stderr": 2.4368250154658213, "challenges": 42,
                   "arbitrations": 42, "fraud_assertions": 4000, "fraud_passes": 3958}],
        }
        rows = sweep_rows_at_cost(10.3)
        focals = (sim.HONEST, sim.ALWAYS_FRAUD)
        # each row alone is a first row; together, the later two scan its u
        alone = [sim.estimate_strategy_payoff([row], focals, 4000)[0] for row in rows]
        together = sim.estimate_strategy_payoff(rows, focals, 4000)
        for estimates in (alone, together):
            assert [[e.to_dict() for e in row] for row in estimates] == list(pinned.values())


class TestStandardError:
    """The standard error is the exact sqrt(var / trials), rounded once."""

    @staticmethod
    def assert_nearest(x, target):
        """x is a float nearest to sqrt(target): the midpoints between x and
        its float neighbours, squared, bracket ``target``."""
        below = (Fraction(math.nextafter(x, -math.inf)) + Fraction(x)) / 2
        above = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
        assert max(below, 0) ** 2 <= target <= above ** 2

    @given(paid=st.lists(st.tuples(st.integers(-10 ** 20, 10 ** 20), st.integers(0, 8)),
                         max_size=40),
           unchallenged=st.integers(-10 ** 20, 10 ** 20), others=st.integers(0, 10 ** 9),
           data=st.data())
    @example(paid=[(1, 1), (2, 1)], unchallenged=0, others=0, data=None)  # var / trials = 1/8
    def test_stderr_is_correctly_rounded(self, paid, unchallenged, others, data):
        """Weighted (delta, trials) pairs, and a heavy pair of unchallenged
        trials, give the exact moments rounded once; expanding the pairs
        into single trials, in any order, gives the same estimate, which is
        what lets a row pay each outcome class once."""
        paid = [*paid, (unchallenged, others)]
        trials = sum(k for _, k in paid)
        assume(trials > 0)
        arbitrations = sum(k for _, k in paid[:-1])
        estimate = sim._estimate(sim.HONEST_STRATEGY, trials, arbitrations, arbitrations,
                                 paid, 0.0)
        mean = Fraction(sum(k * delta for delta, k in paid), trials)
        squares = sum(k * (delta - mean) ** 2 for delta, k in paid)
        assert estimate.mean == float(mean)
        self.assert_nearest(estimate.stderr, squares / trials ** 2)
        singles = [(delta, 1) for delta, k in paid[:-1] for _ in range(k)]
        if data is not None:
            singles = data.draw(st.permutations(singles))
        assert sim._estimate(sim.HONEST_STRATEGY, trials, arbitrations, arbitrations,
                             [*singles, paid[-1]], 0.0) == estimate

    @pytest.mark.parametrize("num,den,root", [
        ((2 ** 53 + 1) ** 2, 1, 2.0 ** 53),  # a tie, to even
        ((2 ** 53 + 1) ** 2 + 1, 1, 2.0 ** 53 + 2),  # just past the tie: up
        ((2 ** 53 + 1) ** 2 * 3 - 1, 3, 2.0 ** 53),  # just short of it: down
    ])
    def test_roots_at_a_tie(self, num, den, root):
        assert sim._sqrt_ratio(num, den) == root

    def test_rounding_twice_missed_the_nearest_float(self):
        # the fraud stderr at p* on the sweep scenario: sqrt of the float
        # var / trials gave 1.7680947474612325, one float below the nearest
        p_star = econ.single_validator_min_p(10.0, 1500.0, 12.0, 0.1)
        [[fraud]] = sim.estimate_strategy_payoff(
            [sweep_scenario(p_star)], [sim.ALWAYS_FRAUD], 4000)
        assert fraud.stderr == 1.7680947474612327


class TestDeriveInput:
    def test_matches_the_biases_of_a_whole_model(self):
        seed = crypto.prf(SEED, b"input-seed")
        for dim in range(1, 41):
            [(_, whole)] = generate_model(seed, (dim, dim)).layers
            assert sim._derive_input(SEED, dim) == tuple(map(Fixed, whole))

    def test_draws_only_the_blocks_it_uses(self, monkeypatch):
        calls = []
        prf = crypto.prf
        monkeypatch.setattr(crypto, "prf", lambda *args: calls.append(args) or prf(*args))
        for dim in (1, 8, 40):
            calls.clear()
            sim._derive_input(SEED, dim)
            start = dim * dim
            assert len(calls) == (start + dim - 1) // 8 - start // 8 + 1
