"""Deterministic discrete-event simulator for the sampling-verification
protocol: virtual epochs, a trusted per-epoch beacon oracle, adversary
strategy injection for executors/orchestrators/users, and metrics/ledger
collection that ties empirical payoffs back to the closed-form predictions.

Everything is a pure function of the scenario's master seed: two runs of the
same scenario produce byte-identical trace hashes.
"""

from __future__ import annotations

import hashlib
import heapq
import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from . import crypto, protocol
from .crypto import KeyPair, encode_fields, prf
from .model import Fixed, ToyModel, corrupt, decode_vector, encode_vector, forward, generate_model
from .protocol import (
    Committee,
    ArbitrationContract,
    ExecutorNode,
    NetworkConfig,
    Orchestrator,
    Phase,
    SettlementContract,
    draw_validator,
    payout,
    selection_string,
    user_submit,
)

log = logging.getLogger("posp.sim")

HONEST = "honest"
ALWAYS_FRAUD = "always-fraud"
FRAUD_WITH_PROBABILITY = "fraud-with-probability"
COLLUDE = "collude"
UNRESPONSIVE = "unresponsive"

STRATEGY_KINDS = (HONEST, ALWAYS_FRAUD, FRAUD_WITH_PROBABILITY, COLLUDE, UNRESPONSIVE)

MAX_ATTEMPTS = 64


@dataclass(frozen=True)
class ExecStrategy:
    kind: str = HONEST
    fraud_probability: float = 0.0
    group: Optional[int] = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown executor strategy {self.kind!r}")
        if self.kind == FRAUD_WITH_PROBABILITY and not 0.0 <= self.fraud_probability <= 1.0:
            raise ValueError("fraud_probability must be in [0, 1]")
        if self.kind == COLLUDE and self.group is None:
            raise ValueError("collude strategy requires a group id")

    @property
    def adversarial(self) -> bool:
        return self.kind != HONEST

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == FRAUD_WITH_PROBABILITY:
            out["fraud_probability"] = self.fraud_probability
        if self.group is not None:
            out["group"] = self.group
        return out

    @classmethod
    def from_dict(cls, data) -> "ExecStrategy":
        if isinstance(data, str):
            return cls(kind=data)
        return cls(kind=data.get("kind", HONEST),
                   fraud_probability=data.get("fraud_probability", 0.0),
                   group=data.get("group"))


HONEST_STRATEGY = ExecStrategy()


@dataclass(frozen=True)
class ScenarioConfig:
    """Full simulation description; the master seed fixes every random draw."""

    network: NetworkConfig
    master_seed: bytes
    requests: int
    arrival_spacing: int = 0
    model_dims: tuple[int, ...] = (4, 8, 2)
    byzantine_fraction: Optional[float] = None
    byzantine_strategy: ExecStrategy = ExecStrategy(kind=ALWAYS_FRAUD)
    executor_overrides: dict[int, ExecStrategy] = field(default_factory=dict)
    orchestrator_overrides: dict[int, str] = field(default_factory=dict)
    user_colludes_with: Optional[int] = None
    focal_executor: int = 0
    sweep_trials: int = 2000

    def __post_init__(self):
        if len(self.master_seed) != crypto.SEED_LEN:
            raise ValueError("master_seed must be 32 bytes")
        if self.requests < 0:
            raise ValueError("requests must be >= 0")
        if self.arrival_spacing < 0:
            raise ValueError("arrival_spacing must be >= 0")
        if self.byzantine_fraction is not None and not 0.0 <= self.byzantine_fraction < 1.0:
            raise ValueError("byzantine_fraction must be in [0, 1)")
        for idx in self.executor_overrides:
            if not 0 <= idx < self.network.executors:
                raise ValueError(f"executor override index {idx} out of range")
        byz_orch = 0
        for idx, behavior in self.orchestrator_overrides.items():
            if not 0 <= idx < self.network.committee_size:
                raise ValueError(f"orchestrator override index {idx} out of range")
            if behavior not in protocol.ORCH_BEHAVIORS:
                raise ValueError(f"unknown orchestrator behavior {behavior!r}")
            if behavior != protocol.ORCH_HONEST:
                byz_orch += 1
        if byz_orch > self.network.fault_bound:
            raise ValueError("Byzantine orchestrators exceed the fault bound f")
        if not 0 <= self.focal_executor < self.network.executors:
            raise ValueError("focal_executor out of range")

    def to_dict(self) -> dict:
        net = self.network
        return {
            "network": {
                "executors": net.executors,
                "fault_bound": net.fault_bound,
                "challenge_probability": net.challenge_probability,
                "t_assert": net.t_assert,
                "t_validate": net.t_validate,
                "payment_b": net.payment_b,
                "reward_r": net.reward_r,
                "slash_s": net.slash_s,
                "compute_cost": net.compute_cost,
                "timeout_penalty": net.timeout_penalty,
            },
            "master_seed": self.master_seed.hex(),
            "requests": self.requests,
            "arrival_spacing": self.arrival_spacing,
            "model_dims": list(self.model_dims),
            "byzantine_fraction": self.byzantine_fraction,
            "byzantine_strategy": self.byzantine_strategy.to_dict(),
            "executor_overrides": {str(k): v.to_dict()
                                   for k, v in sorted(self.executor_overrides.items())},
            "orchestrator_overrides": {str(k): v
                                       for k, v in sorted(self.orchestrator_overrides.items())},
            "user_colludes_with": self.user_colludes_with,
            "focal_executor": self.focal_executor,
            "sweep_trials": self.sweep_trials,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        net = NetworkConfig(**data["network"])
        return cls(
            network=net,
            master_seed=bytes.fromhex(data["master_seed"]),
            requests=data["requests"],
            arrival_spacing=data.get("arrival_spacing", 0),
            model_dims=tuple(data.get("model_dims", (4, 8, 2))),
            byzantine_fraction=data.get("byzantine_fraction"),
            byzantine_strategy=ExecStrategy.from_dict(
                data.get("byzantine_strategy", {"kind": ALWAYS_FRAUD})),
            executor_overrides={int(k): ExecStrategy.from_dict(v)
                                for k, v in data.get("executor_overrides", {}).items()},
            orchestrator_overrides={int(k): v
                                    for k, v in data.get("orchestrator_overrides", {}).items()},
            user_colludes_with=data.get("user_colludes_with"),
            focal_executor=data.get("focal_executor", 0),
            sweep_trials=data.get("sweep_trials", 2000),
        )


class BeaconOracle:
    """Trusted per-epoch randomness: tau_t = PRF(root, epoch), generated
    lazily only when the virtual clock reaches epoch t."""

    def __init__(self, root_key: bytes):
        crypto._check_seed(root_key)
        self._root = bytes(root_key)
        self._seeds: dict[int, bytes] = {}
        self.current_epoch = 0

    def tau(self, epoch: int) -> bytes:
        if epoch > self.current_epoch:
            raise protocol.ProtocolError(
                f"beacon for epoch {epoch} requested before the clock reached it")
        if epoch not in self._seeds:
            self._seeds[epoch] = prf(self._root, b"epoch" + epoch.to_bytes(8, "big"))
        return self._seeds[epoch]


def assign_adversaries(config: ScenarioConfig) -> list[ExecStrategy]:
    """Per-node behavior table, deterministic in the master seed.

    Explicit overrides win; a configured Byzantine fraction then fills up to
    floor(r*N) adversarial nodes via a seeded shuffle.  Collusion-group
    members share a wrong-output generator, so colluders emit byte-identical
    wrong results.
    """
    n = config.network.executors
    table: list[Optional[ExecStrategy]] = [None] * n
    for idx, strat in config.executor_overrides.items():
        table[idx] = strat

    if config.byzantine_fraction is not None:
        budget = int(config.byzantine_fraction * n)
        adversarial = sum(1 for s in table if s is not None and s.adversarial)
        if adversarial > budget:
            raise ValueError(
                f"{adversarial} adversarial overrides exceed the budget of {budget}")
        # deterministic order over the unassigned indices
        free = [i for i in range(n) if table[i] is None]
        seed = prf(config.master_seed, b"adversary-assignment")
        free.sort(key=lambda i: crypto.prf(seed, i.to_bytes(8, "big")))
        for i in free[: budget - adversarial]:
            table[i] = config.byzantine_strategy

    return [s if s is not None else HONEST_STRATEGY for s in table]


@dataclass
class MetricsReport:
    requests: int = 0
    challenges: int = 0
    challenge_decisions: int = 0
    matched_challenges: int = 0
    arbitrations: int = 0
    undetected_frauds: int = 0
    detected_frauds: int = 0
    fraud_assertions: int = 0
    fraud_passes: int = 0
    timeouts: int = 0
    reassignments: int = 0
    node_payoffs: dict[str, float] = field(default_factory=dict)
    trace_hash: str = ""

    @property
    def empirical_challenge_rate(self) -> float:
        return self.challenges / self.challenge_decisions if self.challenge_decisions else 0.0

    @property
    def empirical_cheat_pass_rate(self) -> float:
        return self.fraud_passes / self.fraud_assertions if self.fraud_assertions else 0.0

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "challenges": self.challenges,
            "challenge_decisions": self.challenge_decisions,
            "matched_challenges": self.matched_challenges,
            "arbitrations": self.arbitrations,
            "undetected_frauds": self.undetected_frauds,
            "detected_frauds": self.detected_frauds,
            "fraud_assertions": self.fraud_assertions,
            "fraud_passes": self.fraud_passes,
            "timeouts": self.timeouts,
            "reassignments": self.reassignments,
            "empirical_challenge_rate": self.empirical_challenge_rate,
            "empirical_cheat_pass_rate": self.empirical_cheat_pass_rate,
            "node_payoffs": {k: self.node_payoffs[k] for k in sorted(self.node_payoffs)},
            "trace_hash": self.trace_hash,
        }


@dataclass
class SimResult:
    metrics: MetricsReport
    ledger: dict[str, int]
    lifecycles: dict[bytes, protocol.RequestLifecycle]
    arbitration_outcomes: dict[bytes, protocol.ArbitrationOutcome]
    committee: Committee
    model: ToyModel
    y_true: tuple[Fixed, ...]


def _wrong_output(y_true, strategy: ExecStrategy, node_index: int):
    # distinct groups (and ungrouped nodes) produce distinct wrong results
    if strategy.group is not None:
        amount = 1_000_000 + strategy.group
    else:
        amount = node_index + 1
    return corrupt(y_true, "offset", amount=amount)


def _lies(master_seed: bytes, strategy: ExecStrategy, node: int, reqid: bytes) -> bool:
    """Whether a responsive node returns a wrong result for this request;
    fraud-with-probability nodes decide per request from a PRF of the master
    seed and their index."""
    if strategy.kind == FRAUD_WITH_PROBABILITY:
        return crypto.sampled(
            prf(master_seed, b"fraud-decision" + node.to_bytes(8, "big")),
            reqid, strategy.fraud_probability)
    return strategy.adversarial


class _Simulation:
    """One run's mutable state; see run() for the public entry point."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        net = config.network
        master = config.master_seed

        self.strategies = assign_adversaries(config)
        self.model = generate_model(prf(master, b"model-seed"), config.model_dims)
        # fixed input for every request; nonces make request ids unique
        self.x_vec = _derive_input(master, config.model_dims[0])
        self.x = encode_vector(self.x_vec)
        self.y_true = forward(self.model, self.x_vec)

        self.user_keys = KeyPair.from_seed(prf(master, b"user-key"))
        self.executors = [
            ExecutorNode(i, KeyPair.from_seed(prf(master, b"exec-key" + i.to_bytes(8, "big"))))
            for i in range(net.executors)
        ]
        self.orchestrators = [
            Orchestrator(k, KeyPair.from_seed(prf(master, b"orch-key" + k.to_bytes(8, "big"))),
                         config.orchestrator_overrides.get(k, protocol.ORCH_HONEST))
            for k in range(net.committee_size)
        ]
        self.leak_present = any(o.behavior == protocol.ORCH_LEAK for o in self.orchestrators)

        self.committee = Committee(
            net, self.orchestrators,
            [e.keypair.public for e in self.executors],
            {self.user_keys.public.raw: self.user_keys.public},
        )
        self.arbitration = ArbitrationContract(
            net, self.committee.orch_pks,
            [e.keypair.public for e in self.executors],
            self.model, decode_vector)
        initial = {"user": net.payment_b * config.requests}
        for e in self.executors:
            initial[e.account] = net.slash_s
        self.settlement = SettlementContract(net, self.committee.orch_pks, initial)
        self.initial_balances = dict(self.settlement.balances)

        self.beacon = BeaconOracle(prf(master, b"beacon-root"))
        self.metrics = MetricsReport()
        self.computations = [0] * net.executors
        self._trace = hashlib.sha256()
        self._queue: list = []
        self._seq = 0
        self._wrong_assert: dict[bytes, bool] = {}

    # -- event machinery ---------------------------------------------------

    def schedule(self, epoch: int, fn: Callable[[int], None]) -> None:
        heapq.heappush(self._queue, (epoch, self._seq, fn))
        self._seq += 1

    def trace(self, tag: str, epoch: int, *payload: bytes) -> None:
        record = encode_fields(tag.encode(), epoch.to_bytes(8, "big"), *payload)
        self._trace.update(record)
        if log.isEnabledFor(logging.DEBUG):
            log.debug("epoch %d %s %s", epoch, tag, [p.hex()[:16] for p in payload])

    # -- node behavior -----------------------------------------------------

    def node_output(self, node: int, reqid: bytes,
                    leaked: Optional[bytes] = None):
        """(output vector, computed) per the node's strategy; returns None for
        an unresponsive node."""
        strategy = self.strategies[node]
        if strategy.kind == UNRESPONSIVE:
            return None
        if leaked is not None and strategy.adversarial:
            # free-ride on the leaked asserter result: no computation at all
            return decode_vector(leaked), False
        if _lies(self.config.master_seed, strategy, node, reqid):
            return _wrong_output(self.y_true, strategy, node), False
        self.computations[node] += 1
        return forward(self.model, self.x_vec), True

    def asserter_output(self, node: int, reqid: bytes):
        # a user colluding with the selected asserter gets a free wrong answer:
        # the asserter skips computation entirely
        if self.config.user_colludes_with == node:
            return _wrong_output(self.y_true, self.strategies[node], node), False
        return self.node_output(node, reqid)

    # -- request pipeline --------------------------------------------------

    def submit(self, epoch: int, request_index: int) -> None:
        nonce = request_index.to_bytes(8, "big")
        req = user_submit(self.x, nonce, self.user_keys)
        reqid = self.committee.accept_request(req)
        self.trace("accept", epoch, reqid)
        self.metrics.requests += 1
        self.schedule(epoch + 1, lambda e, r=reqid: self.assign(e, r))

    def assign(self, epoch: int, reqid: bytes) -> None:
        lc = self.committee.lifecycles[reqid]
        asserter = self.committee.select_asserter(reqid, self.beacon.tau(epoch), epoch)
        self.trace("assign", epoch, reqid, asserter.to_bytes(4, "big"),
                   lc.assert_attempt.to_bytes(4, "big"))

        output = self.asserter_output(asserter, reqid)
        if output is None:
            self.schedule(epoch + self.config.network.t_assert,
                          lambda e, r=reqid: self.asserter_timeout(e, r))
            return
        y, computed = output
        node = self.executors[asserter]
        resp = protocol.asserter_execute(
            self.committee.task_messages(reqid), node, self.committee.orch_pks,
            self.config.network.quorum, lambda _x, out=y: out)
        if resp is None:
            raise protocol.ProtocolError("asserter failed to collect a task quorum")
        self.schedule(epoch + 1, lambda e, r=resp: self.asserter_response(e, r))

    def asserter_timeout(self, epoch: int, reqid: bytes) -> None:
        lc = self.committee.lifecycles[reqid]
        if lc.assert_attempt > MAX_ATTEMPTS:
            raise protocol.ProtocolError("no responsive asserter found")
        node = self.committee.handle_timeout(reqid, "asserter")
        self.metrics.timeouts += 1
        self.metrics.reassignments += 1
        self.trace("timeout-asserter", epoch, reqid, node.to_bytes(4, "big"))
        self.schedule(epoch + 1, lambda e, r=reqid: self.assign(e, r))

    def asserter_response(self, epoch: int, resp: protocol.ExecutorResponse) -> None:
        if not self.committee.accept_asserter_response(resp):
            raise protocol.ProtocolError("asserter response rejected")
        wrong = resp.y_bytes != encode_vector(self.y_true)
        self._wrong_assert[resp.reqid] = wrong
        if wrong:
            self.metrics.fraud_assertions += 1
        self.trace("assert", epoch, resp.reqid, crypto.sha256(resp.y_bytes))
        # t_chal is the epoch after the response was accepted, so the beacon
        # value deciding the challenge cannot be known when asserting
        self.schedule(epoch + 1, lambda e, r=resp.reqid: self.challenge(e, r))

    def challenge(self, epoch: int, reqid: bytes) -> None:
        tau_chal = self.beacon.tau(epoch)
        challenged = self.committee.challenge_decision(reqid, tau_chal, epoch)
        self.metrics.challenge_decisions += 1
        self.trace("challenge", epoch, reqid, bytes([challenged]))
        if not challenged:
            self.conclude(epoch, reqid)
            return
        self.metrics.challenges += 1
        self.run_validation(epoch, reqid, tau_chal)

    def run_validation(self, epoch: int, reqid: bytes, tau: bytes) -> None:
        lc = self.committee.lifecycles[reqid]
        validator = self.committee.select_validator(reqid, tau)
        self.trace("validator", epoch, reqid, validator.to_bytes(4, "big"),
                   lc.validate_attempt.to_bytes(4, "big"))
        leaked = lc.asserter_response.y_bytes if self.leak_present else None
        output = self.node_output(validator, reqid, leaked=leaked)
        if output is None:
            self.schedule(epoch + self.config.network.t_validate,
                          lambda e, r=reqid: self.validator_timeout(e, r))
            return
        y, _computed = output
        node = self.executors[validator]
        resp = protocol.asserter_execute(
            self.committee.task_messages(reqid), node, self.committee.orch_pks,
            self.config.network.quorum, lambda _x, out=y: out)
        if resp is None:
            raise protocol.ProtocolError("validator failed to collect a task quorum")
        self.schedule(epoch + 1, lambda e, r=resp: self.validator_response(e, r))

    def validator_timeout(self, epoch: int, reqid: bytes) -> None:
        lc = self.committee.lifecycles[reqid]
        if lc.validate_attempt > MAX_ATTEMPTS:
            raise protocol.ProtocolError("no responsive validator found")
        node = self.committee.handle_timeout(reqid, "validator")
        self.metrics.timeouts += 1
        self.metrics.reassignments += 1
        self.trace("timeout-validator", epoch, reqid, node.to_bytes(4, "big"))
        self.schedule(epoch + 1,
                      lambda e, r=reqid: self.run_validation(e, r, self.beacon.tau(e)))

    def validator_response(self, epoch: int, resp: protocol.ExecutorResponse) -> None:
        if not self.committee.accept_validator_response(resp):
            raise protocol.ProtocolError("validator response rejected")
        self.trace("validate", epoch, resp.reqid, crypto.sha256(resp.y_bytes))
        route = self.committee.compare_and_route(resp.reqid)
        if route == "matched":
            self.metrics.matched_challenges += 1
            self.conclude(epoch, resp.reqid)
        else:
            self.schedule(epoch + 1, lambda e, r=resp.reqid: self.arbitrate(e, r))

    def arbitrate(self, epoch: int, reqid: bytes) -> None:
        requests = self.committee.arbitration_requests(reqid)
        outcome = self.arbitration.arbitrate(requests)
        self.committee.record_arbitration(outcome)
        self.metrics.arbitrations += 1
        self.trace("arbitrate", epoch, reqid,
                   bytes([outcome.asserter_honest]), bytes([outcome.validator_honest]))
        self.conclude(epoch, reqid)

    def conclude(self, epoch: int, reqid: bytes) -> None:
        lc = self.committee.lifecycles[reqid]
        wrong = self._wrong_assert[reqid]
        if wrong:
            if lc.phase in (Phase.UNCHALLENGED_DONE, Phase.MATCHED_DONE):
                self.metrics.undetected_frauds += 1
                self.metrics.fraud_passes += 1
            else:
                self.metrics.detected_frauds += 1
        self.trace("conclude", epoch, reqid, lc.phase.value.encode())

    # -- run ---------------------------------------------------------------

    def run(self) -> SimResult:
        for k in range(self.config.requests):
            self.schedule(1 + k * self.config.arrival_spacing,
                          lambda e, i=k: self.submit(e, i))
        last_epoch = 0
        while self._queue:
            epoch, _seq, fn = heapq.heappop(self._queue)
            self.beacon.current_epoch = max(self.beacon.current_epoch, epoch)
            fn(epoch)
            last_epoch = epoch

        deltas = self.committee.concluded_deltas()
        if deltas:
            cert = self.committee.certify_batch(deltas)
            self.settlement.settle(deltas, cert)
            self.trace("settle", last_epoch + 1, cert.digest)

        net = self.config.network
        for e in self.executors:
            change = self.settlement.balances[e.account] - self.initial_balances[e.account]
            self.metrics.node_payoffs[e.account] = (
                change - net.compute_cost * self.computations[e.index])
        self.metrics.node_payoffs["user"] = float(
            self.settlement.balances["user"] - self.initial_balances["user"])
        self.metrics.trace_hash = self._trace.hexdigest()
        return SimResult(
            metrics=self.metrics,
            ledger=self.settlement.snapshot(),
            lifecycles=self.committee.lifecycles,
            arbitration_outcomes=self.arbitration.outcomes,
            committee=self.committee,
            model=self.model,
            y_true=self.y_true,
        )


def _derive_input(master_seed: bytes, dim: int) -> tuple[Fixed, ...]:
    seed = prf(master_seed, b"input-seed")
    stream = generate_model(seed, (dim, dim)).biases[0]
    return tuple(stream)


def run(config: ScenarioConfig) -> SimResult:
    """Execute the full protocol for every request in the scenario."""
    return _Simulation(config).run()


# ---------------------------------------------------------------------------
# Focal-strategy Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrategyEstimate:
    strategy: str
    trials: int
    mean: float
    stderr: float
    challenges: int
    arbitrations: int
    fraud_assertions: int
    fraud_passes: int

    @property
    def empirical_challenge_rate(self) -> float:
        return self.challenges / self.trials if self.trials else 0.0

    @property
    def empirical_cheat_pass_rate(self) -> float:
        return self.fraud_passes / self.fraud_assertions if self.fraud_assertions else 0.0

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "trials": self.trials,
            "mean": self.mean,
            "stderr": self.stderr,
            "challenges": self.challenges,
            "arbitrations": self.arbitrations,
            "fraud_assertions": self.fraud_assertions,
            "fraud_passes": self.fraud_passes,
        }


def estimate_strategy_payoff(config: ScenarioConfig, strategy, trials: int,
                             ) -> StrategyEstimate:
    """Mean and standard error of the focal node's per-request payoff when it
    asserts under the given strategy.

    Each trial is one request asserted by the focal node, driven by an
    independent sub-seed PRF(master, trial-index).  The challenge and
    validator draws, the redraw past an unresponsive validator, the nodes'
    fraud decisions, free-riding on a leaking orchestrator, and the payouts
    are the protocol's own rules; only the signature plumbing is elided,
    since it cannot change any payoff.  The payoff is the sum of the focal
    account's ledger deltas minus its compute cost.  ``user_colludes_with``
    plays no part: ``strategy`` already fixes what the focal asserter
    returns.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if isinstance(strategy, str):
        strategy = ExecStrategy(kind=strategy)
    if strategy.kind not in (HONEST, ALWAYS_FRAUD, COLLUDE):
        raise ValueError("focal strategy must be honest or a fraud variant")

    net = config.network
    master = config.master_seed
    focal = config.focal_executor
    account = f"exec:{focal}"
    table = assign_adversaries(config)
    table[focal] = strategy
    leak = protocol.ORCH_LEAK in config.orchestrator_overrides.values()

    model = generate_model(prf(master, b"model-seed"), config.model_dims)
    x_vec = _derive_input(master, config.model_dims[0])
    x = encode_vector(x_vec)
    y_true = forward(model, x_vec)
    y_true_b = encode_vector(y_true)
    wrong_b = [encode_vector(_wrong_output(y_true, strat, i)) for i, strat in enumerate(table)]
    pk_user = KeyPair.from_seed(prf(master, b"user-key")).public.raw

    focal_fraud = strategy.adversarial
    focal_out = wrong_b[focal] if focal_fraud else y_true_b
    cost = 0.0 if focal_fraud else net.compute_cost

    total = 0.0
    total_sq = 0.0
    challenges = arbitrations = 0

    for t in range(trials):
        sub = prf(master, b"trial" + t.to_bytes(8, "big"))
        reqid = crypto.derive_reqid(pk_user, x, t.to_bytes(8, "big"))
        tau_chal = prf(sub, b"tau-chal")
        s = selection_string(pk_user, x, reqid)
        if not crypto.sampled(tau_chal, s, net.challenge_probability):
            deltas = payout(net, reqid, focal)
        else:
            challenges += 1
            attempt = 1
            j = draw_validator(tau_chal, s, focal, net.executors)
            while table[j].kind == UNRESPONSIVE:
                if attempt > MAX_ATTEMPTS:
                    raise protocol.ProtocolError("no responsive validator found")
                attempt += 1
                j = draw_validator(tau_chal, selection_string(pk_user, x, reqid, attempt),
                                   focal, net.executors)
            if leak and table[j].adversarial:
                y_j = focal_out
            elif _lies(master, table[j], j, reqid):
                y_j = wrong_b[j]
            else:
                y_j = y_true_b
            if y_j == focal_out:
                deltas = payout(net, reqid, focal, j)
            else:
                arbitrations += 1
                deltas = payout(net, reqid, focal, j, (not focal_fraud, y_j == y_true_b))
        payoff = sum(d.amount for d in deltas if d.account == account) - cost
        total += payoff
        total_sq += payoff * payoff

    mean = total / trials
    var = max(0.0, total_sq / trials - mean * mean)
    stderr = (var / trials) ** 0.5
    return StrategyEstimate(
        strategy=strategy.kind, trials=trials, mean=mean, stderr=stderr,
        challenges=challenges, arbitrations=arbitrations,
        fraud_assertions=trials if focal_fraud else 0,
        fraud_passes=trials - arbitrations if focal_fraud else 0)
