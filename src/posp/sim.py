"""Deterministic discrete-event simulator for the sampling-verification
protocol: virtual epochs, a trusted per-epoch beacon oracle, adversary
strategy injection for executors/orchestrators/users, and metrics/ledger
collection that ties empirical payoffs back to the closed-form predictions.

Each request is one generator (`_Simulation.request`) that runs the protocol
path in order, from submission to conclusion; it yields the number of epochs
it waits, and an epoch-ordered heap steps every request's generator.

Everything is a pure function of the scenario's master seed: two runs of the
same scenario produce byte-identical trace hashes.
"""

from __future__ import annotations

import hashlib
import heapq
import logging
from dataclasses import asdict, dataclass, field
from typing import Generator, Optional

from . import crypto, protocol
from .crypto import KeyPair, encode_fields, prf
from .model import (
    Fixed, ToyModel, _weight_stream, corrupt, encode_vector, forward, generate_model,
    param_count,
)
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
    selection_from_prefix,
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

# Input caps: past them a scenario is rejected (CLI exit 2), not run.  A run
# holds about 2.5 KiB per request; the model cap counts the values drawn for
# the model's weights and biases plus d0 * (d0 + 1) for the input.  The input
# is the biases of a d0 x d0 model; only those d0 values are drawn, but the
# term counts the whole model so that the set of accepted scenarios is fixed.
MAX_REQUESTS = 100_000
MAX_MODEL_VALUES = 1 << 16
# Epochs are encoded in 8 bytes.  The last request arrives by epoch
# 1 + (MAX_REQUESTS - 1) * MAX_ARRIVAL_SPACING < 2^49; it then waits one epoch
# for each of assign, assert, challenge, validate and arbitrate, and each role
# waits through at most MAX_ATTEMPTS + 1 timeouts of up to
# protocol.MAX_TIMEOUT_EPOCHS + 1 epochs, 2 * 65 * (2^32 + 1) < 2^40 in all;
# settlement comes one epoch after the last event.  So every epoch is < 2^50.
MAX_ARRIVAL_SPACING = 1 << 32
# A collusion group's wrong output is the true output offset by
# 1,000,000 + group raw Q16.16 units (`_World.wrong_output`); groups stay far
# below the signed 64-bit raw range, which a larger one could overflow.
MAX_GROUP = 1 << 32


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
        if self.group is not None and (type(self.group) is not int
                                       or not 0 <= self.group < MAX_GROUP):
            raise ValueError(f"group must be an integer in [0, {MAX_GROUP})")

    @property
    def adversarial(self) -> bool:
        return self.kind != HONEST

    @classmethod
    def from_dict(cls, data) -> "ExecStrategy":
        if isinstance(data, str):
            return cls(kind=data)
        if not isinstance(data, dict):
            raise ValueError(f"an executor strategy is a kind or an object, not {data!r}")
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
        if type(self.requests) is not int or not 0 <= self.requests <= MAX_REQUESTS:
            raise ValueError(f"requests must be an integer in [0, {MAX_REQUESTS}]")
        dims = self.model_dims
        if len(dims) < 2 or any(type(d) is not int or d < 1 for d in dims):
            raise ValueError("model_dims must list at least two integers >= 1")
        if param_count(dims) + param_count((dims[0], dims[0])) > MAX_MODEL_VALUES:
            raise ValueError(f"model_dims draw more than {MAX_MODEL_VALUES} values")
        if (type(self.arrival_spacing) is not int
                or not 0 <= self.arrival_spacing <= MAX_ARRIVAL_SPACING):
            raise ValueError(f"arrival_spacing must be an integer in [0, {MAX_ARRIVAL_SPACING}]")
        if self.byzantine_fraction is not None and not 0.0 <= self.byzantine_fraction < 1.0:
            raise ValueError("byzantine_fraction must be in [0, 1)")
        for idx in self.executor_overrides:
            if not 0 <= idx < self.network.executors:
                raise ValueError(f"executor override index {idx} out of range")
        if self.byzantine_fraction is not None:
            adversarial = sum(s.adversarial for s in self.executor_overrides.values())
            if adversarial > self.byzantine_budget:
                raise ValueError(f"{adversarial} adversarial overrides exceed the budget "
                                 f"of {self.byzantine_budget}")
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
        for name in ("focal_executor", "user_colludes_with"):
            value = getattr(self, name)
            if value is not None and (type(value) is not int
                                      or not 0 <= value < self.network.executors):
                raise ValueError(f"{name} must be an executor index in "
                                 f"[0, {self.network.executors})")
        if type(self.sweep_trials) is not int or self.sweep_trials < 1:
            raise ValueError("sweep_trials must be an integer >= 1")

    @property
    def byzantine_budget(self) -> int:
        """floor(r * N): the most adversarial nodes a Byzantine fraction
        allows, overrides included."""
        return int(self.byzantine_fraction * self.network.executors)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        net = NetworkConfig(**data["network"])
        for name in ("executor_overrides", "orchestrator_overrides"):
            if not isinstance(data.get(name, {}), dict):
                raise ValueError(f"{name} must be an object keyed by index")
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
        adversarial = sum(1 for s in table if s is not None and s.adversarial)
        # deterministic order over the unassigned indices
        free = [i for i in range(n) if table[i] is None]
        seed = prf(config.master_seed, b"adversary-assignment")
        free.sort(key=lambda i: crypto.prf(seed, i.to_bytes(8, "big")))
        for i in free[: config.byzantine_budget - adversarial]:
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
        return {**asdict(self), "empirical_challenge_rate": self.empirical_challenge_rate,
                "empirical_cheat_pass_rate": self.empirical_cheat_pass_rate}


@dataclass
class SimResult:
    metrics: MetricsReport
    ledger: dict[str, int]
    lifecycles: dict[bytes, protocol.RequestLifecycle]
    arbitration_outcomes: dict[bytes, protocol.ArbitrationOutcome]
    committee: Committee
    model: ToyModel


def _lies(master_seed: bytes, strategy: ExecStrategy, node: int, reqid: bytes) -> bool:
    """Whether a responsive node returns a wrong result for this request;
    fraud-with-probability nodes decide per request from a PRF of the master
    seed and their index."""
    if strategy.kind == FRAUD_WITH_PROBABILITY:
        return crypto.sampled(
            prf(master_seed, b"fraud-decision" + node.to_bytes(8, "big")),
            reqid, strategy.fraud_probability)
    return strategy.adversarial


def _derive_input(master_seed: bytes, dim: int) -> tuple[Fixed, ...]:
    """The biases of a (dim, dim) model generated from the input seed: the
    dim stream values after its dim * dim weights, drawn without the
    weights."""
    seed = prf(master_seed, b"input-seed")
    return tuple(_weight_stream(seed, dim, start=dim * dim))


class _World:
    """What a scenario fixes before any request, derived once for the
    simulator and the estimator alike: the strategy table, the model, the
    input, the true output, each node's encoded wrong output, the user key
    and whether an orchestrator leaks."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        master = config.master_seed
        self.strategies = assign_adversaries(config)
        self.model = generate_model(prf(master, b"model-seed"), config.model_dims)
        # fixed input for every request; nonces make request ids unique
        self.x_vec = _derive_input(master, config.model_dims[0])
        self.x = encode_vector(self.x_vec)
        self.y_true = forward(self.model, self.x_vec)
        self.y_true_b = encode_vector(self.y_true)
        # only adversarial nodes and the user's colluder ever return one
        self.wrong = [self.wrong_output(strategy, i)
                      if strategy.adversarial or i == config.user_colludes_with else None
                      for i, strategy in enumerate(self.strategies)]
        self.user_keys = KeyPair.from_seed(prf(master, b"user-key"))
        self.leak = protocol.ORCH_LEAK in config.orchestrator_overrides.values()

    def wrong_output(self, strategy: ExecStrategy, node: int) -> bytes:
        # distinct groups (and ungrouped nodes) produce distinct wrong results
        amount = 1_000_000 + strategy.group if strategy.group is not None else node + 1
        return encode_vector(corrupt(self.y_true, amount))


class _Simulation(_World):
    """One run's mutable state; see run() for the public entry point."""

    def __init__(self, config: ScenarioConfig):
        super().__init__(config)
        net = config.network
        master = config.master_seed
        self.executors = [
            ExecutorNode(i, KeyPair.from_seed(prf(master, b"exec-key" + i.to_bytes(8, "big"))))
            for i in range(net.executors)
        ]
        self.orchestrators = [
            Orchestrator(k, KeyPair.from_seed(prf(master, b"orch-key" + k.to_bytes(8, "big"))),
                         config.orchestrator_overrides.get(k, protocol.ORCH_HONEST))
            for k in range(net.committee_size)
        ]

        self.committee = Committee(
            net, self.orchestrators,
            [e.keypair.public for e in self.executors],
            {self.user_keys.public.raw: self.user_keys.public},
        )
        self.arbitration = ArbitrationContract(
            net, self.committee.orch_pks,
            [e.keypair.public for e in self.executors], self.model)
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
        self._arrived: dict[int, bytes] = {}  # request index -> id, until it wakes

    # -- event machinery ---------------------------------------------------

    def schedule(self, epoch: int, step: Generator[int, int, None]) -> None:
        heapq.heappush(self._queue, (epoch, self._seq, step))
        self._seq += 1

    def trace(self, tag: str, epoch: int, *payload: bytes) -> None:
        record = encode_fields(tag.encode(), epoch.to_bytes(8, "big"), *payload)
        self._trace.update(record)
        if log.isEnabledFor(logging.DEBUG):
            log.debug("epoch %d %s %s", epoch, tag, [p.hex()[:16] for p in payload])

    # -- node behavior -----------------------------------------------------

    def node_output(self, node: int, reqid: bytes,
                    leaked: Optional[bytes] = None) -> Optional[bytes]:
        """The encoded output per the node's strategy; None for an
        unresponsive node."""
        strategy = self.strategies[node]
        if strategy.kind == UNRESPONSIVE:
            return None
        if leaked is not None and strategy.adversarial:
            # free-ride on the leaked asserter result: no computation at all
            return leaked
        if _lies(self.config.master_seed, strategy, node, reqid):
            return self.wrong[node]
        self.computations[node] += 1
        return encode_vector(forward(self.model, self.x_vec))

    # -- request pipeline --------------------------------------------------

    def execute(self, reqid: bytes, node: int, y: bytes, role: str) -> None:
        """The node executes the request's task; the committee collects the
        signed response (``ExecutorNode.response``) one epoch later."""
        if not protocol.asserter_execute(
                self.committee.task_message(reqid), self.executors[node],
                self.committee.orch_pks, self.config.network.quorum, y):
            raise protocol.ProtocolError(f"{role} failed to collect a task quorum")

    def submit(self, first: int) -> None:
        """The user's one signed message for the arrival epoch of request
        ``first``, the first of its epoch to wake.  Arrivals are at
        1 + index * arrival_spacing, so at spacing 0 the epoch holds every
        request and at spacing >= 1 only ``first``."""
        indices = range(first, self.config.requests if self.config.arrival_spacing == 0
                        else first + 1)
        reqids = self.committee.accept_request(user_submit(
            [(self.x, k.to_bytes(8, "big")) for k in indices], self.user_keys))
        self._arrived.update(zip(indices, reqids))

    def timeout(self, epoch: int, reqid: bytes, role: str, attempt: int) -> None:
        if attempt > MAX_ATTEMPTS:
            raise protocol.ProtocolError(f"no responsive {role} found")
        node = self.committee.handle_timeout(reqid, role)
        self.metrics.timeouts += 1
        self.metrics.reassignments += 1
        self.trace(f"timeout-{role}", epoch, reqid, node.to_bytes(4, "big"))

    def request(self, index: int) -> Generator[int, int, None]:
        """One request from submission to conclusion, in protocol order.
        Each ``yield n`` waits n epochs and resumes with the epoch it wakes
        in; the first waits from epoch 0 to the request's arrival."""
        committee = self.committee
        epoch = yield 1 + index * self.config.arrival_spacing
        if index not in self._arrived:
            self.submit(index)
        reqid = self._arrived.pop(index)
        self.trace("accept", epoch, reqid)
        self.metrics.requests += 1
        lc = committee.lifecycles[reqid]
        epoch = yield 1

        while True:
            asserter = committee.select_asserter(reqid, self.beacon.tau(epoch))
            self.trace("assign", epoch, reqid, asserter.to_bytes(4, "big"),
                       lc.assert_attempt.to_bytes(4, "big"))
            # a user colluding with the selected asserter gets a free wrong
            # answer: the asserter skips computation entirely
            y = (self.wrong[asserter] if asserter == self.config.user_colludes_with
                 else self.node_output(asserter, reqid))
            if y is not None:
                break
            epoch = yield self.config.network.t_assert
            self.timeout(epoch, reqid, "asserter", lc.assert_attempt)
            epoch = yield 1
        self.execute(reqid, asserter, y, "asserter")
        epoch = yield 1
        resp = self.executors[asserter].response(reqid)
        if not committee.accept_asserter_response(resp):
            raise protocol.ProtocolError("asserter response rejected")
        self.trace("assert", epoch, reqid, crypto.sha256(resp.y_bytes))

        # the challenge is decided in the epoch after the response was
        # accepted, so the beacon value deciding it cannot be known when
        # asserting
        epoch = yield 1
        challenged = committee.challenge_decision(reqid, self.beacon.tau(epoch))
        self.metrics.challenge_decisions += 1
        self.trace("challenge", epoch, reqid, bytes([challenged]))
        if challenged:
            self.metrics.challenges += 1
            leaked = resp.y_bytes if self.leak else None
            while True:
                validator = committee.select_validator(reqid, self.beacon.tau(epoch))
                self.trace("validator", epoch, reqid, validator.to_bytes(4, "big"),
                           lc.validate_attempt.to_bytes(4, "big"))
                y = self.node_output(validator, reqid, leaked)
                if y is not None:
                    break
                epoch = yield self.config.network.t_validate
                self.timeout(epoch, reqid, "validator", lc.validate_attempt)
                epoch = yield 1
            self.execute(reqid, validator, y, "validator")
            epoch = yield 1
            check = self.executors[validator].response(reqid)
            if not committee.accept_validator_response(check):
                raise protocol.ProtocolError("validator response rejected")
            self.trace("validate", epoch, reqid, crypto.sha256(check.y_bytes))
            if committee.compare_and_route(reqid) == "matched":
                self.metrics.matched_challenges += 1
            else:
                epoch = yield 1
                outcome = self.arbitration.arbitrate(committee.arbitration_request(reqid))
                committee.record_arbitration(outcome)
                self.metrics.arbitrations += 1
                self.trace("arbitrate", epoch, reqid,
                           bytes([outcome.asserter_honest]), bytes([outcome.validator_honest]))

        if resp.y_bytes != self.y_true_b:
            self.metrics.fraud_assertions += 1
            if lc.phase in (Phase.UNCHALLENGED_DONE, Phase.MATCHED_DONE):
                self.metrics.undetected_frauds += 1
                self.metrics.fraud_passes += 1
            else:
                self.metrics.detected_frauds += 1
        self.trace("conclude", epoch, reqid, lc.phase.value.encode())

    # -- run ---------------------------------------------------------------

    def run(self) -> SimResult:
        for k in range(self.config.requests):
            step = self.request(k)
            self.schedule(next(step), step)  # from epoch 0 to its arrival
        last_epoch = 0
        while self._queue:
            epoch, _seq, step = heapq.heappop(self._queue)
            self.beacon.current_epoch = max(self.beacon.current_epoch, epoch)
            try:
                self.schedule(epoch + step.send(epoch), step)
            except StopIteration:
                pass  # the request concluded
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
        )


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
    def empirical_cheat_pass_rate(self) -> float:
        return self.fraud_passes / self.fraud_assertions if self.fraud_assertions else 0.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(slots=True)
class _Tally:
    """One focal strategy's output and running payoff sums."""

    strategy: ExecStrategy
    output: bytes
    cost: float
    unchallenged: float
    total: float = 0.0
    total_sq: float = 0.0
    arbitrations: int = 0

    def add(self, payoff: float) -> None:
        self.total += payoff
        self.total_sq += payoff * payoff

    def estimate(self, trials: int, challenges: int) -> StrategyEstimate:
        mean = self.total / trials
        var = max(0.0, self.total_sq / trials - mean * mean)
        fraud = self.strategy.adversarial
        return StrategyEstimate(
            strategy=self.strategy.kind, trials=trials, mean=mean,
            stderr=(var / trials) ** 0.5, challenges=challenges,
            arbitrations=self.arbitrations,
            fraud_assertions=trials if fraud else 0,
            fraud_passes=trials - self.arbitrations if fraud else 0)


def estimate_strategy_payoff(config: ScenarioConfig, strategies, trials: int,
                             ) -> list[StrategyEstimate]:
    """Mean and standard error of the focal node's per-request payoff when it
    asserts under each of ``strategies``: one estimate per strategy, in the
    order given.

    Each trial is one request asserted by the focal node, driven by an
    independent sub-seed PRF(master, trial-index).  The challenge and
    validator draws, the nodes' fraud decisions, free-riding on a leaking
    orchestrator, and the payouts are the protocol's own rules; only the
    signature plumbing is elided, since it cannot change any payoff.  The
    redraw past an unresponsive validator keeps the protocol's attempt
    suffix but reuses the trial's challenge beacon ``tau_chal`` for every
    attempt, where the simulator uses the beacon of the epoch the redraw
    happens in: the draws have the same distribution, not the same values.
    The payoff is the sum of the focal account's ledger deltas minus its
    compute cost.  ``user_colludes_with`` plays no part: each strategy
    already fixes what the focal asserter returns.

    The validator is never the focal node, so a trial's draws (request id,
    challenge, validator and the validator's fraud decision) do not depend on
    the focal strategy.  They are made once per trial and shared; the focal
    output, a leaked copy of it, the verdict and the payoff are per strategy.
    Each estimate is exactly what a call with that strategy alone gives.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if isinstance(strategies, (str, ExecStrategy)):
        raise TypeError("strategies must be a sequence of focal strategies")
    strategies = [ExecStrategy(kind=s) if isinstance(s, str) else s for s in strategies]
    if not strategies:
        raise ValueError("at least one focal strategy is required")
    if any(s.kind not in (HONEST, ALWAYS_FRAUD, COLLUDE) for s in strategies):
        raise ValueError("focal strategy must be honest or a fraud variant")

    world = _World(config)
    net = config.network
    master = config.master_seed
    focal = config.focal_executor
    account = f"exec:{focal}"
    table, leak, wrong_b = world.strategies, world.leak, world.wrong
    y_true_b = world.y_true_b
    # every trial's request id and selection string begin with these bytes
    prefix = crypto.request_prefix(world.user_keys.public.raw, world.x)

    def focal_payoff(deltas, cost: float) -> float:
        return sum(d.amount for d in deltas if d.account == account) - cost

    tallies = []
    for strategy in strategies:
        fraud = strategy.adversarial
        cost = 0.0 if fraud else net.compute_cost
        output = world.wrong_output(strategy, focal) if fraud else y_true_b
        # an unchallenged request pays the same whatever its id
        tallies.append(_Tally(strategy, output, cost,
                              focal_payoff(payout(net, b"", focal), cost)))

    challenges = 0
    for t in range(trials):
        sub = prf(master, b"trial" + t.to_bytes(8, "big"))
        reqid = crypto.reqid_from_prefix(prefix, t.to_bytes(8, "big"))
        tau_chal = prf(sub, b"tau-chal")
        s = selection_from_prefix(prefix, reqid)
        if not crypto.sampled(tau_chal, s, net.challenge_probability):
            for tally in tallies:
                tally.add(tally.unchallenged)
            continue
        challenges += 1
        attempt = 1
        j = draw_validator(tau_chal, s, focal, net.executors)
        while table[j].kind == UNRESPONSIVE:
            if attempt > MAX_ATTEMPTS:
                raise protocol.ProtocolError("no responsive validator found")
            attempt += 1
            j = draw_validator(tau_chal, selection_from_prefix(prefix, reqid, attempt),
                               focal, net.executors)
        # a free-riding validator copies whatever the focal node asserted
        copied = leak and table[j].adversarial
        y_j = None if copied else (
            wrong_b[j] if _lies(master, table[j], j, reqid) else y_true_b)
        for tally in tallies:
            if copied or y_j == tally.output:
                deltas = payout(net, reqid, focal, j)
            else:
                tally.arbitrations += 1
                deltas = payout(net, reqid, focal, j,
                                (not tally.strategy.adversarial, y_j == y_true_b))
            tally.add(focal_payoff(deltas, tally.cost))

    return [tally.estimate(trials, challenges) for tally in tallies]
