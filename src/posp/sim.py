"""Deterministic discrete-event simulator for the sampling-verification
protocol: virtual epochs, a trusted per-epoch beacon oracle, adversary
strategy injection for executors/orchestrators/users, and metrics/ledger
collection that ties empirical payoffs back to the closed-form predictions.

Each request is one generator (`_Simulation.request`) that runs the protocol
path in order, from submission to conclusion; it yields the number of epochs
it waits.  The run keeps one list of waiting generators per epoch, and a
heap of the epochs that have one; it steps each epoch's list in the order
its generators were scheduled.

Everything is a pure function of the scenario's master seed: two runs of the
same scenario produce byte-identical trace hashes.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import heapq
import logging
import math
import mmap
import os
import threading
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import chain, compress, count
from typing import Generator, Iterable, Iterator, Optional

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
    ROLES,
    SettlementContract,
    draw_validator,
    payout,
    selection_string,
    user_submit,
    validator_of,
)

log = logging.getLogger("posp.sim")

HONEST = "honest"
ALWAYS_FRAUD = "always-fraud"
FRAUD_WITH_PROBABILITY = "fraud-with-probability"
COLLUDE = "collude"
UNRESPONSIVE = "unresponsive"

STRATEGY_KINDS = (HONEST, ALWAYS_FRAUD, FRAUD_WITH_PROBABILITY, COLLUDE, UNRESPONSIVE)

MAX_ATTEMPTS = 64

# Trace tags by slot (``protocol.ROLES``): a node drawn, and its response accepted.
DRAW_TAGS, RESPONSE_TAGS = ("assign", "validator"), ("assert", "validate")

# Input caps: past them a scenario is rejected (CLI exit 2), not run.  A run's
# peak RSS grows by about 2.5 KiB per request (a ``mixed_adversaries`` run
# peaked at 268.3 MiB at 100,000 requests and 31.0 MiB at 1,000, CPython 3.11
# on x86-64 Linux), and a sweep keeps 8 bytes per trial (each
# trial's challenge value u, ``estimate_strategy_payoff``), so at most 128 MiB.
# The model cap counts the values drawn for the model's weights and biases
# plus d0 * (d0 + 1) for the input.  The input is the biases of a d0 x d0
# model; only those d0 values are drawn, but the term counts the whole model
# so that the set of accepted scenarios is fixed.
MAX_REQUESTS = 100_000
MAX_SWEEP_TRIALS = 1 << 24
MAX_MODEL_VALUES = 1 << 16
# Epochs are encoded in 8 bytes.  The last request arrives by epoch
# 1 + (MAX_REQUESTS - 1) * MAX_ARRIVAL_SPACING < 2^49; it then waits one epoch
# for each of assign, assert, challenge, validate and arbitrate, and each role
# waits through at most MAX_ATTEMPTS + 1 timeouts of up to
# protocol.MAX_TIMEOUT_EPOCHS + 1 epochs, 2 * 65 * (2^32 + 1) < 2^40 in all;
# settlement comes one epoch after the last event.  So every epoch is < 2^50.
MAX_ARRIVAL_SPACING = 1 << 32
# A collusion group's wrong output is the true output offset by
# 1,000,000 + group raw Q16.16 units (`_wrong_amount`); groups stay far
# below the signed 64-bit raw range, which a larger one could overflow.
MAX_GROUP = 1 << 32
# A sweep forks a worker to draw challenge values only for at least this many
# trials per worker.  Forking a worker from a ~28 MiB process and reaping it
# costs about 4 ms (median of 50 fork/_exit/waitpid cycles, CPython 3.11 on
# x86-64 Linux); drawing 4,096 trials' u takes about 19 ms (4.6 us a trial).
MIN_TRIALS_PER_WORKER = 4096


@dataclass(frozen=True)
class ExecStrategy:
    kind: str = HONEST
    fraud_probability: float = 0.0
    group: Optional[int] = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown executor strategy {self.kind!r}")
        if (type(self.fraud_probability) not in (int, float)
                or not 0.0 <= self.fraud_probability <= 1.0):
            raise ValueError("fraud_probability must be a number in [0, 1]")
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
        """A strategy from its JSON form: a kind string, or an object whose
        keys are this class's fields.  Absent fields take the class
        defaults; a key that names no field raises TypeError."""
        if isinstance(data, str):
            return cls(kind=data)
        if not isinstance(data, dict):
            raise ValueError(f"a strategy is a kind or an object, not {type(data).__name__}")
        return cls(**data)


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
        if self.byzantine_fraction is not None and (
                type(self.byzantine_fraction) not in (int, float)
                or not 0.0 <= self.byzantine_fraction < 1.0):
            raise ValueError("byzantine_fraction must be a number in [0, 1)")
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
            if value is None and name == "user_colludes_with":
                continue  # no collusion; the focal executor is always named
            if type(value) is not int or not 0 <= value < self.network.executors:
                raise ValueError(f"{name} must be an executor index in "
                                 f"[0, {self.network.executors})")
        if type(self.sweep_trials) is not int or not 1 <= self.sweep_trials <= MAX_SWEEP_TRIALS:
            raise ValueError(f"sweep_trials must be an integer in [1, {MAX_SWEEP_TRIALS}]")

    @property
    def byzantine_budget(self) -> int:
        """floor(r * N): the most adversarial nodes a Byzantine fraction
        allows, overrides included."""
        return int(self.byzantine_fraction * self.network.executors)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """A scenario from its JSON record, whose keys are this class's
        fields.  Only the fields whose JSON form differs are converted here;
        absent fields take the class defaults, and a key that names no field
        raises TypeError."""
        data = {**data}
        data["network"] = NetworkConfig(**data["network"])
        data["master_seed"] = bytes.fromhex(data["master_seed"])
        if "model_dims" in data:
            data["model_dims"] = tuple(data["model_dims"])
        if "byzantine_strategy" in data:
            data["byzantine_strategy"] = ExecStrategy.from_dict(data["byzantine_strategy"])
        for name, read in (("executor_overrides", ExecStrategy.from_dict),
                           ("orchestrator_overrides", lambda behavior: behavior)):
            if name in data:
                if not isinstance(data[name], dict):
                    raise ValueError(f"{name} must be an object keyed by index")
                for k in data[name]:
                    # int() also reads "01", " 2", "+1" and "1_0": one spelling per index
                    if str(int(k)) != k:
                        raise ValueError(f"{name} key {k!r} is not an index in plain decimal")
                data[name] = {int(k): read(v) for k, v in data[name].items()}
        return cls(**data)


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
    """The biases of a (dim, dim) model generated from the input seed, boxed
    for ``forward``: the dim stream values after its dim * dim weights,
    drawn without the weights."""
    seed = prf(master_seed, b"input-seed")
    return tuple(map(Fixed, _weight_stream(seed, dim, start=dim * dim)))


def _wrong_amount(strategy: ExecStrategy, node: int) -> int:
    """The raw Q16.16 amount that ``corrupt`` adds to every value of the true
    output when ``node`` lies under ``strategy``: one per collusion group,
    and one per node for every other node.  It is never 0, and the true
    output is never empty, so two wrong outputs are equal exactly when their
    amounts are, and none equals the true output."""
    return 1_000_000 + strategy.group if strategy.group is not None else node + 1


class _World:
    """What a scenario fixes before any request, derived once for the
    simulator and the estimator alike: the strategy table, the model, the
    input, the true output, the user key and whether an orchestrator leaks.
    It holds no wrong output: ``wrong_output`` encodes a liar's only when the
    simulator returns it, and the estimator compares wrong results by their
    ``_wrong_amount``."""

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
        self.user_keys = KeyPair.from_seed(prf(master, b"user-key"))
        self.leak = protocol.ORCH_LEAK in config.orchestrator_overrides.values()

    def wrong_output(self, strategy: ExecStrategy, node: int) -> bytes:
        return encode_vector(corrupt(self.y_true, _wrong_amount(strategy, node)))


class _Simulation(_World):
    """One run's mutable state; see run() for the public entry point.

    ``_due`` maps each epoch with a waiting request to its generators in
    scheduling order, and ``_epochs`` is a heap of its keys.  Draining the
    epochs in turn, each list in order, steps requests in the order of one
    heap keyed on (epoch, scheduling counter): a step scheduled into the
    epoch being drained would join the end of its list, where that heap
    would run it too.  (Every wait is at least one epoch, so none is.)"""

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
        self.waits = (net.t_assert, net.t_validate)  # each slot's response timeout
        self.metrics = MetricsReport()
        self.computations = [0] * net.executors
        self._trace = hashlib.sha256()
        self._due: dict[int, list[Generator[int, int, None]]] = {}
        self._epochs: list[int] = []  # heap of the keys of _due
        # tag -> the encoded tag and the epoch field's length prefix
        self._trace_heads: dict[str, bytes] = {}
        self._arrived: dict[int, bytes] = {}  # request index -> id, until it wakes

    # -- event machinery ---------------------------------------------------

    def schedule(self, epoch: int, step: Generator[int, int, None]) -> None:
        due = self._due.get(epoch)
        if due is None:
            self._due[epoch] = [step]
            heapq.heappush(self._epochs, epoch)
        else:
            due.append(step)

    def trace(self, tag: str, epoch: int, *payload: bytes) -> None:
        """Hash the record ``encode_fields(tag, epoch as 8 bytes, *payload)``."""
        head = self._trace_heads.get(tag)
        if head is None:
            head = self._trace_heads[tag] = encode_fields(tag.encode()) + (8).to_bytes(4, "big")
        self._trace.update(head + epoch.to_bytes(8, "big") + encode_fields(*payload))
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
            return self.wrong_output(strategy, node)
        self.computations[node] += 1
        return encode_vector(forward(self.model, self.x_vec))

    # -- request pipeline --------------------------------------------------

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

    def request(self, index: int) -> Generator[int, int, None]:
        """One request from submission to conclusion, in protocol order.
        Each ``yield n`` waits n epochs and resumes with the epoch it wakes
        in; the first waits from epoch 0 to the request's arrival.  One loop
        serves both slots (``protocol.ROLES``): ``Committee.select`` draws
        the node of the slot the phase awaits until one answers within the
        slot's wait, and ``Committee.accept_response`` takes its response."""
        committee = self.committee
        epoch = yield 1 + index * self.config.arrival_spacing
        if index not in self._arrived:
            self.submit(index)
        reqid = self._arrived.pop(index)
        self.trace("accept", epoch, reqid)
        self.metrics.requests += 1
        lc = committee.lifecycles[reqid]
        epoch = yield 1

        leaked = None
        for slot in (0, 1):
            if slot:
                # the challenge is decided in the epoch after the response
                # was accepted, so the beacon value deciding it cannot be
                # known when asserting
                epoch = yield 1
                challenged = committee.challenge_decision(reqid, self.beacon.tau(epoch))
                self.metrics.challenge_decisions += 1
                self.trace("challenge", epoch, reqid, bytes([challenged]))
                if not challenged:
                    break
                self.metrics.challenges += 1
                leaked = lc.responses[0].y_bytes if self.leak else None
            while True:
                node = committee.select(reqid, self.beacon.tau(epoch))
                self.trace(DRAW_TAGS[slot], epoch, reqid, node.to_bytes(4, "big"),
                           lc.attempts[slot].to_bytes(4, "big"))
                # a user colluding with the selected asserter gets a free
                # wrong answer: the asserter skips computation entirely
                y = (self.wrong_output(self.strategies[node], node)
                     if not slot and node == self.config.user_colludes_with
                     else self.node_output(node, reqid, leaked))
                if y is not None:
                    break
                epoch = yield self.waits[slot]
                if lc.attempts[slot] > MAX_ATTEMPTS:
                    raise protocol.ProtocolError(f"no responsive {ROLES[slot]} found")
                node = committee.handle_timeout(reqid)
                self.metrics.timeouts += 1
                self.metrics.reassignments += 1
                self.trace(f"timeout-{ROLES[slot]}", epoch, reqid, node.to_bytes(4, "big"))
                epoch = yield 1
            if not protocol.asserter_execute(committee.task_message(reqid), self.executors[node],
                                             committee.orch_pks, committee.config.quorum, y):
                raise protocol.ProtocolError(f"{ROLES[slot]} failed to collect a task quorum")
            epoch = yield 1
            resp = self.executors[node].response(reqid)
            if not committee.accept_response(resp):
                raise protocol.ProtocolError(f"{ROLES[slot]} response rejected")
            self.trace(RESPONSE_TAGS[slot], epoch, reqid, crypto.sha256(resp.y_bytes))

        if challenged:
            if committee.compare_and_route(reqid) == "matched":
                self.metrics.matched_challenges += 1
            else:
                epoch = yield 1
                outcome = self.arbitration.arbitrate(committee.arbitration_request(reqid))
                committee.record_arbitration(outcome)
                self.metrics.arbitrations += 1
                self.trace("arbitrate", epoch, reqid,
                           bytes([outcome.asserter_honest]), bytes([outcome.validator_honest]))

        if lc.responses[0].y_bytes != self.y_true_b:
            self.metrics.fraud_assertions += 1
            if lc.phase in (Phase.UNCHALLENGED_DONE, Phase.MATCHED_DONE):
                self.metrics.undetected_frauds += 1
                self.metrics.fraud_passes += 1
            else:
                self.metrics.detected_frauds += 1
        self.trace("conclude", epoch, reqid, lc.phase.value.encode())

    # -- run ---------------------------------------------------------------

    def _drain(self) -> int:
        """Step every scheduled request to its conclusion, epoch by epoch and
        each epoch's requests in scheduling order; returns the last epoch
        stepped, or 0 if there was none."""
        epoch = 0
        while self._epochs:
            epoch = heapq.heappop(self._epochs)
            self.beacon.current_epoch = epoch
            # the loop also steps any request scheduled into this epoch meanwhile
            for step in self._due[epoch]:
                try:
                    self.schedule(epoch + step.send(epoch), step)
                except StopIteration:
                    pass  # the request concluded
            del self._due[epoch]
        return epoch

    def run(self) -> SimResult:
        for k in range(self.config.requests):
            step = self.request(k)
            self.schedule(next(step), step)  # from epoch 0 to its arrival
        last_epoch = self._drain()

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
    """Execute the full protocol for every request in the scenario, and log
    one INFO line that sums the run up.  Requests are stepped epoch by epoch,
    and within an epoch in the order they were scheduled there: the order of
    one heap keyed on (epoch, scheduling counter)."""
    result = _Simulation(config).run()
    m = result.metrics
    log.info("run: %d requests, %d challenges, %d arbitrations, %d timeouts, trace %s",
             m.requests, m.challenges, m.arbitrations, m.timeouts, m.trace_hash)
    return result


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


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den), for integers num >= 0 and den > 0, rounded once to
    the nearest float.  The integer square root of num / den scaled by 4^k
    has at least 55 bits, so its lowest bit lies below the rounding bit;
    setting that bit when the root is inexact (a sticky bit) makes
    ``float`` round it as it would round the exact root."""
    if num == 0:
        return 0.0
    k = max(0, 56 - (num.bit_length() - den.bit_length()) // 2)
    scaled = num << 2 * k
    root = math.isqrt(scaled // den)
    if root * root * den != scaled:
        root |= 1
    return math.ldexp(float(root), -k)


def _estimate(strategy: ExecStrategy, trials: int, challenges: int, arbitrations: int,
              paid: list[tuple[int, int]], cost: float) -> StrategyEstimate:
    """One focal strategy's estimate over ``trials`` trials, ``paid`` as
    (delta, weight) pairs: ``weight`` trials each earn the integer sum of
    ledger deltas ``delta``, and every trial pays ``cost``.  The sums are
    exact integers, and the mean and the standard error are each rounded
    once from their exact values; the variance does not depend on the cost,
    and neither result depends on how the trials are grouped into pairs or
    in what order."""
    total = sum(k * delta for delta, k in paid)
    total_sq = sum(k * delta * delta for delta, k in paid)
    fraud = strategy.adversarial
    return StrategyEstimate(
        strategy=strategy.kind, trials=trials,
        mean=float(Fraction(total, trials) - Fraction(cost)),
        # sqrt(var / trials), var = (total_sq * trials - total^2) / trials^2
        stderr=_sqrt_ratio(total_sq * trials - total ** 2, trials ** 3),
        challenges=challenges,
        arbitrations=arbitrations,
        fraud_assertions=trials if fraud else 0,
        fraud_passes=trials - arbitrations if fraud else 0)


def _trial_draws(master: bytes, prefix: bytes, ts: Iterable[int],
                 ) -> Iterator[tuple[bytes, bytes, bytes, int]]:
    """For each trial index t of ``ts``, in order, trial t's request id,
    challenge beacon ``tau_chal``, selection string s and challenge value
    u = ``crypto.prf_u64(tau_chal, s)``: the value that the challenge
    compares with ``sample_threshold(p)`` and whose bucket is the first
    validator drawn.  They depend on the master seed, the input (through
    ``prefix``) and t alone, so every sweep row draws the same ones.

    The rules are ``crypto.derive_reqid``, ``protocol.selection_string`` and
    three PRFs.  The master seed's key blocks (``crypto.keyed_prf``) and the
    preimages' constant heads are made once per call, so a trial hashes only
    its own bytes, and ``prf`` is the one helper it calls."""
    sub_seed = crypto.keyed_prf(master)
    # encode_fields(nonce) and encode_fields(reqid): a 4-byte length, then the bytes
    reqid_head = prefix + encode_fields(bytes(8))[:4]
    selection_head = prefix + encode_fields(bytes(32))[:4]
    for t in ts:
        nonce = t.to_bytes(8, "big")
        reqid = hashlib.sha256(reqid_head + nonce).digest()
        s = selection_head + reqid
        tau_chal = prf(sub_seed(b"trial" + nonce), b"tau-chal")
        yield reqid, tau_chal, s, int.from_bytes(prf(tau_chal, s)[:8], "big")


def estimate_strategy_payoff(rows, strategies, trials: int,
                             ) -> list[list[StrategyEstimate]]:
    """Mean and standard error of the focal node's per-request payoff when it
    asserts under each of ``strategies``, for each scenario in ``rows``: one
    list per row, in row order, of one estimate per strategy, in the order
    given.

    Each trial is one request asserted by the focal node, driven by an
    independent sub-seed PRF(master, trial-index).  The challenge and
    validator draws, the nodes' fraud decisions, free-riding on a leaking
    orchestrator, and the payouts are the protocol's own rules; only the
    signature plumbing and the output encodings are elided, since neither
    can change any payoff.  An output is named by its ``_wrong_amount``, 0
    for the true output: two outputs are equal exactly when their amounts
    are, so comparing amounts gives every verdict that comparing the encoded
    outputs would, and no output is encoded.  The redraw past an
    unresponsive validator keeps the protocol's attempt suffix but reuses
    the trial's challenge beacon ``tau_chal`` for every attempt, where the
    simulator uses the beacon of the epoch the redraw happens in: the draws
    have the same distribution, not the same values.
    The payoff is the sum of the focal account's ledger deltas minus its
    compute cost.  ``user_colludes_with`` plays no part: each strategy
    already fixes what the focal asserter returns.

    The validator is never the focal node, so a trial's draws (request id,
    challenge, validator and the validator's fraud decision) do not depend on
    the focal strategy.  They are made once per trial and shared; the focal
    output, a leaked copy of it, the verdict and the payoff are per strategy.

    Rows share draws too.  A trial's request id, ``tau_chal``, selection
    string and the 64-bit PRF value u that the challenge compares with
    ``sample_threshold(p)`` depend only on the master seed, the input and
    the trial index, so the rows must agree on ``master_seed``,
    ``model_dims``, ``network.executors`` and ``focal_executor``, and fewer
    than ``_RANK_LIMIT`` distinct challenge probabilities fit.  A call draws
    every trial's u once (``_draw_challenge_values``), packs the trials that
    some row challenges (``_pack_candidates``), then takes the rows in the
    order given, each in its own world: it classes the row's challenged
    trials by the answer they meet (``_outcome_classes``, ``_answer``) and
    pays each strategy each class once (``_score_row``, ``_estimate``).
    Memory is one world plus 8 bytes per trial.  No result depends on the
    order of the trials, and each estimate is exactly what a call with that
    row and that strategy alone gives.
    """
    if not 1 <= trials <= MAX_SWEEP_TRIALS:
        raise ValueError(f"trials must be in [1, {MAX_SWEEP_TRIALS}]")
    if isinstance(strategies, (str, ExecStrategy)):
        raise TypeError("strategies must be a sequence of focal strategies")
    strategies = [ExecStrategy(kind=s) if isinstance(s, str) else s for s in strategies]
    if not strategies:
        raise ValueError("at least one focal strategy is required")
    if any(s.kind not in (HONEST, ALWAYS_FRAUD, COLLUDE) for s in strategies):
        raise ValueError("focal strategy must be honest or a fraud variant")
    rows = list(rows)
    if len({(row.master_seed, row.model_dims, row.network.executors, row.focal_executor)
            for row in rows}) > 1:
        raise ValueError("rows must agree on master_seed, model_dims, network.executors "
                         "and focal_executor")
    if not rows:
        return []
    thresholds = [crypto.sample_threshold(row.network.challenge_probability)
                  for row in rows]
    levels = sorted(set(thresholds), reverse=True)
    if len(levels) >= _RANK_LIMIT:
        raise ValueError(f"rows must have fewer than {_RANK_LIMIT} distinct "
                         "challenge probabilities")
    # the row at the i-th largest threshold challenges the candidates whose u
    # lies below at least i levels: those packed at least i << _RANK_SHIFT
    least = {level: i << _RANK_SHIFT for i, level in enumerate(levels, 1)}
    world = _World(rows[0])
    # every trial's request id and selection string begin with these bytes
    prefix = crypto.request_prefix(world.user_keys.public.raw, world.x)
    with (mmap.mmap(-1, 8 * trials) as shared, memoryview(shared) as raw,
          raw.cast("Q") as us):
        _draw_challenge_values(rows[0].master_seed, prefix, us)
        found = _pack_candidates(us, levels, rows[0].network.executors)
        with us[:found] as candidates:
            estimates = []
            for row, threshold in zip(rows, thresholds):
                if world is None:
                    world = _World(row)
                challenges, classes = _outcome_classes(world, prefix, candidates, least[threshold])
                estimates.append(_score_row(row, strategies, trials, challenges, classes))
                world = None  # one world at a time: each later row builds its own
    return estimates


# A packed candidate (``_pack_candidates``), from the low bits up: the trial
# index, which holds any index below MAX_SWEEP_TRIALS; the bucket of its first
# validator, u % executors, which holds any bucket below
# ``protocol.MAX_EXECUTORS``; and in the bits left, its rank, the number of
# distinct row thresholds its u lies below, so fewer than _RANK_LIMIT of them.
_TRIAL_BITS = (MAX_SWEEP_TRIALS - 1).bit_length()
_TRIAL_MASK = (1 << _TRIAL_BITS) - 1
_BUCKET_MASK = (1 << (protocol.MAX_EXECUTORS - 1).bit_length()) - 1
_RANK_SHIFT = _TRIAL_BITS + _BUCKET_MASK.bit_length()
_RANK_LIMIT = 1 << (64 - _RANK_SHIFT)
# The kinds of first validator whose answer depends on the request: an
# unresponsive one is redrawn with the request's attempt suffix, and a
# fraud-with-probability one decides from the request id (``_lies``).
_PER_REQUEST = (UNRESPONSIVE, FRAUD_WITH_PROBABILITY)


def _pack_candidates(us: memoryview, levels: list[int], executors: int) -> int:
    """Move every trial that the largest threshold ``levels[0]`` challenges
    to the front of ``us``, in trial order, and return how many there are.
    Each takes one slot: its index, its first validator's bucket
    ``u % executors`` and its rank, the number of ``levels`` (distinct
    thresholds, largest first) above its u, packed as ``_RANK_SHIFT`` and
    ``_TRIAL_BITS`` lay out.  The row at ``levels[i]`` challenges exactly
    the candidates whose u lies below at least i + 1 of them.
    One C-level scan finds them; a candidate's slot is never past its own,
    so each u is read before it is overwritten."""
    ascending = levels[::-1]
    found = 0
    for t in compress(count(), map(levels[0].__gt__, us)):
        u = us[t]
        above = len(ascending) - bisect.bisect_right(ascending, u)
        us[found] = above << _RANK_SHIFT | u % executors << _TRIAL_BITS | t
        found += 1
    return found


def _draw_slice(master: bytes, prefix: bytes, us: memoryview, lo: int, hi: int) -> None:
    """Write the challenge value u of trials ``lo`` to ``hi`` into ``us``."""
    for t, (_reqid, _tau_chal, _s, u) in enumerate(
            _trial_draws(master, prefix, range(lo, hi)), lo):
        us[t] = u


def _draw_challenge_values(master: bytes, prefix: bytes, us: memoryview) -> None:
    """Fill ``us``, a view of a shared map, with every trial's u, each drawn
    by ``_trial_draws`` (through ``_draw_slice``).  The trials
    are split into k contiguous slices, k = min(available CPUs, trials //
    MIN_TRIALS_PER_WORKER), at least 1.  This process draws the first slice
    and a forked worker each other one, each held to its own CPU; a worker
    leaves through ``os._exit``, so it never returns into the caller's code,
    flushes no stdio buffer and runs no atexit hook.  Every worker is
    reaped, and this process's own CPUs restored, before this returns or
    raises; a worker that failed raises RuntimeError.  A fork that fails
    (``OSError``, say ``EAGAIN``) ends the forking, and this process draws
    every slice no worker took.  Nothing forks where ``os.fork`` is missing
    or the caller runs a second thread, since a child forked from a threaded
    process can deadlock on a lock another thread held."""
    trials = len(us)
    cpus = []
    if hasattr(os, "fork") and threading.active_count() == 1:
        cpus = (sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else list(range(os.cpu_count() or 1)))
    workers = max(1, min(len(cpus), trials // MIN_TRIALS_PER_WORKER))
    bounds = [trials * k // workers for k in range(workers + 1)]
    pids = []
    try:
        for cpu, lo, hi in zip(cpus[1:], bounds[1:-1], bounds[2:]):
            try:
                pid = os.fork()
            except OSError:
                break  # no more workers: this process draws what is left
            if pid == 0:
                code = 1
                try:
                    _run_on({cpu})
                    gc.disable()  # the caller's garbage is not the worker's to finalize
                    _draw_slice(master, prefix, us, lo, hi)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        if pids:
            _run_on({cpus[0]})
        _draw_slice(master, prefix, us, bounds[0], bounds[1])
        # the slices after the workers' ones, if a fork failed
        _draw_slice(master, prefix, us, bounds[len(pids) + 1], trials)
    finally:
        if pids:
            _run_on(set(cpus))
        failed = [pid for pid in pids if os.waitpid(pid, 0)[1]]
    if failed:
        raise RuntimeError(f"{len(failed)} of {len(pids)} challenge-value workers failed")


def _run_on(cpus: set[int]) -> None:
    """Hold this process to ``cpus`` where the platform allows it.  A forked
    child starts on its parent's CPU, and a kernel may keep both there for
    hundreds of milliseconds while another CPU idles."""
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, cpus)


def _answer(world: _World, prefix: bytes, u: int, reqid: bytes = b"",
            tau_chal: bytes = b"") -> tuple[int, Optional[int]]:
    """The validator that answers a challenged trial whose first draw is
    ``u``, and its answer, by the rules the simulator follows: the first
    validator is ``validator_of(u)``, each unresponsive one is redrawn with
    the request's next attempt suffix from ``tau_chal``, and the responsive
    one returns ``None`` when it copies whatever the focal node asserted (a
    leaking orchestrator feeds an adversarial validator), else its output's
    ``_wrong_amount`` when it lies (``_lies``) and 0 for the true output.
    A first validator that is not ``_PER_REQUEST`` reads neither the request
    id nor ``tau_chal``, so ``u`` may be its bucket alone."""
    config = world.config
    focal, n = config.focal_executor, config.network.executors
    table = world.strategies
    attempt = 1
    j = validator_of(u, focal, n)
    while table[j].kind == UNRESPONSIVE:
        if attempt > MAX_ATTEMPTS:
            raise protocol.ProtocolError("no responsive validator found")
        attempt += 1
        j = draw_validator(tau_chal, selection_string(prefix, reqid, attempt), focal, n)
    if world.leak and table[j].adversarial:
        return j, None
    return j, _wrong_amount(table[j], j) if _lies(config.master_seed, table[j], j, reqid) else 0


def _outcome_classes(world: _World, prefix: bytes, candidates: memoryview, least: int,
                     ) -> tuple[int, dict[Optional[int], list[int]]]:
    """How many trials the row challenges, and its class table: each
    ``_answer`` -> [the first validator seen giving it, its trials].  The
    row challenges the ``candidates`` (``_pack_candidates``) packed at
    ``least`` or more.  One streaming pass counts them per first-validator
    bucket; a bucket whose validator is not ``_PER_REQUEST`` answers every
    one of its trials alike.  Only the other buckets' trials are re-derived
    through ``_trial_draws`` and answered one by one."""
    config = world.config
    focal, n = config.focal_executor, config.network.executors
    # the first validator is ``draw_validator(tau_chal, s, ...)``, whose PRF
    # value is u, so its bucket is u % executors
    buckets = Counter(map(_BUCKET_MASK.__and__, map(_TRIAL_BITS.__rrshift__, compress(
        candidates, map(least.__le__, candidates)))))
    per_request = {bucket for bucket in buckets
                   if world.strategies[validator_of(bucket, focal, n)].kind in _PER_REQUEST}
    answers = ((_answer(world, prefix, bucket), k)
               for bucket, k in buckets.items() if bucket not in per_request)
    if per_request:
        redrawn = (c & _TRIAL_MASK for c in candidates
                   if c >= least and c >> _TRIAL_BITS & _BUCKET_MASK in per_request)
        answers = chain(answers, ((_answer(world, prefix, u, reqid, tau_chal), 1)
                                  for reqid, tau_chal, _s, u
                                  in _trial_draws(config.master_seed, prefix, redrawn)))
    classes: dict[Optional[int], list[int]] = {}
    # each answer joins its class as it comes: none is kept
    for (j, answer), k in answers:
        classes.setdefault(answer, [j, 0])[1] += k
    return sum(buckets.values()), classes


def _score_row(config: ScenarioConfig, strategies: list[ExecStrategy], trials: int,
               challenges: int, classes: dict[Optional[int], list[int]],
               ) -> list[StrategyEstimate]:
    """Each strategy's estimate from a row's class table
    (``_outcome_classes``): one ``payout`` per class, with the class's
    first validator and no request id, since the focal node's delta depends
    only on the verdict, weighted by the class's trials; and one for the
    unchallenged trials, which pay the same whatever their id."""
    net = config.network
    focal = config.focal_executor
    account = f"exec:{focal}"

    def focal_delta(*outcome) -> int:
        return sum(d.amount for d in payout(net, b"", focal, *outcome) if d.account == account)

    estimates = []
    for strategy in strategies:
        fraud = strategy.adversarial
        output = _wrong_amount(strategy, focal) if fraud else 0
        paid = [(focal_delta(), trials - challenges)]
        arbitrations = 0
        for answer, (j, k) in classes.items():
            # a leaked copy or the focal output matches; any other goes to arbitration
            contested = answer is not None and answer != output
            arbitrations += k if contested else 0
            paid.append((focal_delta(j, (not fraud, answer == 0) if contested else None), k))
        estimates.append(_estimate(strategy, trials, challenges, arbitrations, paid,
                                   0.0 if fraud else net.compute_cost))
    return estimates
