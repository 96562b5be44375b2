"""Executable state machines for every protocol role: user submission,
orchestrator committee (request acceptance, sampling-based selection,
challenge routing, timeouts), executors, and the arbitration and settlement
contracts.  A user signs once per arrival epoch: ``user_submit`` signs
(b"requests", reqid_1, ..., reqid_n) over the epoch's requests, and
``Committee.accept_request`` rebuilds the ids, checks that one signature and
accepts the whole message or none of it; each lifecycle keeps its request's
``crypto.request_prefix`` for every draw.  BFT agreement is the committee
collecting votes into the message it certifies: a task message, an
arbitration request and a batch certificate each carry their payload once,
with the (orch_id, signature) votes on it.  Every vote is a signature over the canonical fields the
orchestrator agrees on (``Orchestrator.vote``), and ``_quorum`` accepts a
message that 2f+1 distinct, in-range orchestrators signed validly.
Task votes and executor responses follow one seal rule (``seal_batch``):
the first demand for an unsealed message (``Committee.task_message``,
``ExecutorNode.response``) seals every message queued since the last seal
into one Merkle tree, whose root is signed once (the orchestrators' votes on
a task batch, the executor's signature on a response batch).  Each message
then carries the root, what was signed on it and its own inclusion path.
Each key's sign memo holds every signature made with it for as long as the
key lives, so every task quorum proves the root's votes without a real
verify; ``response_signed`` is the one check of a response.
Network sizes are capped (``MAX_EXECUTORS``, ``MAX_FAULT_BOUND``); a config
past a cap is rejected, which the CLI reports as exit 2.

Each executor role is a slot (``ROLES``: slot 0 asserts, slot 1 validates),
and a request's phase names the slot it awaits (``PHASE_SLOT``), so one
``Committee.select``, ``accept_response`` and ``handle_timeout`` serve both
roles and take no slot.  A call the phase does not await changes nothing, and
returns False (``accept_response``) or raises ``ProtocolError``.

All cross-role interaction happens through the immutable message types
defined here; token amounts on the ledger are integers so conservation can
be audited exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from . import crypto
from .crypto import KeyPair, PublicKey, encode_fields
from .model import Fixed, ToyModel, decode_vector, encode_vector, forward


class ProtocolError(Exception):
    pass


class InvalidSignatureError(ProtocolError):
    pass


class DuplicateRequestError(ProtocolError):
    pass


class BelowQuorumError(ProtocolError):
    pass


class AlreadySettledError(ProtocolError):
    pass


class ConservationViolationError(ProtocolError):
    pass


class Phase(enum.Enum):
    SUBMITTED = "Submitted"
    ASSIGNED = "Assigned"
    ASSERTED = "Asserted"
    UNCHALLENGED_DONE = "UnchallengedDone"
    CHALLENGED = "Challenged"
    MATCHED_DONE = "MatchedDone"
    ARBITRATING = "Arbitrating"
    ARBITRATED_DONE = "ArbitratedDone"
    REASSIGNED = "Reassigned"


# Reassigned loops back into the pipeline: to Assigned after an asserter
# timeout, to Challenged after a validator timeout.  A phase names the slot it
# awaits (``PHASE_SLOT``): Submitted or Reassigned draws slot 0, Assigned waits
# for its response, and Challenged draws slot 1 and waits for its response.
PHASE_TRANSITIONS = {
    Phase.SUBMITTED: {Phase.ASSIGNED},
    Phase.ASSIGNED: {Phase.ASSERTED, Phase.REASSIGNED},
    Phase.ASSERTED: {Phase.UNCHALLENGED_DONE, Phase.CHALLENGED},
    Phase.CHALLENGED: {Phase.MATCHED_DONE, Phase.ARBITRATING, Phase.REASSIGNED},
    Phase.ARBITRATING: {Phase.ARBITRATED_DONE},
    Phase.REASSIGNED: {Phase.ASSIGNED, Phase.CHALLENGED},
    Phase.UNCHALLENGED_DONE: set(),
    Phase.MATCHED_DONE: set(),
    Phase.ARBITRATED_DONE: set(),
}

TERMINAL_PHASES = {Phase.UNCHALLENGED_DONE, Phase.MATCHED_DONE, Phase.ARBITRATED_DONE}
ROLES = ("asserter", "validator")  # by slot
PHASE_SLOT = {Phase.SUBMITTED: 0, Phase.REASSIGNED: 0, Phase.ASSIGNED: 0, Phase.CHALLENGED: 1}


class Reason(enum.Enum):
    USER_PAYMENT = "UserPayment"
    ASSERTER_REWARD = "AsserterReward"
    VALIDATOR_REWARD = "ValidatorReward"
    SLASH = "Slash"
    SLASH_REDISTRIBUTION = "SlashRedistribution"
    BURN = "Burn"
    TIMEOUT_PENALTY = "TimeoutPenalty"

    def __init__(self, value: str):
        self.encoded = value.encode()  # the bytes a ledger delta carries


@dataclass(frozen=True, slots=True)
class LedgerDelta:
    account: str
    amount: int
    reason: Reason
    reqid: bytes

    def __post_init__(self):
        # a bool is an int, and would encode exactly like 0 or 1
        if type(self.amount) is not int:
            raise ValueError("ledger amounts must be integer token units")
        if not abs(self.amount) < 1 << 128:
            raise ValueError("a ledger amount's magnitude must fit its 16 bytes")

    def encode(self) -> bytes:
        sign = b"-" if self.amount < 0 else b"+"
        return encode_fields(
            self.account.encode(),
            sign + abs(self.amount).to_bytes(16, "big"),
            self.reason.encoded,
            self.reqid,
        )


# Input caps: past them a scenario is rejected (CLI exit 2), not run.
MAX_EXECUTORS = 4096
MAX_FAULT_BOUND = 64
# A wait is encoded in an 8-byte epoch field; sim.MAX_ARRIVAL_SPACING shows
# the largest epoch a run can reach.
MAX_TIMEOUT_EPOCHS = 1 << 32
# Every ledger delta is encoded in 16 bytes.  A request's deltas are at most
# B, R, S or a timeout penalty (<= S) each, and its burn is at most
# B + 2S + one penalty per timeout; the simulator allows 64 timeouts per
# role, so the burn is below 2^96 * 131 < 2^104.
MAX_AMOUNT = 1 << 96


@dataclass(frozen=True)
class NetworkConfig:
    """Sizes, timeouts, and on-ledger economic parameters.

    Ledger amounts (payment_b, reward_r, slash_s, timeout_penalty) are
    integers; compute_cost is the off-chain cost of one model evaluation and
    only enters payoff metrics.
    """

    executors: int
    fault_bound: int
    challenge_probability: float
    t_assert: int = 3
    t_validate: int = 3
    payment_b: int = 30
    reward_r: int = 12
    slash_s: int = 1500
    compute_cost: float = 10.0
    timeout_penalty: Optional[int] = None

    def __post_init__(self):
        if type(self.executors) is not int or not 2 <= self.executors <= MAX_EXECUTORS:
            raise ValueError(f"executors must be an integer in [2, {MAX_EXECUTORS}]")
        if type(self.fault_bound) is not int or not 0 <= self.fault_bound <= MAX_FAULT_BOUND:
            raise ValueError(f"fault_bound must be an integer in [0, {MAX_FAULT_BOUND}]")
        if (type(self.challenge_probability) not in (int, float)
                or not 0.0 <= self.challenge_probability <= 1.0):
            raise ValueError("challenge_probability must be a number in [0, 1]")
        for name, low, high in (("payment_b", 0, MAX_AMOUNT), ("reward_r", 0, MAX_AMOUNT),
                                ("slash_s", 0, MAX_AMOUNT), ("t_assert", 1, MAX_TIMEOUT_EPOCHS),
                                ("t_validate", 1, MAX_TIMEOUT_EPOCHS)):
            value = getattr(self, name)
            if type(value) is not int or not low <= value <= high:
                raise ValueError(f"{name} must be an integer in [{low}, {high}]")
        if not 2 * self.reward_r < self.payment_b:
            raise ValueError("reward must satisfy 2R < B")
        if self.timeout_penalty is None:
            object.__setattr__(self, "timeout_penalty", self.slash_s // 10)
        if type(self.timeout_penalty) is not int or not 0 <= self.timeout_penalty <= self.slash_s:
            raise ValueError("timeout_penalty must be an integer in [0, slash_s]")
        if (type(self.compute_cost) not in (int, float)
                or not 0 <= self.compute_cost < math.inf):
            raise ValueError("compute_cost must be a finite number >= 0")

    @property
    def committee_size(self) -> int:
        return 3 * self.fault_bound + 1

    @property
    def quorum(self) -> int:
        return 2 * self.fault_bound + 1


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SignedRequest:
    """A user's requests of one arrival epoch, as (x, nonce) pairs, with the
    user's one signature on (b"requests", reqid_1, ..., reqid_n)."""

    pk_user: bytes
    requests: tuple[tuple[bytes, bytes], ...]
    signature: bytes


@dataclass(frozen=True, slots=True)
class TaskMessage:
    """The committee's instruction to an executor: ``path`` proves (x, reqid)
    a leaf of the batch tree under ``root``, and ``votes`` are the
    orchestrators' (orch_id, signature) votes on (b"tasks", root)."""

    x: bytes
    reqid: bytes
    root: bytes
    path: bytes
    votes: tuple[tuple[int, bytes], ...]


@dataclass(frozen=True, slots=True)
class ExecutorResponse:
    """An executor's output as the bytes it committed to: ``path`` proves
    the (x, reqid, y_bytes) leaf under the root of the node's response
    batch, and ``signature`` is the node's one signature on (b"responses",
    root).  Every comparison, hash and verdict reads ``y_bytes``."""

    x: bytes
    reqid: bytes
    node_index: int
    y_bytes: bytes
    root: bytes
    path: bytes
    signature: bytes


@dataclass(frozen=True)
class QuorumCertificate:
    """2f+1 distinct orchestrator signatures over one message digest."""

    digest: bytes
    votes: tuple[tuple[int, bytes], ...]

    def verify(self, orch_pks: Sequence[PublicKey], quorum: int) -> bool:
        return _quorum(orch_pks, quorum, (self.digest,), self.votes)


@dataclass(frozen=True)
class ArbitrationRequest:
    """The evidence of a mismatch, with the orchestrators' (orch_id,
    signature) votes on its ``tuple_fields``."""

    x: bytes
    reqid: bytes
    asserter: ExecutorResponse
    validator: ExecutorResponse
    votes: tuple[tuple[int, bytes], ...] = ()

    def tuple_fields(self) -> tuple[bytes, ...]:
        """Every field arbitration reads, so the votes cover the whole
        request and an altered copy loses them."""
        return (b"arbitration", self.x, self.reqid) + tuple(
            part for resp in (self.asserter, self.validator)
            for part in (str(resp.node_index).encode(), resp.x, resp.reqid,
                         resp.y_bytes, resp.root, resp.path, resp.signature))


@dataclass(frozen=True)
class ArbitrationOutcome:
    reqid: bytes
    y_true: tuple[Fixed, ...]
    asserter_honest: bool
    validator_honest: bool
    deltas: tuple[LedgerDelta, ...]


@dataclass(slots=True)
class RequestLifecycle:
    """Per-request record; phase changes are checked against the declared
    transition graph so every simulated trace is a valid path.  A write to a
    slot's node, response or attempt counter replaces the tuple."""

    reqid: bytes
    prefix: bytes  # crypto.request_prefix(pk_user, x), which every draw reads
    x: bytes
    phase: Phase = Phase.SUBMITTED
    nodes: tuple[Optional[int], ...] = (None, None)
    responses: tuple[Optional[ExecutorResponse], ...] = (None, None)
    attempts: tuple[int, ...] = (1, 1)
    # the task batch's (levels, votes) from ``seal_batch``; too large to repr
    batch: Optional[tuple] = field(default=None, repr=False)
    leaf: int = 0  # the request's leaf index in ``batch``
    history: list[Phase] = field(default_factory=list)

    def __post_init__(self):
        self.history.append(self.phase)

    def advance(self, phase: Phase) -> None:
        if phase not in PHASE_TRANSITIONS[self.phase]:
            raise ProtocolError(f"illegal phase transition {self.phase} -> {phase}")
        self.phase = phase
        self.history.append(phase)

    @property
    def concluded(self) -> bool:
        return self.phase in TERMINAL_PHASES


def _awaited(lc: RequestLifecycle, drawn: bool) -> Optional[int]:
    """The slot the phase awaits a response from (``drawn``) or a draw for."""
    slot = PHASE_SLOT.get(lc.phase)
    if slot is None or lc.responses[slot] is not None or (lc.nodes[slot] is not None) != drawn:
        return None
    return slot


def _put(values: tuple, slot: int, value) -> tuple:
    return values[:slot] + (value,) + values[slot + 1:]


# ---------------------------------------------------------------------------
# Roles
# ---------------------------------------------------------------------------

ORCH_HONEST = "honest"
ORCH_WITHHOLD = "withhold"
ORCH_EQUIVOCATE = "equivocate"
ORCH_LEAK = "leak-to-validator"

ORCH_BEHAVIORS = (ORCH_HONEST, ORCH_WITHHOLD, ORCH_EQUIVOCATE, ORCH_LEAK)


@dataclass
class Orchestrator:
    orch_id: int
    keypair: KeyPair
    behavior: str = ORCH_HONEST

    def __post_init__(self):
        if self.behavior not in ORCH_BEHAVIORS:
            raise ValueError(f"unknown orchestrator behavior {self.behavior!r}")

    def vote(self, *fields: bytes) -> Optional[bytes]:
        """Signature over the canonical fields this orchestrator agrees on;
        None when it withholds."""
        if self.behavior == ORCH_WITHHOLD:
            return None
        if self.behavior == ORCH_EQUIVOCATE:
            # Conflicting vote: signed over a mutated message, so receivers
            # reject it and it never counts toward a quorum.
            fields = (fields[0] + b"?",) + fields[1:]
        return self.keypair.sign(*fields)


@dataclass
class ExecutorNode:
    """An executor and its unsigned work: the (x, reqid, y_bytes) it has
    executed since its last batch, and the sealed responses not yet
    collected, by request id."""

    index: int
    keypair: KeyPair
    queued: list[tuple[bytes, bytes, bytes]] = field(default_factory=list)
    sealed: dict[bytes, ExecutorResponse] = field(default_factory=dict)

    @property
    def account(self) -> str:
        return f"exec:{self.index}"

    def response(self, reqid: bytes) -> ExecutorResponse:
        """The signed response for an executed request, handed out once.
        The first collection after an execution seals the batch of every
        response queued since the last one: the node signs its Merkle root
        once and each response carries its inclusion path."""
        if reqid not in self.sealed and self.queued:
            queued, self.queued = self.queued, []
            levels, signature = seal_batch(
                queued, lambda root: self.keypair.sign(b"responses", root))
            root = levels[-1][0]
            for leaf, (x, queued_id, y_bytes) in enumerate(queued):
                self.sealed[queued_id] = ExecutorResponse(
                    x=x, reqid=queued_id, node_index=self.index, y_bytes=y_bytes, root=root,
                    path=crypto.merkle_path(levels, leaf), signature=signature)
        try:
            return self.sealed.pop(reqid)
        except KeyError:
            raise ProtocolError(f"node {self.index} has no response for "
                                f"{reqid.hex()}") from None


def seal_batch(messages: Sequence[Sequence[bytes]], sign: Callable[[bytes], object]) -> tuple:
    """The one seal rule of both Merkle batches: the tree over the leaves of
    ``messages``, each given as its leaf's canonical fields, and
    ``sign(root)``, called once.  Returns (levels, what ``sign`` returned):
    the executor's signature, or the orchestrators' votes."""
    levels = crypto.merkle_levels([crypto.merkle_leaf(*fields) for fields in messages])
    return levels, sign(levels[-1][0])


def user_submit(requests: Sequence[tuple[bytes, bytes]], user_keys: KeyPair) -> SignedRequest:
    """Build the broadcast-ready message of one arrival epoch's (x, nonce)
    requests; the one signature covers every request id, in order, to
    prevent replay."""
    pk_user = user_keys.public.raw
    requests = tuple((x, nonce) for x, nonce in requests)
    _prefixes, reqids = _request_ids(pk_user, requests)
    return SignedRequest(pk_user=pk_user, requests=requests,
                         signature=user_keys.sign(b"requests", *reqids))


def _request_ids(pk_user: bytes, requests: tuple) -> tuple[list[bytes], list[bytes]]:
    """Each request's ``crypto.request_prefix`` and id; each distinct x is encoded once."""
    encoded = {x: crypto.request_prefix(pk_user, x) for x in {x for x, _nonce in requests}}
    prefixes = [encoded[x] for x, _nonce in requests]
    return prefixes, list(map(crypto.derive_reqid, prefixes, [nonce for _x, nonce in requests]))


def selection_string(prefix: bytes, reqid: bytes, attempt: int = 1) -> bytes:
    """The unique string fed to the sampling PRF: the request's prefix and
    id, and on a reassignment an attempt suffix, so a fresh node is drawn."""
    suffix = f"attempt_{attempt}".encode() if attempt > 1 else b""
    return prefix + encode_fields(reqid) + suffix


def draw_validator(tau_chal: bytes, unique_string: bytes, asserter: Optional[int], n: int) -> int:
    """Bucket draw over the n executors, moved off the asserter
    (``validator_of``)."""
    return validator_of(crypto.bucket(tau_chal, unique_string, n), asserter, n)


def validator_of(value: int, asserter: Optional[int], n: int) -> int:
    """The validator that a sampling value draws: its bucket ``value % n``,
    moved to the next node when it lands on the asserter, so the validator
    is never the asserter."""
    j = value % n
    return (j + 1) % n if j == asserter else j


def payout(config: NetworkConfig, reqid: bytes, asserter: int,
           validator: Optional[int] = None,
           verdict: Optional[tuple[bool, bool]] = None) -> list[LedgerDelta]:
    """The rewards and slashes that conclude a request.

    No validator: unchallenged, the asserter earns R.  No verdict: the
    results matched and both earn R.  Otherwise ``verdict`` is arbitration's
    (asserter_honest, validator_honest): whoever diverged is slashed S, and
    a lone honest party earns R plus the slash.  A slash with no honest
    party to receive it is burned at settlement.
    """
    R = config.reward_r
    if validator is None:
        return [LedgerDelta(f"exec:{asserter}", R, Reason.ASSERTER_REWARD, reqid)]
    if verdict is None:
        return [LedgerDelta(f"exec:{asserter}", R, Reason.ASSERTER_REWARD, reqid),
                LedgerDelta(f"exec:{validator}", R, Reason.VALIDATOR_REWARD, reqid)]
    asserter_honest, validator_honest = verdict
    S = config.slash_s
    deltas = [LedgerDelta(f"exec:{node}", -S, Reason.SLASH, reqid)
              for node, honest in ((asserter, asserter_honest),
                                   (validator, validator_honest))
              if not honest]
    if asserter_honest != validator_honest:
        winner, reason = ((asserter, Reason.ASSERTER_REWARD) if asserter_honest
                          else (validator, Reason.VALIDATOR_REWARD))
        deltas.append(LedgerDelta(f"exec:{winner}", R, reason, reqid))
        deltas.append(LedgerDelta(f"exec:{winner}", S, Reason.SLASH_REDISTRIBUTION, reqid))
    return deltas


def _quorum(orch_pks: Sequence[PublicKey], quorum: int, fields: tuple[bytes, ...],
            votes: Sequence[tuple[int, bytes]]) -> bool:
    """The one 2f+1 rule: whether ``quorum`` distinct in-range orchestrators
    signed the message given as its canonical ``fields`` validly.

    ``votes`` are (orch_id, signature) pairs; a vote whose id is not an
    ``int`` is skipped, as ``response_signed`` refuses such a node index.
    Votes that ``KeyPair.sign`` made with a key are counted first, from that
    key's sign memo alone (``PublicKey.signed_here``), which never evicts.
    Only if they fall short are the other votes verified for real, in
    order, until the count reaches quorum.  A signer that has already
    counted is skipped unverified.  Fields that cannot be encoded have no
    valid vote.
    """
    try:
        message = encode_fields(*fields)
    except (TypeError, ValueError):
        return False
    seen: set[int] = set()
    unproven = []
    for orch_id, sig in votes:
        if type(orch_id) is not int or not 0 <= orch_id < len(orch_pks) or orch_id in seen:
            continue
        if orch_pks[orch_id].signed_here(sig, message):
            seen.add(orch_id)
            if len(seen) >= quorum:
                return True
        else:
            unproven.append((orch_id, sig))
    for orch_id, sig in unproven:
        if orch_id not in seen and orch_pks[orch_id].verify(sig, *fields):
            seen.add(orch_id)
            if len(seen) >= quorum:
                return True
    return False


def asserter_execute(task: TaskMessage, node: ExecutorNode,
                     orch_pks: Sequence[PublicKey], quorum: int, y_bytes: bytes) -> bool:
    """Queue the node's encoded output ``y_bytes`` for the task, unsigned,
    only when the task's path proves its (x, reqid) under its root and 2f+1
    distinct orchestrators voted validly on (b"tasks", root); otherwise keep
    waiting (returns False).  An ``x``, ``reqid`` or ``y_bytes`` that is not
    exactly ``bytes`` is refused.  ``node.response(reqid)`` hands out the
    signed response."""
    if (type(task.x) is type(task.reqid) is type(y_bytes) is bytes
            and crypto.merkle_proves(task.root, crypto.merkle_leaf(task.x, task.reqid),
                                     task.path)
            and _quorum(orch_pks, quorum, (b"tasks", task.root), task.votes)):
        node.queued.append((task.x, task.reqid, y_bytes))
        return True
    return False


def response_signed(executor_pks: Sequence[PublicKey], resp: ExecutorResponse) -> bool:
    """The one check of an executor response: its node is in range, its
    x, reqid and y_bytes are exactly ``bytes``, its path proves (x, reqid,
    y_bytes) under its root, and the node signed (b"responses", root)."""
    node = resp.node_index
    return (type(node) is int and 0 <= node < len(executor_pks)
            and type(resp.x) is type(resp.reqid) is type(resp.y_bytes) is bytes
            and crypto.merkle_proves(
                resp.root, crypto.merkle_leaf(resp.x, resp.reqid, resp.y_bytes), resp.path)
            and executor_pks[node].verify(resp.signature, b"responses", resp.root))


# ---------------------------------------------------------------------------
# Committee
# ---------------------------------------------------------------------------

class Committee:
    """The 3f+1 orchestrators' replicated state: accepted requests, per-request
    lifecycles, and pending (unsettled) ledger entries.

    Honest orchestrators are deterministic replicas, so the replicated logic
    runs once; Byzantine members only influence which signatures exist.
    """

    def __init__(self, config: NetworkConfig, orchestrators: Sequence[Orchestrator],
                 executor_pks: Sequence[PublicKey], user_pks: dict[bytes, PublicKey]):
        if len(orchestrators) != config.committee_size:
            raise ValueError("committee must have exactly 3f+1 orchestrators")
        self.config = config
        self.orchestrators = list(orchestrators)
        self.orch_pks = [o.keypair.public for o in orchestrators]
        self.executor_pks = list(executor_pks)
        self.user_pks = dict(user_pks)
        self.lifecycles: dict[bytes, RequestLifecycle] = {}
        self.pending_deltas: dict[bytes, list[LedgerDelta]] = {}
        self.unbatched: list[bytes] = []  # accepted since the last batch, in order

    # -- Basic protocol ----------------------------------------------------

    def accept_request(self, signed: SignedRequest) -> list[bytes]:
        """Accept a user's message of requests whole or not at all: rebuild
        every request id, verify the one user signature on them, reject
        duplicates, and debit each payment.  Returns the ids in order.  A
        malformed or empty message, an unknown key or a bad signature raises
        `InvalidSignatureError`, and a repeated or already accepted id
        `DuplicateRequestError`; either leaves the committee unchanged."""
        pk_user, requests = signed.pk_user, signed.requests
        if (type(pk_user) is not bytes or type(requests) is not tuple or not requests
                or not all(type(pair) is tuple and len(pair) == 2 and type(pair[0]) is bytes
                           and type(pair[1]) is bytes for pair in requests)):
            raise InvalidSignatureError("malformed request message")
        pk = self.user_pks.get(pk_user)
        if pk is None:
            raise InvalidSignatureError("unknown user key")
        prefixes, reqids = _request_ids(pk_user, requests)
        if not pk.verify(signed.signature, b"requests", *reqids):
            raise InvalidSignatureError("bad user signature")
        seen: set[bytes] = set()
        for reqid in reqids:
            if reqid in seen or reqid in self.lifecycles:
                raise DuplicateRequestError(reqid.hex())
            seen.add(reqid)
        debit = -self.config.payment_b
        for reqid, prefix, (x, _nonce) in zip(reqids, prefixes, requests):
            self.lifecycles[reqid] = RequestLifecycle(reqid=reqid, prefix=prefix, x=x)
            self.pending_deltas[reqid] = [LedgerDelta("user", debit, Reason.USER_PAYMENT, reqid)]
        self.unbatched.extend(reqids)
        return reqids

    def select(self, reqid: bytes, tau: bytes) -> int:
        """Draw the awaited slot's node, with its attempt suffix: the asserter,
        or the validator past it (``draw_validator``)."""
        lc = self.lifecycles[reqid]
        slot = _awaited(lc, drawn=False)
        if slot is None:
            raise ProtocolError(f"no executor to draw in phase {lc.phase.value}")
        # slot 0 has no drawn node to step past: a plain bucket draw
        node = draw_validator(tau, selection_string(lc.prefix, reqid, lc.attempts[slot]),
                              lc.nodes[0], self.config.executors)
        lc.nodes = _put(lc.nodes, slot, node)
        if not slot:
            lc.advance(Phase.ASSIGNED)
        return node

    def _votes(self, *fields: bytes) -> tuple[tuple[int, bytes], ...]:
        """(orch_id, signature) for every orchestrator that votes on fields."""
        return tuple((orch.orch_id, sig) for orch in self.orchestrators
                     if (sig := orch.vote(*fields)) is not None)

    def task_message(self, reqid: bytes) -> TaskMessage:
        """The request's task: its batch root with the votes on it, and its
        inclusion path.  The first call for an unbatched request seals the
        batch of every request accepted since the last one; later calls
        reuse it."""
        lc = self.lifecycles[reqid]
        if lc.batch is None:
            batched, self.unbatched = [self.lifecycles[queued] for queued in self.unbatched], []
            batch = seal_batch([(member.x, member.reqid) for member in batched],
                               lambda root: self._votes(b"tasks", root))
            for leaf, member in enumerate(batched):
                member.batch, member.leaf = batch, leaf
        levels, votes = lc.batch
        return TaskMessage(x=lc.x, reqid=reqid, root=levels[-1][0],
                           path=crypto.merkle_path(levels, lc.leaf), votes=votes)

    def accept_response(self, resp: ExecutorResponse) -> bool:
        """Record the awaited slot's signed response; refuse (False) any other."""
        lc = self.lifecycles.get(resp.reqid)
        slot = None if lc is None else _awaited(lc, drawn=True)
        if (slot is None or resp.node_index != lc.nodes[slot]
                or not response_signed(self.executor_pks, resp)):
            return False
        lc.responses = _put(lc.responses, slot, resp)
        if not slot:
            lc.advance(Phase.ASSERTED)
        return True

    def handle_timeout(self, reqid: bytes) -> int:
        """Penalize the awaited slot's silent node and return it; the slot is
        redrawn with its attempt counter incremented."""
        lc = self.lifecycles[reqid]
        slot = _awaited(lc, drawn=True)
        if slot is None:
            raise ProtocolError(f"no executor response awaited in phase {lc.phase.value}")
        node = lc.nodes[slot]
        lc.nodes = _put(lc.nodes, slot, None)
        lc.attempts = _put(lc.attempts, slot, lc.attempts[slot] + 1)
        lc.advance(Phase.REASSIGNED)  # select moves it on
        if slot:
            lc.advance(Phase.CHALLENGED)
        if self.config.timeout_penalty:
            self.pending_deltas[reqid].append(LedgerDelta(
                f"exec:{node}", -self.config.timeout_penalty, Reason.TIMEOUT_PENALTY, reqid))
        return node

    def challenge_decision(self, reqid: bytes, tau_chal: bytes) -> bool:
        """Drawn strictly after the asserter response was accepted; on a
        non-challenge, records the asserter reward and concludes."""
        lc = self.lifecycles[reqid]
        if lc.phase is not Phase.ASSERTED:
            raise ProtocolError("challenge decision requires an accepted response")
        challenged = crypto.sampled(
            tau_chal, selection_string(lc.prefix, reqid),
            self.config.challenge_probability,
        )
        if challenged:
            lc.advance(Phase.CHALLENGED)
        else:
            self.pending_deltas[reqid].extend(payout(self.config, reqid, lc.nodes[0]))
            lc.advance(Phase.UNCHALLENGED_DONE)
            self._finalize(reqid)
        return challenged

    # -- Challenge protocol ------------------------------------------------

    def compare_and_route(self, reqid: bytes) -> str:
        """Byte-exact match rewards both parties; any mismatch escalates.
        Needs the validator's response, accepted while Challenged."""
        lc = self.lifecycles[reqid]
        if lc.phase is not Phase.CHALLENGED or lc.responses[1] is None:
            raise ProtocolError("comparing requires an accepted validator response")
        asserted, validated = lc.responses
        if asserted.y_bytes == validated.y_bytes:
            self.pending_deltas[reqid].extend(payout(self.config, reqid, *lc.nodes))
            lc.advance(Phase.MATCHED_DONE)
            self._finalize(reqid)
            return "matched"
        lc.advance(Phase.ARBITRATING)
        return "arbitrate"

    def arbitration_request(self, reqid: bytes) -> ArbitrationRequest:
        """The mismatch's evidence, for a request routed to arbitration."""
        lc = self.lifecycles[reqid]
        if lc.phase not in (Phase.ARBITRATING, Phase.ARBITRATED_DONE):
            raise ProtocolError("an arbitration request requires a routed mismatch")
        request = ArbitrationRequest(lc.x, reqid, *lc.responses)
        return replace(request, votes=self._votes(*request.tuple_fields()))

    def record_arbitration(self, outcome: ArbitrationOutcome) -> None:
        lc = self.lifecycles[outcome.reqid]
        lc.advance(Phase.ARBITRATED_DONE)  # raises, changing nothing, unless Arbitrating
        self.pending_deltas[outcome.reqid].extend(outcome.deltas)
        self._finalize(outcome.reqid)

    # -- Settlement --------------------------------------------------------

    def _finalize(self, reqid: bytes) -> None:
        """Balance the request with an explicit burn so payouts never exceed
        the amount collected."""
        deltas = self.pending_deltas[reqid]
        burn = -sum(d.amount for d in deltas)
        if burn < 0:
            raise ConservationViolationError(
                f"request {reqid.hex()} pays out more than it collected")
        if burn:
            deltas.append(LedgerDelta("burn", burn, Reason.BURN, reqid))

    def concluded_deltas(self) -> list[LedgerDelta]:
        out = []
        for reqid, lc in self.lifecycles.items():
            if lc.concluded:
                out.extend(self.pending_deltas[reqid])
        return out

    def certify_batch(self, deltas: Sequence[LedgerDelta]) -> QuorumCertificate:
        digest = batch_digest(deltas)
        return QuorumCertificate(digest=digest, votes=self._votes(digest))


def batch_digest(deltas: Sequence[LedgerDelta]) -> bytes:
    """SHA-256 of the canonical encoding of every delta's encoding, hashed
    one delta at a time: the batch's encoding is never held whole."""
    return crypto.sha256_fields(d.encode() for d in deltas)


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------

class ArbitrationContract:
    """Recomputes the function on-contract and slashes whoever diverges.

    Verdicts are byte-exact: a party is honest iff its signed output bytes
    equal the encoded recomputed truth.  Outcomes are recorded immutably.
    """

    def __init__(self, config: NetworkConfig, orch_pks: Sequence[PublicKey],
                 executor_pks: Sequence[PublicKey], model: ToyModel):
        self.config = config
        self.orch_pks = list(orch_pks)
        self.executor_pks = list(executor_pks)
        self.model = model
        self.outcomes: dict[bytes, ArbitrationOutcome] = {}

    def arbitrate(self, request: ArbitrationRequest) -> ArbitrationOutcome:
        """Act on a request that 2f+1 distinct orchestrators signed."""
        if not _quorum(self.orch_pks, self.config.quorum, request.tuple_fields(),
                       request.votes):
            raise BelowQuorumError(
                f"fewer than {self.config.quorum} valid votes on the request")

        reqid = request.reqid
        if reqid in self.outcomes:
            return self.outcomes[reqid]
        for resp in (request.asserter, request.validator):
            if not response_signed(self.executor_pks, resp):
                raise InvalidSignatureError(
                    f"evidence signature of node {resp.node_index} invalid")

        y_true = forward(self.model, decode_vector(request.x))
        truth = encode_vector(y_true)
        asserter_honest = request.asserter.y_bytes == truth
        validator_honest = request.validator.y_bytes == truth
        deltas = payout(self.config, reqid, request.asserter.node_index,
                        request.validator.node_index, (asserter_honest, validator_honest))
        outcome = ArbitrationOutcome(
            reqid=reqid, y_true=y_true, asserter_honest=asserter_honest,
            validator_honest=validator_honest, deltas=tuple(deltas))
        self.outcomes[reqid] = outcome
        return outcome


class SettlementContract:
    """Applies quorum-certified balance-update batches atomically and audits
    conservation: per request, credits plus burn equal debits exactly."""

    def __init__(self, config: NetworkConfig, orch_pks: Sequence[PublicKey],
                 initial_balances: dict[str, int]):
        self.config = config
        self.orch_pks = list(orch_pks)
        self.balances = dict(initial_balances)
        self.balances.setdefault("burn", 0)
        self.settled: set[bytes] = set()
        self.initial_supply = sum(self.balances.values())

    def settle(self, deltas: Sequence[LedgerDelta], cert: QuorumCertificate) -> None:
        if cert.digest != batch_digest(deltas):
            raise InvalidSignatureError("certificate digest does not match batch")
        if not cert.verify(self.orch_pks, self.config.quorum):
            raise BelowQuorumError("batch certificate below 2f+1 valid signatures")

        by_reqid: dict[bytes, list[LedgerDelta]] = {}
        for d in deltas:
            by_reqid.setdefault(d.reqid, []).append(d)
        for reqid, group in by_reqid.items():
            if reqid in self.settled:
                raise AlreadySettledError(reqid.hex())
            self._audit_request(reqid, group)
        # atomic apply only after every request in the batch passed the audit
        for d in deltas:
            self.balances[d.account] = self.balances.get(d.account, 0) + d.amount
        self.settled.update(by_reqid)

    def _audit_request(self, reqid: bytes, group: Sequence[LedgerDelta]) -> None:
        total = sum(d.amount for d in group)
        if total != 0:
            raise ConservationViolationError(
                f"request {reqid.hex()} deltas sum to {total}, expected 0")
        payments = [d for d in group if d.reason is Reason.USER_PAYMENT]
        if len(payments) != 1 or payments[0].amount != -self.config.payment_b:
            raise ConservationViolationError(
                f"request {reqid.hex()} must carry exactly one payment of B")
        credits = sum(d.amount for d in group if d.amount > 0)
        slashed = sum(-d.amount for d in group
                      if d.reason in (Reason.SLASH, Reason.TIMEOUT_PENALTY))
        if credits - slashed > self.config.payment_b:
            raise ConservationViolationError(
                f"request {reqid.hex()} pays out more than collected")

    def snapshot(self) -> dict[str, int]:
        """Deterministic sorted snapshot for auditing and golden files."""
        return {k: self.balances[k] for k in sorted(self.balances)}

    def total_supply(self) -> int:
        return sum(self.balances.values())

    def burned(self) -> int:
        return self.balances.get("burn", 0)
