"""Executable state machines for every protocol role: user submission,
orchestrator committee (request acceptance, sampling-based selection,
challenge routing, timeouts), executors, and the arbitration and settlement
contracts.  BFT agreement is abstracted as authenticated broadcast plus
collection of 2f+1-signature quorum certificates.

All cross-role interaction happens through the immutable message types
defined here; token amounts on the ledger are integers so conservation can
be audited exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from . import crypto
from .crypto import KeyPair, PublicKey, encode_fields
from .model import Fixed, ToyModel, encode_vector, forward


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
# timeout, to Challenged after a validator timeout.
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


class Reason(enum.Enum):
    USER_PAYMENT = "UserPayment"
    ASSERTER_REWARD = "AsserterReward"
    VALIDATOR_REWARD = "ValidatorReward"
    SLASH = "Slash"
    SLASH_REDISTRIBUTION = "SlashRedistribution"
    BURN = "Burn"
    TIMEOUT_PENALTY = "TimeoutPenalty"


@dataclass(frozen=True)
class LedgerDelta:
    account: str
    amount: int
    reason: Reason
    reqid: bytes

    def __post_init__(self):
        if not isinstance(self.amount, int):
            raise ValueError("ledger amounts must be integer token units")

    def encode(self) -> bytes:
        sign = b"-" if self.amount < 0 else b"+"
        return encode_fields(
            self.account.encode(),
            sign + abs(self.amount).to_bytes(16, "big"),
            self.reason.value.encode(),
            self.reqid,
        )


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
        if self.executors < 2:
            raise ValueError("need at least 2 executors")
        if self.fault_bound < 0:
            raise ValueError("fault_bound must be >= 0")
        if not 0.0 <= self.challenge_probability <= 1.0:
            raise ValueError("challenge_probability must be in [0, 1]")
        for name in ("payment_b", "reward_r", "slash_s"):
            if not isinstance(getattr(self, name), int) or getattr(self, name) < 0:
                raise ValueError(f"{name} must be a non-negative integer")
        if not 2 * self.reward_r < self.payment_b:
            raise ValueError("reward must satisfy 2R < B")
        if self.t_assert < 1 or self.t_validate < 1:
            raise ValueError("timeouts must be >= 1 epoch")
        if self.timeout_penalty is None:
            object.__setattr__(self, "timeout_penalty", self.slash_s // 10)
        if not 0 <= self.timeout_penalty <= self.slash_s:
            raise ValueError("timeout_penalty must be in [0, slash_s]")

    @property
    def committee_size(self) -> int:
        return 3 * self.fault_bound + 1

    @property
    def quorum(self) -> int:
        return 2 * self.fault_bound + 1


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignedRequest:
    x: bytes
    nonce: bytes
    pk_user: bytes
    signature: bytes

    @property
    def reqid(self) -> bytes:
        return crypto.derive_reqid(self.pk_user, self.x, self.nonce)


@dataclass(frozen=True)
class TaskMessage:
    """Orchestrator instruction to an executor, signed over (x, reqid)."""

    x: bytes
    reqid: bytes
    orch_id: int
    signature: bytes


@dataclass(frozen=True)
class ExecutorResponse:
    x: bytes
    reqid: bytes
    node_index: int
    y: tuple[Fixed, ...]
    signature: bytes

    @property
    def y_bytes(self) -> bytes:
        return encode_vector(self.y)


@dataclass(frozen=True)
class QuorumCertificate:
    """2f+1 distinct orchestrator signatures over one message digest."""

    digest: bytes
    votes: tuple[tuple[int, bytes], ...]

    def verify(self, orch_pks: Sequence[PublicKey], quorum: int) -> bool:
        seen = set()
        for orch_id, sig in self.votes:
            if orch_id in seen or not 0 <= orch_id < len(orch_pks):
                continue
            if orch_pks[orch_id].verify(sig, self.digest):
                seen.add(orch_id)
        return len(seen) >= quorum


@dataclass(frozen=True)
class ArbitrationRequest:
    x: bytes
    reqid: bytes
    asserter: ExecutorResponse
    validator: ExecutorResponse
    orch_id: int
    signature: bytes

    def tuple_fields(self) -> tuple[bytes, ...]:
        return (
            b"arbitration",
            self.x,
            self.reqid,
            self.asserter.y_bytes,
            self.asserter.signature,
            self.validator.y_bytes,
            self.validator.signature,
        )


@dataclass(frozen=True)
class ArbitrationOutcome:
    reqid: bytes
    y_true: tuple[Fixed, ...]
    asserter_honest: bool
    validator_honest: bool
    deltas: tuple[LedgerDelta, ...]


@dataclass
class RequestLifecycle:
    """Per-request record; phase changes are checked against the declared
    transition graph so every simulated trace is a valid path."""

    reqid: bytes
    pk_user: bytes
    x: bytes
    phase: Phase = Phase.SUBMITTED
    t_req: Optional[int] = None
    t_chal: Optional[int] = None
    asserter: Optional[int] = None
    validator: Optional[int] = None
    asserter_response: Optional[ExecutorResponse] = None
    validator_response: Optional[ExecutorResponse] = None
    assert_attempt: int = 1
    validate_attempt: int = 1
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

    def sign_task(self, x: bytes, reqid: bytes) -> Optional[bytes]:
        if self.behavior == ORCH_WITHHOLD:
            return None
        if self.behavior == ORCH_EQUIVOCATE:
            # Conflicting vote: signed over a mutated message, so receivers
            # reject it and it never counts toward a quorum.
            return self.keypair.sign(x + b"?", reqid)
        return self.keypair.sign(x, reqid)

    def vote(self, digest: bytes) -> Optional[bytes]:
        if self.behavior == ORCH_WITHHOLD:
            return None
        if self.behavior == ORCH_EQUIVOCATE:
            return self.keypair.sign(digest + b"?")
        return self.keypair.sign(digest)


@dataclass
class ExecutorNode:
    index: int
    keypair: KeyPair

    @property
    def account(self) -> str:
        return f"exec:{self.index}"

    def sign_result(self, x: bytes, reqid: bytes, y: Sequence[Fixed]) -> ExecutorResponse:
        sig = self.keypair.sign(x, reqid, encode_vector(y))
        return ExecutorResponse(x=x, reqid=reqid, node_index=self.index,
                                y=tuple(y), signature=sig)


def user_submit(x: bytes, nonce: bytes, user_keys: KeyPair) -> SignedRequest:
    """Build the broadcast-ready signed request; the signature covers the
    request id to prevent replay."""
    reqid = crypto.derive_reqid(user_keys.public.raw, x, nonce)
    sig = user_keys.sign(x, nonce, reqid)
    return SignedRequest(x=x, nonce=nonce, pk_user=user_keys.public.raw, signature=sig)


def selection_string(pk_user: bytes, x: bytes, reqid: bytes, attempt: int = 1) -> bytes:
    """The unique string fed to the sampling PRF; reassignments append an
    attempt suffix so a fresh node is drawn."""
    base = encode_fields(pk_user, x, reqid)
    if attempt > 1:
        base += f"attempt_{attempt}".encode()
    return base


def draw_validator(tau_chal: bytes, unique_string: bytes, asserter: int, n: int) -> int:
    """Bucket draw over the n executors; a draw that lands on the asserter
    moves to the next node, so the validator is never the asserter."""
    j = crypto.bucket(tau_chal, unique_string, n)
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


def asserter_execute(task_msgs: Iterable[TaskMessage], node: ExecutorNode,
                     orch_pks: Sequence[PublicKey], quorum: int,
                     compute: Callable[[bytes], Sequence[Fixed]],
                     ) -> Optional[ExecutorResponse]:
    """Respond only after 2f+1 valid task messages from distinct orchestrators
    agree on the same (x, reqid); otherwise keep waiting (returns None).

    ``compute`` is the node's strategy: honest nodes evaluate the model,
    adversarial ones may substitute a corrupted output.
    """
    by_request: dict[tuple[bytes, bytes], set[int]] = {}
    for msg in task_msgs:
        if not 0 <= msg.orch_id < len(orch_pks):
            continue
        if not orch_pks[msg.orch_id].verify(msg.signature, msg.x, msg.reqid):
            continue
        by_request.setdefault((msg.x, msg.reqid), set()).add(msg.orch_id)
    for (x, reqid), senders in by_request.items():
        if len(senders) >= quorum:
            return node.sign_result(x, reqid, compute(x))
    return None


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

    # -- Basic protocol ----------------------------------------------------

    def accept_request(self, req: SignedRequest) -> bytes:
        """Verify the user signature, reject duplicates, debit the payment."""
        pk = self.user_pks.get(req.pk_user)
        if pk is None:
            raise InvalidSignatureError("unknown user key")
        reqid = req.reqid
        if not pk.verify(req.signature, req.x, req.nonce, reqid):
            raise InvalidSignatureError("bad user signature")
        if reqid in self.lifecycles:
            raise DuplicateRequestError(reqid.hex())
        self.lifecycles[reqid] = RequestLifecycle(reqid=reqid, pk_user=req.pk_user, x=req.x)
        self.pending_deltas[reqid] = [
            LedgerDelta("user", -self.config.payment_b, Reason.USER_PAYMENT, reqid)
        ]
        return reqid

    def select_asserter(self, reqid: bytes, tau: bytes, epoch: int) -> int:
        """Draw the asserter for a Submitted request, or redraw with the
        attempt suffix after an asserter timeout left it Reassigned."""
        lc = self.lifecycles[reqid]
        i = crypto.bucket(
            tau, selection_string(lc.pk_user, lc.x, reqid, lc.assert_attempt),
            self.config.executors,
        )
        lc.t_req = epoch
        lc.asserter = i
        lc.advance(Phase.ASSIGNED)
        return i

    def task_messages(self, reqid: bytes) -> list[TaskMessage]:
        lc = self.lifecycles[reqid]
        msgs = []
        for orch in self.orchestrators:
            sig = orch.sign_task(lc.x, reqid)
            if sig is not None:
                msgs.append(TaskMessage(x=lc.x, reqid=reqid, orch_id=orch.orch_id,
                                        signature=sig))
        return msgs

    def accept_asserter_response(self, resp: ExecutorResponse) -> bool:
        lc = self.lifecycles[resp.reqid]
        if resp.node_index != lc.asserter:
            return False
        pk = self.executor_pks[resp.node_index]
        if not pk.verify(resp.signature, resp.x, resp.reqid, resp.y_bytes):
            return False
        lc.asserter_response = resp
        lc.advance(Phase.ASSERTED)
        return True

    def challenge_decision(self, reqid: bytes, tau_chal: bytes, epoch: int) -> bool:
        """Drawn strictly after the asserter response was accepted; on a
        non-challenge, records the asserter reward and concludes."""
        lc = self.lifecycles[reqid]
        if lc.phase is not Phase.ASSERTED:
            raise ProtocolError("challenge decision requires an accepted response")
        lc.t_chal = epoch
        challenged = crypto.sampled(
            tau_chal, selection_string(lc.pk_user, lc.x, reqid),
            self.config.challenge_probability,
        )
        if challenged:
            lc.advance(Phase.CHALLENGED)
        else:
            self.pending_deltas[reqid].extend(payout(self.config, reqid, lc.asserter))
            lc.advance(Phase.UNCHALLENGED_DONE)
            self._finalize(reqid)
        return challenged

    # -- Challenge protocol ------------------------------------------------

    def select_validator(self, reqid: bytes, tau_chal: bytes) -> int:
        lc = self.lifecycles[reqid]
        lc.validator = draw_validator(
            tau_chal, selection_string(lc.pk_user, lc.x, reqid, lc.validate_attempt),
            lc.asserter, self.config.executors)
        return lc.validator

    def accept_validator_response(self, resp: ExecutorResponse) -> bool:
        lc = self.lifecycles[resp.reqid]
        if resp.node_index != lc.validator:
            return False
        pk = self.executor_pks[resp.node_index]
        if not pk.verify(resp.signature, resp.x, resp.reqid, resp.y_bytes):
            return False
        lc.validator_response = resp
        return True

    def compare_and_route(self, reqid: bytes) -> str:
        """Byte-exact match rewards both parties; any mismatch escalates."""
        lc = self.lifecycles[reqid]
        y_i = lc.asserter_response.y_bytes
        y_j = lc.validator_response.y_bytes
        if y_i == y_j:
            self.pending_deltas[reqid].extend(
                payout(self.config, reqid, lc.asserter, lc.validator))
            lc.advance(Phase.MATCHED_DONE)
            self._finalize(reqid)
            return "matched"
        lc.advance(Phase.ARBITRATING)
        return "arbitrate"

    def arbitration_requests(self, reqid: bytes) -> list[ArbitrationRequest]:
        lc = self.lifecycles[reqid]
        requests = []
        for orch in self.orchestrators:
            req = ArbitrationRequest(
                x=lc.x, reqid=reqid, asserter=lc.asserter_response,
                validator=lc.validator_response, orch_id=orch.orch_id, signature=b"")
            sig = orch.vote(crypto.sha256(encode_fields(*req.tuple_fields())))
            if sig is not None:
                requests.append(ArbitrationRequest(
                    x=req.x, reqid=req.reqid, asserter=req.asserter,
                    validator=req.validator, orch_id=orch.orch_id, signature=sig))
        return requests

    def record_arbitration(self, outcome: ArbitrationOutcome) -> None:
        lc = self.lifecycles[outcome.reqid]
        self.pending_deltas[outcome.reqid].extend(outcome.deltas)
        lc.advance(Phase.ARBITRATED_DONE)
        self._finalize(outcome.reqid)

    # -- Timeouts ----------------------------------------------------------

    def handle_timeout(self, reqid: bytes, role: str) -> int:
        """Penalize the silent node and loop the lifecycle back for a fresh
        selection with an incremented attempt counter.  Returns the node
        penalized."""
        lc = self.lifecycles[reqid]
        if role == "asserter":
            node = lc.asserter
            lc.assert_attempt += 1
            lc.advance(Phase.REASSIGNED)  # select_asserter moves it back
        elif role == "validator":
            node = lc.validator
            lc.validate_attempt += 1
            lc.advance(Phase.REASSIGNED)
            lc.advance(Phase.CHALLENGED)
        else:
            raise ValueError(f"unknown role {role!r}")
        if self.config.timeout_penalty:
            self.pending_deltas[reqid].append(LedgerDelta(
                f"exec:{node}", -self.config.timeout_penalty,
                Reason.TIMEOUT_PENALTY, reqid))
        return node

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
        votes = []
        for orch in self.orchestrators:
            sig = orch.vote(digest)
            if sig is not None:
                votes.append((orch.orch_id, sig))
        return QuorumCertificate(digest=digest, votes=tuple(votes))


def batch_digest(deltas: Sequence[LedgerDelta]) -> bytes:
    return crypto.sha256(encode_fields(*(d.encode() for d in deltas)))


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------

class ArbitrationContract:
    """Recomputes the function on-contract and slashes whoever diverges.

    Verdicts are byte-exact: a party is honest iff its output equals the
    recomputed truth.  Outcomes are recorded immutably.
    """

    def __init__(self, config: NetworkConfig, orch_pks: Sequence[PublicKey],
                 executor_pks: Sequence[PublicKey], model: ToyModel,
                 decode_input: Callable[[bytes], Sequence[Fixed]]):
        self.config = config
        self.orch_pks = list(orch_pks)
        self.executor_pks = list(executor_pks)
        self.model = model
        self.decode_input = decode_input
        self.outcomes: dict[bytes, ArbitrationOutcome] = {}

    def arbitrate(self, requests: Sequence[ArbitrationRequest]) -> ArbitrationOutcome:
        """Act on the request that 2f+1 distinct orchestrators signed
        identically, wherever it sits among divergent ones."""
        groups: dict[tuple[bytes, ...], list[ArbitrationRequest]] = {}
        for req in requests:
            groups.setdefault(req.tuple_fields(), []).append(req)
        most = 0
        for fields, group in groups.items():
            digest = crypto.sha256(encode_fields(*fields))
            voters = set()
            for req in group:
                if not 0 <= req.orch_id < len(self.orch_pks) or req.orch_id in voters:
                    continue
                if self.orch_pks[req.orch_id].verify(req.signature, digest):
                    voters.add(req.orch_id)
            if len(voters) >= self.config.quorum:
                head = group[0]
                break
            most = max(most, len(voters))
        else:
            raise BelowQuorumError(
                f"{most} identical valid requests, need {self.config.quorum}")

        reqid = head.reqid
        if reqid in self.outcomes:
            return self.outcomes[reqid]
        for resp in (head.asserter, head.validator):
            pk = self.executor_pks[resp.node_index]
            if not pk.verify(resp.signature, resp.x, resp.reqid, resp.y_bytes):
                raise InvalidSignatureError(
                    f"evidence signature of node {resp.node_index} invalid")

        y_true = forward(self.model, self.decode_input(head.x))
        truth = encode_vector(y_true)
        asserter_honest = head.asserter.y_bytes == truth
        validator_honest = head.validator.y_bytes == truth
        deltas = payout(self.config, reqid, head.asserter.node_index,
                        head.validator.node_index, (asserter_honest, validator_honest))
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
