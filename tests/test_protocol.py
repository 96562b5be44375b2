"""Role state-machine tests: request acceptance, selection, quorum rules,
challenge routing, arbitration verdicts, timeouts, and settlement audits."""

from collections import Counter, OrderedDict
from dataclasses import replace
from unittest.mock import patch

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric import ed25519
from hypothesis import assume, example, given, settings, strategies as st

from posp import crypto, protocol
from posp.crypto import KeyPair, prf
from posp.model import Fixed, corrupt, encode_vector, forward, generate_model
from posp.protocol import (
    AlreadySettledError,
    ArbitrationContract,
    BelowQuorumError,
    Committee,
    ConservationViolationError,
    DuplicateRequestError,
    ExecutorNode,
    InvalidSignatureError,
    LedgerDelta,
    NetworkConfig,
    Orchestrator,
    Phase,
    ProtocolError,
    QuorumCertificate,
    Reason,
    RequestLifecycle,
    SettlementContract,
    asserter_execute,
    batch_digest,
    selection_string,
    user_submit,
)

SEED = bytes([11] * 32)


def keypair(tag: int) -> KeyPair:
    return KeyPair.from_seed(prf(SEED, b"key" + tag.to_bytes(4, "big")))


class World:
    """A 4-executor, f=1 network with one user, wired for single requests."""

    def __init__(self, p=0.0, behaviors=(), timeout_penalty=None):
        self.net = NetworkConfig(executors=4, fault_bound=1, challenge_probability=p,
                                 timeout_penalty=timeout_penalty)
        self.user = keypair(0)
        self.executors = [ExecutorNode(i, keypair(100 + i)) for i in range(4)]
        overrides = dict(behaviors)
        self.orchestrators = [
            Orchestrator(k, keypair(200 + k), overrides.get(k, protocol.ORCH_HONEST))
            for k in range(self.net.committee_size)
        ]
        self.committee = Committee(
            self.net, self.orchestrators,
            [e.keypair.public for e in self.executors],
            {self.user.public.raw: self.user.public},
        )
        self.model = generate_model(prf(SEED, b"model"), (3, 2))
        self.x_vec = (Fixed.from_float(0.5), Fixed.from_float(-1.0), Fixed.from_int(2))
        self.x = encode_vector(self.x_vec)
        self.y_true = forward(self.model, self.x_vec)
        self.y_true_b = encode_vector(self.y_true)
        self.arbitration = ArbitrationContract(
            self.net, self.committee.orch_pks,
            [e.keypair.public for e in self.executors], self.model)
        self.settlement = SettlementContract(
            self.net, self.committee.orch_pks,
            {"user": 10 * self.net.payment_b,
             **{e.account: self.net.slash_s for e in self.executors}})

    def submit(self, nonce=b"n1"):
        [reqid] = self.committee.accept_request(user_submit([(self.x, nonce)], self.user))
        return reqid

    def execute(self, reqid, node, y_bytes, task=None):
        """Node ``node``'s signed response to the request's task message (or
        to ``task``), or None when the node does not execute it."""
        task = self.committee.task_message(reqid) if task is None else task
        executor = self.executors[node]
        if not asserter_execute(task, executor, self.committee.orch_pks, self.net.quorum,
                                y_bytes):
            assert executor.queued == []
            return None
        return executor.response(task.reqid)

    def assert_output(self, reqid, y, epoch=1):
        tau = prf(SEED, b"tau" + epoch.to_bytes(4, "big"))
        i = self.committee.select_asserter(reqid, tau)
        resp = self.execute(reqid, i, encode_vector(y))
        assert resp is not None
        assert self.committee.accept_asserter_response(resp)
        return i

    def validate_output(self, reqid, y):
        tau = prf(SEED, b"tau-chal")
        assert self.committee.challenge_decision(reqid, tau)
        j = self.committee.select_validator(reqid, tau)
        resp = self.execute(reqid, j, encode_vector(y))
        assert resp is not None
        assert self.committee.accept_validator_response(resp)
        return j


class TestUserSubmit:
    def test_roundtrip_accepted(self):
        w = World()
        reqid = w.submit()
        assert w.committee.lifecycles[reqid].phase is Phase.SUBMITTED
        debit = w.committee.pending_deltas[reqid][0]
        assert debit.amount == -w.net.payment_b and debit.reason is Reason.USER_PAYMENT

    def test_distinct_nonces_distinct_reqids(self):
        w = World()
        assert w.submit(b"n1") != w.submit(b"n2")

    def test_duplicate_rejected(self):
        w = World()
        req = user_submit([(w.x, b"n1")], w.user)
        w.committee.accept_request(req)
        with pytest.raises(DuplicateRequestError):
            w.committee.accept_request(req)

    def test_tampered_x_rejected(self):
        w = World()
        req = user_submit([(w.x, b"n1")], w.user)
        bad = replace(req, requests=((w.x + b"!", b"n1"),))
        with pytest.raises(InvalidSignatureError):
            w.committee.accept_request(bad)

    def test_unknown_user_rejected(self):
        w = World()
        stranger = keypair(999)
        req = user_submit([(w.x, b"n1")], stranger)
        with pytest.raises(InvalidSignatureError):
            w.committee.accept_request(req)


def committee_state(committee):
    """What accepting a request changes: lifecycles, debits and the
    unbatched queue, copied."""
    return (dict(committee.lifecycles),
            {reqid: list(deltas) for reqid, deltas in committee.pending_deltas.items()},
            list(committee.unbatched))


@st.composite
def altered_messages(draw, w, other):
    """A valid message of 1-8 requests by ``w.user`` and one alteration of
    it that no signature covers.  ``other`` is a second user the committee
    knows."""
    nonces = draw(st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=8,
                           unique=True))
    honest = user_submit([(w.x, nonce) for nonce in nonces], w.user)
    requests = list(honest.requests)
    k = draw(st.integers(0, len(requests) - 1))
    kind = draw(st.sampled_from(["x", "nonce", "drop", "add", "reorder", "key", "signature"]))
    if kind == "x":
        x = draw(st.binary(max_size=40).filter(lambda b: b != w.x))
        requests[k] = (x, requests[k][1])
    elif kind == "nonce":
        nonce = draw(st.binary(max_size=8).filter(lambda b: b != requests[k][1]))
        requests[k] = (requests[k][0], nonce)
    elif kind == "drop":
        del requests[k]
    elif kind == "add":
        # possibly a copy of one of the signed requests
        extra = draw(st.sampled_from(requests) | st.tuples(st.just(w.x), st.binary(max_size=8)))
        requests.insert(draw(st.integers(0, len(requests))), extra)
    elif kind == "reorder":
        shuffled = draw(st.permutations(requests))
        assume(shuffled != requests)
        requests = shuffled
    if kind == "key":
        return honest, replace(honest, pk_user=draw(st.sampled_from(
            [other.public.raw, keypair(999).public.raw])))
    if kind == "signature":
        sig = bytearray(honest.signature)
        bit = draw(st.integers(0, 8 * len(sig) - 1))
        sig[bit // 8] ^= 1 << bit % 8
        return honest, replace(honest, signature=bytes(sig))
    return honest, replace(honest, requests=tuple(requests))


class TestAcceptRule:
    """A message of requests is accepted whole or not at all."""

    @pytest.mark.parametrize("memo", [True, False], ids=["memo", "no-memo"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_alteration_accepts_nothing(self, memo, data):
        w, other = World(), keypair(1)
        w.committee.user_pks[other.public.raw] = other.public
        w.submit(b"earlier")  # state that a rejected message must leave as it is
        honest, altered = data.draw(altered_messages(w, other))
        before = committee_state(w.committee)
        with patch.object(crypto, "_SIGNED", crypto._SIGNED if memo else OrderedDict()):
            with pytest.raises(InvalidSignatureError):
                w.committee.accept_request(altered)
            assert committee_state(w.committee) == before
            reqids = w.committee.accept_request(honest)
        assert reqids == [crypto.derive_reqid(w.user.public.raw, x, nonce)
                          for x, nonce in honest.requests]
        assert list(w.committee.lifecycles)[1:] == reqids
        assert list(w.committee.pending_deltas)[1:] == reqids
        assert w.committee.unbatched[1:] == reqids

    def test_empty_message_rejected(self):
        w = World()
        with pytest.raises(InvalidSignatureError):
            w.committee.accept_request(user_submit([], w.user))
        assert committee_state(w.committee) == ({}, {}, [])

    def test_repeated_nonce_rejected(self):
        w = World()
        reqid = w.submit(b"n0")
        before = committee_state(w.committee)
        message = user_submit([(w.x, b"n1"), (w.x, b"n2"), (w.x, b"n1")], w.user)
        with pytest.raises(DuplicateRequestError):
            w.committee.accept_request(message)
        # and an id accepted by an earlier message
        with pytest.raises(DuplicateRequestError):
            w.committee.accept_request(user_submit([(w.x, b"n3"), (w.x, b"n0")], w.user))
        assert committee_state(w.committee) == before
        assert list(w.committee.lifecycles) == [reqid]

    @pytest.mark.parametrize("field,value", [
        ("pk_user", None), ("pk_user", ["key"]), ("requests", None),
        ("requests", [(b"x", b"n1")]), ("requests", ((b"x", b"n1", b"extra"),)),
        ("requests", (("x", b"n1"),)), ("requests", ((b"x", bytearray(b"n1")),)),
        ("requests", (b"xn",)), ("signature", None),
    ], ids=["pk-none", "pk-list", "requests-none", "requests-list", "triple", "str-x",
            "bytearray-nonce", "bare-bytes", "signature-none"])
    def test_malformed_message_rejected(self, field, value):
        w = World()
        message = replace(user_submit([(w.x, b"n1")], w.user), **{field: value})
        with pytest.raises(InvalidSignatureError):
            w.committee.accept_request(message)
        assert committee_state(w.committee) == ({}, {}, [])


class TestSelection:
    def test_asserter_selection_deterministic(self):
        w1, w2 = World(), World()
        r1, r2 = w1.submit(), w2.submit()
        tau = prf(SEED, b"tau")
        assert w1.committee.select_asserter(r1, tau) == \
            w2.committee.select_asserter(r2, tau)

    def test_selection_string_attempt_suffix(self):
        base = selection_string(b"pk", b"x", b"rid")
        second = selection_string(b"pk", b"x", b"rid", attempt=2)
        assert second == base + b"attempt_2"
        assert selection_string(b"pk", b"x", b"rid", attempt=1) == base

    def test_validator_collision_rule(self):
        w = World(p=1.0)
        reqid = w.submit()
        tau = prf(SEED, b"tau-collide")
        lc = w.committee.lifecycles[reqid]
        drawn = crypto.bucket(tau, selection_string(lc.pk_user, lc.x, reqid),
                              w.net.executors)
        # force a collision: park the asserter on the drawn slot
        lc.asserter = drawn
        assert w.committee.select_validator(reqid, tau) == (drawn + 1) % w.net.executors
        # and a non-collision: move the asserter elsewhere
        lc.asserter = (drawn + 2) % w.net.executors
        assert w.committee.select_validator(reqid, tau) == drawn


class TestExecutorQuorum:
    def test_full_quorum_responds(self):
        w = World()
        reqid = w.submit()
        tau = prf(SEED, b"tau")
        i = w.committee.select_asserter(reqid, tau)
        resp = w.execute(reqid, i, encode_vector(forward(w.model, w.x_vec)))
        assert resp is not None and resp.y_bytes == w.y_true_b

    def test_below_quorum_waits(self):
        w = World()
        reqid = w.submit()
        tau = prf(SEED, b"tau")
        i = w.committee.select_asserter(reqid, tau)
        task = w.committee.task_message(reqid)
        resp = w.execute(reqid, i, w.y_true_b, replace(task, votes=task.votes[: w.net.quorum - 1]))
        assert resp is None

    def test_forgeries_ignored(self):
        w = World()
        reqid = w.submit()
        tau = prf(SEED, b"tau")
        i = w.committee.select_asserter(reqid, tau)
        task = w.committee.task_message(reqid)
        forged = tuple((k, b"\x00" * 64) for k, _ in task.votes[: w.net.fault_bound])
        resp = w.execute(reqid, i, w.y_true_b, replace(task, votes=forged + task.votes))
        assert resp is not None

    def test_duplicate_senders_not_counted(self):
        w = World()
        reqid = w.submit()
        tau = prf(SEED, b"tau")
        i = w.committee.select_asserter(reqid, tau)
        task = w.committee.task_message(reqid)
        resp = w.execute(reqid, i, w.y_true_b, replace(task, votes=task.votes[:1] * 5))
        assert resp is None


def count_checks(monkeypatch) -> dict:
    """Patch the sign-memo probe and PublicKey.verify to log each call;
    returns the two logs.  A verify's own probe is logged as a probe."""
    calls = {"signed_here": [], "verify": []}
    for name, log in calls.items():
        def check(self, *args, real=getattr(crypto.PublicKey, name), log=log):
            log.append(args)
            return real(self, *args)
        monkeypatch.setattr(crypto.PublicKey, name, check)
    return calls


# Each case turns the committee's honest (orch_id, signature) votes on one
# message into the votes a copy of it carries, with the verdict every quorum
# check must give.
QUORUM_CASES = {
    "exact quorum": (lambda v, q: v[:q], True),
    "one vote short": (lambda v, q: v[:q - 1], False),
    "duplicate signer": (lambda v, q: v[:q - 1] + v[:1], False),
    "forged signature": (lambda v, q: v[:q - 1] + [(v[q - 1][0], b"\x00" * 64)], False),
    # the last orchestrator's valid vote under id -1, which Python indexing
    # would resolve to that same orchestrator's key
    "out-of-range id": (lambda v, q: v[:q - 1] + [(-1, v[-1][1])], False),
}


# The property test's committee, with f = 2, and the message it votes on.
PROPERTY_KEYS = [keypair(400 + k) for k in range(7)]
PROPERTY_FIELDS = (b"tasks", b"root")


def ed25519_valid(pk: crypto.PublicKey, signature: bytes, message: bytes) -> bool:
    """The Ed25519 check itself, with no sign memo in the way."""
    try:
        ed25519.Ed25519PublicKey.from_public_bytes(pk.raw).verify(signature, message)
    except InvalidSignature:
        return False
    return True


class TestOneQuorumRule:
    def test_verifying_stops_at_quorum(self, monkeypatch):
        w = World()
        reqid = w.submit()
        i = w.committee.select_asserter(reqid, prf(SEED, b"tau"))
        task = w.committee.task_message(reqid)
        assert len(task.votes) == w.net.committee_size
        calls = count_checks(monkeypatch)
        assert asserter_execute(task, w.executors[i], w.committee.orch_pks,
                                w.net.quorum, w.y_true_b) is True
        # just signed, so the memo proves a quorum without any real verify
        assert (len(calls["signed_here"]), len(calls["verify"])) == (w.net.quorum, 0)

    def test_real_verifying_stops_at_quorum(self, monkeypatch):
        w = World()
        reqid = w.submit()
        i = w.committee.select_asserter(reqid, prf(SEED, b"tau"))
        task = w.committee.task_message(reqid)
        monkeypatch.setattr(crypto, "_SIGNED", OrderedDict())
        calls = count_checks(monkeypatch)
        assert asserter_execute(task, w.executors[i], w.committee.orch_pks,
                                w.net.quorum, w.y_true_b) is True
        assert len(calls["verify"]) == w.net.quorum

    def test_equivocating_vote_not_verified_once_memo_reaches_quorum(self, monkeypatch):
        w = World(behaviors={0: protocol.ORCH_EQUIVOCATE})
        reqid = w.submit()
        i = w.committee.select_asserter(reqid, prf(SEED, b"tau"))
        task = w.committee.task_message(reqid)
        calls = count_checks(monkeypatch)
        assert asserter_execute(task, w.executors[i], w.committee.orch_pks,
                                w.net.quorum, w.y_true_b) is True
        assert calls["verify"] == []

    def test_repeated_message_verified_once(self, monkeypatch):
        w = World()
        reqid = w.submit()
        i = w.committee.select_asserter(reqid, prf(SEED, b"tau"))
        task = w.committee.task_message(reqid)
        calls = count_checks(monkeypatch)
        assert asserter_execute(replace(task, votes=task.votes[:1] * 5), w.executors[i],
                                w.committee.orch_pks, w.net.quorum, w.y_true_b) is False
        assert (len(calls["signed_here"]), len(calls["verify"])) == (1, 0)

    @pytest.mark.parametrize("case", list(QUORUM_CASES))
    def test_task_arbitration_and_certificate_agree(self, case):
        pick, expected = QUORUM_CASES[case]
        w = World(p=1.0)
        reqid = w.submit()
        w.assert_output(reqid, corrupt(w.y_true))
        w.validate_output(reqid, w.y_true)
        assert w.committee.compare_and_route(reqid) == "arbitrate"
        pks, q = w.committee.orch_pks, w.net.quorum

        def picked(message):
            return replace(message, votes=tuple(pick(list(message.votes), q)))

        task_ok = asserter_execute(picked(w.committee.task_message(reqid)),
                                   w.executors[0], pks, q, w.y_true_b)
        try:
            w.arbitration.arbitrate(picked(w.committee.arbitration_request(reqid)))
            arbitration_ok = True
        except BelowQuorumError:
            arbitration_ok = False
        cert = w.committee.certify_batch(w.committee.pending_deltas[reqid])
        cert_ok = picked(cert).verify(pks, q)

        assert (task_ok, arbitration_ok, cert_ok) == (expected,) * 3

    @pytest.mark.parametrize("valid", ["2f", "2f+1"])
    @pytest.mark.parametrize("as_id", [float, str, lambda k: None], ids=["float", "str", "None"])
    def test_vote_with_a_non_int_id_is_skipped(self, as_id, valid):
        # the last orchestrator's valid vote under an id that is not an int,
        # first, next to 2f or 2f+1 valid votes of the others
        w = World(p=1.0)
        reqid = w.submit()
        w.assert_output(reqid, corrupt(w.y_true))
        w.validate_output(reqid, w.y_true)
        assert w.committee.compare_and_route(reqid) == "arbitrate"
        pks, q = w.committee.orch_pks, w.net.quorum
        count = q if valid == "2f+1" else q - 1

        def picked(message):
            orch_id, sig = message.votes[-1]
            return replace(message, votes=((as_id(orch_id), sig),) + message.votes[:count])

        task = picked(w.committee.task_message(reqid))
        assert asserter_execute(task, w.executors[0], pks, q, w.y_true_b) is (valid == "2f+1")
        request = picked(w.committee.arbitration_request(reqid))
        if valid == "2f":
            with pytest.raises(BelowQuorumError):
                w.arbitration.arbitrate(request)
            request = w.committee.arbitration_request(reqid)
        w.committee.record_arbitration(w.arbitration.arbitrate(request))
        deltas = w.committee.concluded_deltas()
        cert = picked(w.committee.certify_batch(deltas))
        if valid == "2f":
            with pytest.raises(BelowQuorumError):
                w.settlement.settle(deltas, cert)
        else:
            w.settlement.settle(deltas, cert)
            assert w.settlement.settled == {reqid}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["honest", "equivocating", "forged", "duplicate", "out-of-range"]),
        st.integers(0, len(PROPERTY_KEYS) - 1), st.binary(min_size=64, max_size=64)),
        max_size=12), st.integers(1, len(PROPERTY_KEYS)))
    def test_sign_memo_never_changes_a_verdict(self, draws, quorum):
        n = len(PROPERTY_KEYS)
        pks = [kp.public for kp in PROPERTY_KEYS]
        # signed here, so the memo holds them
        honest = [kp.sign(*PROPERTY_FIELDS) for kp in PROPERTY_KEYS]
        equivocating = [kp.sign(PROPERTY_FIELDS[0] + b"?", *PROPERTY_FIELDS[1:])
                        for kp in PROPERTY_KEYS]
        votes = []
        for kind, k, noise in draws:
            if kind == "honest":
                votes.append((k, honest[k]))
            elif kind == "equivocating":
                votes.append((k, equivocating[k]))
            elif kind == "forged":
                # random bytes, or another orchestrator's valid vote
                votes.append((k, noise if noise[0] % 2 else honest[(k + 1) % n]))
            elif kind == "duplicate":
                votes.append(votes[k % len(votes)] if votes else (k, honest[k]))
            else:
                # k - n is the index Python would resolve to key k
                votes.append((k - n if k % 2 else n + k, honest[k]))
        votes = tuple(votes)

        with_memo = protocol._quorum(pks, quorum, PROPERTY_FIELDS, votes)
        with patch.object(crypto, "_SIGNED", OrderedDict()):
            without_memo = protocol._quorum(pks, quorum, PROPERTY_FIELDS, votes)
        message = crypto.encode_fields(*PROPERTY_FIELDS)
        signers = {orch_id for orch_id, sig in votes
                   if 0 <= orch_id < n and ed25519_valid(pks[orch_id], sig, message)}
        assert with_memo == without_memo == (len(signers) >= quorum)


def flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


class TestTaskBatch:
    """A task message carries one batch root, the votes on it and an
    inclusion path; an executor answers only the (x, reqid) the path proves
    under a root with 2f+1 valid votes."""

    def batch_of(self, w: World, size: int, tag: str = "n") -> list[bytes]:
        reqids = [w.submit(f"{tag}{k}".encode()) for k in range(size)]
        w.committee.select_asserter(reqids[0], prf(SEED, b"tau"))
        return reqids

    def answer(self, w: World, task):
        return w.execute(task.reqid, 0, w.y_true_b, task)

    def test_batch_answers_its_request(self):
        w = World()
        reqids = self.batch_of(w, 3)
        for reqid in reqids:
            resp = self.answer(w, w.committee.task_message(reqid))
            assert (resp.x, resp.reqid) == (w.x, reqid)

    def test_one_vote_per_batch(self):
        w = World()
        first = self.batch_of(w, 3)
        w.committee.task_message(first[1])  # seals the batch
        later = w.submit(b"later")
        tasks = {reqid: w.committee.task_message(reqid) for reqid in first + [later]}
        roots = {reqid: task.root for reqid, task in tasks.items()}
        # accepted before the first seal: one batch; accepted after: the next
        assert len({roots[reqid] for reqid in first}) == 1 and roots[later] != roots[first[0]]
        lcs = [w.committee.lifecycles[reqid] for reqid in first]
        assert [lc.leaf for lc in lcs] == [0, 1, 2]
        assert lcs[0].batch is lcs[2].batch
        # every task of the batch carries the batch's one votes tuple
        assert all(tasks[reqid].votes is lcs[0].batch[1] for reqid in first)
        assert len(lcs[0].batch[1]) == w.net.committee_size

    def test_one_request_batch_proves_itself(self):
        w = World()
        (reqid,) = self.batch_of(w, 1)
        task = w.committee.task_message(reqid)
        assert task.path == b"" and task.root == crypto.merkle_leaf(w.x, reqid)
        assert self.answer(w, task).reqid == reqid

    @pytest.mark.parametrize("tamper", [
        "path byte", "root byte", "side flag", "other request's path",
        "other batch's path", "other batch's root and path"])
    def test_tampered_messages_get_no_answer(self, tamper):
        w = World()
        reqids = self.batch_of(w, 3)
        task = w.committee.task_message(reqids[0])
        other_batch = w.committee.task_message(self.batch_of(w, 5, "other")[4])
        change = {
            "path byte": {"path": flip(task.path, 1)},
            "root byte": {"root": flip(task.root, 0)},
            "side flag": {"path": flip(task.path, 0)},
            "other request's path": {"path": w.committee.task_message(reqids[1]).path},
            "other batch's path": {"path": other_batch.path},
            # the other batch's votes are valid on its root, but its path
            # proves another request
            "other batch's root and path": {"root": other_batch.root,
                                            "path": other_batch.path,
                                            "votes": other_batch.votes},
        }[tamper]
        assert self.answer(w, replace(task, **change)) is None

    @pytest.mark.parametrize("field", ["x", "reqid"])
    def test_task_for_another_request_gets_no_answer(self, field):
        # the batch's valid root and votes, with this request's path, naming
        # another request's input or id
        w = World()
        reqids = self.batch_of(w, 2)
        task = w.committee.task_message(reqids[0])
        other = {"x": {"x": b"other input"}, "reqid": {"reqid": reqids[1]}}[field]
        assert self.answer(w, replace(task, **other)) is None
        assert self.answer(w, task).reqid == reqids[0]

    @pytest.mark.parametrize("path", [
        ("step too short",), (b"\x00" * 32,), (b"\x01" * 34,), (b"\x02" + b"\x00" * 32,),
        (bytearray(33),), (None,), (0,), None, 7, "path", [b"\x00" * 33],
        (b"\x00" * 33,) * (crypto.MERKLE_MAX_DEPTH + 1)], ids=repr)
    def test_malformed_path_is_not_proven(self, path):
        # paths that are not bytes, tuples of steps among them
        w = World()
        reqid = self.batch_of(w, 2)[0]
        task = w.committee.task_message(reqid)
        assert crypto.merkle_proves(task.root, crypto.merkle_leaf(w.x, reqid), path) is False
        assert self.answer(w, replace(task, path=path)) is None

    @pytest.mark.parametrize("malformed", [
        lambda path: b"step too short", lambda path: b"\x00" * 32, lambda path: path[:-1],
        lambda path: path + b"\x00", lambda path: b"\x02" + path[1:],
        lambda path: bytearray(path), lambda path: memoryview(path),
        lambda path: type("BytesSubclass", (bytes,), {})(path),
        lambda path: path + bytes(33) * crypto.MERKLE_MAX_DEPTH],
        ids=["short", "32 bytes", "truncated", "one byte more", "no such side", "bytearray",
             "memoryview", "bytes subclass", "too deep"])
    def test_malformed_bytes_path_is_not_proven(self, malformed):
        w = World()
        reqid = self.batch_of(w, 2)[0]
        task = w.committee.task_message(reqid)
        leaf = crypto.merkle_leaf(w.x, reqid)
        assert len(task.path) == 33 and crypto.merkle_proves(task.root, leaf, task.path)
        path = malformed(task.path)
        assert crypto.merkle_proves(task.root, leaf, path) is False
        assert self.answer(w, replace(task, path=path)) is None

    def test_malformed_root_is_not_proven(self):
        w = World()
        reqid = self.batch_of(w, 2)[0]
        task = w.committee.task_message(reqid)
        leaf = crypto.merkle_leaf(w.x, reqid)
        assert crypto.merkle_proves(task.root, leaf, task.path)
        for root in (None, bytearray(task.root), task.root.hex(), task.root[:-1]):
            assert crypto.merkle_proves(root, leaf, task.path) is False
            # no answer, and no exception, before or after an honest task
            assert self.answer(w, replace(task, root=root)) is None
            assert self.answer(w, task).reqid == reqid

    @pytest.mark.parametrize("behavior", [protocol.ORCH_WITHHOLD, protocol.ORCH_EQUIVOCATE])
    def test_byzantine_orchestrator_leaves_a_quorum(self, behavior):
        w = World(behaviors={0: behavior})
        reqid = self.batch_of(w, 3)[1]
        task = w.committee.task_message(reqid)
        assert self.answer(w, task).reqid == reqid
        # one honest vote fewer is below 2f+1
        honest = [vote for vote in task.votes if vote[0] != 0]
        fewer = tuple(vote for vote in task.votes if vote != honest[0])
        assert self.answer(w, replace(task, votes=fewer)) is None

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=70))
    def test_every_leaf_proves_itself_and_no_other(self, size):
        leaves = [crypto.merkle_leaf(k.to_bytes(4, "big")) for k in range(size)]
        levels = crypto.merkle_levels(leaves)
        root = levels[-1][0]
        for index in range(size):
            path = crypto.merkle_path(levels, index)
            assert [crypto.merkle_proves(root, leaf, path) for leaf in leaves] == \
                [k == index for k in range(size)]

    def test_probed_memo_entry_outlives_later_signs(self):
        kp = keypair(300)
        vote = kp.sign(b"tasks", b"root")
        message = crypto.encode_fields(b"tasks", b"root")
        for k in range(10 * crypto._SIGNED_MAX):
            kp.sign(k.to_bytes(4, "big"))
            assert kp.public.signed_here(vote, message)
        assert len(crypto._SIGNED) <= crypto._SIGNED_MAX


class TestResponseBatch:
    """An executor queues its outputs unsigned and signs one Merkle root per
    batch of responses; each response carries the root, the signature and
    its own inclusion path."""

    def executed(self, w: World, node: int, reqids, y_bytes=None):
        """Node ``node`` executes every request's task, unsigned."""
        for reqid in reqids:
            assert asserter_execute(w.committee.task_message(reqid), w.executors[node],
                                    w.committee.orch_pks, w.net.quorum,
                                    w.y_true_b if y_bytes is None else y_bytes)

    def test_one_signature_per_batch(self, monkeypatch):
        w = World()
        reqids = [w.submit(f"n{k}".encode()) for k in range(3)]
        w.committee.task_message(reqids[0])  # the orchestrators sign the task batch
        node = w.executors[2]
        signs = []
        real_sign = crypto.KeyPair.sign
        monkeypatch.setattr(crypto.KeyPair, "sign",
                            lambda kp, *fields: signs.append(fields) or real_sign(kp, *fields))
        self.executed(w, 2, reqids)
        assert signs == [] and len(node.queued) == 3
        # the first collection seals all three, in any order
        responses = [node.response(reqid) for reqid in reversed(reqids)][::-1]
        assert len(signs) == 1 and signs[0][0] == b"responses"
        root = responses[0].root
        assert signs[0][1] == root and node.queued == [] and node.sealed == {}
        assert all(r.root == root and r.signature is responses[0].signature for r in responses)
        assert [r.reqid for r in responses] == reqids
        for r in responses:
            assert protocol.response_signed(w.committee.executor_pks, r)
            assert crypto.merkle_proves(root, crypto.merkle_leaf(r.x, r.reqid, r.y_bytes), r.path)

    def test_response_executed_after_a_seal_is_the_next_batch(self):
        w = World()
        first, later = w.submit(b"n1"), w.submit(b"n2")
        node = w.executors[1]
        self.executed(w, 1, [first])
        sealed = node.response(first)
        self.executed(w, 1, [later])
        again = node.response(later)
        assert sealed.root != again.root and sealed.path == again.path == b""

    def test_response_is_handed_out_once(self):
        w = World()
        reqid = w.submit()
        self.executed(w, 0, [reqid])
        w.executors[0].response(reqid)
        with pytest.raises(ProtocolError):
            w.executors[0].response(reqid)
        # a request the node never executed
        with pytest.raises(ProtocolError):
            w.executors[1].response(reqid)

    def test_committee_accepts_batched_responses(self):
        w = World(p=1.0)
        reqids = [w.submit(f"n{k}".encode()) for k in range(5)]
        asserters = [w.committee.select_asserter(reqid, prf(SEED, b"tau")) for reqid in reqids]
        for reqid, node in zip(reqids, asserters):
            self.executed(w, node, [reqid])
        for reqid, node in zip(reqids, asserters):
            assert w.committee.accept_asserter_response(w.executors[node].response(reqid))

    def test_response_from_another_node_is_refused(self):
        # validly signed, but not by the request's asserter or validator
        w = World(p=1.0)
        reqid = w.submit()
        i = w.committee.select_asserter(reqid, prf(SEED, b"tau"))
        other = w.execute(reqid, (i + 1) % w.net.executors, w.y_true_b)
        assert protocol.response_signed(w.committee.executor_pks, other)
        assert not w.committee.accept_asserter_response(other)
        assert w.committee.accept_asserter_response(w.execute(reqid, i, w.y_true_b))
        assert w.committee.challenge_decision(reqid, prf(SEED, b"tau-chal"))
        j = w.committee.select_validator(reqid, prf(SEED, b"tau-chal"))
        stranger = next(k for k in range(w.net.executors) if k not in (i, j))
        assert not w.committee.accept_validator_response(w.execute(reqid, stranger, w.y_true_b))
        assert w.committee.accept_validator_response(w.execute(reqid, j, w.y_true_b))

    def test_unknown_request_is_refused(self):
        w = World()
        reqid = w.submit()
        i = w.committee.select_asserter(reqid, prf(SEED, b"tau"))
        resp = w.execute(reqid, i, w.y_true_b)
        assert not w.committee.accept_asserter_response(replace(resp, reqid=flip(reqid, 0)))
        assert not w.committee.accept_validator_response(replace(resp, reqid=flip(reqid, 0)))
        assert w.committee.accept_asserter_response(resp)


class TestSealRule:
    """Task votes and executor responses are sealed by one rule: the first
    demand for an unsealed message seals every message queued since the last
    seal, under one root signed once."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["submit", "task", "execute", "collect"]),
                              st.integers(0, 63), st.integers(0, 1)), min_size=30, max_size=80))
    # collecting an already sealed response seals nothing, though another
    # execution is queued
    @example([("submit", 0, 0)] * 3 + [("execute", 0, 0), ("execute", 1, 0), ("collect", 0, 0),
                                       ("execute", 2, 0), ("collect", 0, 0), ("collect", 0, 0)])
    def test_any_interleaving_seals_what_was_queued(self, steps):
        w = World()
        pks, q = w.committee.orch_pks, w.net.quorum
        signs = Counter()  # (signer's public key, first signed field)
        real_sign = crypto.KeyPair.sign

        def sign(kp, *fields):
            signs[kp.public.raw, fields[0]] += 1
            return real_sign(kp, *fields)

        # the expected batches: request k's task batch, and (node, k)'s
        # response batch, numbered in seal order
        reqids, unsealed, task_batch, tasks = [], [], {}, {}
        queued = [[] for _ in w.executors]
        response_batch, responses = {}, {}
        response_seals = [0] * len(w.executors)
        with patch.object(crypto.KeyPair, "sign", sign):
            for op, pick, node in steps:
                if op == "submit":
                    reqids.append(w.submit(len(reqids).to_bytes(2, "big")))
                    unsealed.append(len(reqids) - 1)
                    continue
                if not reqids:
                    continue
                k = pick % len(reqids)
                if op in ("task", "execute"):
                    if k not in task_batch:
                        seal = len(set(task_batch.values()))
                        task_batch.update((member, seal) for member in unsealed)
                        unsealed = []
                    tasks.setdefault(k, []).append(w.committee.task_message(reqids[k]))
                if op == "execute" and (node, k) not in response_batch and k not in queued[node]:
                    assert asserter_execute(tasks[k][-1], w.executors[node], pks, q, w.y_true_b)
                    queued[node].append(k)
                elif op == "collect":
                    uncollected = sorted(
                        [m for (n, m) in response_batch if n == node and (n, m) not in responses]
                        + queued[node])
                    if not uncollected:
                        continue
                    m = uncollected[pick % len(uncollected)]
                    if m in queued[node]:
                        response_batch.update(((node, member), response_seals[node])
                                              for member in queued[node])
                        response_seals[node] += 1
                        queued[node] = []
                    responses[node, m] = w.executors[node].response(reqids[m])
                # at every step: one vote per orchestrator per task batch and
                # one sign per response batch
                for orch in w.orchestrators:
                    assert signs[orch.keypair.public.raw, b"tasks"] == len(set(task_batch.values()))
                for executor, seals in zip(w.executors, response_seals):
                    assert signs[executor.keypair.public.raw, b"responses"] == seals

        task_leaves = [crypto.merkle_leaf(w.x, reqid) for reqid in reqids]
        roots, votes = {}, {}
        for k, demanded in tasks.items():
            batch = task_batch[k]
            members = sorted(m for m, b in task_batch.items() if b == batch)
            assert w.committee.lifecycles[reqids[k]].leaf == members.index(k)
            for task in demanded:
                assert (task.x, task.reqid) == (w.x, reqids[k])
                assert [crypto.merkle_proves(task.root, leaf, task.path)
                        for leaf in task_leaves] == [m == k for m in range(len(reqids))]
                assert task.root == roots.setdefault(batch, task.root)
                assert task.votes is votes.setdefault(batch, task.votes)
        assert len(set(roots.values())) == len(roots)

        roots, signatures = {}, {}
        for (node, k), resp in responses.items():
            batch = (node, response_batch[node, k])
            assert (resp.node_index, resp.reqid) == (node, reqids[k])
            assert protocol.response_signed(w.committee.executor_pks, resp)
            assert [crypto.merkle_proves(resp.root, crypto.merkle_leaf(w.x, reqid, w.y_true_b),
                                         resp.path)
                    for reqid in reqids] == [m == k for m in range(len(reqids))]
            assert resp.root == roots.setdefault(batch, resp.root)
            assert resp.signature is signatures.setdefault(batch, resp.signature)
        # a leaf does not name its node, so only one node's roots must differ
        for node in range(len(w.executors)):
            node_roots = [root for (n, _), root in roots.items() if n == node]
            assert len(set(node_roots)) == len(node_roots)


# The response fields a property example may alter, and the swaps.
RESPONSE_FIELDS = ["x", "reqid", "node_index", "y_bytes", "root", "path", "signature"]
RESPONSE_SWAPS = ["another leaf's path", "another executor's root"]


def altered_response(w: World, resp, change: str, at: int, other_path: bytes,
                     other_root: bytes):
    """``resp`` with one field altered: a flipped byte, another node index
    (in range or not), or a swapped path or root."""
    if change == "another leaf's path":
        return replace(resp, path=other_path)
    if change == "another executor's root":
        return replace(resp, root=other_root)
    value = getattr(resp, change)
    if change == "node_index":
        others = [k for k in range(-1, w.net.executors + 1) if k != value]
        return replace(resp, node_index=others[at % len(others)])
    return replace(resp, **{change: flip(value, at % len(value))})


class TestResponseProofs:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["asserter", "validator"]),
           st.sampled_from(RESPONSE_FIELDS + RESPONSE_SWAPS),
           st.integers(2, 6), st.integers(0, 5), st.integers(0, 1 << 16))
    # node indices just outside [0, executors): -1 and 4 on this network
    @example("asserter", "node_index", 2, 0, 0)
    @example("validator", "node_index", 2, 0, 4)
    def test_any_altered_response_is_refused(self, role, change, size, target, at):
        w = World(p=1.0)
        pks, q = w.committee.orch_pks, w.net.quorum
        reqids = [w.submit(f"n{k}".encode()) for k in range(size)]
        reqid = reqids[target % size]
        wrong = encode_vector(corrupt(w.y_true))
        tau_chal = prf(SEED, b"tau-chal")
        i = w.committee.select_asserter(reqid, prf(SEED, b"tau"))
        # drawn now, so the validator's response can be checked before the
        # asserter's is accepted; the challenge below draws the same node
        j = w.committee.select_validator(reqid, tau_chal)
        k = min({0, 1, 2} - {i, j})

        def batch(node, y_bytes):
            """Node ``node`` executes every request of the batch and hands out
            all the responses; the first seals the batch."""
            for r in reqids:
                assert asserter_execute(w.committee.task_message(r), w.executors[node],
                                        pks, q, y_bytes)
            return {r: w.executors[node].response(r) for r in reqids}

        by_role = {"asserter": batch(i, wrong), "validator": batch(j, w.y_true_b)}
        # a third executor's batch over the same requests, with another output
        third = batch(k, encode_vector(corrupt(w.y_true, 3)))
        honest = by_role[role][reqid]
        neighbour = reqids[(target + 1) % size]
        bogus = altered_response(w, honest, change, at, by_role[role][neighbour].path,
                                 third[reqid].root)
        assert bogus != honest
        accept = {"asserter": w.committee.accept_asserter_response,
                  "validator": w.committee.accept_validator_response}[role]

        def verdicts(request):
            """(accepted, arbitration under the honest votes, arbitration
            under votes on the altered request), errors as their names."""
            def arbitrate(req):
                try:
                    w.arbitration.arbitrate(req)
                except (InvalidSignatureError, BelowQuorumError) as exc:
                    return type(exc).__name__
                return "arbitrated"
            altered = replace(request, **{role: bogus})
            revoted = replace(altered, votes=w.committee._votes(*altered.tuple_fields()))
            return (accept(bogus), arbitrate(altered), arbitrate(revoted))

        # the committee's request, with the honest responses, before either is
        # accepted: arbitration reads only the request
        request = protocol.ArbitrationRequest(
            x=w.x, reqid=reqid, asserter=by_role["asserter"][reqid],
            validator=by_role["validator"][reqid])
        request = replace(request, votes=w.committee._votes(*request.tuple_fields()))
        with_memo = verdicts(request)
        with patch.object(crypto, "_SIGNED", OrderedDict()):
            without_memo = verdicts(request)
        assert with_memo == without_memo == (False, "BelowQuorumError", "InvalidSignatureError")
        assert reqid not in w.arbitration.outcomes

        # the unaltered responses still go through
        assert w.committee.accept_asserter_response(by_role["asserter"][reqid])
        assert w.committee.challenge_decision(reqid, tau_chal)
        assert w.committee.select_validator(reqid, tau_chal) == j
        assert w.committee.accept_validator_response(by_role["validator"][reqid])
        assert w.committee.compare_and_route(reqid) == "arbitrate"
        outcome = w.arbitration.arbitrate(w.committee.arbitration_request(reqid))
        assert not outcome.asserter_honest and outcome.validator_honest


class TestChallengeDecision:
    def test_p_zero_never_challenges(self):
        w = World(p=0.0)
        reqid = w.submit()
        w.assert_output(reqid, w.y_true)
        assert not w.committee.challenge_decision(reqid, prf(SEED, b"t"))
        lc = w.committee.lifecycles[reqid]
        assert lc.phase is Phase.UNCHALLENGED_DONE
        reward = [d for d in w.committee.pending_deltas[reqid]
                  if d.reason is Reason.ASSERTER_REWARD]
        assert len(reward) == 1 and reward[0].amount == w.net.reward_r

    def test_p_one_always_challenges(self):
        w = World(p=1.0)
        reqid = w.submit()
        w.assert_output(reqid, w.y_true)
        assert w.committee.challenge_decision(reqid, prf(SEED, b"t"))
        assert w.committee.lifecycles[reqid].phase is Phase.CHALLENGED

    def test_requires_asserted_phase(self):
        w = World(p=1.0)
        reqid = w.submit()
        with pytest.raises(ProtocolError):
            w.committee.challenge_decision(reqid, prf(SEED, b"t"))


class TestCompareAndRoute:
    def test_match_rewards_both(self):
        w = World(p=1.0)
        reqid = w.submit()
        i = w.assert_output(reqid, w.y_true)
        j = w.validate_output(reqid, w.y_true)
        assert w.committee.compare_and_route(reqid) == "matched"
        lc = w.committee.lifecycles[reqid]
        assert lc.phase is Phase.MATCHED_DONE
        credits = [d for d in w.committee.pending_deltas[reqid] if d.amount > 0
                   and d.reason is not Reason.BURN]
        assert sorted(d.account for d in credits) == sorted([f"exec:{i}", f"exec:{j}"])
        assert all(d.amount == w.net.reward_r for d in credits)

    def test_mismatch_escalates(self):
        w = World(p=1.0)
        reqid = w.submit()
        w.assert_output(reqid, corrupt(w.y_true))
        w.validate_output(reqid, w.y_true)
        assert w.committee.compare_and_route(reqid) == "arbitrate"
        assert w.committee.lifecycles[reqid].phase is Phase.ARBITRATING

    def test_colluding_identical_wrong_outputs_match(self):
        # byte-equal wrong results settle as matched: the undetected-fraud case
        w = World(p=1.0)
        reqid = w.submit()
        wrong = corrupt(w.y_true, amount=7)
        w.assert_output(reqid, wrong)
        w.validate_output(reqid, wrong)
        assert w.committee.compare_and_route(reqid) == "matched"


def run_arbitration(w: World, y_asserter, y_validator):
    reqid = w.submit()
    w.assert_output(reqid, y_asserter)
    w.validate_output(reqid, y_validator)
    assert w.committee.compare_and_route(reqid) == "arbitrate"
    outcome = w.arbitration.arbitrate(w.committee.arbitration_request(reqid))
    w.committee.record_arbitration(outcome)
    return reqid, outcome


class TestArbitration:
    def test_asserter_wrong_validator_right(self):
        w = World(p=1.0)
        reqid, outcome = run_arbitration(w, corrupt(w.y_true), w.y_true)
        assert not outcome.asserter_honest and outcome.validator_honest
        lc = w.committee.lifecycles[reqid]
        by_reason = {d.reason: d for d in outcome.deltas}
        assert by_reason[Reason.SLASH].account == f"exec:{lc.asserter}"
        assert by_reason[Reason.SLASH].amount == -w.net.slash_s
        assert by_reason[Reason.VALIDATOR_REWARD].account == f"exec:{lc.validator}"
        assert by_reason[Reason.VALIDATOR_REWARD].amount == w.net.reward_r
        assert by_reason[Reason.SLASH_REDISTRIBUTION].amount == w.net.slash_s

    def test_validator_wrong_asserter_right(self):
        w = World(p=1.0)
        reqid, outcome = run_arbitration(w, w.y_true, corrupt(w.y_true))
        assert outcome.asserter_honest and not outcome.validator_honest
        lc = w.committee.lifecycles[reqid]
        by_reason = {d.reason: d for d in outcome.deltas}
        assert by_reason[Reason.SLASH].account == f"exec:{lc.validator}"
        assert by_reason[Reason.ASSERTER_REWARD].account == f"exec:{lc.asserter}"

    def test_both_wrong_no_redistribution(self):
        w = World(p=1.0)
        _reqid, outcome = run_arbitration(
            w, corrupt(w.y_true, amount=1), corrupt(w.y_true, amount=2))
        assert not outcome.asserter_honest and not outcome.validator_honest
        slashes = [d for d in outcome.deltas if d.reason is Reason.SLASH]
        assert len(slashes) == 2
        assert all(d.amount == -w.net.slash_s for d in slashes)
        assert all(d.reason is Reason.SLASH for d in outcome.deltas)

    def test_below_quorum_rejected(self):
        w = World(p=1.0)
        reqid = w.submit()
        w.assert_output(reqid, corrupt(w.y_true))
        w.validate_output(reqid, w.y_true)
        w.committee.compare_and_route(reqid)
        request = w.committee.arbitration_request(reqid)
        with pytest.raises(BelowQuorumError):
            w.arbitration.arbitrate(replace(request, votes=request.votes[: w.net.quorum - 1]))

    def arbitrate_altered_first(self, w: World, alter):
        """Submit a copy of the honest request altered by ``alter`` under the
        honest votes, then the honest request; the copy must be refused and
        leave the honest request to arbitrate."""
        reqid = w.submit()
        w.assert_output(reqid, corrupt(w.y_true))
        w.validate_output(reqid, w.y_true)
        w.committee.compare_and_route(reqid)
        honest = w.committee.arbitration_request(reqid)
        bogus = alter(honest)
        assert bogus.tuple_fields() != honest.tuple_fields()
        with pytest.raises(BelowQuorumError):
            w.arbitration.arbitrate(bogus)
        assert reqid not in w.arbitration.outcomes
        outcome = w.arbitration.arbitrate(honest)
        assert not outcome.asserter_honest and outcome.validator_honest

    def test_divergent_request_first_does_not_block_quorum(self):
        w = World(p=1.0)
        self.arbitrate_altered_first(w, lambda request: replace(request, x=request.x + b"!"))

    @pytest.mark.parametrize("role", ["asserter", "validator"])
    @pytest.mark.parametrize("field", ["node_index", "x", "reqid", "y_bytes", "root", "path",
                                       "signature"])
    def test_altered_evidence_first_does_not_block_quorum(self, role, field):
        w = World(p=1.0)

        def alter(request):
            resp = getattr(request, role)
            value = getattr(resp, field)
            if field == "node_index":
                value = (value + 1) % w.net.executors
            else:
                # a one-response batch has an empty path
                value = flip(value, 0) if value else bytes(33)
            return replace(request, **{role: replace(resp, **{field: value})})
        self.arbitrate_altered_first(w, alter)

    def test_tampered_evidence_rejected(self):
        w = World(p=1.0)
        reqid = w.submit()
        w.assert_output(reqid, corrupt(w.y_true))
        w.validate_output(reqid, w.y_true)
        w.committee.compare_and_route(reqid)
        lc = w.committee.lifecycles[reqid]
        lc.asserter_response = replace(lc.asserter_response, signature=b"\x00" * 64)
        with pytest.raises(InvalidSignatureError):
            w.arbitration.arbitrate(w.committee.arbitration_request(reqid))

    def test_malformed_output_bytes_slashed(self):
        # signed output bytes that are no vector encoding are still evidence:
        # accepted, routed to arbitration and judged unequal to the truth
        w = World(p=1.0)
        reqid = w.submit()
        i = w.committee.select_asserter(reqid, prf(SEED, b"tau"))
        resp = w.execute(reqid, i, b"\x00" * 7)
        assert w.committee.accept_asserter_response(resp)
        w.validate_output(reqid, w.y_true)
        assert w.committee.compare_and_route(reqid) == "arbitrate"
        outcome = w.arbitration.arbitrate(w.committee.arbitration_request(reqid))
        assert not outcome.asserter_honest and outcome.validator_honest
        slash = [d for d in outcome.deltas if d.reason is Reason.SLASH]
        assert [(d.account, d.amount) for d in slash] == [(f"exec:{i}", -w.net.slash_s)]

    def test_outcome_recorded_immutably(self):
        w = World(p=1.0)
        reqid, outcome = run_arbitration(w, corrupt(w.y_true), w.y_true)
        again = w.arbitration.arbitrate(w.committee.arbitration_request(reqid))
        assert again is outcome


class TestTimeouts:
    def test_asserter_timeout_reassigns(self):
        w = World()
        reqid = w.submit()
        tau = prf(SEED, b"tau")
        first = w.committee.select_asserter(reqid, tau)
        node = w.committee.handle_timeout(reqid, "asserter")
        assert node == first
        lc = w.committee.lifecycles[reqid]
        assert lc.phase is Phase.REASSIGNED and lc.assert_attempt == 2
        penalty = [d for d in w.committee.pending_deltas[reqid]
                   if d.reason is Reason.TIMEOUT_PENALTY]
        assert len(penalty) == 1 and penalty[0].amount == -w.net.timeout_penalty
        w.committee.select_asserter(reqid, tau)
        assert lc.phase is Phase.ASSIGNED
        # the attempt-suffixed string redraws independently of attempt 1
        redrawn = crypto.bucket(
            tau, selection_string(lc.pk_user, lc.x, reqid, 2), w.net.executors)
        assert lc.asserter == redrawn

    def test_validator_timeout_back_to_challenged(self):
        w = World(p=1.0)
        reqid = w.submit()
        w.assert_output(reqid, w.y_true)
        tau = prf(SEED, b"tau-chal")
        assert w.committee.challenge_decision(reqid, tau)
        silent = w.committee.select_validator(reqid, tau)
        node = w.committee.handle_timeout(reqid, "validator")
        assert node == silent
        lc = w.committee.lifecycles[reqid]
        assert lc.phase is Phase.CHALLENGED and lc.validate_attempt == 2

    def test_zero_penalty_config(self):
        w = World(timeout_penalty=0)
        reqid = w.submit()
        w.committee.select_asserter(reqid, prf(SEED, b"tau"))
        w.committee.handle_timeout(reqid, "asserter")
        assert not any(d.reason is Reason.TIMEOUT_PENALTY
                       for d in w.committee.pending_deltas[reqid])

    def test_unknown_role_rejected(self):
        w = World()
        reqid = w.submit()
        w.committee.select_asserter(reqid, prf(SEED, b"tau"))
        with pytest.raises(ValueError):
            w.committee.handle_timeout(reqid, "user")


class TestPhaseGraph:
    def test_illegal_transition_rejected(self):
        lc = RequestLifecycle(reqid=b"r", pk_user=b"pk", x=b"x")
        with pytest.raises(ProtocolError):
            lc.advance(Phase.ASSERTED)

    def test_history_is_graph_path(self):
        w = World(p=1.0)
        reqid, _outcome = run_arbitration(w, corrupt(w.y_true), w.y_true)
        history = w.committee.lifecycles[reqid].history
        for a, b in zip(history, history[1:]):
            assert b in protocol.PHASE_TRANSITIONS[a]

    def test_terminal_phases_dead_end(self):
        for phase in protocol.TERMINAL_PHASES:
            assert protocol.PHASE_TRANSITIONS[phase] == set()


class TestQuorumCertificate:
    def test_duplicate_votes_not_double_counted(self):
        w = World()
        digest = crypto.sha256(b"payload")
        sig = w.orchestrators[0].vote(digest)
        cert = QuorumCertificate(digest=digest, votes=((0, sig),) * 3)
        assert not cert.verify(w.committee.orch_pks, w.net.quorum)

    def test_exactly_quorum_passes(self):
        w = World()
        digest = crypto.sha256(b"payload")
        votes = tuple((o.orch_id, o.vote(digest))
                      for o in w.orchestrators[: w.net.quorum])
        cert = QuorumCertificate(digest=digest, votes=votes)
        assert cert.verify(w.committee.orch_pks, w.net.quorum)


def settle_concluded(w: World):
    deltas = w.committee.concluded_deltas()
    cert = w.committee.certify_batch(deltas)
    w.settlement.settle(deltas, cert)
    return deltas, cert


class TestSettlement:
    def test_unchallenged_split(self):
        w = World(p=0.0)
        reqid = w.submit()
        i = w.assert_output(reqid, w.y_true)
        assert not w.committee.challenge_decision(reqid, prf(SEED, b"t"))
        before = dict(w.settlement.balances)
        settle_concluded(w)
        assert w.settlement.balances["user"] == before["user"] - w.net.payment_b
        assert w.settlement.balances[f"exec:{i}"] == before[f"exec:{i}"] + w.net.reward_r
        assert w.settlement.burned() == w.net.payment_b - w.net.reward_r

    def test_matched_split(self):
        w = World(p=1.0)
        reqid = w.submit()
        w.assert_output(reqid, w.y_true)
        w.validate_output(reqid, w.y_true)
        w.committee.compare_and_route(reqid)
        settle_concluded(w)
        assert w.settlement.burned() == w.net.payment_b - 2 * w.net.reward_r
        assert w.settlement.total_supply() == w.settlement.initial_supply

    def test_replayed_batch_rejected(self):
        w = World(p=0.0)
        reqid = w.submit()
        w.assert_output(reqid, w.y_true)
        w.committee.challenge_decision(reqid, prf(SEED, b"t"))
        deltas, cert = settle_concluded(w)
        with pytest.raises(AlreadySettledError):
            w.settlement.settle(deltas, cert)

    def test_digest_mismatch_rejected(self):
        w = World(p=0.0)
        reqid = w.submit()
        w.assert_output(reqid, w.y_true)
        w.committee.challenge_decision(reqid, prf(SEED, b"t"))
        deltas = w.committee.concluded_deltas()
        cert = w.committee.certify_batch(deltas)
        with pytest.raises(InvalidSignatureError):
            w.settlement.settle(deltas[:-1], cert)

    def test_below_quorum_cert_rejected(self):
        w = World(p=0.0)
        reqid = w.submit()
        w.assert_output(reqid, w.y_true)
        w.committee.challenge_decision(reqid, prf(SEED, b"t"))
        deltas = w.committee.concluded_deltas()
        cert = w.committee.certify_batch(deltas)
        weak = QuorumCertificate(digest=cert.digest, votes=cert.votes[: w.net.quorum - 1])
        with pytest.raises(BelowQuorumError):
            w.settlement.settle(deltas, weak)

    def test_unbalanced_batch_rejected(self):
        w = World()
        reqid = w.submit()
        bad = [LedgerDelta("user", -w.net.payment_b, Reason.USER_PAYMENT, reqid),
               LedgerDelta("exec:0", w.net.payment_b + 1, Reason.ASSERTER_REWARD, reqid),
               LedgerDelta("burn", -1, Reason.BURN, reqid)]
        cert = w.committee.certify_batch(bad)
        with pytest.raises(ConservationViolationError):
            w.settlement.settle(bad, cert)

    def test_overpaying_batch_rejected(self):
        w = World()
        reqid = w.submit()
        bad = [LedgerDelta("user", -w.net.payment_b, Reason.USER_PAYMENT, reqid),
               LedgerDelta("exec:1", -5, Reason.BURN, reqid),
               LedgerDelta("exec:0", w.net.payment_b + 5, Reason.ASSERTER_REWARD, reqid)]
        cert = w.committee.certify_batch(bad)
        with pytest.raises(ConservationViolationError):
            w.settlement.settle(bad, cert)

    def test_snapshot_sorted(self):
        w = World()
        snap = w.settlement.snapshot()
        assert list(snap) == sorted(snap)


class TestWithholdingOrchestrators:
    def test_quorum_survives_f_withholders(self):
        w = World(p=1.0, behaviors={0: protocol.ORCH_WITHHOLD})
        reqid = w.submit()
        w.assert_output(reqid, w.y_true)
        w.validate_output(reqid, w.y_true)
        w.committee.compare_and_route(reqid)
        settle_concluded(w)
        assert w.settlement.total_supply() == w.settlement.initial_supply

    def test_equivocating_votes_rejected_but_quorum_survives(self):
        w = World(p=0.0, behaviors={1: protocol.ORCH_EQUIVOCATE})
        reqid = w.submit()
        w.assert_output(reqid, w.y_true)
        w.committee.challenge_decision(reqid, prf(SEED, b"t"))
        deltas = w.committee.concluded_deltas()
        cert = w.committee.certify_batch(deltas)
        # the equivocator's vote is present but invalid; 2f+1 honest votes carry
        assert len(cert.votes) == w.net.committee_size
        w.settlement.settle(deltas, cert)


class TestNetworkConfig:
    def test_committee_and_quorum_sizes(self):
        net = NetworkConfig(executors=10, fault_bound=2, challenge_probability=0.1)
        assert net.committee_size == 7 and net.quorum == 5

    def test_reward_bound(self):
        with pytest.raises(ValueError):
            NetworkConfig(executors=4, fault_bound=1, challenge_probability=0.1,
                          payment_b=10, reward_r=5)

    def test_default_timeout_penalty(self):
        net = NetworkConfig(executors=4, fault_bound=1, challenge_probability=0.1,
                            slash_s=1500)
        assert net.timeout_penalty == 150

    def test_rejects_single_executor(self):
        with pytest.raises(ValueError):
            NetworkConfig(executors=1, fault_bound=1, challenge_probability=0.1)

    def test_ledger_amounts_must_be_integers(self):
        with pytest.raises(ValueError):
            LedgerDelta("user", -1.5, Reason.USER_PAYMENT, b"r")


class TestBatchDigest:
    def test_order_sensitive(self):
        a = LedgerDelta("user", -30, Reason.USER_PAYMENT, b"r1")
        b = LedgerDelta("exec:0", 30, Reason.BURN, b"r1")
        assert batch_digest([a, b]) != batch_digest([b, a])
