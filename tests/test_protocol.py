"""Role state-machine tests: request acceptance, selection, quorum rules,
challenge routing, arbitration verdicts, timeouts, and settlement audits."""

from dataclasses import replace

import pytest

from posp import crypto, protocol
from posp.crypto import KeyPair, prf
from posp.model import Fixed, corrupt, decode_vector, encode_vector, forward, generate_model
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
        self.arbitration = ArbitrationContract(
            self.net, self.committee.orch_pks,
            [e.keypair.public for e in self.executors],
            self.model, decode_vector)
        self.settlement = SettlementContract(
            self.net, self.committee.orch_pks,
            {"user": 10 * self.net.payment_b,
             **{e.account: self.net.slash_s for e in self.executors}})

    def submit(self, nonce=b"n1"):
        req = user_submit(self.x, nonce, self.user)
        return self.committee.accept_request(req)

    def assert_output(self, reqid, y, epoch=1):
        tau = prf(SEED, b"tau" + epoch.to_bytes(4, "big"))
        i = self.committee.select_asserter(reqid, tau, epoch)
        resp = asserter_execute(
            self.committee.task_messages(reqid), self.executors[i],
            self.committee.orch_pks, self.net.quorum, lambda _x: y)
        assert resp is not None
        assert self.committee.accept_asserter_response(resp)
        return i

    def validate_output(self, reqid, y):
        tau = prf(SEED, b"tau-chal")
        assert self.committee.challenge_decision(reqid, tau, 2)
        j = self.committee.select_validator(reqid, tau)
        resp = asserter_execute(
            self.committee.task_messages(reqid), self.executors[j],
            self.committee.orch_pks, self.net.quorum, lambda _x: y)
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
        req = user_submit(w.x, b"n1", w.user)
        w.committee.accept_request(req)
        with pytest.raises(DuplicateRequestError):
            w.committee.accept_request(req)

    def test_tampered_x_rejected(self):
        w = World()
        req = user_submit(w.x, b"n1", w.user)
        bad = protocol.SignedRequest(x=w.x + b"!", nonce=req.nonce,
                                     pk_user=req.pk_user, signature=req.signature)
        with pytest.raises(InvalidSignatureError):
            w.committee.accept_request(bad)

    def test_unknown_user_rejected(self):
        w = World()
        stranger = keypair(999)
        req = user_submit(w.x, b"n1", stranger)
        with pytest.raises(InvalidSignatureError):
            w.committee.accept_request(req)


class TestSelection:
    def test_asserter_selection_deterministic(self):
        w1, w2 = World(), World()
        r1, r2 = w1.submit(), w2.submit()
        tau = prf(SEED, b"tau")
        assert w1.committee.select_asserter(r1, tau, 1) == \
            w2.committee.select_asserter(r2, tau, 1)

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
        i = w.committee.select_asserter(reqid, tau, 1)
        resp = asserter_execute(
            w.committee.task_messages(reqid), w.executors[i],
            w.committee.orch_pks, w.net.quorum,
            lambda _x: forward(w.model, w.x_vec))
        assert resp is not None and resp.y == w.y_true

    def test_below_quorum_waits(self):
        w = World()
        reqid = w.submit()
        tau = prf(SEED, b"tau")
        i = w.committee.select_asserter(reqid, tau, 1)
        msgs = w.committee.task_messages(reqid)[: w.net.quorum - 1]
        resp = asserter_execute(msgs, w.executors[i], w.committee.orch_pks,
                                w.net.quorum, lambda _x: w.y_true)
        assert resp is None

    def test_forgeries_ignored(self):
        w = World()
        reqid = w.submit()
        tau = prf(SEED, b"tau")
        i = w.committee.select_asserter(reqid, tau, 1)
        msgs = w.committee.task_messages(reqid)
        forged = [protocol.TaskMessage(x=m.x, reqid=m.reqid, orch_id=m.orch_id,
                                       signature=b"\x00" * 64)
                  for m in msgs[: w.net.fault_bound]]
        resp = asserter_execute(forged + msgs, w.executors[i],
                                w.committee.orch_pks, w.net.quorum,
                                lambda _x: w.y_true)
        assert resp is not None

    def test_duplicate_senders_not_counted(self):
        w = World()
        reqid = w.submit()
        tau = prf(SEED, b"tau")
        i = w.committee.select_asserter(reqid, tau, 1)
        one = w.committee.task_messages(reqid)[0]
        resp = asserter_execute([one] * 5, w.executors[i], w.committee.orch_pks,
                                w.net.quorum, lambda _x: w.y_true)
        assert resp is None


class TestChallengeDecision:
    def test_p_zero_never_challenges(self):
        w = World(p=0.0)
        reqid = w.submit()
        w.assert_output(reqid, w.y_true)
        assert not w.committee.challenge_decision(reqid, prf(SEED, b"t"), 2)
        lc = w.committee.lifecycles[reqid]
        assert lc.phase is Phase.UNCHALLENGED_DONE
        reward = [d for d in w.committee.pending_deltas[reqid]
                  if d.reason is Reason.ASSERTER_REWARD]
        assert len(reward) == 1 and reward[0].amount == w.net.reward_r

    def test_p_one_always_challenges(self):
        w = World(p=1.0)
        reqid = w.submit()
        w.assert_output(reqid, w.y_true)
        assert w.committee.challenge_decision(reqid, prf(SEED, b"t"), 2)
        assert w.committee.lifecycles[reqid].phase is Phase.CHALLENGED

    def test_requires_asserted_phase(self):
        w = World(p=1.0)
        reqid = w.submit()
        with pytest.raises(ProtocolError):
            w.committee.challenge_decision(reqid, prf(SEED, b"t"), 2)


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
        w.assert_output(reqid, corrupt(w.y_true, "offset"))
        w.validate_output(reqid, w.y_true)
        assert w.committee.compare_and_route(reqid) == "arbitrate"
        assert w.committee.lifecycles[reqid].phase is Phase.ARBITRATING

    def test_colluding_identical_wrong_outputs_match(self):
        # byte-equal wrong results settle as matched: the undetected-fraud case
        w = World(p=1.0)
        reqid = w.submit()
        wrong = corrupt(w.y_true, "offset", amount=7)
        w.assert_output(reqid, wrong)
        w.validate_output(reqid, wrong)
        assert w.committee.compare_and_route(reqid) == "matched"


def run_arbitration(w: World, y_asserter, y_validator):
    reqid = w.submit()
    w.assert_output(reqid, y_asserter)
    w.validate_output(reqid, y_validator)
    assert w.committee.compare_and_route(reqid) == "arbitrate"
    outcome = w.arbitration.arbitrate(w.committee.arbitration_requests(reqid))
    w.committee.record_arbitration(outcome)
    return reqid, outcome


class TestArbitration:
    def test_asserter_wrong_validator_right(self):
        w = World(p=1.0)
        reqid, outcome = run_arbitration(w, corrupt(w.y_true, "offset"), w.y_true)
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
        reqid, outcome = run_arbitration(w, w.y_true, corrupt(w.y_true, "offset"))
        assert outcome.asserter_honest and not outcome.validator_honest
        lc = w.committee.lifecycles[reqid]
        by_reason = {d.reason: d for d in outcome.deltas}
        assert by_reason[Reason.SLASH].account == f"exec:{lc.validator}"
        assert by_reason[Reason.ASSERTER_REWARD].account == f"exec:{lc.asserter}"

    def test_both_wrong_no_redistribution(self):
        w = World(p=1.0)
        _reqid, outcome = run_arbitration(
            w, corrupt(w.y_true, "offset", amount=1), corrupt(w.y_true, "offset", amount=2))
        assert not outcome.asserter_honest and not outcome.validator_honest
        slashes = [d for d in outcome.deltas if d.reason is Reason.SLASH]
        assert len(slashes) == 2
        assert all(d.amount == -w.net.slash_s for d in slashes)
        assert all(d.reason is Reason.SLASH for d in outcome.deltas)

    def test_below_quorum_rejected(self):
        w = World(p=1.0)
        reqid = w.submit()
        w.assert_output(reqid, corrupt(w.y_true, "offset"))
        w.validate_output(reqid, w.y_true)
        w.committee.compare_and_route(reqid)
        requests = w.committee.arbitration_requests(reqid)[: w.net.quorum - 1]
        with pytest.raises(BelowQuorumError):
            w.arbitration.arbitrate(requests)

    def test_divergent_request_first_does_not_block_quorum(self):
        w = World(p=1.0)
        reqid = w.submit()
        w.assert_output(reqid, corrupt(w.y_true, "offset"))
        w.validate_output(reqid, w.y_true)
        w.committee.compare_and_route(reqid)
        honest = w.committee.arbitration_requests(reqid)
        # a Byzantine orchestrator validly signs a request over an altered x
        bogus = replace(honest[0], x=honest[0].x + b"!")
        bogus = replace(bogus, signature=w.orchestrators[0].vote(
            crypto.sha256(protocol.encode_fields(*bogus.tuple_fields()))))
        outcome = w.arbitration.arbitrate([bogus] + honest[1:])
        assert not outcome.asserter_honest and outcome.validator_honest

    def test_tampered_evidence_rejected(self):
        w = World(p=1.0)
        reqid = w.submit()
        w.assert_output(reqid, corrupt(w.y_true, "offset"))
        w.validate_output(reqid, w.y_true)
        w.committee.compare_and_route(reqid)
        lc = w.committee.lifecycles[reqid]
        forged_asserter = protocol.ExecutorResponse(
            x=lc.asserter_response.x, reqid=reqid,
            node_index=lc.asserter_response.node_index,
            y=lc.asserter_response.y, signature=b"\x00" * 64)
        lc.asserter_response = forged_asserter
        with pytest.raises(InvalidSignatureError):
            w.arbitration.arbitrate(w.committee.arbitration_requests(reqid))

    def test_outcome_recorded_immutably(self):
        w = World(p=1.0)
        reqid, outcome = run_arbitration(w, corrupt(w.y_true, "offset"), w.y_true)
        again = w.arbitration.arbitrate(w.committee.arbitration_requests(reqid))
        assert again is outcome


class TestTimeouts:
    def test_asserter_timeout_reassigns(self):
        w = World()
        reqid = w.submit()
        tau = prf(SEED, b"tau")
        first = w.committee.select_asserter(reqid, tau, 1)
        node = w.committee.handle_timeout(reqid, "asserter")
        assert node == first
        lc = w.committee.lifecycles[reqid]
        assert lc.phase is Phase.REASSIGNED and lc.assert_attempt == 2
        penalty = [d for d in w.committee.pending_deltas[reqid]
                   if d.reason is Reason.TIMEOUT_PENALTY]
        assert len(penalty) == 1 and penalty[0].amount == -w.net.timeout_penalty
        w.committee.select_asserter(reqid, tau, 2)
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
        assert w.committee.challenge_decision(reqid, tau, 2)
        silent = w.committee.select_validator(reqid, tau)
        node = w.committee.handle_timeout(reqid, "validator")
        assert node == silent
        lc = w.committee.lifecycles[reqid]
        assert lc.phase is Phase.CHALLENGED and lc.validate_attempt == 2

    def test_zero_penalty_config(self):
        w = World(timeout_penalty=0)
        reqid = w.submit()
        w.committee.select_asserter(reqid, prf(SEED, b"tau"), 1)
        w.committee.handle_timeout(reqid, "asserter")
        assert not any(d.reason is Reason.TIMEOUT_PENALTY
                       for d in w.committee.pending_deltas[reqid])

    def test_unknown_role_rejected(self):
        w = World()
        reqid = w.submit()
        w.committee.select_asserter(reqid, prf(SEED, b"tau"), 1)
        with pytest.raises(ValueError):
            w.committee.handle_timeout(reqid, "user")


class TestPhaseGraph:
    def test_illegal_transition_rejected(self):
        lc = RequestLifecycle(reqid=b"r", pk_user=b"pk", x=b"x")
        with pytest.raises(ProtocolError):
            lc.advance(Phase.ASSERTED)

    def test_history_is_graph_path(self):
        w = World(p=1.0)
        reqid, _outcome = run_arbitration(w, corrupt(w.y_true, "offset"), w.y_true)
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
        assert not w.committee.challenge_decision(reqid, prf(SEED, b"t"), 2)
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
        w.committee.challenge_decision(reqid, prf(SEED, b"t"), 2)
        deltas, cert = settle_concluded(w)
        with pytest.raises(AlreadySettledError):
            w.settlement.settle(deltas, cert)

    def test_digest_mismatch_rejected(self):
        w = World(p=0.0)
        reqid = w.submit()
        w.assert_output(reqid, w.y_true)
        w.committee.challenge_decision(reqid, prf(SEED, b"t"), 2)
        deltas = w.committee.concluded_deltas()
        cert = w.committee.certify_batch(deltas)
        with pytest.raises(InvalidSignatureError):
            w.settlement.settle(deltas[:-1], cert)

    def test_below_quorum_cert_rejected(self):
        w = World(p=0.0)
        reqid = w.submit()
        w.assert_output(reqid, w.y_true)
        w.committee.challenge_decision(reqid, prf(SEED, b"t"), 2)
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
        w.committee.challenge_decision(reqid, prf(SEED, b"t"), 2)
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
