"""Equilibrium formula tests: frozen hand-computed values plus property
tests tying the closed forms to the exhaustive enumeration oracle."""

import math
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from posp import econ
from posp.econ import CollusionModel, EconomicParams


def baseline_params(p=0.01, r=0.1):
    return EconomicParams.single_validator(C=1.0, S=150.0, R=1.2, r=r, p=p)


class TestEconomicParams:
    def test_valid(self):
        params = baseline_params()
        assert params.U1 == 1.2 and params.U2 == 2.4 and params.n == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EconomicParams(B=4, R_A=-1, R_V=1, S=1, C=1, p=0.1, r=0.1)

    def test_rejects_reward_above_payment(self):
        with pytest.raises(ValueError):
            EconomicParams(B=2, R_A=1, R_V=1, S=1, C=1, p=0.1, r=0.1)

    def test_n_must_fit_a_float(self):
        # the closed forms take r**n, which raises OverflowError past a float
        for n in (65, int(sys.float_info.max)):
            assert EconomicParams(B=4, R_A=1, R_V=1, S=1, C=1, p=0.1, r=0.1, n=n).n == n
        for n in (2**1024, 10**400):
            with pytest.raises(ValueError, match="n must be"):
                EconomicParams(B=4, R_A=1, R_V=1, S=1, C=1, p=0.1, r=0.1, n=n)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            EconomicParams(B=4, R_A=1, R_V=1, S=1, C=1, p=1.5, r=0.1)
        with pytest.raises(ValueError):
            EconomicParams(B=4, R_A=1, R_V=1, S=1, C=1, p=0.1, r=1.0)


class TestCollusionModel:
    def test_rho_cannot_exceed_r(self):
        with pytest.raises(ValueError):
            CollusionModel(rho=0.2).check_against(baseline_params(r=0.1))

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            CollusionModel(rho=1.5)


class TestStakeAssumptions:
    def test_baseline_params_hold(self):
        ok, violations = econ.check_stake_assumptions(baseline_params())
        assert ok and violations == []

    def test_zero_slash_fails(self):
        params = EconomicParams(B=4, R_A=1.2, R_V=1.2, S=0, C=1, p=0.1, r=0.1)
        ok, violations = econ.check_stake_assumptions(params)
        assert not ok and "S>nC" in violations

    def test_slash_below_total_cost_fails(self):
        params = EconomicParams(B=10, R_A=1.2, R_V=1.2, S=3, C=1, p=0.1, r=0.1, n=4)
        ok, violations = econ.check_stake_assumptions(params)
        assert not ok and "S>nC" in violations


class TestValidatorPayoffMatrix:
    def test_baseline_params(self):
        m = econ.validator_payoff_matrix(baseline_params())
        assert m.both_correct == (pytest.approx(0.2), econ.LOWER)
        assert m.correct_vs_incorrect == (pytest.approx(150.2), econ.LOWER)
        assert m.incorrect_vs_correct == (-150.0, econ.EXACT)
        assert m.both_incorrect == (pytest.approx(1.2), econ.UPPER)

    def test_zero_params(self):
        params = EconomicParams(B=1, R_A=0, R_V=0, S=0, C=0, p=0, r=0)
        m = econ.validator_payoff_matrix(params)
        for correct_v in (True, False):
            for correct_a in (True, False):
                value, _direction = m.entry(correct_v, correct_a)
                assert value == 0

    def test_two_validators(self):
        params = EconomicParams(B=10, R_A=1, R_V=2, S=10, C=0.5, p=0.1, r=0.1, n=2)
        m = econ.validator_payoff_matrix(params)
        assert m.entry(True, True)[0] == pytest.approx(0.5)
        assert m.entry(True, False)[0] == pytest.approx(5.5)
        assert m.entry(False, True)[0] == -10
        assert m.entry(False, False)[0] == pytest.approx(1.0)


class TestHonestLowerBound:
    def test_p_zero_collapses(self):
        value = econ.honest_payoff_lower_bound(baseline_params(p=0), CollusionModel(0.1))
        assert value == pytest.approx(0.2)

    def test_hand_evaluated(self):
        value = econ.honest_payoff_lower_bound(baseline_params(p=0.01), CollusionModel(0.1))
        assert value == pytest.approx(0.2012, abs=1e-12)

    def test_rho_zero_is_base_payoff(self):
        value = econ.honest_payoff_lower_bound(baseline_params(p=0.7), CollusionModel(0.0))
        assert value == pytest.approx(0.2)


class TestFraudUpperBound:
    def test_p_zero_is_u1(self):
        value = econ.fraud_payoff_upper_bound(baseline_params(p=0), CollusionModel(0.1))
        assert value == pytest.approx(1.2)

    def test_rho_zero_single_validator(self):
        params = baseline_params(p=0.25)
        value = econ.fraud_payoff_upper_bound(params, CollusionModel(0.0))
        assert value == pytest.approx(0.75 * 1.2 + 0.25 * (-150.0))

    def test_hand_evaluated(self):
        value = econ.fraud_payoff_upper_bound(baseline_params(p=0.01), CollusionModel(0.1))
        assert value == pytest.approx(-0.1596, abs=1e-12)

    def test_rejects_huge_n(self):
        params = EconomicParams(B=10, R_A=1, R_V=1, S=10, C=0.1, p=0.1, r=0.1, n=65)
        with pytest.raises(ValueError):
            econ.fraud_payoff_upper_bound(params, CollusionModel(0.1))


class TestDominanceMargin:
    def test_hand_evaluated(self):
        margin = econ.dominance_margin(baseline_params(p=0.01))
        assert margin == pytest.approx(0.01 * 150 + 0.01 * 1.2 - 1 - 0.01 * 0.1 * 152.4)

    def test_no_challenge_leaves_only_cost(self):
        params = EconomicParams(B=4, R_A=1.2, R_V=1.2, S=150, C=1, p=0, r=0.3,
                                U1=1.2, U2=2.4)
        assert econ.dominance_margin(params) == pytest.approx(-1.0)

    def test_zero_at_min_p(self):
        params = baseline_params()
        p_star = econ.min_challenge_probability(params)
        margin = econ.dominance_margin(
            EconomicParams.single_validator(C=1.0, S=150.0, R=1.2, r=0.1, p=p_star))
        assert abs(margin) < 1e-12


class TestMinChallengeProbability:
    def test_reference_value(self):
        p_star = econ.min_challenge_probability(baseline_params())
        assert p_star == pytest.approx(0.00736, abs=1e-5)

    def test_r_zero(self):
        p_star = econ.min_challenge_probability(baseline_params(r=0.0))
        assert p_star == pytest.approx(1.0 / 151.2)

    def test_infeasible(self):
        params = EconomicParams.single_validator(C=1.0, S=1.0, R=1.0, r=0.9)
        assert econ.min_challenge_probability(params) is None

    def test_cost_is_kept_beside_huge_rewards(self):
        # U1 + C rounds to U1 at R = 1e17; U1 - R_A = 0 exactly keeps C
        params = EconomicParams.single_validator(C=1.0, S=10.0, R=1e17, r=0.1)
        # C / (S + U1 - r (U2 + S)) = 1 / (8e16 + 9)
        assert econ.min_challenge_probability(params) == pytest.approx(
            1 / (8e16 + 9), rel=1e-12, abs=0)


NON_FINITE = {"nan": float("nan"), "inf": float("inf"), "huge-int": 10**400}


class TestSingleValidatorMinP:
    def test_reference_value(self):
        assert econ.single_validator_min_p(1.0, 150.0, 1.2, 0.1) == pytest.approx(1.0 / 135.96)

    def test_free_computation(self):
        assert econ.single_validator_min_p(0.0, 150.0, 1.2, 0.1) == 0.0

    def test_r_zero(self):
        assert econ.single_validator_min_p(1.0, 150.0, 1.2, 0.0) == pytest.approx(1.0 / 151.2)

    def test_infeasible(self):
        assert econ.single_validator_min_p(1.0, 1.0, 1.0, 0.9) is None

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            econ.single_validator_min_p(-1.0, 1.0, 1.0, 0.1)

    @pytest.mark.parametrize("at,value", [
        *(pytest.param(at, value, id=f"{at}-{name}") for at in range(4)
          for name, value in NON_FINITE.items()),
        # finite, but the shorthand record's default B = 3R overflows
        pytest.param(2, 1e308, id="2-R-above-max-over-3"),
    ])
    def test_rejects_non_finite_inputs(self, at, value):
        args = [1.0, 150.0, 1.2, 0.1]
        args[at] = value
        with pytest.raises(ValueError):
            econ.single_validator_min_p(*args)


class TestFraudProofUndetectedFraud:
    def test_reference_value(self):
        value = econ.fraud_proof_undetected_fraud_probability(1.0, 150.0, 1.2, 100.0)
        assert value == pytest.approx(150.2 / (151.2 * 101))

    def test_free_computation(self):
        assert econ.fraud_proof_undetected_fraud_probability(0.0, 150.0, 1.2, 100.0) == 0.0

    def test_small_example(self):
        value = econ.fraud_proof_undetected_fraud_probability(1.0, 9.0, 2.0, 9.0)
        assert value == pytest.approx(10.0 / 110.0)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            econ.fraud_proof_undetected_fraud_probability(0.0, 0.0, 0.0, 0.0)


class TestCheatPass:
    def test_no_challenge(self):
        assert econ.cheat_pass_probability(0.0, 0.7, 1) == 1.0

    def test_always_caught(self):
        assert econ.cheat_pass_probability(1.0, 0.0, 1) == 0.0

    def test_reference_scale(self):
        assert econ.cheat_pass_probability(0.00736, 0.1, 1) == pytest.approx(0.993376)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            econ.cheat_pass_probability(-0.1, 0.5, 1)

    @pytest.mark.parametrize("n", [0, -1, True, 1.0])
    def test_rejects_n_that_is_not_a_count(self, n):
        with pytest.raises(ValueError):
            econ.cheat_pass_probability(0.5, 0.5, n)

    @given(p=st.floats(0.0, 1.0), r=st.floats(0.0, 0.99), n=st.integers(1, 10))
    def test_matches_enumerated_mirroring_draws(self, p, r, n):
        # the fraud payoff with U1 = U2 = 1 and S = 0 is 1 exactly when the
        # wrong assertion passes: unchallenged, or every validator mirrors it
        params = EconomicParams(B=10.0, R_A=1.0, R_V=1.0, S=0.0, C=0.0, p=p, r=r, n=n,
                                U1=1.0, U2=1.0)
        enumerated = econ.brute_force_expected_payoff(params, CollusionModel(r), econ.FRAUD)
        assert econ.cheat_pass_probability(p, r, n) == pytest.approx(enumerated, abs=1e-12)


class TestBruteForce:
    def test_honest_rho_zero(self):
        params = baseline_params(p=0.37)
        value = econ.brute_force_expected_payoff(params, CollusionModel(0.0), econ.HONEST)
        assert value == pytest.approx(0.2)

    def test_fraud_certain_catch(self):
        params = baseline_params(p=1.0, r=0.0)
        value = econ.brute_force_expected_payoff(params, CollusionModel(0.0), econ.FRAUD)
        assert value == pytest.approx(-150.0)

    def test_fraud_below_closed_form(self):
        params = baseline_params(p=0.01)
        model = CollusionModel(0.1)
        value = econ.brute_force_expected_payoff(params, model, econ.FRAUD)
        assert value <= econ.fraud_payoff_upper_bound(params, model) + 1e-12

    def test_rejects_large_n(self):
        params = EconomicParams(B=10, R_A=1, R_V=1, S=10, C=0.1, p=0.1, r=0.1, n=13)
        with pytest.raises(ValueError):
            econ.brute_force_expected_payoff(params, CollusionModel(0.1), econ.HONEST)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            econ.brute_force_expected_payoff(baseline_params(), CollusionModel(0.1), "lazy")


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

def random_params(draw, n_max=6):
    n = draw(st.integers(min_value=1, max_value=n_max))
    C = draw(st.floats(min_value=0.01, max_value=5.0))
    S = draw(st.floats(min_value=0.1, max_value=500.0))
    R_A = draw(st.floats(min_value=0.01, max_value=20.0))
    R_V = draw(st.floats(min_value=0.01, max_value=20.0))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    r = draw(st.floats(min_value=0.0, max_value=0.9))
    # dishonest gains near the reward scale keep the dominance regime reachable
    U1 = draw(st.floats(min_value=0.0, max_value=1.5)) * R_A
    U2 = draw(st.floats(min_value=0.0, max_value=2.0)) * (R_A + R_V)
    return EconomicParams(B=R_A + R_V + 1.0, R_A=R_A, R_V=R_V, S=S, C=C,
                          p=p, r=r, n=n, U1=U1, U2=U2)


@st.composite
def params_strategy(draw):
    return random_params(draw)


@st.composite
def params_with_rho(draw):
    params = random_params(draw)
    rho = draw(st.floats(min_value=0.0, max_value=params.r))
    return params, min(rho, params.r)


class TestProperties:
    @settings(max_examples=200,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(params_with_rho())
    def test_positive_margin_makes_fraud_dominated(self, case):
        params, rho = case
        assume(econ.dominance_margin(params) > 1e-9)
        model = CollusionModel(rho)
        fraud = econ.brute_force_expected_payoff(params, model, econ.FRAUD)
        honest = econ.brute_force_expected_payoff(params, model, econ.HONEST)
        assert fraud < honest + 1e-9

    @settings(max_examples=200)
    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.1, max_value=500.0),
        st.floats(min_value=0.01, max_value=20.0),
        st.floats(min_value=0.0, max_value=0.9),
    )
    def test_min_p_matches_single_validator_form(self, C, S, R, r):
        params = EconomicParams.single_validator(C=C, S=S, R=R, r=r)
        general = econ.min_challenge_probability(params)
        assert econ.single_validator_min_p(C, S, R, r) == general
        # the reference: the closed form C / ((1-r)S + (1-2r)R), infeasible
        # where its denominator is not positive or it exceeds 1
        denom = (1.0 - r) * S + (1.0 - 2.0 * r) * R
        reference = C / denom if denom > 0.0 else None
        if reference is None or reference > 1.0 + 1e-9:
            assert general is None
        elif reference < 1.0 - 1e-9:
            assert general == pytest.approx(reference, rel=1e-12)

    @settings(max_examples=200)
    @given(params_strategy())
    def test_margin_zero_at_min_p(self, params):
        from dataclasses import replace

        p_star = econ.min_challenge_probability(params)
        assume(p_star is not None)
        at_boundary = replace(params, p=p_star)
        scale = max(1.0, params.S + params.U1 + params.U2 + params.R_A + params.C)
        assert abs(econ.dominance_margin(at_boundary)) <= 1e-12 * scale

    @settings(max_examples=200)
    @given(params_with_rho())
    def test_fraud_bound_monotone_in_rho(self, case):
        # The bound is E[g(i)] over i ~ Bin(n, rho), with g(i) = R_V i/n - S
        # below n captured validators and g(n) = U2.  The bound rises at every
        # rho exactly when g rises in i, that is when U2 >= g(n - 1).
        params, rho = case
        assume(params.U2 >= params.R_V * (params.n - 1) / params.n - params.S)
        step = 0.01
        hi = min(1.0, min(rho + step, params.r))
        model_lo = CollusionModel(rho)
        model_hi = CollusionModel(hi)
        lo_val = econ.fraud_payoff_upper_bound(params, model_lo)
        hi_val = econ.fraud_payoff_upper_bound(params, model_hi)
        assert hi_val >= lo_val - 1e-9

    def test_fraud_bound_falls_in_rho_when_full_capture_pays_less(self):
        # U2 = 0 is below g(1) = 1/2 - 1/4: capturing both validators pays
        # less than capturing one
        params = EconomicParams(B=3, R_A=1, R_V=1, S=0.25, C=1, p=1, r=0.875, n=2)
        lo = econ.fraud_payoff_upper_bound(params, CollusionModel(0.75))
        hi = econ.fraud_payoff_upper_bound(params, CollusionModel(0.76))
        assert (lo, hi) == (pytest.approx(0.078125), pytest.approx(0.0768))

    @settings(max_examples=100)
    @given(
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=0.1, max_value=500.0),
        st.floats(min_value=0.01, max_value=20.0),
        st.floats(min_value=0.0, max_value=0.45),
        st.integers(min_value=-20, max_value=20),
    )
    def test_scale_invariance_exact(self, C, S, R, r, exponent):
        # powers of two scale floats without rounding, so equality is exact
        lam = math.ldexp(1.0, exponent)
        base_p = econ.single_validator_min_p(C, S, R, r)
        scaled_p = econ.single_validator_min_p(C * lam, S * lam, R * lam, r)
        assert scaled_p == base_p
        base_q = econ.fraud_proof_undetected_fraud_probability(C, S, R, 100.0 * C)
        scaled_q = econ.fraud_proof_undetected_fraud_probability(
            C * lam, S * lam, R * lam, 100.0 * C * lam)
        assert scaled_q == base_q
