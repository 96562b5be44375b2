"""Closed-form evaluation of the verification game's equilibrium conditions,
plus an exhaustive-enumeration payoff oracle for small validator counts.

All operations are pure functions over validated parameter records; boundary
equalities hold to 1e-12 relative tolerance in 64-bit floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

MAX_CLOSED_FORM_N = 64
MAX_BRUTE_FORCE_N = 12

HONEST = "honest"
FRAUD = "fraud"


def _finite(value: float) -> bool:
    """``math.isfinite``, and False for a bool or an int too large for a float."""
    if isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class EconomicParams:
    """All game parameters in one validated record (token units)."""

    B: float  # payment per request
    R_A: float  # asserter reward
    R_V: float  # total validator reward pool
    S: float  # slash amount
    C: float  # computation cost of one evaluation
    p: float  # challenge probability
    r: float  # Byzantine fraction of the network
    n: int = 1  # validators per challenge
    U1: float = 0.0  # max dishonest gain, unchallenged
    U2: float = 0.0  # max dishonest gain, challenge fully captured
    R_C: float = 0.0  # net checking gain in the fraud-proof comparison model

    def __post_init__(self):
        for name in ("B", "R_A", "R_V", "S", "C", "U1", "U2", "R_C"):
            if not _finite(getattr(self, name)) or getattr(self, name) < 0:
                raise ValueError(f"{name} must be finite and >= 0")
        if not (_finite(self.p) and 0.0 <= self.p <= 1.0):
            raise ValueError("p must be a number in [0, 1]")
        if not (_finite(self.r) and 0.0 <= self.r < 1.0):
            raise ValueError("r must be a number in [0, 1)")
        # r**n and the other closed forms take n as a float
        if type(self.n) is not int or self.n < 1 or not _finite(self.n):
            raise ValueError("n must be an integer >= 1 that a float can hold")
        if not self.R_A + self.R_V < self.B:
            raise ValueError("rewards must satisfy R_A + R_V < B")

    @classmethod
    def single_validator(cls, *, C: float, S: float, R: float, r: float,
                         p: float = 0.0, R_C: float = 0.0,
                         B: Optional[float] = None) -> "EconomicParams":
        """The n=1 instantiation: R_A = R_V = U1 = R, U2 = 2R."""
        if not _finite(R):
            raise ValueError("R must be finite")
        if B is None:
            B = 3.0 * R if R > 0 else 1.0
        return cls(B=B, R_A=R, R_V=R, S=S, C=C, p=p, r=r, n=1,
                   U1=R, U2=2.0 * R, R_C=R_C)


@dataclass(frozen=True)
class CollusionModel:
    """How many sampled validators mirror a fraudulent asserter's output.

    rho is the network fraction that would submit the same wrong result.
    The closed forms and the enumeration oracle hold only for validators
    drawn independently with replacement.
    """

    rho: float

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")

    def check_against(self, params: EconomicParams):
        if self.rho > params.r:
            raise ValueError("rho cannot exceed the Byzantine fraction r")


LOWER = "lower-bound"
UPPER = "upper-bound"
EXACT = "exact"


@dataclass(frozen=True)
class PayoffMatrixBound:
    """Validator payoff bounds, indexed by (validator correct, asserter correct).

    Each entry is (value, direction); the (incorrect, correct) cell is the
    exact slash -S.
    """

    both_correct: tuple[float, str]
    correct_vs_incorrect: tuple[float, str]
    incorrect_vs_correct: tuple[float, str]
    both_incorrect: tuple[float, str]

    def entry(self, validator_correct: bool, asserter_correct: bool):
        return {
            (True, True): self.both_correct,
            (True, False): self.correct_vs_incorrect,
            (False, True): self.incorrect_vs_correct,
            (False, False): self.both_incorrect,
        }[(validator_correct, asserter_correct)]


def check_stake_assumptions(params: EconomicParams) -> tuple[bool, list[str]]:
    """Slash-dominance conditions: S > nC, R_A - C > -S, R_V/n - C > -S."""
    violations = []
    if not params.S > params.n * params.C:
        violations.append("S>nC")
    if not params.R_A - params.C > -params.S:
        violations.append("R_A-C>-S")
    if not params.R_V / params.n - params.C > -params.S:
        violations.append("R_V/n-C>-S")
    return (not violations, violations)


def validator_payoff_matrix(params: EconomicParams) -> PayoffMatrixBound:
    share = params.R_V / params.n
    return PayoffMatrixBound(
        both_correct=(share - params.C, LOWER),
        correct_vs_incorrect=(share - params.C + params.S / params.n, LOWER),
        incorrect_vs_correct=(-params.S, EXACT),
        both_incorrect=(share, UPPER),
    )


def honest_payoff_lower_bound(params: EconomicParams, model: CollusionModel) -> float:
    """(1-p)(R_A-C) + p(R_V/n * E[k] + R_A-C) with E[k] = n*rho."""
    model.check_against(params)
    expected_captured = params.n * model.rho
    base = params.R_A - params.C
    return (1.0 - params.p) * base + params.p * (
        params.R_V / params.n * expected_captured + base
    )


def fraud_payoff_upper_bound(params: EconomicParams, model: CollusionModel) -> float:
    """(1-p)U1 + p rho^n U2 + p sum_{i<n} C(n,i) rho^i (1-rho)^(n-i) (R_V i/n - S).

    Binomial coefficients are computed exactly in integer arithmetic; the
    captured-validator count among i mirroring draws is identified with i.
    """
    model.check_against(params)
    if params.n > MAX_CLOSED_FORM_N:
        raise ValueError(f"n > {MAX_CLOSED_FORM_N} not supported")
    n, rho, p = params.n, model.rho, params.p
    total = (1.0 - p) * params.U1 + p * rho**n * params.U2
    for i in range(n):
        weight = math.comb(n, i) * rho**i * (1.0 - rho) ** (n - i)
        total += p * weight * (params.R_V / n * i - params.S)
    return total


def dominance_margin(params: EconomicParams) -> float:
    """LHS - RHS of the dominance inequality
    R_A + pS - (1-p)U1 - C > p r^n (U2 + S); positive certifies the
    pure-strategy equilibrium."""
    lhs = params.R_A + params.p * params.S - (1.0 - params.p) * params.U1 - params.C
    rhs = params.p * params.r**params.n * (params.U2 + params.S)
    return lhs - rhs


def min_challenge_probability(params: EconomicParams) -> Optional[float]:
    """Smallest p satisfying the dominance inequality, or None if no p in
    [0, 1] does (infeasible).  Solved from dominance_margin(p) = 0:
    p* = ((U1 - R_A) + C) / (S + U1 - r^n (U2 + S)).  U1 - R_A is taken
    first, so a C far smaller than U1 and R_A is not rounded away."""
    denom = params.S + params.U1 - params.r**params.n * (params.U2 + params.S)
    if denom <= 0.0:
        return None
    p_star = ((params.U1 - params.R_A) + params.C) / denom
    if not 0.0 <= p_star <= 1.0:
        return None
    return p_star


def single_validator_min_p(C: float, S: float, R: float, r: float) -> Optional[float]:
    """``min_challenge_probability`` of the shorthand record
    ``EconomicParams.single_validator(C=C, S=S, R=R, r=r)``: the bound
    C / ((1-r)S + (1-2r)R) where it lies in [0, 1], else None (infeasible).
    Raises ValueError where that record is invalid, including R above
    float max / 3, whose default B = 3R overflows."""
    return min_challenge_probability(EconomicParams.single_validator(C=C, S=S, R=R, r=r))


def fraud_proof_undetected_fraud_probability(C: float, S: float, R: float, R_C: float) -> float:
    """Mixed-equilibrium undetected-fraud rate of the fraud-proof scheme:
    (S + R - C) C / [(S + R)(R_C + C)], clamped to [0, 1]."""
    if S + R <= 0 or R_C + C <= 0:
        raise ValueError("require S + R > 0 and R_C + C > 0")
    value = (S + R - C) * C / ((S + R) * (R_C + C))
    return min(1.0, max(0.0, value))


def cheat_pass_probability(p: float, r: float, n: int) -> float:
    """Chance a wrong assertion goes unpunished with n validators per
    challenge, each mirroring it with probability r: (1-p) + p*r^n."""
    if not 0.0 <= p <= 1.0 or not 0.0 <= r <= 1.0:
        raise ValueError("p and r must be in [0, 1]")
    if type(n) is not int or n < 1:
        raise ValueError("n must be an integer >= 1")
    return (1.0 - p) + p * r**n


def brute_force_expected_payoff(params: EconomicParams, model: CollusionModel,
                                asserter_strategy: str) -> float:
    """Independent oracle: exhaustively enumerate challenge outcome and all
    2^n mirroring/honest validator draws and apply the reward/slash rules.

    Coalition accounting: mirroring validators copy the asserter's output
    (free when it is correct, slashed alongside the asserter when it is not),
    and their rewards count toward the asserter's payoff.
    """
    model.check_against(params)
    if params.n > MAX_BRUTE_FORCE_N:
        raise ValueError(f"n > {MAX_BRUTE_FORCE_N} not supported by enumeration")
    if asserter_strategy not in (HONEST, FRAUD):
        raise ValueError(f"unknown strategy {asserter_strategy!r}")
    n, rho, p = params.n, model.rho, params.p

    if asserter_strategy == HONEST:
        unchallenged = params.R_A - params.C
    else:
        unchallenged = params.U1
    total = (1.0 - p) * unchallenged

    for draw in range(1 << n):
        k = draw.bit_count()  # validators mirroring the asserter
        weight = rho**k * (1.0 - rho) ** (n - k)
        if asserter_strategy == HONEST:
            # All outputs match; mirroring validators free-ride the correct
            # result and hand their shares to the coalition.
            payoff = (params.R_A - params.C) + k * (params.R_V / n)
        elif k == n:
            # Every validator mirrors the wrong output: accepted undetected.
            payoff = params.U2
        else:
            # At least one honest validator forces arbitration: the asserter
            # and its k mirroring validators are all slashed.
            payoff = -(k + 1) * params.S
        total += p * weight * payoff
    return total
