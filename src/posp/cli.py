"""Command-line surface: economic analysis, scenario simulation, parameter
sweeps, and deterministic replay verification.

All inputs and reports are JSON with sorted keys, so outputs are diffable
and golden files are stable.  Exit codes: 0 success (and, for analyze,
equilibrium holds), 1 replay mismatch / equilibrium fails, 2 validation
error (including a scenario whose model or wrong outputs overflow Q16.16),
3 internal invariant violation: any protocol invariant failure in
simulate, replay or sweep, such as a conservation violation or no
responsive asserter or validator.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Optional

from . import econ, sim
from .model import FixedOverflowError
from .protocol import ProtocolError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3


_LOG_LEVELS = {"events": logging.DEBUG, "summary": logging.INFO}
_LOG_HANDLER = "posp-cli"


def _setup_logging() -> None:
    """Set the `posp` logger from POSP_LOG.  Each call replaces the handler
    an earlier call added, so repeated in-process `main` calls print every
    line once, to the current stderr."""
    logger = logging.getLogger("posp")
    for handler in [h for h in logger.handlers if h.get_name() == _LOG_HANDLER]:
        logger.removeHandler(handler)
    level = _LOG_LEVELS.get(os.environ.get("POSP_LOG", "off").lower())
    if level is None:
        logger.setLevel(logging.WARNING)
        return
    logger.setLevel(level)
    handler = logging.StreamHandler(sys.stderr)
    handler.set_name(_LOG_HANDLER)
    handler.setFormatter(logging.Formatter("%(name)s %(levelname)s %(message)s"))
    logger.addHandler(handler)


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2)


def _load_json(path: str):
    """The JSON record at ``path``.  A record nested deeper than the parser's
    recursion allows is invalid input (ValueError), not a crash."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None


def _params_from_file(data: dict) -> econ.EconomicParams:
    """A record with an R is the single-validator shorthand, whose keys are
    the keywords of `EconomicParams.single_validator` (C, S, R, r and
    optionally p, R_C, B); any other is the full record, whose keys are the
    fields of `EconomicParams`.  Absent optional keys take their defaults
    there, and a key that names none raises TypeError."""
    if "R" in data:
        return econ.EconomicParams.single_validator(**data)
    return econ.EconomicParams(**data)


def cmd_analyze(args) -> int:
    try:
        data = _load_json(args.params)
        params = _params_from_file(data)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"invalid params file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    holds, violations = econ.check_stake_assumptions(params)
    matrix = econ.validator_payoff_matrix(params)
    min_p = econ.min_challenge_probability(params)
    shown_min_p = "infeasible" if min_p is None else min_p
    # a single-validator record's shorthand bound is its min_p
    single = (params.n == 1 and params.R_A == params.R_V == params.U1
              and params.U2 == 2 * params.R_A)
    fraud_proof = None
    if params.R_C + params.C > 0 and params.S + params.R_A > 0:
        fraud_proof = econ.fraud_proof_undetected_fraud_probability(
            params.C, params.S, params.R_A, params.R_C)
    margin = econ.dominance_margin(params)
    p_given = "p" in data
    equilibrium = margin > 0 if p_given else min_p is not None

    report = {
        "params": asdict(params),
        "stake_assumptions": {"holds": holds, "violations": violations},
        "validator_payoff_matrix": asdict(matrix),
        "dominance_margin": margin,
        "min_challenge_probability": shown_min_p,
        "single_validator_min_p": shown_min_p if single else None,
        "fraud_proof_undetected_fraud_probability": fraud_proof,
        "cheat_pass_probability": econ.cheat_pass_probability(params.p, params.r, params.n),
        "equilibrium_holds": equilibrium,
    }
    print(_dump(report))
    return EXIT_OK if equilibrium else EXIT_MISMATCH


def _load_scenario(path: str) -> sim.ScenarioConfig:
    return sim.ScenarioConfig.from_dict(_load_json(path))


def cmd_simulate(args) -> int:
    try:
        config = _load_scenario(args.scenario)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out = Path(args.out)
    try:
        # made before the run, so an unusable path fails before any work
        out.mkdir(parents=True, exist_ok=True)
        result = sim.run(config)
        (out / "report.json").write_text(_dump(result.metrics.to_dict()) + "\n")
        (out / "ledger.json").write_text(_dump(result.ledger) + "\n")
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(result.metrics.trace_hash)
    return EXIT_OK


SWEEP_AXES = ("p", "r", "S")
# A sweep lists all its axis values before the first row runs.
MAX_SWEEP_STEPS = 10_000


def _apply_axis(config: sim.ScenarioConfig, axis: str, value: float,
                penalty: Optional[int] = None) -> sim.ScenarioConfig:
    """The scenario at one axis value.  ``penalty`` is the timeout penalty
    the scenario file sets; None derives it from each row's S, as loading a
    scenario with that S would."""
    if axis == "p":
        return replace(config, network=replace(config.network, challenge_probability=value))
    if axis == "r":
        return replace(config, byzantine_fraction=value)
    if axis == "S":
        return replace(config, network=replace(config.network, slash_s=int(round(value)),
                                               timeout_penalty=penalty))
    raise ValueError(f"unknown axis {axis!r}")


def _axis_values(start: float, stop: float, steps: int) -> list[float]:
    if not 0 <= steps <= MAX_SWEEP_STEPS:
        raise ValueError(f"steps must be in [0, {MAX_SWEEP_STEPS}]")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError("--from and --to must be finite")
    if steps < 2:
        return [start] * steps
    span = stop - start
    values = [start + i * span / (steps - 1) for i in range(steps)]
    if not all(map(math.isfinite, values)):
        raise ValueError("the axis values overflow")
    return values


def cmd_sweep(args) -> int:
    try:
        data = _load_json(args.scenario)
        config = sim.ScenarioConfig.from_dict(data)
        penalty = data["network"].get("timeout_penalty")
        values = _axis_values(args.start, args.stop, args.steps)
        # every row's scenario is checked before any row is estimated
        scns = [_apply_axis(config, args.axis, value, penalty) for value in values]
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"invalid sweep: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    estimates = sim.estimate_strategy_payoff(
        scns, (sim.HONEST, sim.ALWAYS_FRAUD), config.sweep_trials)
    rows = []
    try:
        for value, scn, (honest, fraud) in zip(values, scns, estimates):
            net = scn.network
            # the adversarial share actually deployed, overrides included
            table = sim.assign_adversaries(scn)
            r = sum(s.adversarial for s in table) / len(table)
            params = econ.EconomicParams.single_validator(
                C=net.compute_cost, S=net.slash_s, R=net.reward_r, r=r,
                p=net.challenge_probability, B=net.payment_b)
            min_p = econ.min_challenge_probability(params)
            rows.append({
                "axis": args.axis,
                "value": value,
                "r": r,
                "dominance_margin": econ.dominance_margin(params),
                "min_challenge_probability": "infeasible" if min_p is None else min_p,
                "honest_mean": honest.mean,
                "honest_stderr": honest.stderr,
                "fraud_mean": fraud.mean,
                "fraud_stderr": fraud.stderr,
                "fraud_advantage": fraud.mean - honest.mean,
            })
    except (ValueError, TypeError) as exc:
        print(f"invalid sweep: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(_dump({"rows": rows}))
    return EXIT_OK


def cmd_replay(args) -> int:
    try:
        config = _load_scenario(args.scenario)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    result = sim.run(config)
    actual = result.metrics.trace_hash
    if actual == args.hash.lower():
        print(f"replay ok {actual}")
        return EXIT_OK
    print(f"replay mismatch: expected {args.hash.lower()} got {actual}")
    return EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posp",
        description="Verification-game analysis and deterministic protocol simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="closed-form equilibrium analysis")
    p_analyze.add_argument("--params", required=True, help="JSON parameter file")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="run a scenario end to end")
    p_sim.add_argument("--scenario", required=True, help="JSON scenario file")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="sweep one axis, analytic vs empirical")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_replay = sub.add_parser("replay", help="verify a scenario's trace hash")
    p_replay.add_argument("--scenario", required=True)
    p_replay.add_argument("--hash", required=True, help="expected trace hash (hex)")
    p_replay.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProtocolError as exc:
        print(f"protocol invariant violated: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except FixedOverflowError as exc:
        # the scenario's model, or a liar's wrong output, leaves Q16.16
        print(f"invalid scenario: Q16.16 overflow: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
