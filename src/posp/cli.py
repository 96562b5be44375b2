"""Command-line surface: economic analysis, scenario simulation, parameter
sweeps, and deterministic replay verification.

All inputs and reports are JSON with sorted keys, so outputs are diffable
and golden files are stable.  Exit codes: 0 success (and, for analyze,
equilibrium holds), 1 replay mismatch / equilibrium fails, 2 validation
error, 3 internal invariant violation: any protocol invariant failure in
simulate, replay or sweep, such as a conservation violation or no
responsive asserter or validator.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import econ, sim
from .protocol import ProtocolError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3


def _setup_logging() -> None:
    level = os.environ.get("POSP_LOG", "off").lower()
    logger = logging.getLogger("posp")
    if level == "events":
        logger.setLevel(logging.DEBUG)
    elif level == "summary":
        logger.setLevel(logging.INFO)
    else:
        logger.setLevel(logging.WARNING)
        return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s %(levelname)s %(message)s"))
    logger.addHandler(handler)


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2)


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _params_from_file(data: dict) -> econ.EconomicParams:
    """Accept either the single-validator shorthand {C, S, R, r, ...} or the
    full generic parameter record."""
    if "R" in data:
        return econ.EconomicParams.single_validator(
            C=data["C"], S=data["S"], R=data["R"], r=data["r"],
            p=data.get("p", 0.0), R_C=data.get("R_C", 0.0), B=data.get("B"))
    fields = {k: data[k] for k in
              ("B", "R_A", "R_V", "S", "C", "p", "r", "n", "U1", "U2", "R_C")
              if k in data}
    return econ.EconomicParams(**fields)


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
    single_p = None
    if params.n == 1 and params.R_A == params.R_V == params.U1 and params.U2 == 2 * params.R_A:
        single_p = econ.single_validator_min_p(params.C, params.S, params.R_A, params.r)
    fraud_proof = None
    if params.R_C + params.C > 0 and params.S + params.R_A > 0:
        fraud_proof = econ.fraud_proof_undetected_fraud_probability(
            params.C, params.S, params.R_A, params.R_C)
    margin = econ.dominance_margin(params)
    p_given = "p" in data
    equilibrium = margin > 0 if p_given else min_p is not None

    report = {
        "params": {k: getattr(params, k)
                   for k in ("B", "R_A", "R_V", "S", "C", "p", "r", "n",
                             "U1", "U2", "R_C")},
        "stake_assumptions": {"holds": holds, "violations": violations},
        "validator_payoff_matrix": {
            "both_correct": list(matrix.both_correct),
            "correct_vs_incorrect": list(matrix.correct_vs_incorrect),
            "incorrect_vs_correct": list(matrix.incorrect_vs_correct),
            "both_incorrect": list(matrix.both_incorrect),
        },
        "dominance_margin": margin,
        "min_challenge_probability": "infeasible" if min_p is None else min_p,
        "single_validator_min_p": ("infeasible" if single_p is None else single_p)
                                  if single_p is not None or params.n == 1 else None,
        "fraud_proof_undetected_fraud_probability": fraud_proof,
        "cheat_pass_probability": econ.cheat_pass_probability(params.p, params.r),
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
    result = sim.run(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(_dump(result.metrics.to_dict()) + "\n")
    (out / "ledger.json").write_text(_dump(result.ledger) + "\n")
    print(result.metrics.trace_hash)
    return EXIT_OK


SWEEP_AXES = ("p", "r", "S")


def _apply_axis(config: sim.ScenarioConfig, axis: str, value: float) -> sim.ScenarioConfig:
    if axis == "p":
        return replace(config, network=replace(config.network, challenge_probability=value))
    if axis == "r":
        return replace(config, byzantine_fraction=value)
    if axis == "S":
        return replace(config, network=replace(config.network, slash_s=int(round(value))))
    raise ValueError(f"unknown axis {axis!r}")


def cmd_sweep(args) -> int:
    try:
        config = _load_scenario(args.scenario)
        if args.steps < 0:
            raise ValueError("steps must be >= 0")
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"invalid sweep: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.steps == 0:
        values = []
    elif args.steps == 1:
        values = [args.start]
    else:
        span = args.stop - args.start
        values = [args.start + i * span / (args.steps - 1) for i in range(args.steps)]

    rows = []
    try:
        for value in values:
            scn = _apply_axis(config, args.axis, value)
            net = scn.network
            params = econ.EconomicParams.single_validator(
                C=net.compute_cost, S=net.slash_s, R=net.reward_r,
                r=scn.byzantine_fraction or 0.0,
                p=net.challenge_probability, B=net.payment_b)
            honest = sim.estimate_strategy_payoff(scn, sim.HONEST, scn.sweep_trials)
            fraud = sim.estimate_strategy_payoff(scn, sim.ALWAYS_FRAUD, scn.sweep_trials)
            min_p = econ.min_challenge_probability(params)
            rows.append({
                "axis": args.axis,
                "value": value,
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


if __name__ == "__main__":
    sys.exit(main())
