"""posp benchmark: one workload, one process, one thread, closed batches.

    python3 perfbench/run.py --workload mixed_10k|wide_model|sweep_p \
        [--seed N] [--seconds S] [--trace 0|1] [--requests N]

`--trace 0` times rounds for `--seconds` and reports the end-to-end metrics.
`--trace 1` times untraced rounds the same way, then runs one round with every
public `posp` callable wrapped (see tracer.py) and reports the per-layer
metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The lines before it give every
metric with its unit, the sample counts and the environment.  Results and
spans are also written under `.perfbench/` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib.metadata import PackageNotFoundError, version

import paths

SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mixed_10k", "wide_model", "sweep_p"))
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 runs each workload on its shipped master seed")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="wall time to spend on timed rounds (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=None,
                        help="override the request count, or the trials per estimate on "
                             "sweep_p (for run-length studies; skips the hash checks)")
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    try:
        crypto_version = version("cryptography")
    except PackageNotFoundError:
        crypto_version = "unknown"
    sha = "unknown (not a git checkout)"
    if (paths.ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=paths.ROOT, timeout=10,
                                 capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = "unknown"
    return {
        "python": platform.python_version(),
        "cryptography": crypto_version,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "git_sha": sha,
        "seed": seed,
        "machine": "shared machine; per-core clock and isolation settings not changed",
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of its set-up."""
    cmd = [sys.executable, str(paths.BENCH / "probe.py"), workload, str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=paths.ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {code}")
    return elapsed


class Tally:
    """Attempted and failed runs, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures)


def timed_rounds(wl, seconds: float, tally: Tally) -> list[float]:
    """Closed batches, units/s of each round that returned (a round that fails
    its checks still counts as failed in `tally`).  After the first round,
    a round starts only if one more of the last round's length still ends
    within `seconds`, so a run's length stays near `seconds` for every
    workload."""
    rates = []
    began = time.perf_counter()
    rounds, last = 0, 0.0
    while not rounds or time.perf_counter() - began + last <= seconds:
        rounds += 1
        start = time.perf_counter()
        try:
            units, failures, _ = wl.round()
        except Exception as exc:  # a raising round is a failed run, not a crash
            traceback.print_exc()
            units, failures = None, [f"round raised {type(exc).__name__}: {exc}"]
        last = time.perf_counter() - start
        tally.record(failures)
        if units is not None:
            rates.append(units / last)
    return rates


def traced_round(wl, tally: Tally):
    import tracer

    tr = tracer.Tracer()
    start = time.perf_counter()
    with tr:
        try:
            failures = wl.round()[1]
        except Exception as exc:  # counted like a failed timed round
            traceback.print_exc()
            failures = [f"traced round raised {type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - start
    tally.record(failures)
    return tr, wall


def layer_metrics(tr, wall_s: float, wl, untraced_rate: float) -> dict:
    """The per-layer metrics of one traced round.  `.us` is mean self time
    per call, `.s` inclusive seconds, `self_share` self time over the round's
    wall time, and `per_req` is per request (per Monte Carlo trial on
    sweep_p)."""
    import tracer
    import workloads

    s = tr.summary()
    units = wl.units
    wall_ns = wall_s * 1e9
    sign, verify = "crypto.KeyPair.sign", "crypto.PublicKey.verify"
    execute, forward = "protocol.asserter_execute", "model.forward"
    estimate = "sim.estimate_strategy_payoff"

    def per_req(name):
        return s.calls[name] / units

    def us(name):
        return s.self_ns[name] / s.calls[name] / 1e3 if s.calls[name] else 0.0

    def share(name):
        return s.self_ns[name] / wall_ns

    rows = workloads.SWEEP_STEPS if wl.name == "sweep_p" else 0
    trials = units if wl.name == "sweep_p" else 0
    exec_verifies = s.pairs[(execute, verify)]
    m = {
        "crypto.sign.calls_per_req": (per_req(sign), "count/req"),
        "crypto.sign.us": (us(sign), "us"),
        "crypto.sign.self_share": (share(sign), "ratio"),
        "crypto.verify.calls_per_req": (per_req(verify), "count/req"),
        "crypto.verify.false_per_req": (tr.verify_false / units, "count/req"),
        "crypto.verify.us": (us(verify), "us"),
        "crypto.verify.self_share": (share(verify), "ratio"),
        "crypto.encode_fields.calls_per_req": (per_req("crypto.encode_fields"), "count/req"),
        "crypto.encode_fields.us": (us("crypto.encode_fields"), "us"),
        "crypto.derive_reqid.calls_per_req": (per_req("crypto.derive_reqid"), "count/req"),
        "crypto.prf.calls_per_req": (per_req("crypto.prf"), "count/req"),
        "crypto.prf.us": (us("crypto.prf"), "us"),
        "crypto.sampled.calls": (s.calls["crypto.sampled"], "count"),
        "crypto.sampled.us": (us("crypto.sampled"), "us"),
        "crypto.sample_threshold.us": (us("crypto.sample_threshold"), "us"),
        "crypto.bucket.us": (us("crypto.bucket"), "us"),
        "model.forward.calls_per_req": (per_req(forward), "count/req"),
        "model.forward.us": (us(forward), "us"),
        "model.forward.self_share": (share(forward), "ratio"),
        "model.forward.repeat_share": (
            tr.forward_repeats / s.calls[forward] if s.calls[forward] else 0.0, "ratio"),
        "model.generate_model.s": (s.incl_ns["model.generate_model"] / 1e9, "s"),
        "protocol.accept_request.us": (us("protocol.Committee.accept_request"), "us"),
        "protocol.task_messages.us": (us("protocol.Committee.task_messages"), "us"),
        "protocol.asserter_execute.us": (us(execute), "us"),
        "protocol.asserter_execute.verify_useful_ratio": (
            wl.config.network.quorum * s.calls[execute] / exec_verifies if exec_verifies else 0.0, "ratio"),
        "protocol.arbitrate.calls_per_req": (
            per_req("protocol.ArbitrationContract.arbitrate"), "count/req"),
        "protocol.arbitrate.us": (us("protocol.ArbitrationContract.arbitrate"), "us"),
        "protocol.certify_batch.s": (s.incl_ns["protocol.Committee.certify_batch"] / 1e9, "s"),
        "protocol.settle.s": (s.incl_ns["protocol.SettlementContract.settle"] / 1e9, "s"),
        "protocol.settle.deltas": (tr.settle_deltas, "count"),
        "protocol.errors": (tr.errors, "count"),
        "sim.run.self_share": (share("sim.run"), "ratio"),
        "sim.gc.s": (tr.gc_ns / 1e9, "s"),
        "sim.gc.collections": (tr.gc_collections, "count"),
        "sim.estimate.us_per_trial": (
            s.self_ns[estimate] / trials / 1e3 if trials else 0.0, "us/trial"),
        "sim.estimate.prf_per_trial": (
            s.prf_under_estimate / trials if trials else 0.0, "count/trial"),
        "econ.us_per_row": (s.layer_self_ns("econ") / rows / 1e3 if rows else 0.0, "us/row"),
        "cli.self_s": (s.layer_self_ns("cli") / 1e9, "s"),
    }
    for layer in tracer.LAYERS:
        m[f"{layer}.self_share"] = (s.layer_self_ns(layer) / wall_ns, "ratio")
    traced_rate = units / wall_s
    m.update({
        "trace.untraced_req_per_s": (untraced_rate, "1/s"),
        "trace.traced_req_per_s": (traced_rate, "1/s"),
        "trace.overhead_share": (1.0 - traced_rate / untraced_rate, "ratio"),
        "trace.span_cost_share": (s.spans * tr.span_cost_ns() / wall_ns, "ratio"),
        "trace.wall_s": (wall_s, "s"),
        "trace.self_sum_s": (s.self_sum_ns / 1e9, "s"),
        "trace.unspanned_share": (1.0 - s.self_sum_ns / wall_ns, "ratio"),
        "trace.spans": (s.spans, "count"),
    })
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not paths.checkout_ready():
        print(f"no posp source or scenarios under {paths.ROOT}", file=sys.stderr)
        return 2
    import workloads

    paths.OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    tally = Tally()
    wl = workloads.Workload(args.workload, args.seed, args.requests)
    rates = timed_rounds(wl, args.seconds, tally)
    if not rates:
        print("\n".join(tally.failures), file=sys.stderr)
        return 1
    if args.trace == 0:
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES + 1)]
        # the first probe may compile bytecode, which users pay only once
        setup = probes[1:]
        metrics = {
            "req_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        sample_counts = {"req_per_s": len(rates), "setup_s": len(setup)}
        detail = {"rounds_req_per_s": rates, "setup_s": setup}
    else:
        tr, wall_s = traced_round(wl, tally)
        metrics = layer_metrics(tr, wall_s, wl, statistics.median(rates))
        sample_counts = {"trace.untraced_req_per_s": len(rates)}
        detail = {"rounds_req_per_s": rates}
        tr.write(paths.OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")

    if args.seed == workloads.DEFAULT_SEED and args.requests is None:
        for failures in workloads.golden_failures():
            tally.record(failures)
    env["loadavg_end"] = list(os.getloadavg())

    error_rate = tally.failed / tally.attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for key, value in env.items():
        print(f"  env.{key} = {value}")
    for name, (value, unit) in metrics.items():
        n = f"  (median of {sample_counts[name]})" if name in sample_counts else ""
        print(f"  {name} = {value:.6g} {unit}{n}")
    if args.workload == "sweep_p" and args.trace == 0:
        print(f"  trials_per_s = {metrics['req_per_s'][0]:.6g} 1/s  (same as req_per_s)")
    print(f"  error_rate = {error_rate:.6g}  ({tally.failed} of {tally.attempted} runs failed)")
    for failure in tally.failures:
        print(f"  FAIL {failure}")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (paths.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "environment": env, "samples": sample_counts,
                    "detail": detail, "failures": tally.failures}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
