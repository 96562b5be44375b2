"""Tests of the benchmark itself, on reduced request counts so they run in
seconds:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import paths
import tracer
import workloads
from posp import crypto, protocol, sim


def traced(name, requests, seed=0):
    wl = workloads.Workload(name, seed, requests)
    with tracer.Tracer() as tr:
        units, failures, detail = wl.round()
    assert failures == []
    return wl, tr, detail


def op_counts(tr):
    s = tr.summary()
    return {"calls": dict(s.calls), "pairs": dict(s.pairs),
            "verify_false": tr.verify_false, "forward_repeats": tr.forward_repeats,
            "settle_deltas": tr.settle_deltas, "errors": tr.errors}


@pytest.mark.parametrize("name,requests",
                         [("mixed_10k", 300), ("wide_model", 40), ("sweep_p", 2000)])
def test_op_counts_repeat_exactly(name, requests):
    first = op_counts(traced(name, requests, seed=7)[1])
    second = op_counts(traced(name, requests, seed=7)[1])
    assert first == second
    assert first["calls"]["crypto.prf"] > 0
    assert first["calls"]["model.forward"] > first["forward_repeats"] > 0


def test_wide_model_forward_count_is_exact():
    wl, tr, metrics = traced("wide_model", 60)
    # all honest: one forward for y_true, one per request, one per challenge
    assert tr.summary().calls["model.forward"] == 1 + wl.config.requests + metrics.challenges


def test_by_name_bindings_are_wrapped_and_restored():
    original = (crypto.prf, sim.prf, protocol.encode_fields, sim.forward)
    with tracer.Tracer():
        assert sim.prf is crypto.prf is not original[0]
        assert protocol.encode_fields is crypto.encode_fields
        assert sim.forward.__wrapped__ is original[3]
    assert (crypto.prf, sim.prf, protocol.encode_fields, sim.forward) == original


def test_tracing_keeps_trace_hash_and_self_times_cover_the_run():
    config = workloads.Workload("mixed_10k", 0, 200).config
    plain = sim.run(config).metrics.trace_hash
    wl, tr, metrics = traced("mixed_10k", 200)
    assert metrics.trace_hash == plain
    s = tr.summary()
    assert s.calls["sim.run"] == 1
    assert s.self_sum_ns == s.root_ns == s.incl_ns["sim.run"]


def test_sweep_round_passes_its_checks():
    units, failures, out = workloads.Workload("sweep_p", 3).round()
    assert failures == [] and len(out["rows"]) == workloads.SWEEP_STEPS


def test_sweep_checks_reject_bad_output():
    rows = [{"fraud_advantage": 1.0}] * (workloads.SWEEP_STEPS - 1) + [{"fraud_advantage": 2.0}]
    assert workloads.sweep_failures(0, json.dumps({"rows": rows}))
    assert workloads.sweep_failures(2, "")


def test_pinned_hashes_cover_the_simulator_workloads():
    assert set(json.loads(paths.PINNED.read_text())) == set(workloads.SIM_WORKLOADS)


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copytree(paths.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_p", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
