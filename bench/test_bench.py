"""Tests of the benchmark itself: quick runs, tracing, and gates that must fail.

Run with `python -m pytest bench` from the repository root.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

workloads, tracer, _ = run.import_program()

from privmarket import simulate  # noqa: E402  (importable once src/ is on the path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    """A settled 20-operator survey's log, written good and tampered."""
    config = workloads.sweep_config(20, 5, workloads.Mode.FULL_PROTOCOL)
    _, log, _ = simulate.run_full_protocol_experiment(config, 0)
    data = log.to_bytes()
    directory = tmp_path_factory.mktemp("log")
    (directory / "good.bin").write_bytes(data)
    (directory / "tampered.bin").write_bytes(workloads.flip_last_record(data))
    return directory, len(log)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_quick_round_is_correct(name):
    result = run.run(name, seed=3, seconds=0.0, trace=False, setup_repeats=1, min_rounds=1)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] == 2 * workloads.WORKLOADS[name].ops_per_round
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_every_metric_with_its_unit():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.LAYER_METRICS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_traced_sweep_counts_and_restores_the_program():
    original = simulate.substream
    result = run.run("ldp_sweep", seed=3, seconds=0.0, trace=True, min_rounds=1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == list(tracer.LAYER_METRICS)
    assert metrics["simulate.substream.calls"] == 16_504
    assert metrics["ldp.randomize_response.calls"] == 16_500
    assert metrics["envelope.digest.calls"] == 0
    assert simulate.substream is original


def test_traced_survey_counts_and_self_time():
    t = tracer.Tracer()
    config = workloads.sweep_config(50, 1, workloads.Mode.FULL_PROTOCOL)
    for trial in range(2):
        t.run_round(simulate.run_full_protocol_experiment, config, trial)
    metrics = t.summary(1.0, 1.0)
    assert metrics["protocol.parse_config_file.calls"] == 50
    assert metrics["envelope.hmac_derive.calls"] == 2 * 50 + 2
    assert metrics["envelope.digest.calls"] == 4 * 50 + 12
    assert metrics["ledger.events_appended"] == 50 + 6
    assert metrics["simulate.substreams_per_trial"] == 50 + 2
    assert metrics["protocol.delivery_accept_ratio"] == 1.0
    _, self_ns = t.self_ns()
    assert (self_ns >= 0).all()
    assert not any(hasattr(getattr(m, "digest", None), "__wrapped__") for m in tracer.MODULES)


def test_ldp_gate_rejects_a_bad_estimate():
    config = workloads.sweep_config(500, 2)
    result = simulate.run_ldp_experiment(config, 0)
    assert workloads.ldp_result_ok(result, 500)
    far = list(result.estimated_raw)
    far[3] += 6.01 * workloads.standard_error(500, workloads.F)
    result.estimated_raw = tuple(far)
    assert not workloads.ldp_result_ok(result, 500)
    assert not workloads.ldp_result_ok(simulate.run_ldp_experiment(config, 0), 501)


def test_market_gate_rejects_another_trials_reference():
    config = workloads.sweep_config(30, 4, workloads.Mode.FULL_PROTOCOL)
    result, log, _ = simulate.run_full_protocol_experiment(config, 0)
    reference = simulate.run_ldp_experiment(workloads.sweep_config(30, 4), 0)
    assert workloads.market_ok(result, log, reference, 30)
    other = simulate.run_ldp_experiment(workloads.sweep_config(30, 4), 1)
    assert not workloads.market_ok(result, log, other, 30)
    assert not workloads.market_ok(result, log, reference, 31)


def test_inspect_gate_fails_on_an_untampered_log(small_log):
    directory, events = small_log
    good = workloads.run_cli(["inspect-ledger", "--log-file", str(directory / "good.bin")])
    tampered = workloads.run_cli(["inspect-ledger", "--log-file", str(directory / "tampered.bin")])
    assert workloads.inspect_ok(*good, broken_at=None)
    assert workloads.inspect_ok(*tampered, broken_at=events - 1)
    assert not workloads.inspect_ok(*good, broken_at=events - 1)
    assert not workloads.inspect_ok(*tampered, broken_at=None)


def test_estimate_gate_fails_on_a_wrong_f(tmp_path):
    data, ones = workloads.draw_reports(8, 1_000)
    reports = tmp_path / "reports.bin"
    reports.write_bytes(data)
    right = workloads.run_cli(["estimate", "--reports-file", str(reports), "--f", "0.5"])
    wrong = workloads.run_cli(["estimate", "--reports-file", str(reports), "--f", "0.25"])
    assert workloads.estimate_ok(*right, ones, 1_000)
    assert not workloads.estimate_ok(*wrong, ones, 1_000)


def test_demo_gate_fails_on_changed_events(tmp_path):
    argv = ["demo", "--operators", "6", "--nr", "2", "--trace-out", str(tmp_path)]
    code, out = workloads.run_cli(argv)
    events = (tmp_path / "events.bin").read_bytes()
    assert workloads.demo_ok(code, out, events, events)
    assert not workloads.demo_ok(code, out, events, events[:-1])


def test_without_src_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ldp_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
