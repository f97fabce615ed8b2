"""privmarket benchmark: one workload per process, closed loop, one thread.

    python3 bench/run.py --workload full_market --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --quick        # one round of every workload

Run from a privmarket checkout; the program is imported from its `src/`.
After set-up, rounds run back to back (round r uses trial index r) until
their summed wall time reaches --seconds. Only the calls into the program
are timed; every round's outputs are then checked outside the timed window.
The process moves between the allowed CPUs every CPU_SLICE_S seconds (see
`rotating_cpus`). HELD_OUT_SEED is a seed kept out of tuning, for
confirming a claimed gain on inputs it was not developed against.

--trace 0 reports the end-to-end metrics: items_per_s, round_s (median),
setup_s (import time plus the median of SETUP_REPEATS set-ups, each one
input build and one untimed warm-up round) and peak_rss_mb. The error rate
is `failed / attempted` in the result line.

--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics from the traced ones (see tracer.py); the spans are written to
.bench_work/spans/. The last stdout line is the JSON result, and a run that
prints it exits 0 (correctness is in its `correct` and `failed` fields);
--quick exits 1 if any workload failed a check.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import contextlib
import functools
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
MIN_ROUNDS = 3
WARMUP_TRIAL = 1_000_000
CPU_SLICE_S = 0.1
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
HELD_OUT_SEED = 104_729

END_TO_END_UNITS = {"items_per_s": "1/s", "round_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@functools.cache
def import_program():
    """Import privmarket from this checkout's src/ and the benchmark modules.

    Returns the workloads and tracer modules and the seconds from process
    start until the imports finished.
    """
    if not (SRC / "privmarket" / "__init__.py").is_file():
        raise SystemExit(f"error: no privmarket package under {SRC}; run from a privmarket checkout")
    sys.path.insert(0, str(SRC))
    import privmarket

    if SRC.resolve() not in Path(privmarket.__file__).resolve().parents:
        raise SystemExit(f"error: imported privmarket from {privmarket.__file__}, not from {SRC}")
    import tracer
    import workloads

    return workloads, tracer, time.perf_counter() - PROCESS_START


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    ref_file = ROOT / ".git" / name
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(workload, seed: int) -> dict:
    import cryptography
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "nproc": len(ALLOWED_CPUS),
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "inputs": workload.inputs(),
    }


@contextlib.contextmanager
def rotating_cpus():
    """Move this process to the next allowed CPU every CPU_SLICE_S seconds.

    The CPUs of a shared virtual machine slow down independently of each
    other (by up to a quarter, for minutes at a time), so a process that
    stays on one CPU measures that CPU's luck. Rotating spreads every round
    over all allowed CPUs. The process still runs one thread.
    """
    cpus = itertools.cycle(ALLOWED_CPUS)

    def move(signum, frame):
        try:
            os.sched_setaffinity(0, {next(cpus)})
        except OSError:
            pass  # a CPU taken away mid-run; the next tick tries the next one

    previous = signal.signal(signal.SIGALRM, move)
    signal.setitimer(signal.ITIMER_REAL, CPU_SLICE_S, CPU_SLICE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        os.sched_setaffinity(0, ALLOWED_CPUS)


def checked_round(workload, trial: int, call) -> tuple[float, int]:
    """Run one timed round through `call`, then check it outside the timing.

    Returns (seconds, failed operations); a round that raises counts all
    of its operations as failed.
    """
    started = time.perf_counter()
    try:
        output = call(workload.run_round, trial)
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - started, workload.ops_per_round
    seconds = time.perf_counter() - started
    try:
        return seconds, workload.check(trial, output)
    except Exception:
        traceback.print_exc()
        return seconds, workload.ops_per_round


def untraced(fn, *args):
    return fn(*args)


def run(name: str, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS, min_rounds: int = MIN_ROUNDS) -> dict:
    """Set up and measure one workload; returns the result object."""
    workloads, tracer_mod, import_s = import_program()
    workload = workloads.WORKLOADS[name]()
    if trace:
        setup_repeats = 1
    work_dir = WORK / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    try:
        setups = []
        for k in range(setup_repeats):
            started = time.perf_counter()
            workload.setup(seed, work_dir)
            built_s = time.perf_counter() - started
            warmup_s, warmup_failed = checked_round(workload, WARMUP_TRIAL + k, untraced)
            setups.append(built_s + warmup_s)
            attempted += workload.ops_per_round
            failed += warmup_failed

        tracer = tracer_mod.Tracer() if trace else None
        calls = (untraced, tracer.run_round) if trace else (untraced,)
        times: tuple[list[float], ...] = tuple([] for _ in calls)
        trial = 0
        while sum(map(sum, times)) < seconds or len(times[0]) < min_rounds:
            for call, series in zip(calls, times):
                round_s, round_failed = checked_round(workload, trial, call)
                series.append(round_s)
                attempted += workload.ops_per_round
                failed += round_failed
                trial += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    plain = times[0]
    context = provenance(workload, seed)
    context["rounds"] = len(plain)
    if trace:
        traced = times[1]
        context["traced_rounds"] = len(traced)
        metrics = tracer.summary(statistics.median(plain), statistics.median(traced))
        units = tracer_mod.LAYER_METRICS
        spans_file = WORK / "spans" / f"{name}-seed{seed}.npz"
        tracer.save(spans_file)
        context["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        context["setup_repeats"] = setup_repeats
        metrics = {
            "items_per_s": workload.items_per_round * len(plain) / sum(plain),
            "round_s": statistics.median(plain),
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    return {
        "workload": name,
        "context": context,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def report(result: dict) -> None:
    """Human-readable lines, then the JSON result as the last stdout line."""
    print(f"workload {result['workload']}")
    print("context " + json.dumps(result["context"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name} {metric['value']!r} {metric['unit']}")
    print(f"  error_rate {result['failed'] / result['attempted']!r} ratio")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("ldp_sweep", "full_market", "cli_audit"))
    parser.add_argument("--seed", type=nonneg_int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one set-up and one round of every workload")
    args = parser.parse_args(argv)
    if args.workload is None and not args.quick:
        parser.error("--workload is required unless --quick is given")
    with rotating_cpus():
        if not args.quick:
            report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
            return 0
        results = [run(name, args.seed, 0.0, bool(args.trace), setup_repeats=1, min_rounds=1)
                   for name in ("ldp_sweep", "full_market", "cli_audit")]
    for result in results:
        report(result)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
