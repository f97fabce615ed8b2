"""Command-line interface.

Exit codes: 0 success, 1 runtime or protocol failure, 2 usage error.
All commands are deterministic given their flags (seeds included).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .envelope import MixedLengthsError, count_ones, read_bit_stream
from .ldp import BitCounts, PrivacyParams, estimate_frequencies
from .ledger import ContractPhase, EventLog, LogFormatError, verify_event_chain
from .protocol import FilterCriteria, ProtocolError, SurveyConfiguration
from .simulate import (
    ExperimentConfig,
    Mode,
    default_query,
    export_results,
    run_seeded_survey,
    run_trials,
    summarize,
    true_choices,
)


def _populations(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"populations must not repeat, got {text!r}")
    return values


class UsageError(ValueError):
    """A flag value the command refuses; `main` reports it and exits 2."""


def _set_flags(value, **flags: tuple[str, object]):
    """`value` with each field set in turn to its flag's value: a value the constructor refuses raises a
    UsageError that names the flag and the value."""
    for name, (flag, given) in flags.items():
        try:
            value = dataclasses.replace(value, **{name: given})
        except ValueError as exc:
            raise UsageError(f"{flag} {given}: {exc}") from None
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privmarket",
        description="Privacy-preserving survey marketplace: simulations, demo runs, ledger tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run accuracy experiments and export CSVs")
    p_sim.add_argument("--populations", type=_populations, default=(500, 1000, 5000, 10000),
                       help="comma-separated operator counts (default 500,1000,5000,10000)")
    p_sim.add_argument("--choices", type=int, default=ExperimentConfig.n_choices)
    p_sim.add_argument("--mean", type=float, default=ExperimentConfig.mean)
    p_sim.add_argument("--sd", type=float, default=ExperimentConfig.sd)
    p_sim.add_argument("--f", type=float, default=ExperimentConfig.privacy.f, help="per-bit flip probability")
    p_sim.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p_sim.add_argument("--trials", type=int, default=ExperimentConfig.trials)
    p_sim.add_argument("--out", required=True, help="output directory for CSV files")
    p_sim.add_argument("--mode", choices=[m.value for m in Mode], default=ExperimentConfig.mode.value)
    p_sim.set_defaults(handler=cmd_simulate)

    p_demo = sub.add_parser("demo", help="run one full survey end to end and dump the ledger")
    p_demo.add_argument("--operators", type=int, default=5)
    p_demo.add_argument("--nr", type=int, default=3, help="required responses")
    p_demo.add_argument("--fee", type=int, default=100)
    p_demo.add_argument("--f", type=float, default=0.5)
    p_demo.add_argument("--seed", type=int, default=7)
    p_demo.add_argument("--criteria-file", default=None,
                        help="JSON object: attribute -> list of allowed values")
    p_demo.add_argument("--trace-out", default=None,
                        help="directory for trace.txt, events.bin and events.txt")
    p_demo.set_defaults(handler=cmd_demo)

    p_inspect = sub.add_parser("inspect-ledger", help="verify and print a binary event log")
    p_inspect.add_argument("--log-file", required=True)
    p_inspect.set_defaults(handler=cmd_inspect_ledger)

    p_est = sub.add_parser("estimate", help="de-noise a file of bit-packed reports")
    p_est.add_argument("--reports-file", required=True)
    p_est.add_argument("--f", type=float, required=True)
    p_est.set_defaults(handler=cmd_estimate)

    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    # every configuration is checked before any trial runs
    base = _set_flags(
        ExperimentConfig(population=1, privacy=_set_flags(PrivacyParams(), f=("--f", args.f)), mode=Mode(args.mode)),
        n_choices=("--choices", args.choices),
        mean=("--mean", args.mean),
        sd=("--sd", args.sd),
        seed=("--seed", args.seed),
        trials=("--trials", args.trials),
    )
    configs = [_set_flags(base, population=("--populations", population)) for population in args.populations]
    Path(args.out).mkdir(parents=True, exist_ok=True)  # an unusable --out fails before any trial runs
    results = [result for config in configs for result in run_trials(config)]
    export_results(results, args.out)

    print(f"{'N':>8} {'trials':>7} {'mean_l1_norm':>14} {'sd_l1_norm':>12} {'seed':>10}")
    for population, trials, mean, sd, seed in summarize(results):
        print(f"{population:>8} {trials:>7} {mean:>14.6f} {sd:>12.6f} {seed:>10}")
    return 0


def _load_criteria(path: str | None) -> FilterCriteria:
    if path is None:
        return FilterCriteria.empty()
    try:
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError("expected a JSON object")
        return FilterCriteria(raw.items())  # which checks each value is a list of strings
    except (OSError, ValueError) as exc:
        raise ValueError(f"--criteria-file {path}: {exc}") from None


def cmd_demo(args: argparse.Namespace) -> int:
    # every flag is checked before the criteria file is read
    privacy = _set_flags(PrivacyParams(), f=("--f", args.f))
    experiment = _set_flags(
        ExperimentConfig(population=1, privacy=privacy), population=("--operators", args.operators), seed=("--seed", args.seed)
    )
    config = _set_flags(
        SurveyConfiguration(default_query(experiment.n_choices), FilterCriteria(), 1, 0, privacy),
        required_responses=("--nr", args.nr),
        fee=("--fee", args.fee),
    )
    config = dataclasses.replace(config, criteria=_load_criteria(args.criteria_file))
    if args.trace_out is not None:  # an unusable --trace-out fails before the survey runs
        Path(args.trace_out).mkdir(parents=True, exist_ok=True)
    try:
        outcome = run_seeded_survey(config, true_choices(experiment, 0), args.seed, 0)
    except ProtocolError as exc:
        for line in exc.trace:
            print(line)
        print(f"protocol failed: {exc}", file=sys.stderr)
        return 1

    for line in outcome.trace:
        print(line)
    print()
    dump = outcome.contract.log.text_dump()
    print(dump, end="")
    ok, bad = verify_event_chain(outcome.contract.log)
    print()
    print(f"final phase: {outcome.contract.phase.name}")
    print(f"chain: {'OK' if ok else f'BROKEN at {bad}'}")

    if args.trace_out is not None:
        out = Path(args.trace_out)
        (out / "trace.txt").write_text("\n".join(outcome.trace) + "\n")
        (out / "events.bin").write_bytes(outcome.contract.log.to_bytes())
        (out / "events.txt").write_text(dump)

    return 0 if ok and outcome.contract.phase == ContractPhase.SETTLED else 1


def cmd_inspect_ledger(args: argparse.Namespace) -> int:
    try:
        data = Path(args.log_file).read_bytes()
        log = EventLog.from_bytes(data)
    except OSError as exc:
        print(f"cannot read log file: {exc}", file=sys.stderr)
        return 1
    except LogFormatError as exc:
        print(f"corrupt log: {exc}", file=sys.stderr)
        return 1
    if not len(log):
        print("log file holds no events", file=sys.stderr)
        return 1
    print(log.text_dump(), end="")
    ok, bad = verify_event_chain(log)
    print(f"chain {'OK' if ok else f'BROKEN at {bad}'}")
    return 0 if ok else 1


def cmd_estimate(args: argparse.Namespace) -> int:
    privacy = _set_flags(PrivacyParams(), f=("--f", args.f))
    try:
        rows, n = read_bit_stream(Path(args.reports_file).read_bytes())
    except OSError as exc:
        print(f"cannot read reports file: {exc}", file=sys.stderr)
        return 1
    except MixedLengthsError:
        print("reports file mixes vector lengths", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"corrupt reports file: {exc}", file=sys.stderr)
        return 1
    if not len(rows):
        print("reports file holds no vectors", file=sys.stderr)
        return 1
    if n < 2:
        print(f"reports hold {n}-bit vectors; a query has at least 2 choices", file=sys.stderr)
        return 1
    counts = BitCounts(count_ones(rows, n), len(rows))
    estimate = estimate_frequencies(counts, privacy)
    print("choice_index,ones,estimated_raw,estimated_clamped")
    for j, ones in enumerate(counts.ones_per_position):
        print(f"{j},{int(ones)},{estimate.raw_estimates[j]!r},{estimate.clamped_estimates[j]!r}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ProtocolError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
