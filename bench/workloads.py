"""The three benchmark workloads and the correctness gate of each.

A workload builds its inputs from the workload seed in `setup`, runs one
closed-loop round of calls into privmarket in `run_round` (the only part
that is timed), and checks that round's outputs in `check`, which may run
reference computations. `check` returns the number of failed operations;
each round attempts `ops_per_round` operations.

Why these workloads:

* ldp_sweep: the paper's statistics-only sweep. Nearly all of its time is
  per-respondent substreams and randomized response; it never touches
  envelope, ledger or protocol, so protocol-side changes should not move it.
* full_market: the write path. One settled N = 10k survey runs every layer
  once per operator (config parse, key derivation, AES-GCM, commitment
  index, hash-chained append).
* cli_audit: the read path through `cli.main`: parse and verify a survey's
  event log, detect a tampered one, de-noise a report file, and run a
  screened demo survey (nr < operators).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from privmarket import cli
from privmarket.ldp import PrivacyParams
from privmarket.ledger import ContractPhase, EventKind, EventLog, check_transfer_safety, verify_event_chain
from privmarket.simulate import ExperimentConfig, Mode, run_full_protocol_experiment, run_ldp_experiment

N_CHOICES = 20
MEAN = 10.0
SD = 2.0
F = 0.5
SWEEP_POPULATIONS = (500, 1_000, 5_000, 10_000)
MARKET_POPULATION = 10_000
ESTIMATE_REPORTS = 100_000
DEMO_OPERATORS = 300
DEMO_FLAGS = ("--operators", str(DEMO_OPERATORS), "--nr", "100")
DEMO_CRITERIA = {"region": ["NSW", "VIC"]}
SE_LIMIT = 6.0


def sweep_config(population: int, seed: int, mode: Mode = Mode.LDP_ONLY) -> ExperimentConfig:
    return ExperimentConfig(
        population=population,
        n_choices=N_CHOICES,
        mean=MEAN,
        sd=SD,
        privacy=PrivacyParams(F),
        seed=seed,
        mode=mode,
    )


def standard_error(population: int, f: float) -> float:
    """Per-bin standard error of the raw estimate around the actual count."""
    return math.sqrt(population * (f / 2) * (1 - f / 2)) / (1 - f)


def ldp_result_ok(result, population: int, f: float = F) -> bool:
    if sum(result.actual_counts) != population:
        return False
    limit = SE_LIMIT * standard_error(population, f)
    return all(abs(e - a) <= limit for e, a in zip(result.estimated_raw, result.actual_counts))


PHASE_AFTER = {
    EventKind.CREATED: ContractPhase.COLLECTING,
    EventKind.FILTER_RECORDED: ContractPhase.FILTERED,
    EventKind.DEPOSITED: ContractPhase.DEPOSITED,
    EventKind.REVEALED: ContractPhase.REVEALED,
    EventKind.PAID_OUT: ContractPhase.SETTLED,
    EventKind.ABORTED: ContractPhase.ABORTED,
}


def replay_money(log: EventLog) -> tuple[int, int, ContractPhase]:
    """Escrow balance, sum of balance deltas and final phase, rebuilt from the log."""
    escrow = 0
    deltas: Counter[bytes] = Counter()
    sysop = log.events[0].payload["sysop"]
    phase = ContractPhase.CONFIGURED
    for event in log:
        p = event.payload
        phase = PHASE_AFTER.get(event.kind, phase)
        if event.kind == EventKind.DEPOSITED:
            escrow += p["amount"]
            deltas[p["from"]] -= p["amount"]
        elif event.kind == EventKind.TRANSFERRED:
            escrow -= p["amount"]
            deltas[p["to"]] += p["amount"]
        elif event.kind == EventKind.PAID_OUT:
            blob = p["distribution"]
            for offset in range(0, len(blob), 28):
                deltas[blob[offset : offset + 20]] += int.from_bytes(blob[offset + 20 : offset + 28], "big")
            deltas[sysop] -= p["total"]
    return escrow, sum(deltas.values()), phase


def market_ok(result, log: EventLog, reference, population: int) -> bool:
    escrow, delta_sum, phase = replay_money(log)
    return (
        result.estimated_raw == reference.estimated_raw
        and result.actual_counts == reference.actual_counts
        and verify_event_chain(log) == (True, None)
        and phase == ContractPhase.SETTLED
        and len(log) == population + 6
        and escrow + delta_sum == 0
        and check_transfer_safety(log)
    )


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process with stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def inspect_ok(code: int, out: str, broken_at: int | None) -> bool:
    last_line = out.rstrip("\n").rpartition("\n")[2]
    if broken_at is None:
        return code == 0 and last_line == "chain OK"
    return code == 1 and last_line == f"chain BROKEN at {broken_at}"


def estimate_ok(code: int, out: str, ones: np.ndarray, reports: int, f: float = F) -> bool:
    lines = out.rstrip("\n").split("\n")
    if code != 0 or lines[0] != "choice_index,ones,estimated_raw,estimated_clamped":
        return False
    if len(lines) != len(ones) + 1:
        return False
    for j, line in enumerate(lines[1:]):
        index, got_ones, raw, clamped = line.split(",")
        want_raw = (float(ones[j]) - reports * f / 2.0) / (1.0 - f)
        if (int(index), int(got_ones), float(raw), float(clamped)) != (
            j, int(ones[j]), want_raw, max(want_raw, 0.0)
        ):
            return False
    return True


def demo_ok(code: int, out: str, events: bytes, reference_events: bytes) -> bool:
    lines = out.split("\n")
    return (
        code == 0
        and "final phase: SETTLED" in lines
        and "chain: OK" in lines
        and events == reference_events
    )


def draw_reports(seed: int, count: int) -> tuple[bytes, np.ndarray]:
    """Randomized one-hot reports in the documented report-file layout.

    Returns the file bytes and the per-position counts of set bits.
    """
    rng = np.random.default_rng([seed, count])
    choices = np.clip(np.rint(rng.normal(MEAN, SD, count)), 1, N_CHOICES).astype(np.int64) - 1
    truth = np.zeros((count, N_CHOICES), dtype=np.uint8)
    truth[np.arange(count), choices] = 1
    u = rng.random((count, N_CHOICES))
    bits = np.where(u < F / 2, 1, np.where(u < F, 0, truth)).astype(np.uint8)
    prefix = np.frombuffer(N_CHOICES.to_bytes(4, "big"), dtype=np.uint8)
    records = np.hstack([np.broadcast_to(prefix, (count, 4)), np.packbits(bits, axis=1)])
    return records.tobytes(), bits.sum(axis=0, dtype=np.int64)


def flip_last_record(data: bytes) -> bytes:
    """Flip the last payload byte of the final record (before prev/event hash)."""
    tampered = bytearray(data)
    tampered[-65] ^= 0x01
    return bytes(tampered)


class LdpSweep:
    name = "ldp_sweep"
    ops_per_round = len(SWEEP_POPULATIONS)
    items_per_round = sum(SWEEP_POPULATIONS)

    def setup(self, seed: int, work_dir: Path) -> None:
        self.configs = [sweep_config(n, seed) for n in SWEEP_POPULATIONS]

    def inputs(self) -> dict:
        return {"populations": list(SWEEP_POPULATIONS), "choices": N_CHOICES, "f": F}

    def run_round(self, trial: int):
        return [run_ldp_experiment(config, trial) for config in self.configs]

    def check(self, trial: int, results) -> int:
        return sum(
            not ldp_result_ok(result, config.population)
            for config, result in zip(self.configs, results)
        )


class FullMarket:
    name = "full_market"
    ops_per_round = 1
    items_per_round = MARKET_POPULATION

    def setup(self, seed: int, work_dir: Path) -> None:
        self.config = sweep_config(MARKET_POPULATION, seed, Mode.FULL_PROTOCOL)
        self.reference_config = sweep_config(MARKET_POPULATION, seed)

    def inputs(self) -> dict:
        return {"population": MARKET_POPULATION, "required_responses": MARKET_POPULATION,
                "fee": 10 * MARKET_POPULATION, "criteria": {}}

    def run_round(self, trial: int):
        return run_full_protocol_experiment(self.config, trial)

    def check(self, trial: int, output) -> int:
        result, log, _ = output
        reference = run_ldp_experiment(self.reference_config, trial)
        return int(not market_ok(result, log, reference, MARKET_POPULATION))


class CliAudit:
    name = "cli_audit"
    ops_per_round = 4

    def setup(self, seed: int, work_dir: Path) -> None:
        _, log, _ = run_full_protocol_experiment(
            sweep_config(MARKET_POPULATION, seed, Mode.FULL_PROTOCOL), 0
        )
        self.log_events = len(log)
        log_bytes = log.to_bytes()
        self.log_bytes = len(log_bytes)
        self.good_log = work_dir / "events.bin"
        self.tampered_log = work_dir / "events-tampered.bin"
        self.good_log.write_bytes(log_bytes)
        self.tampered_log.write_bytes(flip_last_record(log_bytes))

        reports, self.ones = draw_reports(seed, ESTIMATE_REPORTS)
        self.reports_file = work_dir / "reports.bin"
        self.reports_file.write_bytes(reports)

        criteria_file = work_dir / "criteria.json"
        criteria_file.write_text(json.dumps(DEMO_CRITERIA))
        self.demo_dir = work_dir / "demo"
        self.demo_argv = ["demo", *DEMO_FLAGS, "--seed", str(seed),
                          "--criteria-file", str(criteria_file), "--trace-out", str(self.demo_dir)]
        self.demo_events: bytes | None = None

    @property
    def items_per_round(self) -> int:
        return 2 * self.log_events + ESTIMATE_REPORTS + DEMO_OPERATORS

    def inputs(self) -> dict:
        return {"log_events": self.log_events, "log_bytes": self.log_bytes,
                "reports": ESTIMATE_REPORTS, "report_bits": N_CHOICES,
                "demo_flags": [*DEMO_FLAGS, "--criteria-file", json.dumps(DEMO_CRITERIA)]}

    def run_round(self, trial: int):
        return (
            run_cli(["inspect-ledger", "--log-file", str(self.good_log)]),
            run_cli(["inspect-ledger", "--log-file", str(self.tampered_log)]),
            run_cli(["estimate", "--reports-file", str(self.reports_file), "--f", repr(F)]),
            run_cli(self.demo_argv),
        )

    def check(self, trial: int, output) -> int:
        good, tampered, estimate, demo = output
        events = (self.demo_dir / "events.bin").read_bytes()
        if self.demo_events is None:
            self.demo_events = events
        return [
            inspect_ok(*good, broken_at=None),
            inspect_ok(*tampered, broken_at=self.log_events - 1),
            estimate_ok(*estimate, self.ones, ESTIMATE_REPORTS),
            demo_ok(*demo, events, self.demo_events),
        ].count(False)


WORKLOADS = {w.name: w for w in (LdpSweep, FullMarket, CliAudit)}
