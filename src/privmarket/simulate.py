"""Accuracy experiments: actual vs estimated choice distributions.

Populations of simulated operators answer one n-choice query; true choices
are drawn from a discretized normal distribution, randomized per operator,
then aggregated and de-noised. Two modes share operator-level randomness:
`ldp_only` exercises just the encoding pipeline, `full_protocol` runs the
whole marketplace (ledger, escrow, delivery) and must land on the exact
same estimate.

Random stream discipline: one master seed, substreams keyed by (trial,
slot). Slot 0 samples the true choices. Slot 1 randomizes the reports: one
(N, n) uniform draw, row i for respondent i, in both modes. Slot 2 covers
protocol infrastructure: one 20N-byte block of addresses, key material,
then one 12N-byte block of cipher nonces, 12 bytes per operator in arrival
order. Generator.bytes of a multiple of 4 bytes consumes whole 32-bit
words of one buffered stream, so each block equals one draw per operator.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .ldp import FrequencyEstimate, PrivacyParams, QuerySpec, accumulate_counts, estimate_frequencies, randomize_batch
from .ledger import ADDRESS_LEN, EventLog
from .protocol import FilterCriteria, Population, SurveyConfiguration, SurveyOutcome, run_survey

CHOICES_SLOT, REPORTS_SLOT, INFRA_SLOT = 0, 1, 2
REGIONS = ("NSW", "VIC", "QLD")


class Mode(enum.Enum):
    LDP_ONLY = "ldp_only"
    FULL_PROTOCOL = "full_protocol"


@dataclass(frozen=True)
class ExperimentConfig:
    population: int
    n_choices: int = 20
    mean: float = 10.0
    sd: float = 2.0
    privacy: PrivacyParams = PrivacyParams(0.5)
    seed: int = 0
    trials: int = 1
    mode: Mode = Mode.LDP_ONLY

    def __post_init__(self):
        for name in ("population", "n_choices", "seed", "trials"):
            if type(getattr(self, name)) is not int:  # a bool is an int, yet no count
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        for name, kind in (("privacy", PrivacyParams), ("mode", Mode)):
            if not isinstance(getattr(self, name), kind):  # run_trials runs any other mode as FULL_PROTOCOL
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        if self.population < 1:
            raise ValueError("population must be at least 1")
        if self.n_choices < 2:
            raise ValueError("need at least 2 choices")
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not 0 < self.sd < math.inf:  # also false for NaN
            raise ValueError(f"standard deviation must be finite and positive, got {self.sd}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class ErrorMetrics:
    l1: float
    l1_normalized: float


@dataclass
class ExperimentResult:
    population: int
    trial: int
    seed: int
    actual_counts: tuple[int, ...]
    estimated_raw: tuple[float, ...]
    estimated_clamped: tuple[float, ...]
    metrics: ErrorMetrics


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one (trial, slot) coordinate."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def sample_true_choices(
    population: int, mean: float, sd: float, n_choices: int, rng: np.random.Generator
) -> np.ndarray:
    """Normal draws rounded to the nearest choice, clamped into [1, n], 0-based."""
    draws = rng.normal(mean, sd, size=population)
    return (np.clip(np.rint(draws), 1, n_choices) - 1).astype(np.int64)


def compute_error_metrics(actual: Sequence[float], estimated_raw: Sequence[float]) -> ErrorMetrics:
    if len(actual) != len(estimated_raw):
        raise ValueError("actual and estimated lengths differ")
    a = np.asarray(actual, dtype=np.float64)
    e = np.asarray(estimated_raw, dtype=np.float64)
    l1 = float(np.abs(a - e).sum())
    total = float(a.sum())
    return ErrorMetrics(
        l1=l1,
        l1_normalized=l1 / (2.0 * total) if total > 0 else 0.0,
    )


def true_choices(config: ExperimentConfig, trial: int) -> np.ndarray:
    """The population's 0-based true choices in one trial, from its CHOICES_SLOT substream."""
    return sample_true_choices(
        config.population, config.mean, config.sd, config.n_choices,
        substream(config.seed, trial, CHOICES_SLOT),
    )


def _result(
    config: ExperimentConfig, trial: int, choices: np.ndarray, estimate: FrequencyEstimate
) -> ExperimentResult:
    actual = np.bincount(choices, minlength=config.n_choices)
    return ExperimentResult(
        population=config.population,
        trial=trial,
        seed=config.seed,
        actual_counts=tuple(int(c) for c in actual),
        estimated_raw=estimate.raw_estimates,
        estimated_clamped=estimate.clamped_estimates,
        metrics=compute_error_metrics(actual, estimate.raw_estimates),
    )


def run_ldp_experiment(config: ExperimentConfig, trial: int = 0) -> ExperimentResult:
    """Sample, randomize and estimate, without any protocol machinery."""
    choices = true_choices(config, trial)
    reports = randomize_batch(
        choices, config.n_choices, config.privacy, substream(config.seed, trial, REPORTS_SLOT)
    )
    estimate = estimate_frequencies(accumulate_counts(reports), config.privacy)
    return _result(config, trial, choices, estimate)


def default_query(n_choices: int) -> QuerySpec:
    return QuerySpec(tuple(f"choice-{j:02d}" for j in range(n_choices)))


def distinct_addresses(count: int, rng: np.random.Generator) -> bytes:
    """Draw addresses until `count` are distinct: one block of `count`, then one per repeat, returned as one block."""
    block = rng.bytes(ADDRESS_LEN * count) if count > 0 else b""  # bytes(0) still consumes a 32-bit word
    raws = dict.fromkeys(block[i : i + ADDRESS_LEN] for i in range(0, len(block), ADDRESS_LEN))
    while len(raws) < count:
        raws.setdefault(rng.bytes(ADDRESS_LEN))
    return b"".join(raws)


def run_seeded_survey(
    config: SurveyConfiguration, choices: Sequence[int], seed: int, trial: int
) -> SurveyOutcome:
    """One honest survey on the (seed, trial) streams of the module docstring.

    Operator i ("op-" and i in five digits) answers choices[i]; its "region" attribute cycles through REGIONS.
    """
    infra_rng = substream(seed, trial, INFRA_SLOT)
    count = len(choices)
    population = Population(
        ("op-%05d " * count % tuple(range(count))).split(),  # one format call for every id
        distinct_addresses(count, infra_rng),
        np.asarray(choices, np.int64),
        {"region": list(itertools.islice(itertools.cycle(REGIONS), count))},
    )
    report_rng = substream(seed, trial, REPORTS_SLOT)
    return run_survey(config, population, operator_rngs=[report_rng] * count, infra_rng=infra_rng)


def run_full_protocol_experiment(
    config: ExperimentConfig, trial: int = 0
) -> tuple[ExperimentResult, EventLog, Sequence[str]]:
    """End-to-end marketplace run; the estimate matches run_ldp_experiment
    for the same seed and trial bit for bit. The trace is returned unrendered."""
    choices = true_choices(config, trial)
    survey_config = SurveyConfiguration(
        query=default_query(config.n_choices),
        criteria=FilterCriteria.empty(),
        required_responses=config.population,
        fee=10 * config.population,
        privacy=config.privacy,
    )
    outcome = run_seeded_survey(survey_config, choices, config.seed, trial)
    estimate = outcome.aggregation.estimate
    result = _result(config, trial, choices, estimate)
    return result, outcome.contract.log, outcome.trace


def run_trials(config: ExperimentConfig) -> list[ExperimentResult]:
    """All trials of one configuration, in trial order."""
    results = []
    for trial in range(config.trials):
        if config.mode == Mode.LDP_ONLY:
            results.append(run_ldp_experiment(config, trial))
        else:
            result, _, _ = run_full_protocol_experiment(config, trial)
            results.append(result)
    return results


RESULT_HEADER = "choice_index,actual_count,estimated_raw,estimated_clamped"
SUMMARY_HEADER = "N,trials,mean_l1_normalized,sd_l1_normalized,seed"


def summarize(results: Sequence[ExperimentResult]) -> list[tuple[int, int, float, float, int]]:
    """Per population, ascending: N, trials, mean and sd of l1_normalized, seed."""
    rows = []
    for population in sorted({r.population for r in results}):
        group = [r for r in results if r.population == population]
        values = [r.metrics.l1_normalized for r in group]
        sd = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        rows.append((population, len(group), float(np.mean(values)), sd, group[0].seed))
    return rows


def result_filename(result: ExperimentResult) -> str:
    return f"N{result.population}_trial{result.trial:03d}.csv"


def export_results(results: Sequence[ExperimentResult], out_dir: str | Path) -> list[Path]:
    """One CSV per (population, trial) plus a per-population summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for result in results:
        lines = [RESULT_HEADER]
        for j, count in enumerate(result.actual_counts):
            lines.append(
                f"{j},{count},{result.estimated_raw[j]!r},{result.estimated_clamped[j]!r}"
            )
        path = out / result_filename(result)
        path.write_text("\n".join(lines) + "\n")
        written.append(path)

    lines = [SUMMARY_HEADER, *(",".join(map(repr, row)) for row in summarize(results))]
    summary = out / "summary.csv"
    summary.write_text("\n".join(lines) + "\n")
    written.append(summary)
    return written
