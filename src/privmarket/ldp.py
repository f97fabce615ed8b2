"""One-time RAPPOR encoding and statistical frequency recovery.

A respondent's single pick among n choices becomes a one-hot bit vector.
Each bit then plays an independent randomized-response game with flip
probability f: the true bit survives with probability 1 - f, otherwise it
is replaced by a fair coin (1 with probability f/2, 0 with f/2). No party
ever needs the un-noised vector; the aggregate per-position expectation
t*(1 - f) + N*f/2 is inverted by `estimate_frequencies` to recover the
choice histogram.

This is the basic one-time variant of RAPPOR (Erlingsson et al., CCS 2014)
applied directly to per-choice bits, without Bloom-filter encoding or a
second instantaneous randomization round.

The survey's terms live here too: `SurveyConfiguration` and its file, whose
exact bytes are hashed. This module imports nothing from the package.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence
from urllib.parse import quote, unquote

import numpy as np


def check_text(what: str, text: str) -> None:
    """Refuse, naming it, a string that UTF-8 cannot encode: one holding a lone surrogate."""
    if not text.isascii() and any("\ud800" <= c <= "\udfff" for c in text):
        raise ValueError(f"{what} {text!r} holds a lone surrogate, which UTF-8 cannot encode")


@dataclass(frozen=True)
class QuerySpec:
    """An ordered set of survey choice labels."""

    choices: tuple[str, ...]

    def __init__(self, choices: Sequence[str]):
        if isinstance(choices, str):  # each of its characters would be a choice
            raise ValueError("choices must be a sequence of labels, not one str")
        labels = tuple(choices)
        if len(labels) < 2:
            raise ValueError("a query needs at least 2 choices")
        if not all(isinstance(c, str) for c in labels):  # before the distinctness check, which hashes them
            raise ValueError("choice labels must be strings")
        if len(set(labels)) != len(labels):
            raise ValueError("choice labels must be pairwise distinct")
        for label in labels:
            check_text("choice label", label)
        object.__setattr__(self, "choices", labels)

    @property
    def n(self) -> int:
        return len(self.choices)


@dataclass(frozen=True)
class PrivacyParams:
    """Per-bit randomization probability f in [0, 1).

    f = 1 is rejected: the estimator divides by 1 - f. f = 0 means no
    randomization at all (useful as a correctness oracle).
    """

    f: float = 0.5

    def __post_init__(self):
        if isinstance(self.f, bool) or not isinstance(self.f, numbers.Real):  # False would mean no privacy at all
            raise ValueError(f"flip probability must be a real number, got {self.f!r}")
        f = float(self.f)
        if not (0.0 <= f < 1.0):
            raise ValueError(f"flip probability must satisfy 0 <= f < 1, got {self.f}")
        object.__setattr__(self, "f", f)


@dataclass(frozen=True)
class BitCounts:
    """Per-position counts of set bits over a batch of reports.

    Entries are real-valued so that exact expected counts (which are not
    integers in general) can be fed straight into the estimator; counts
    produced by `accumulate_counts` are whole numbers.
    """

    ones_per_position: tuple[float, ...]
    report_count: int

    def __init__(self, ones_per_position: Sequence[float], report_count: int):
        ones = tuple(float(v) for v in ones_per_position)
        count = int(report_count)
        if count < 0:
            raise ValueError("report count must be non-negative")
        if any(not 0 <= v <= count for v in ones):  # also true for NaN
            raise ValueError("per-position counts must lie in [0, report_count]")
        object.__setattr__(self, "ones_per_position", ones)
        object.__setattr__(self, "report_count", count)


@dataclass(frozen=True)
class FrequencyEstimate:
    """De-noised per-choice counts recovered from randomized reports.

    raw_estimates may be negative (sampling noise around small true
    counts); clamped_estimates floor them at zero for display purposes.
    Clamping biases the estimate, so analysis should prefer the raw values.
    """

    raw_estimates: tuple[float, ...]
    clamped_estimates: tuple[float, ...]
    params: PrivacyParams
    report_count: int


def randomize_batch(
    choices: Sequence[int] | np.ndarray, n: int, params: PrivacyParams, rng: np.random.Generator
) -> np.ndarray:
    """Encode and randomize a whole population as one (N, n) uint8 matrix.

    Consumes one (N, n) uniform draw u, filled row after row, and plays the
    per-bit game on it: u < f/2 -> 1, f/2 <= u < f -> 0, u >= f -> the
    one-hot bit. Row i thus depends only on choices[i] and the n doubles
    the generator yields after i * n of them. Computed as one comparison
    over the matrix and a second only at the N one-hot entries, with no
    (N, n) one-hot matrix.
    """
    index = np.asarray(choices, dtype=np.int64)
    if n < 2 or index.ndim != 1 or ((index < 0) | (index >= n)).any():
        raise ValueError(f"choices must be a flat sequence of indices in [0, {n}), n >= 2")
    u = rng.random((len(index), n))
    half = params.f / 2.0
    bits = u < half
    rows = np.arange(len(index))
    truth = u[rows, index]
    bits[rows, index] = (truth < half) | (truth >= params.f)
    return bits.view(np.uint8)


def accumulate_counts(reports: np.ndarray) -> BitCounts:
    """Sum reported bits per position over an (N, n) 0/1 matrix: one einsum into int64, faster than a column sum."""
    reports = np.asarray(reports)
    if reports.ndim != 2 or not len(reports):
        raise ValueError("need a non-empty (N, n) matrix of reports")
    if ((reports != 0) & (reports != 1)).any():
        raise ValueError("response bits must be 0 or 1")
    return BitCounts(np.einsum("ij->j", reports, dtype=np.int64, casting="unsafe"), len(reports))  # exact: 0/1 only


def estimate_frequencies(counts: BitCounts, params: PrivacyParams) -> FrequencyEstimate:
    """Invert the randomization channel to estimate true per-choice counts.

    For each position j the unbiased estimate is
    (ones[j] - N*f/2) / (1 - f): the expected count of a position with t
    true ones is t*(1 - f) + N*f/2.
    """
    f = params.f
    ones = np.asarray(counts.ones_per_position, dtype=np.float64)
    raw = (ones - counts.report_count * f / 2.0) / (1.0 - f)
    clamped = np.maximum(raw, 0.0)
    return FrequencyEstimate(
        raw_estimates=tuple(float(v) for v in raw),
        clamped_estimates=tuple(float(v) for v in clamped),
        params=params,
        report_count=counts.report_count,
    )


def epsilon_of(params: PrivacyParams, hamming_distance: int = 2) -> float:
    """Differential-privacy budget for inputs differing in `hamming_distance` bits.

    Per flipped input bit the worst-case likelihood ratio is
    (1 - f/2) / (f/2), so epsilon = d * ln((1 - f/2) / (f/2)). One-hot
    inputs differ in exactly 2 positions, hence the default d = 2.

    f = 0 provides no privacy; the sentinel math.inf is returned.
    """
    if hamming_distance < 1:
        raise ValueError("hamming distance must be at least 1")
    f = params.f
    if f == 0.0:
        return math.inf
    return hamming_distance * math.log((1.0 - f / 2.0) / (f / 2.0))


CONFIG_HEADER = "survey-config/1"


@dataclass(frozen=True)
class FilterCriteria:
    """Conjunctive attribute predicates; an empty list accepts everyone."""

    predicates: tuple[tuple[str, tuple[str, ...]], ...]

    def __init__(self, predicates: Iterable[tuple[str, Sequence[str]]] = ()):
        normalized: dict[str, tuple[str, ...]] = {}
        for attr, values in predicates:
            if not isinstance(attr, str):
                raise ValueError(f"criteria attribute names must be strings, got {attr!r}")
            if not isinstance(values, (list, tuple)) or not all(isinstance(v, str) for v in values):
                raise ValueError(f"criteria for {attr!r} must be a list of strings")
            if "" in values:  # it would render like no value at all
                raise ValueError(f"criteria for {attr!r} must not allow the empty string")
            for text in (attr, *values):
                check_text(f"criteria for {attr!r}:", text)
            if attr in normalized:
                raise ValueError("criteria attribute names must be distinct")
            normalized[attr] = tuple(sorted(set(values)))
        object.__setattr__(self, "predicates", tuple(normalized.items()))

    @classmethod
    def empty(cls) -> "FilterCriteria":
        return cls(())


@dataclass(frozen=True)
class SurveyConfiguration:
    query: QuerySpec
    criteria: FilterCriteria
    required_responses: int
    fee: int
    privacy: PrivacyParams

    def __post_init__(self):
        for name, kind in (("query", QuerySpec), ("criteria", FilterCriteria), ("privacy", PrivacyParams)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        for term, value in (("required response count", self.required_responses), ("fee", self.fee)):
            if type(value) is not int:  # a bool is an int, yet no count
                raise ValueError(f"{term} must be an int, got {value!r}")
            if value >= 1 << 64:  # the ledger records both as u64
                raise ValueError(f"{term} must be below 2**64")
        if self.required_responses < 1:
            raise ValueError("required response count must be at least 1")
        if self.fee < 0:
            raise ValueError("fee must be non-negative")


def render_config_file(config: SurveyConfiguration) -> bytes:
    """Canonical text form; identical configurations give identical bytes."""
    lines = [CONFIG_HEADER, f"choices {config.query.n}"]
    for i, label in enumerate(config.query.choices):
        lines.append(f"choice {i} {quote(label, safe='')}")
    lines.append(f"criteria {len(config.criteria.predicates)}")
    for attr, values in config.criteria.predicates:
        joined = ",".join(quote(v, safe="") for v in values)
        lines.append(f"require {quote(attr, safe='')} {joined}")
    lines.append(f"required-responses {config.required_responses}")
    lines.append(f"fee {config.fee}")
    lines.append(f"flip-probability {config.privacy.f!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_config_file(data: bytes) -> SurveyConfiguration:
    """Strict inverse of render_config_file: accepts exactly the bytes it renders.

    Fields are read by position; the final re-render rejects any other
    spelling (`+5`, `05`, `5_0`, `0.50`, `%63`), so equal surveys have equal digests.
    """
    lines = iter(data.decode("utf-8").split("\n")[1:])

    def field() -> str:
        return next(lines).partition(" ")[2]

    try:
        labels = [unquote(field().partition(" ")[2]) for _ in range(int(field()))]
        predicates = []
        for _ in range(int(field())):
            attr, _, values = field().partition(" ")
            predicates.append((unquote(attr), [unquote(v) for v in values.split(",")] if values else []))
        config = SurveyConfiguration(
            query=QuerySpec(labels),
            criteria=FilterCriteria(predicates),
            required_responses=int(field()),
            fee=int(field()),
            privacy=PrivacyParams(float(field())),
        )
    except StopIteration as exc:
        raise ValueError("configuration file truncated") from exc
    if render_config_file(config) != data:
        raise ValueError("configuration file is not in canonical form")
    return config
