import collections
import hashlib
import time

import numpy as np
import pytest

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from privmarket import envelope, simulate
from privmarket.ldp import PrivacyParams
from privmarket.ledger import Address, verify_event_chain
from privmarket.protocol import FilterCriteria, OperatorProfile, Population, SurveyConfiguration, run_survey
from privmarket.simulate import (
    CHOICES_SLOT,
    INFRA_SLOT,
    REGIONS,
    REPORTS_SLOT,
    ExperimentConfig,
    compute_error_metrics,
    default_query,
    distinct_addresses,
    export_results,
    result_filename,
    run_full_protocol_experiment,
    run_ldp_experiment,
    run_trials,
    sample_true_choices,
    substream,
)


class TestSampling:
    def test_degenerate_sd_collapses_to_mean(self):
        idx = sample_true_choices(100, 10.0, 1e-9, 20, np.random.default_rng(0))
        assert np.all(idx == 9)

    def test_defaults_mean_close_to_ten(self):
        idx = sample_true_choices(10_000, 10.0, 2.0, 20, np.random.default_rng(1))
        assert abs(float(np.mean(idx + 1)) - 10.0) < 0.1

    def test_output_range(self):
        idx = sample_true_choices(5_000, 10.0, 30.0, 20, np.random.default_rng(2))
        assert idx.min() >= 0 and idx.max() <= 19


class TestMetrics:
    def test_identical_inputs_give_zero(self):
        m = compute_error_metrics([5, 5, 5], [5.0, 5.0, 5.0])
        assert (m.l1, m.l1_normalized) == (0.0, 0.0)

    def test_hand_example(self):
        m = compute_error_metrics([10, 0], [8.0, 2.0])
        assert m.l1 == 4.0
        assert m.l1_normalized == pytest.approx(0.2)

    def test_permutation_invariant(self):
        a, e = [3, 9, 1], [2.0, 10.0, 4.0]
        m1 = compute_error_metrics(a, e)
        m2 = compute_error_metrics(a[::-1], e[::-1])
        assert m1 == m2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_error_metrics([1, 2], [1.0])


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(population=0)
        with pytest.raises(ValueError):
            ExperimentConfig(population=10, n_choices=1)
        for sd in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ExperimentConfig(population=10, sd=sd)
        for mean in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                ExperimentConfig(population=10, mean=mean)
        with pytest.raises(ValueError):
            ExperimentConfig(population=10, trials=0)

    @pytest.mark.parametrize("field, value", [
        ("population", 2.5), ("population", True), ("n_choices", 20.0), ("seed", 1.5), ("trials", True),
    ])
    def test_a_count_that_is_not_an_int_is_refused(self, field, value):
        # a bool is an int, yet no count; a float would reach numpy or range() mid-run
        with pytest.raises(ValueError, match=f"^{field} must be an int, got {value!r}$"):
            ExperimentConfig(**{"population": 10, field: value})

    def test_a_mode_that_is_not_a_mode_is_refused(self):
        # a string never equals Mode.LDP_ONLY, so run_trials would run the full protocol for "ldp_only"
        with pytest.raises(ValueError, match="^mode must be a Mode, got 'ldp_only'$"):
            ExperimentConfig(population=20, mode="ldp_only")

    def test_privacy_that_is_not_privacy_params_is_refused(self):
        with pytest.raises(ValueError, match="^privacy must be a PrivacyParams, got 0.5$"):
            ExperimentConfig(population=20, privacy=0.5)


class TestLdpExperiment:
    def test_no_noise_is_exact(self):
        config = ExperimentConfig(population=400, privacy=PrivacyParams(0.0), seed=5)
        result = run_ldp_experiment(config)
        assert result.estimated_raw == tuple(float(c) for c in result.actual_counts)
        assert result.metrics.l1 == 0.0

    def test_histogram_conservation(self):
        config = ExperimentConfig(population=777, seed=6)
        result = run_ldp_experiment(config)
        assert sum(result.actual_counts) == 777

    def test_seed_determinism(self):
        config = ExperimentConfig(population=300, seed=8)
        r1 = run_ldp_experiment(config, trial=2)
        r2 = run_ldp_experiment(config, trial=2)
        assert r1.estimated_raw == r2.estimated_raw
        assert r1.actual_counts == r2.actual_counts

    def test_trials_differ_from_each_other(self):
        config = ExperimentConfig(population=300, seed=8, trials=2)
        results = run_trials(config)
        assert results[0].estimated_raw != results[1].estimated_raw

    def test_error_shrinks_with_population(self):
        small = ExperimentConfig(population=500, seed=21, trials=6)
        large = ExperimentConfig(population=5000, seed=21, trials=6)
        mean_small = np.mean([r.metrics.l1_normalized for r in run_trials(small)])
        mean_large = np.mean([r.metrics.l1_normalized for r in run_trials(large)])
        assert mean_large < mean_small


class TestFullProtocolExperiment:
    def test_estimate_identical_to_ldp_only(self):
        config = ExperimentConfig(population=120, seed=17, privacy=PrivacyParams(0.5))
        ldp = run_ldp_experiment(config)
        full, log, trace = run_full_protocol_experiment(config)
        assert full.estimated_raw == ldp.estimated_raw
        assert full.actual_counts == ldp.actual_counts
        assert verify_event_chain(log) == (True, None)
        assert trace._lines is None  # nothing rendered until read
        assert trace and list(trace) == list(trace)

    def test_shared_operator_generator_matches_ldp_only(self):
        # run_survey with one generator repeated for every operator consumes
        # it in arrival order, so operator i gets row i of the batch draw
        config = ExperimentConfig(population=200, seed=23)
        choices = sample_true_choices(200, 10.0, 2.0, 20, substream(23, 0, CHOICES_SLOT))
        rng = np.random.default_rng(1)
        profiles = [
            OperatorProfile(f"op-{i}", (Address(rng.bytes(20)),), {}, int(c))
            for i, c in enumerate(choices)
        ]
        survey = SurveyConfiguration(
            default_query(20), FilterCriteria.empty(), 200, 2000, config.privacy
        )
        report_rng = substream(23, 0, REPORTS_SLOT)
        outcome = run_survey(
            survey, profiles, operator_rngs=[report_rng] * 200, infra_rng=np.random.default_rng(2)
        )
        assert outcome.aggregation.estimate.raw_estimates == run_ldp_experiment(config).estimated_raw

    def test_surveys_in_one_process_keep_their_own_config_and_key(self):
        # operators share a parsed config and a session key per survey, never across surveys
        configs = [
            ExperimentConfig(population=150, seed=41, privacy=PrivacyParams(0.5)),
            ExperimentConfig(population=150, seed=42, privacy=PrivacyParams(0.25)),
        ]
        for config in configs + configs[::-1]:
            full, _, _ = run_full_protocol_experiment(config)
            assert full.estimated_raw == run_ldp_experiment(config).estimated_raw

    def test_cipher_nonces_are_distinct(self, monkeypatch):
        # every operator encrypts under the one session key, so a repeated
        # AES-GCM nonce would break confidentiality; the nonces are recorded
        # where they reach AES-GCM, whichever envelope call seals them
        nonces = []

        class RecordingAESGCM:
            def __init__(self, key):
                self._aead = AESGCM(key)
                self.decrypt = self._aead.decrypt

            def encrypt(self, nonce, data, associated_data):
                nonces.append(bytes(nonce))
                return self._aead.encrypt(nonce, data, associated_data)

        monkeypatch.setattr(envelope, "AESGCM", RecordingAESGCM)
        run_full_protocol_experiment(ExperimentConfig(population=1000, seed=31))
        assert len(nonces) == 1000
        assert len(set(nonces)) == 1000

    def test_10k_run_matches_ldp_only_and_its_pinned_log(self):
        # the paper-scale run, pinned to the event log of the version that
        # drew every operator's report, nonce and address one by one
        started = time.perf_counter()
        config = ExperimentConfig(population=10_000, seed=104729)
        full, log, _ = run_full_protocol_experiment(config)
        assert time.perf_counter() - started < 10.0
        ldp = run_ldp_experiment(config)
        assert full.estimated_raw == ldp.estimated_raw
        assert full.actual_counts == ldp.actual_counts
        assert verify_event_chain(log) == (True, None)
        assert hashlib.sha256(log.to_bytes()).hexdigest() == (
            "064d8f126d4866929f93f326a1669eaa3ffa9d778c5b922f9cf6158788c3be91"
        )

    def test_no_noise_end_to_end(self):
        config = ExperimentConfig(population=50, seed=3, privacy=PrivacyParams(0.0))
        result, log, _ = run_full_protocol_experiment(config)
        assert result.estimated_raw == tuple(float(c) for c in result.actual_counts)
        assert verify_event_chain(log) == (True, None)


class TestExport:
    def test_file_shape(self, tmp_path):
        config = ExperimentConfig(population=100, seed=4)
        result = run_ldp_experiment(config)
        paths = export_results([result], tmp_path)
        per_trial = tmp_path / result_filename(result)
        assert per_trial in paths
        lines = per_trial.read_text().splitlines()
        assert lines[0] == "choice_index,actual_count,estimated_raw,estimated_clamped"
        assert len(lines) == 21

    def test_reexport_is_byte_identical(self, tmp_path):
        config = ExperimentConfig(population=100, seed=4)
        result = run_ldp_experiment(config)
        export_results([result], tmp_path / "a")
        export_results([result], tmp_path / "b")
        name = result_filename(result)
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert (tmp_path / "a" / "summary.csv").read_bytes() == (tmp_path / "b" / "summary.csv").read_bytes()

    def test_summary_one_row_per_population(self, tmp_path):
        results = []
        for population in (100, 200):
            config = ExperimentConfig(population=population, seed=4, trials=2)
            results.extend(run_trials(config))
        export_results(results, tmp_path)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0] == "N,trials,mean_l1_normalized,sd_l1_normalized,seed"
        assert len(lines) == 3
        assert lines[1].startswith("100,2,")
        assert lines[2].startswith("200,2,")


@pytest.mark.parametrize("population", [1, 10, 100])
def test_a_survey_builds_the_same_value_objects_at_every_population(population, monkeypatch):
    # every FixedBytes runs its one checked constructor, so each build is counted: 15 per survey, none per operator
    built = collections.Counter()
    post_init = envelope.FixedBytes.__post_init__
    monkeypatch.setattr(envelope.FixedBytes, "__post_init__",
                        lambda self: built.update([type(self).__name__]) or post_init(self))
    run_full_protocol_experiment(ExperimentConfig(population=population, seed=7))
    assert built == {"Address": 2, "PreSharedKey": 1, "Nonce": 2, "Secret": 4, "SessionKey": 2, "Digest": 4}


def test_substreams_are_independent_and_reproducible():
    a1 = substream(42, 0, 1).random(4)
    a2 = substream(42, 0, 1).random(4)
    b = substream(42, 0, 2).random(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


@pytest.mark.parametrize("length", [12, 20])
@pytest.mark.parametrize("count", [1, 3, 7, 1001])
def test_one_bytes_call_equals_many(length, count):
    # Generator.bytes of a multiple of 4 bytes consumes whole 32-bit words,
    # so one block of cipher nonces or addresses equals one draw per operator
    g, h = np.random.default_rng(9), np.random.default_rng(9)
    assert b"".join(g.bytes(length) for _ in range(count)) == h.bytes(length * count)
    assert g.bit_generator.state == h.bit_generator.state
    assert (g.bytes(4), g.bytes(12), g.random()) == (h.bytes(4), h.bytes(12), h.random())


class ReplayBytes:
    """A generator stand-in whose bytes() hands out a fixed stream in order."""

    def __init__(self, stream: bytes):
        self.stream = stream

    def bytes(self, length: int) -> bytes:
        head, self.stream = self.stream[:length], self.stream[length:]
        return head


def test_distinct_addresses_replaces_each_repeat_with_a_further_draw():
    a, b, c, d = (bytes([k]) * 20 for k in range(4))
    assert distinct_addresses(3, ReplayBytes(a + b + a + a + c + d)) == a + b + c
    # equal to drawing one 20-byte address at a time, returned as one block
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    raws: dict[bytes, None] = {}
    while len(raws) < 500:
        raws.setdefault(ref.bytes(20))
    assert distinct_addresses(500, rng) == b"".join(raws)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert distinct_addresses(0, rng) == b"" and rng.bit_generator.state == ref.bit_generator.state


def test_seeded_survey_columns_equal_the_profile_list(monkeypatch):
    """run_seeded_survey builds the columns of the profiles it once built one by one: id "op-" and five digits,
    one address drawn at a time from the infrastructure stream, the region cycling through REGIONS."""
    seen = []
    monkeypatch.setattr(simulate, "run_survey", lambda config, population, **streams: seen.append(population))
    choices = np.arange(7) % 3
    simulate.run_seeded_survey(None, choices, 5, 2)
    infra = substream(5, 2, INFRA_SLOT)
    profiles = [
        OperatorProfile(f"op-{i:05d}", (Address(infra.bytes(20)),), {"region": REGIONS[i % len(REGIONS)]}, int(c))
        for i, c in enumerate(choices)
    ]
    (population,), want = seen, Population.of(profiles)
    assert population.operator_ids == want.operator_ids and population.addresses == want.addresses
    assert population.true_choices.dtype == want.true_choices.dtype == np.int64
    assert population.true_choices.tolist() == want.true_choices.tolist() and population.attributes == want.attributes
    assert population.operator_ids == [p.operator_id for p in profiles]
    assert population.addresses == b"".join(p.active_address.value for p in profiles)
    assert population.attributes == {"region": [p.attributes["region"] for p in profiles]}
