import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import privmarket
from privmarket import envelope, ldp
from privmarket.ldp import (
    BitCounts,
    PrivacyParams,
    QuerySpec,
    accumulate_counts,
    epsilon_of,
    estimate_frequencies,
    randomize_batch,
)
from reference import ResponseVector, encode_one_hot, randomize_response


class TestTypes:
    def test_query_spec_needs_two_choices(self):
        with pytest.raises(ValueError):
            QuerySpec(["only"])

    def test_query_spec_rejects_a_label_holding_a_lone_surrogate(self):
        with pytest.raises(ValueError, match=r"^choice label 'b\\ud800' holds a lone surrogate"):
            QuerySpec(["a", "b\ud800"])

    def test_query_spec_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            QuerySpec(["a", "b", "a"])

    @pytest.mark.parametrize("labels", [[["a"], "b"], ["a", {"b"}]])
    def test_query_spec_refuses_a_label_that_is_not_a_string_before_comparing_labels(self, labels):
        # an unhashable label would otherwise fail the distinctness check with a TypeError
        with pytest.raises(ValueError, match="^choice labels must be strings$"):
            QuerySpec(labels)

    def test_privacy_params_bounds(self):
        PrivacyParams(0.0)
        PrivacyParams(0.99)
        with pytest.raises(ValueError):
            PrivacyParams(1.0)
        with pytest.raises(ValueError):
            PrivacyParams(-0.01)

    @pytest.mark.parametrize("f", ["0.5", False, True, None])
    def test_privacy_params_refuses_an_f_that_is_not_a_real_number(self, f):
        # "0.5" became 0.5, and False became f = 0: no privacy at all
        with pytest.raises(ValueError, match=f"^flip probability must be a real number, got {f!r}$"):
            PrivacyParams(f)

    def test_privacy_params_takes_an_int_f(self):
        assert type(PrivacyParams(0).f) is float and PrivacyParams(0) == PrivacyParams(0.0)

    def test_response_vector_rejects_non_bits(self):
        with pytest.raises(ValueError):
            ResponseVector([0, 2, 0])
        with pytest.raises(ValueError):
            ResponseVector([])

    def test_bit_counts_entries_bounded_by_report_count(self):
        BitCounts([3, 0, 5], 5)
        with pytest.raises(ValueError):
            BitCounts([6], 5)
        with pytest.raises(ValueError):
            BitCounts([-1], 5)
        with pytest.raises(ValueError):
            BitCounts([float("nan"), 1.0], 5)


class TestEncodeOneHot:
    def test_basic(self):
        assert encode_one_hot(3, 5).bits == (0, 0, 0, 1, 0)

    def test_smallest_query(self):
        assert encode_one_hot(0, 2).bits == (1, 0)

    def test_last_of_twenty(self):
        rv = encode_one_hot(19, 20)
        assert rv.bits[19] == 1
        assert sum(rv.bits) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode_one_hot(5, 5)
        with pytest.raises(ValueError):
            encode_one_hot(-1, 5)
        with pytest.raises(ValueError):
            encode_one_hot(0, 1)


class TestRandomize:
    def test_f_zero_is_identity(self):
        params = PrivacyParams(0.0)
        for seed in (0, 1, 99):
            rv = encode_one_hot(seed % 4, 4)
            assert randomize_response(rv, params, np.random.default_rng(seed)).bits == rv.bits

    def test_deterministic_given_seed(self):
        rv = encode_one_hot(7, 20)
        params = PrivacyParams(0.5)
        a = randomize_response(rv, params, np.random.default_rng(123))
        b = randomize_response(rv, params, np.random.default_rng(123))
        assert a.bits == b.bits

    def test_length_preserved_and_input_untouched(self):
        rv = encode_one_hot(2, 9)
        before = rv.bits
        out = randomize_response(rv, PrivacyParams(0.9), np.random.default_rng(5))
        assert out.n == 9
        assert rv.bits == before

    def test_per_bit_probabilities_monte_carlo(self):
        # P(out=1 | in=1) = 1 - f/2 = 0.75, P(out=1 | in=0) = f/2 = 0.25 at f=0.5
        params = PrivacyParams(0.5)
        rng = np.random.default_rng(2024)
        trials = 100_000
        ones = randomize_batch(np.zeros(trials, int), 3, params, rng).sum(axis=0)
        assert ones[0] / trials == pytest.approx(0.75, abs=0.01)
        assert ones[1] / trials == pytest.approx(0.25, abs=0.01)
        assert ones[2] / trials == pytest.approx(0.25, abs=0.01)


class TestRandomizeBatch:
    @pytest.mark.parametrize("population,n,f", [
        (1, 2, 0.5), (500, 20, 0.5), (200, 7, 0.0), (200, 7, 0.95), (0, 5, 0.5), (300, 20, 0.25),
    ])
    def test_rows_equal_the_per_respondent_loop(self, population, n, f):
        # reference: one randomize_response per respondent, all on one generator
        params = PrivacyParams(f)
        choices = np.random.default_rng(population + n).integers(0, n, size=population)
        rng = np.random.default_rng(77)
        batch = randomize_batch(choices, n, params, rng)
        shared = np.random.default_rng(77)
        loop = [randomize_response(encode_one_hot(int(c), n), params, shared).bits for c in choices]
        assert batch.dtype == np.uint8
        assert batch.shape == (population, n)
        assert [tuple(row) for row in batch.tolist()] == loop
        assert rng.random() == shared.random()  # both consumed exactly N * n doubles

    def test_ties_at_half_f_and_at_f_follow_the_game(self):
        # u < f/2 -> 1, f/2 <= u < f -> 0, u >= f -> the one-hot bit; f = 0.5
        below_half, below_f = np.nextafter(0.25, 0.0), np.nextafter(0.5, 0.0)
        draw = np.array([
            [0.25, 0.25, 0.5, below_half],  # choice 0
            [0.5, below_f, 0.5, 0.25],  # choice 2
            [0.5, below_half, below_f, 0.0],  # choice 1
        ])

        class Scripted:
            def random(self, shape):
                assert shape == draw.shape
                return draw.copy()

        bits = randomize_batch([0, 2, 1], 4, PrivacyParams(0.5), Scripted())
        assert bits.dtype == np.uint8
        assert bits.tolist() == [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 1]]

    def test_out_of_range_choices_rejected(self):
        rng = np.random.default_rng(0)
        for choices, n in (([0, 3], 3), ([-1], 3), ([0], 1), ([[0, 1]], 3)):
            with pytest.raises(ValueError):
                randomize_batch(choices, n, PrivacyParams(0.5), rng)


class TestAccumulate:
    def test_counts(self):
        counts = accumulate_counts([[1, 0, 1], [0, 0, 1]])
        assert counts.ones_per_position == (1.0, 0.0, 2.0)
        assert counts.report_count == 2

    def test_all_zero(self):
        counts = accumulate_counts([[0, 0, 0]])
        assert counts.ones_per_position == (0.0, 0.0, 0.0)
        assert counts.report_count == 1

    def test_many_identical(self):
        counts = accumulate_counts([[1, 0]] * 1000)
        assert counts.ones_per_position == (1000.0, 0.0)
        assert counts.report_count == 1000

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            accumulate_counts([[1, 0], [1, 0, 0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accumulate_counts([])
        with pytest.raises(ValueError):
            accumulate_counts(np.zeros((0, 3), dtype=np.uint8))

    def test_column_sum_equals_per_vector_sum(self):
        matrix = np.random.default_rng(11).integers(0, 2, size=(300, 9), dtype=np.uint8)
        vectors = [ResponseVector(row) for row in matrix.tolist()]
        totals = [0] * 9
        for rv in vectors:
            totals = [t + b for t, b in zip(totals, rv.bits)]
        expected = BitCounts(totals, 300)
        assert accumulate_counts([rv.bits for rv in vectors]) == expected
        assert accumulate_counts(matrix) == expected

    @given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_counts_equal_the_column_sum_of_any_dtype(self, rows, n, seed):
        # the count is an einsum with an unsafe cast to int64: exact for 0/1 entries of every dtype, floats included
        matrix = np.random.default_rng(seed).integers(0, 2, size=(rows, n))
        for dtype in (bool, np.uint8, np.int64, np.float64):
            reports = matrix.astype(dtype)
            assert accumulate_counts(reports) == BitCounts(reports.sum(axis=0), rows)

    def test_malformed_matrix_rejected(self):
        with pytest.raises(ValueError):
            accumulate_counts(np.array([[0, 2], [1, 0]]))
        with pytest.raises(ValueError):
            accumulate_counts(np.array([1, 0]))


class TestEstimate:
    def test_direct_arithmetic(self):
        # (300 - 1000*0.25) / 0.5 = 100
        est = estimate_frequencies(BitCounts([300, 700], 1000), PrivacyParams(0.5))
        assert est.raw_estimates[0] == 100.0
        assert est.raw_estimates[1] == 900.0

    def test_f_zero_returns_counts(self):
        est = estimate_frequencies(BitCounts([4, 0, 9], 9), PrivacyParams(0.0))
        assert est.raw_estimates == (4.0, 0.0, 9.0)
        assert est.clamped_estimates == (4.0, 0.0, 9.0)

    def test_negative_estimate_clamped(self):
        # (20 - 100*0.25) / 0.5 = -10; clamped to 0
        est = estimate_frequencies(BitCounts([20], 100), PrivacyParams(0.5))
        assert est.raw_estimates[0] == -10.0
        assert est.clamped_estimates[0] == 0.0

    @given(
        st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=20),
        st.floats(min_value=0.0, max_value=0.95),
    )
    @settings(deadline=None)
    def test_unbiased_on_exact_expected_counts(self, true_counts, f):
        # feeding E[ones[j]] = t*(1-f) + N*f/2 must give back t
        n_reports = sum(true_counts) + 100
        expected = [t * (1 - f) + n_reports * f / 2 for t in true_counts]
        est = estimate_frequencies(BitCounts(expected, n_reports), PrivacyParams(f))
        for raw, t in zip(est.raw_estimates, true_counts):
            assert raw == pytest.approx(t, abs=1e-9)


class TestEpsilon:
    def test_one_hot_budget(self):
        assert epsilon_of(PrivacyParams(0.5), 2) == pytest.approx(2 * math.log(3), abs=1e-12)

    def test_single_bit_budget(self):
        assert epsilon_of(PrivacyParams(0.5), 1) == pytest.approx(math.log(3), abs=1e-12)

    def test_no_noise_sentinel(self):
        assert epsilon_of(PrivacyParams(0.0), 2) == math.inf

    def test_vanishes_as_f_approaches_one(self):
        assert epsilon_of(PrivacyParams(0.999999), 2) < 1e-5

    def test_distance_must_be_positive(self):
        with pytest.raises(ValueError):
            epsilon_of(PrivacyParams(0.5), 0)


def _output_probability(bits_in, bits_out, f):
    p = 1.0
    for b_in, b_out in zip(bits_in, bits_out):
        stay = (1 - f) + f / 2 if b_in == b_out else f / 2
        p *= stay
    return p


def test_dp_bound_by_exhaustive_enumeration():
    # all 8 outputs for n=3, both one-hot neighbor inputs: the worst-case
    # likelihood ratio must equal e^epsilon exactly (within float error)
    f = 0.5
    eps = epsilon_of(PrivacyParams(f), 2)
    worst = 0.0
    for a, b in itertools.permutations([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2):
        for out in itertools.product((0, 1), repeat=3):
            ratio = _output_probability(a, out, f) / _output_probability(b, out, f)
            worst = max(worst, ratio)
    assert worst <= math.exp(eps) + 1e-9
    assert worst == pytest.approx(math.exp(eps), abs=1e-9)


def _grid_point_at_or_above(x: float) -> Fraction:
    """The least u that Generator.random can yield with u >= x: it yields k * 2**-53, k in [0, 2**53)."""
    return Fraction(math.ceil(Fraction(x) * 2**53), 2**53)


@pytest.mark.parametrize("f", [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
def test_the_exact_channel_of_randomize_batch_gives_epsilon(f):
    # The code's edges cut the grid of u values into intervals. Feed each interval's ends and middle to
    # randomize_batch: row [u, u] with choice 0 plays the true-1 game at position 0, the true-0 game at 1.
    params, step = PrivacyParams(f), Fraction(1, 2**53)
    edges = sorted({Fraction(0), _grid_point_at_or_above(f / 2), _grid_point_at_or_above(f), Fraction(1)})
    intervals = [(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]
    probes = np.array([float(u) for lo, hi in intervals for u in (lo, lo + (hi - lo) / step // 2 * step, hi - step)])

    class Stub:
        def random(self, shape):
            assert shape == (len(probes), 2)
            return np.repeat(probes[:, None], 2, axis=1)

    bits = randomize_batch(np.zeros(len(probes), np.int64), 2, params, Stub()).reshape(len(intervals), 3, 2)
    assert (bits == bits[:, :1]).all()  # each bit is constant on each interval
    # channel[true bit][reported bit], summed from the interval widths
    ones = [sum(hi - lo for (lo, hi), bit in zip(intervals, bits[:, 0, position]) if bit) for position in (1, 0)]
    channel = [[1 - p_one, p_one] for p_one in ones]
    assert float(channel[1][1]) == pytest.approx(1 - f / 2, abs=2e-16)
    assert float(channel[0][1]) == pytest.approx(f / 2, abs=2e-16)
    worst = Fraction(0)
    for a, b in itertools.permutations(np.eye(3, dtype=int).tolist(), 2):  # one-hot neighbours
        for out in itertools.product((0, 1), repeat=3):
            p_a, p_b = (math.prod(channel[t][o] for t, o in zip(x, out)) for x in (a, b))
            if p_a:
                worst = max(worst, p_a / p_b if p_b else math.inf)
    assert float(worst) == pytest.approx(math.exp(epsilon_of(params)), rel=1e-14)


def test_mean_estimate_tracks_true_counts_within_three_se():
    # 30 seeds, N=10,000, n=20, f=0.5: per-bin mean raw estimate stays
    # within 3 per-trial standard errors of the true count
    n, n_reports, f = 20, 10_000, 0.5
    params = PrivacyParams(f)
    diffs = np.zeros((30, n))
    ses = np.zeros((30, n))
    for trial in range(30):
        rng = np.random.default_rng(9_000 + trial)
        weights = rng.dirichlet(np.ones(n))
        true = rng.multinomial(n_reports, weights)
        reports = randomize_batch(np.repeat(np.arange(n), true), n, params, rng)
        est = estimate_frequencies(accumulate_counts(reports), params)
        diffs[trial] = np.asarray(est.raw_estimates) - true
        var_ones = true * (1 - f / 2) * (f / 2) + (n_reports - true) * (f / 2) * (1 - f / 2)
        ses[trial] = np.sqrt(var_ones) / (1 - f)
    assert np.all(np.abs(diffs.mean(axis=0)) <= 3 * ses.mean(axis=0))


def test_per_respondent_reference_is_not_part_of_the_package():
    # the product handles a population as one matrix; tests/reference.py holds the per-respondent oracle
    moved = ("ResponseVector", "encode_one_hot", "randomize_response", "decode_bit_vector",
             "unpack_bit_vector_stream", "canonical_encode_response", "decode_response")
    assert [(module.__name__, name) for module in (privmarket, ldp, envelope) for name in moved
            if hasattr(module, name)] == []
