"""run_survey against the per-operator reference survey: the same bytes, trace and estimate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from privmarket.ldp import PrivacyParams, QuerySpec
from privmarket.ledger import Address
from privmarket.protocol import FilterCriteria, OperatorProfile, ProtocolError, SurveyConfiguration, run_survey
from reference import reference_survey

REGIONS = ("NSW", "VIC", "QLD", "TAS")


@st.composite
def scenarios(draw):
    """A survey of 1-40 operators: honest, or failing on a reused address or too few eligible."""
    count = draw(st.integers(1, 40))
    n_choices = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    raws = list(dict.fromkeys(rng.bytes(20) for _ in range(count)))  # a repeat among 40 draws of 20 bytes never happens
    regions = [REGIONS[i] for i in rng.integers(len(REGIONS), size=count)]
    allowed = draw(st.none() | st.lists(st.sampled_from(REGIONS), min_size=1, max_size=3, unique=True))
    criteria = FilterCriteria.empty() if allowed is None else FilterCriteria([("region", allowed)])
    eligible = sum(allowed is None or region in allowed for region in regions)
    failure = draw(st.sampled_from([None, "reused address", "too few eligible"]))
    if failure == "reused address" and count > 1:
        later = draw(st.integers(1, count - 1))
        raws[later] = raws[draw(st.integers(0, later - 1))]
    elif failure == "too few eligible" or eligible == 0:
        eligible = 0  # every NR >= 1 then asks too much
    nr = draw(st.integers(1, eligible)) if eligible else draw(st.integers(1, count + 1))
    profiles = [
        OperatorProfile(f"op-{i:02d}", (Address(raw),), {"region": region}, int(rng.integers(n_choices)))
        for i, (raw, region) in enumerate(zip(raws, regions))
    ]
    config = SurveyConfiguration(
        query=QuerySpec([f"c{j}" for j in range(n_choices)]),
        criteria=criteria,
        required_responses=nr,
        fee=draw(st.integers(0, 10_000)),
        privacy=PrivacyParams(draw(st.just(0.0) | st.floats(0.0, 0.95))),
    )
    # which report generator each operator uses: all one, all distinct, or runs that interleave
    groups = draw(st.sampled_from(["shared", "distinct", "mixed"]))
    if groups == "mixed":
        owners = draw(st.lists(st.integers(0, 2), min_size=count, max_size=count))
    else:
        owners = [0 if groups == "shared" else i for i in range(count)]
    return config, profiles, owners, draw(st.integers(0, 2**32))


def generators(owners, seed):
    """Fresh report generators (operator i draws from owner i's) and a fresh infrastructure generator."""
    streams = {}
    report = [streams.setdefault(owner, np.random.default_rng([seed, owner])) for owner in owners]
    return report, np.random.default_rng([seed, 1 << 20])


def outcome_of(survey, config, profiles, owners, seed):
    report_rngs, infra_rng = generators(owners, seed)
    try:
        return survey(config, profiles, report_rngs, infra_rng), None
    except ProtocolError as exc:
        return None, (type(exc), str(exc), list(exc.trace))


def batch_survey(config, profiles, operator_rngs, infra_rng):
    return run_survey(config, profiles, operator_rngs=operator_rngs, infra_rng=infra_rng)


@given(scenarios())
@settings(deadline=None, max_examples=60)
def test_run_survey_equals_the_per_operator_reference(scenario):
    got, got_error = outcome_of(batch_survey, *scenario)
    want, want_error = outcome_of(reference_survey, *scenario)
    assert got_error == want_error
    if want is None:
        return
    assert got.contract.log.to_bytes() == want.contract.log.to_bytes()
    assert list(got.trace) == want.trace
    assert got.aggregation.estimate == want.estimate
    vectors = got.aggregation.decrypted_vectors
    assert (vectors.dtype, vectors.shape) == (want.decrypted_vectors.dtype, want.decrypted_vectors.shape)
    assert (vectors == want.decrypted_vectors).all()
    assert got.aggregation.failed_indices == want.failed_indices == ()
