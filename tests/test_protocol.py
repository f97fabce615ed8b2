import collections
import collections.abc
import dataclasses
import functools
import re

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from privmarket.envelope import Ciphertext, derive_session_key, digest
from privmarket.ldp import PrivacyParams, QuerySpec, accumulate_counts, estimate_frequencies
from privmarket import protocol
from privmarket.ledger import Address, ContractPhase, EventKind, LedgerError, equal_split, payout, verify_event_chain
from privmarket.protocol import (
    ArtifactStore,
    Authority,
    ConfigIntegrityError,
    DeliveryMessage,
    DeliveryVerdict,
    FilterCriteria,
    FilterVector,
    InsufficientEligibleError,
    Operator,
    OperatorProfile,
    Population,
    ProtocolError,
    SurveyConfiguration,
    SurveyTrace,
    SystemOperator,
    authority_deposit_and_await_reveal,
    authority_verify_delivery,
    build_and_finalize_filter,
    commit_population,
    deliver_population,
    filter_uri,
    operator_deliver,
    operator_prepare_and_commit,
    parse_config_file,
    render_config_file,
    run_survey,
    settle_and_decrypt,
    setup_survey,
    sysop_payout,
    sysop_reveal_secret,
    verify_deliveries,
)
from reference import arrival_addresses, unpack_bit_vector_stream


def addr(first_byte: int) -> Address:
    return Address(bytes([first_byte]) + b"\x11" * 19)


def index_of(contract, address: Address) -> int:
    """The filter index of an address that committed."""
    (index,) = contract.commitments.ranks_of(address.value).tolist()
    assert index >= 0, f"{address} did not commit"
    return index


def profile(i: int, region: str = "NSW", choice: int = 0) -> OperatorProfile:
    return OperatorProfile(
        operator_id=f"op-{i:02d}",
        addresses=(addr(i),),
        attributes={"region": region},
        true_choice=choice,
    )


def small_config(nr=3, fee=100, f=0.0, criteria=None, n=4) -> SurveyConfiguration:
    return SurveyConfiguration(
        query=QuerySpec([f"c{j}" for j in range(n)]),
        criteria=criteria or FilterCriteria.empty(),
        required_responses=nr,
        fee=fee,
        privacy=PrivacyParams(f),
    )


def rngs(count, seed=0):
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(count)]


class TestConfigFile:
    def test_same_config_same_digest(self):
        q = QuerySpec(["a", "b", "c"])
        crit = FilterCriteria([("region", ["NSW", "VIC"])])
        bytes1 = render_config_file(SurveyConfiguration(q, crit, 5, 100, PrivacyParams(0.5)))
        bytes2 = render_config_file(SurveyConfiguration(q, crit, 5, 100, PrivacyParams(0.5)))
        assert bytes1 == bytes2
        assert digest(bytes1) == digest(bytes2)

    def test_label_change_changes_digest(self):
        crit = FilterCriteria.empty()
        d1 = digest(render_config_file(SurveyConfiguration(QuerySpec(["a", "b"]), crit, 1, 0, PrivacyParams(0.5))))
        d2 = digest(render_config_file(SurveyConfiguration(QuerySpec(["a", "B"]), crit, 1, 0, PrivacyParams(0.5))))
        assert d1 != d2

    def test_parse_inverts_render(self):
        config = small_config(nr=2, fee=7, f=0.25, criteria=FilterCriteria([("region", ["VIC"])]))
        assert parse_config_file(render_config_file(config)) == config

    def test_awkward_labels_survive_round_trip(self):
        q = QuerySpec(["has space", "has,comma", "has\nnewline", "has%percent"])
        config = SurveyConfiguration(q, FilterCriteria.empty(), 1, 0, PrivacyParams(0.5))
        parsed = parse_config_file(render_config_file(config))
        assert parsed.query.choices == q.choices

    def test_paper_shaped_config(self):
        q = QuerySpec([f"bin-{i:02d}" for i in range(20)])
        config = SurveyConfiguration(q, FilterCriteria.empty(), 500, 10_000, PrivacyParams(0.5))
        file_bytes = render_config_file(config)
        assert digest(file_bytes) == digest(render_config_file(config))
        assert parse_config_file(file_bytes) == config

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_config_file(b"not a config\n")
        good = render_config_file(small_config())
        with pytest.raises(ValueError):
            parse_config_file(good + b"extra\n")

    @pytest.mark.parametrize(
        "canonical,variant",
        [
            (b"fee 50\n", b"fee +50\n"),
            (b"fee 50\n", b"fee 050\n"),
            (b"fee 50\n", b"fee 5_0\n"),
            (b"flip-probability 0.5\n", b"flip-probability 0.50\n"),
            (b"choice 0 choice-00\n", b"choice 0 %63hoice-00\n"),
        ],
    )
    def test_parse_rejects_non_canonical_spelling(self, canonical, variant):
        # each variant parses to the same configuration under another digest
        query = QuerySpec([f"choice-{j:02d}" for j in range(3)])
        good = render_config_file(
            SurveyConfiguration(query, FilterCriteria.empty(), 2, 50, PrivacyParams(0.5))
        )
        assert good.count(canonical) == 1
        with pytest.raises(ValueError):
            parse_config_file(good.replace(canonical, variant))

    @pytest.mark.parametrize("field, value, kind", [
        ("query", ["a", "b"], "QuerySpec"),
        ("criteria", {"region": ["NSW"]}, "FilterCriteria"),
        ("privacy", 0.5, "PrivacyParams"),
    ])
    def test_a_term_of_another_type_is_refused(self, field, value, kind):
        # before render_config_file would fail on it with an AttributeError
        terms = dict(query=QuerySpec(["a", "b"]), criteria=FilterCriteria.empty(), required_responses=1, fee=0,
                     privacy=PrivacyParams(0.5))
        with pytest.raises(ValueError, match=f"^{field} must be a {kind}, got {re.escape(repr(value))}$"):
            SurveyConfiguration(**{**terms, field: value})

    def test_parse_rejects_truncation(self):
        good = render_config_file(small_config())
        truncated = b"\n".join(good.split(b"\n")[:3]) + b"\n"
        with pytest.raises(ValueError):
            parse_config_file(truncated)


FUZZ_CONFIG = render_config_file(SurveyConfiguration(
    QuerySpec(["a b", "c,d", "e%"]), FilterCriteria([("region", ["NSW", "VIC"]), ("x", [])]),
    2, 7, PrivacyParams(0.25),
))


def parses_canonically_or_refuses(data: bytes) -> None:
    """Only ValueError may escape parse_config_file, and what it accepts re-renders to itself."""
    try:
        config = parse_config_file(data)
    except ValueError:
        return
    assert render_config_file(config) == data


class TestConfigFileFuzz:
    @given(st.binary(max_size=300))
    @settings(deadline=None, max_examples=300)
    def test_fuzz_random_bytes(self, data):
        parses_canonically_or_refuses(data)

    @given(st.sampled_from(["flip", "insert", "truncate"]), st.integers(0, len(FUZZ_CONFIG)), st.data())
    @settings(deadline=None, max_examples=600)
    def test_fuzz_mutated_config(self, kind, position, data):
        blob = bytearray(FUZZ_CONFIG)
        if kind == "flip" and position < len(blob):
            blob[position] ^= data.draw(st.integers(1, 255))
        elif kind == "insert":
            blob.insert(position, data.draw(st.sampled_from(b"0123456789 +-_.,%\nein") | st.integers(0, 255)))
        else:
            del blob[position:]
        parses_canonically_or_refuses(bytes(blob))


class TestCriteria:
    """Screening runs over the population's attribute columns inside `build_and_finalize_filter`."""

    @staticmethod
    def marked(profiles, criteria, nr=1):
        """The active addresses the filter marks when NR = `nr`."""
        store, _, sysop, contract, _ = setup_small_survey(small_config(nr=nr, criteria=criteria), profiles)
        commit_all(store, sysop, contract, profiles)
        fv = build_and_finalize_filter(sysop, contract, profiles, criteria, store=store)
        return {Address(a) for a, bit in zip(sorted(arrival_addresses(contract.commitments)), fv.bits) if bit}

    def test_empty_accepts_everyone(self):
        assert self.marked([profile(1), profile(2, "VIC")], FilterCriteria.empty(), nr=2) == {addr(1), addr(2)}

    def test_matching_value(self):
        crit = FilterCriteria([("region", ["NSW"])])
        assert self.marked([profile(2, region="VIC"), profile(1, region="NSW")], crit) == {addr(1)}

    def test_missing_attribute_fails(self):
        crit = FilterCriteria([("region", ["NSW"])])
        bare = OperatorProfile("op-x", (addr(7),), {}, 0)
        assert self.marked([bare, profile(1)], crit) == {addr(1)}
        with pytest.raises(InsufficientEligibleError, match="only 0 eligible"):
            self.marked([bare], crit)

    def test_every_predicate_must_hold(self):
        crit = FilterCriteria([("region", ["NSW", "VIC"]), ("tier", ["gold"])])
        profiles = [
            OperatorProfile("op-a", (addr(1),), {"region": "NSW"}, 0),
            OperatorProfile("op-b", (addr(2),), {"region": "QLD", "tier": "gold"}, 0),
            OperatorProfile("op-c", (addr(3),), {"region": "VIC", "tier": "gold"}, 0),
        ]
        assert self.marked(profiles, crit) == {addr(3)}

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(ValueError):
            FilterCriteria([("region", ["NSW"]), ("region", ["VIC"])])

    # a bare string, numbers, a mixed list, a bare number
    @pytest.mark.parametrize("values", ["NSW", [1, 2], ["NSW", 3], 5])
    def test_values_that_are_not_a_list_of_strings_are_refused(self, values):
        with pytest.raises(ValueError, match=r"^criteria for 'region' must be a list of strings$"):
            FilterCriteria([("region", values)])

    def test_an_attribute_name_that_is_not_a_string_is_refused(self):
        # accepted, it would make render_config_file raise an untyped TypeError
        with pytest.raises(ValueError, match=r"^criteria attribute names must be strings, got 5$"):
            FilterCriteria([(5, ["x"])])

    def test_an_empty_string_value_is_refused(self):
        # "require region " would also be the rendering of ("region", []): two surveys, one digest
        with pytest.raises(ValueError, match=r"^criteria for 'region' must not allow the empty string$"):
            FilterCriteria([("region", ["NSW", ""])])
        config = small_config(criteria=FilterCriteria([("region", [])]))
        assert parse_config_file(render_config_file(config)) == config

    @pytest.mark.parametrize("predicate", [("region", ["NSW", "\ud800"]), ("\udfff", ["NSW"])])
    def test_a_lone_surrogate_is_refused(self, predicate):
        # accepted, it would make render_config_file raise UnicodeEncodeError
        with pytest.raises(ValueError, match=r"'\\ud(800|fff)' holds a lone surrogate, which UTF-8 cannot encode$"):
            FilterCriteria([predicate])

    # criteria names and values: strings, the empty string among them, and numbers, which are refused
    CRITERIA_TEXT = st.text(max_size=4) | st.integers(-2, 2)

    @given(
        labels=st.lists(st.text(max_size=5), min_size=2, max_size=4, unique=True),
        predicates=st.lists(st.tuples(CRITERIA_TEXT, st.lists(CRITERIA_TEXT, max_size=3)), max_size=3),
        nr=st.integers(1, 1 << 70),
        fee=st.integers(0, 1 << 70),
        f=st.floats(0.0, 1.0, exclude_max=True),
        surrogate=st.none() | st.tuples(st.integers(0, 99), st.characters(categories=["Cs"])),
    )
    @settings(deadline=None, max_examples=300)
    def test_every_accepted_configuration_survives_render_and_parse(self, labels, predicates, nr, fee, f, surrogate):
        def build():
            return SurveyConfiguration(QuerySpec(labels), FilterCriteria(predicates), nr, fee, PrivacyParams(f))

        if surrogate is not None:  # a label, or a criteria name or value, ends in a lone surrogate: refused
            k, char = surrogate
            if k % 2 or not predicates:
                labels[k % len(labels)] += char
            else:
                attr, values = predicates[k % len(predicates)]
                predicates[k % len(predicates)] = (attr, values + [char]) if k % 4 else (f"{attr}{char}", values)
            with pytest.raises(ValueError):
                build()
            return
        try:
            config = build()
        except ValueError:
            reject()
        assert parse_config_file(render_config_file(config)) == config


def setup_small_survey(config, profiles, seed=0):
    store = ArtifactStore()
    infra = np.random.default_rng(seed)
    authority = Authority(Address(infra.bytes(20)), config)
    sysop = SystemOperator(Address(infra.bytes(20)), infra)
    for p in profiles:
        sysop.register_operator(p)
    contract, recipients = setup_survey(authority, sysop, config, store=store)
    return store, authority, sysop, contract, recipients


class TestSetup:
    def test_contract_stores_s1_clear_and_only_hash_of_s2(self):
        config = small_config()
        _, _, sysop, contract, _ = setup_small_survey(config, [profile(1)])
        s2 = sysop.secret_for(contract)
        assert digest(s2.value) == contract.h_s2
        assert contract.s1 != s2
        created = contract.log.events[0]
        assert created.payload["s1"] == contract.s1.value
        assert s2.value not in created.payload.values()

    def test_the_registry_is_the_set_of_registered_ids(self):
        _, _, sysop, _, recipients = setup_small_survey(small_config(), [profile(2), profile(1), profile(2)])
        assert sysop.registry == {"op-01", "op-02"} and recipients == ("op-01", "op-02")

    def test_two_surveys_are_independent(self):
        config = small_config()
        _, _, sysop1, c1, _ = setup_small_survey(config, [profile(1)], seed=1)
        _, _, sysop2, c2, _ = setup_small_survey(config, [profile(1)], seed=2)
        assert c1.contract_id != c2.contract_id
        assert c1.n1 != c2.n1
        assert sysop1.secret_for(c1) != sysop2.secret_for(c2)

    def test_psk_is_issued_only_to_a_registered_operator(self):
        _, _, sysop, contract, _ = setup_small_survey(small_config(), [profile(1)])
        before = len(contract.log)
        with pytest.raises(ProtocolError, match="^operator op-02 is not registered$"):
            sysop.issue_psk(contract, "op-02")
        assert len(contract.log) == before
        assert sysop.issue_psk(contract, "op-01") == sysop._survey_keys[contract.contract_id.hex][0]

    def test_distribution_record_lists_registered_operators(self):
        profiles = [profile(i) for i in range(3)]
        _, _, _, _, recipients = setup_small_survey(small_config(), profiles)
        assert recipients == ("op-00", "op-01", "op-02")


class TestPrepareAndCommit:
    def test_tampered_config_refused(self):
        config = small_config()
        store, _, sysop, contract, _ = setup_small_survey(config, [profile(1)])
        operator = Operator(profile(1), np.random.default_rng(0))
        config_bytes = store.get(contract.config_uri)
        with pytest.raises(ConfigIntegrityError):
            operator_prepare_and_commit(
                operator, contract, config_bytes + b" ", contract.config_digest,
                sysop.issue_psk(contract, "op-01"), contract.n1, contract.n2,
                np.random.default_rng(0),
            )
        assert len(contract.log) == 1  # no Committed event

    def test_tampered_config_refused_after_commit_and_other_parse(self):
        config = small_config()
        store, _, sysop, contract, _ = setup_small_survey(config, [profile(1), profile(2)])
        config_bytes = store.get(contract.config_uri)
        psk = sysop.issue_psk(contract, "op-01")
        operator_prepare_and_commit(
            Operator(profile(1), np.random.default_rng(0)), contract, config_bytes,
            contract.config_digest, psk, contract.n1, contract.n2, np.random.default_rng(0),
        )
        # another survey's genuine bytes are parsed too
        other = render_config_file(small_config(f=0.5))
        parse_config_file(other)
        events = len(contract.log)
        for tampered in (config_bytes + b" ", other):
            with pytest.raises(ConfigIntegrityError):
                operator_prepare_and_commit(
                    Operator(profile(2), np.random.default_rng(1)), contract, tampered,
                    contract.config_digest, psk, contract.n1, contract.n2,
                    np.random.default_rng(1),
                )
        assert len(contract.log) == events  # no Committed event

    def test_honest_commit_lands_on_ledger(self):
        config = small_config()
        store, _, sysop, contract, _ = setup_small_survey(config, [profile(1)])
        operator = Operator(profile(1), np.random.default_rng(0))
        ciphertext, commitment = operator_prepare_and_commit(
            operator, contract, store.get(contract.config_uri), contract.config_digest,
            sysop.issue_psk(contract, "op-01"), contract.n1, contract.n2,
            np.random.default_rng(0),
        )
        committed = [e for e in contract.log if e.kind == EventKind.COMMITTED]
        assert len(committed) == 1
        assert committed[0].payload["commitment"] == commitment.value
        # anyone holding the ciphertext can recompute the on-ledger commitment
        assert digest(ciphertext.cipher_nonce + ciphertext.body) == commitment


class TestCommitPopulation:
    def _survey(self, count):
        profiles = [profile(i + 1, choice=i % 4) for i in range(count)]
        store, _, sysop, contract, _ = setup_small_survey(small_config(nr=count, f=0.5), profiles)
        config_bytes = store.get(contract.config_uri)
        psk = sysop.issue_psk(contract, profiles[0].operator_id)
        return profiles, contract, config_bytes, psk

    def test_one_draw_each_equals_one_operator_at_a_time(self):
        reports, own = np.random.default_rng(1), np.random.default_rng(2)
        profiles, contract, config_bytes, psk = self._survey(7)
        ciphertexts, commitments = commit_population(
            Population.of(profiles), contract, config_bytes, contract.config_digest, psk, contract.n1, contract.n2,
            [reports] * 7, own,
        )
        ref_reports, ref_own = np.random.default_rng(1), np.random.default_rng(2)
        ref_profiles, ref_contract, _, ref_psk = self._survey(7)
        one_by_one = [
            operator_prepare_and_commit(
                Operator(p, ref_own), ref_contract, config_bytes, ref_contract.config_digest,
                ref_psk, ref_contract.n1, ref_contract.n2, ref_reports,
            )
            for p in ref_profiles
        ]
        assert list(zip(ciphertexts, commitments)) == [(c, d.value) for c, d in one_by_one]  # raw commitments
        assert contract.log.to_bytes() == ref_contract.log.to_bytes()
        assert reports.bit_generator.state == ref_reports.bit_generator.state
        assert own.bit_generator.state == ref_own.bit_generator.state

    def test_tampered_config_draws_and_commits_nothing(self):
        reports, own = np.random.default_rng(1), np.random.default_rng(2)
        states = (reports.bit_generator.state, own.bit_generator.state)
        profiles, contract, config_bytes, psk = self._survey(3)
        with pytest.raises(ConfigIntegrityError):
            commit_population(
                Population.of(profiles), contract, config_bytes + b" ", contract.config_digest, psk, contract.n1,
                contract.n2,
                [reports] * 3, own,
            )
        assert (reports.bit_generator.state, own.bit_generator.state) == states
        assert len(contract.log) == 1  # no Committed event

    def test_generators_must_not_interleave(self):
        profiles, contract, config_bytes, psk = self._survey(2)
        shared = np.random.default_rng(0)
        with pytest.raises(ValueError, match="doubles as the report generator"):
            commit_population(
                Population.of(profiles), contract, config_bytes, contract.config_digest, psk, contract.n1, contract.n2,
                [shared] * 2, shared,
            )
        assert len(contract.log) == 1


def commit_all(store, sysop, contract, profiles, seed=0):
    operators = [Operator(p, r) for p, r in zip(profiles, rngs(len(profiles), seed))]
    config_bytes = store.get(contract.config_uri)
    for operator in operators:
        operator_prepare_and_commit(
            operator, contract, config_bytes, contract.config_digest,
            sysop.issue_psk(contract, operator.profile.operator_id),
            contract.n1, contract.n2, operator._rng,
        )
    return operators


class TestFilter:
    def test_arrival_order_tie_break(self):
        # NR=2, eligibility by arrival: yes, no, yes, yes -> arrivals 0 and 2 win
        crit = FilterCriteria([("region", ["NSW"])])
        profiles = [
            profile(0x0A, "NSW"),
            profile(0x03, "VIC"),
            profile(0x0B, "NSW"),
            profile(0x04, "NSW"),
        ]
        config = small_config(nr=2, criteria=crit)
        store, _, sysop, contract, _ = setup_small_survey(config, profiles)
        commit_all(store, sysop, contract, profiles)
        fv = build_and_finalize_filter(sysop, contract, profiles, crit, store=store)
        assert fv.popcount == 2
        winners = {addr(0x0A).value, addr(0x0B).value}
        for i, address in enumerate(sorted(arrival_addresses(contract.commitments))):
            assert fv.bits[i] == (1 if address in winners else 0)

    def test_last_eligible_arrival_misses_out(self):
        # 5 commits, 4 eligible, NR=3: the eligible operator who committed last gets 0
        crit = FilterCriteria([("region", ["NSW"])])
        profiles = [
            profile(1, "NSW"), profile(2, "NSW"), profile(3, "VIC"),
            profile(4, "NSW"), profile(5, "NSW"),
        ]
        config = small_config(nr=3, criteria=crit)
        store, _, sysop, contract, _ = setup_small_survey(config, profiles)
        commit_all(store, sysop, contract, profiles)
        fv = build_and_finalize_filter(sysop, contract, profiles, crit, store=store)
        assert fv.popcount == 3
        assert fv.bits[index_of(contract, addr(5))] == 0
        assert fv.bits[index_of(contract, addr(4))] == 1

    def test_insufficient_eligible_raises(self):
        crit = FilterCriteria([("region", ["TAS"])])
        profiles = [profile(1), profile(2)]
        config = small_config(nr=1, criteria=crit)
        store, _, sysop, contract, _ = setup_small_survey(config, profiles)
        commit_all(store, sysop, contract, profiles)
        with pytest.raises(InsufficientEligibleError):
            build_and_finalize_filter(sysop, contract, profiles, crit, store=store)

    def test_filter_digest_matches_published_bytes(self):
        profiles = [profile(i) for i in range(3)]
        config = small_config(nr=2)
        store, _, sysop, contract, _ = setup_small_survey(config, profiles)
        commit_all(store, sysop, contract, profiles)
        fv = build_and_finalize_filter(sysop, contract, profiles, config.criteria, store=store)
        published = store.get(filter_uri(contract))
        assert digest(published) == contract.filter_digest
        assert fv.popcount == 2

    def test_a_profile_list_that_does_not_cover_the_commitments_records_nothing(self):
        profiles = [profile(i + 1) for i in range(3)]
        config = small_config(nr=1)
        store, _, sysop, contract, _ = setup_small_survey(config, profiles)
        commit_all(store, sysop, contract, profiles)
        before = len(contract.log)
        with pytest.raises(ProtocolError, match=r"^profile list \(2\) does not cover commitments \(3\)$"):
            build_and_finalize_filter(sysop, contract, profiles[:2], config.criteria, store=store)
        assert len(contract.log) == before
        assert contract.phase == ContractPhase.COLLECTING

    def test_a_profile_list_with_a_swapped_tail_records_nothing(self):
        # NR = 1 is met at the first arrival; the profiles after it are checked all the same
        profiles = [profile(i + 1) for i in range(4)]
        config = small_config(nr=1)
        store, _, sysop, contract, _ = setup_small_survey(config, profiles)
        commit_all(store, sysop, contract, profiles)
        swapped = profiles[:2] + [profiles[3], profiles[2]]
        with pytest.raises(ProtocolError, match=f"^profile op-04 does not match arrival {addr(3)}$"):
            build_and_finalize_filter(sysop, contract, swapped, config.criteria, store=store)
        assert contract.phase == ContractPhase.COLLECTING
        assert EventKind.FILTER_RECORDED not in [event.kind for event in contract.log.events]
        with pytest.raises(KeyError):
            store.get(filter_uri(contract))

    # the counts that wrapped at 256 when popcount summed uint8 bits
    @pytest.mark.parametrize("bits", [np.ones(300, np.uint8), [1] * 300, (1,) * 300, tuple(np.ones(300, np.uint8))],
                             ids=["uint8-array", "list", "tuple", "uint8-tuple"])
    def test_popcount_is_exact_past_255(self, bits):
        fv = FilterVector(bits)
        assert type(fv.bits) is tuple and fv.bits == (1,) * 300
        assert type(fv.popcount) is int and fv.popcount == 300


def run_to_filter(nr=2, count=4, f=0.0, seed=0):
    profiles = [profile(i + 1, choice=i % 4) for i in range(count)]
    config = small_config(nr=nr, f=f)
    store, authority, sysop, contract, _ = setup_small_survey(config, profiles, seed=seed)
    operators = commit_all(store, sysop, contract, profiles, seed=seed)
    fv = build_and_finalize_filter(sysop, contract, profiles, config.criteria, store=store)
    return store, authority, sysop, contract, operators, fv


class TestDelivery:
    def test_eligible_operator_delivers_with_sorted_index(self):
        _, _, _, contract, operators, fv = run_to_filter()
        for operator in operators:
            msg = operator_deliver(operator, fv, contract.commitments)
            index = index_of(contract, operator.profile.active_address)
            if fv.bits[index] == 1:
                assert msg is not None and msg.index == index
                ascending = sorted(arrival_addresses(contract.commitments))
                assert ascending[msg.index] == operator.profile.active_address.value
            else:
                assert msg is None

    def test_deliver_needs_one_ciphertext_per_operator(self):
        _, _, _, contract, operators, fv = run_to_filter()
        before = len(contract.log)
        with pytest.raises(ValueError, match="^deliver needs one ciphertext per operator, got 3 for 4$"):
            deliver_population(Population.of([o.profile for o in operators]), [o.ciphertext for o in operators[:-1]],
                               fv, contract.commitments)
        assert len(contract.log) == before

    def test_unknown_address_raises(self):
        _, _, _, contract, _, fv = run_to_filter()
        stranger = Operator(profile(0x77), np.random.default_rng(0))
        with pytest.raises(ProtocolError, match=f"^operator address {addr(0x77)} absent from commitment index$"):
            operator_deliver(stranger, fv, contract.commitments)

    def test_verify_rejects_tampered_ciphertext(self):
        _, authority, _, contract, operators, fv = run_to_filter()
        msg = next(m for m in (operator_deliver(o, fv, contract.commitments) for o in operators) if m)
        from privmarket.envelope import Ciphertext
        from privmarket.protocol import DeliveryMessage

        body = bytearray(msg.ciphertext.body)
        body[0] ^= 0x01
        bad = DeliveryMessage(msg.index, Ciphertext(msg.ciphertext.cipher_nonce, bytes(body)))
        assert authority_verify_delivery(authority, bad, contract.commitments, fv) \
            == DeliveryVerdict.HASH_MISMATCH

    def test_verify_rejects_ineligible_index(self):
        _, authority, _, contract, operators, fv = run_to_filter()
        ineligible = next(
            o for o in operators
            if fv.bits[index_of(contract, o.profile.active_address)] == 0
        )
        from privmarket.protocol import DeliveryMessage

        index = index_of(contract, ineligible.profile.active_address)
        msg = DeliveryMessage(index, ineligible.ciphertext)
        assert authority_verify_delivery(authority, msg, contract.commitments, fv) \
            == DeliveryVerdict.INELIGIBLE

    def test_verify_gives_verdict_for_out_of_range_index(self):
        _, authority, _, contract, operators, fv = run_to_filter()
        from privmarket.protocol import DeliveryMessage

        for index in (len(contract.commitments), -1):
            msg = DeliveryMessage(index, operators[0].ciphertext)
            assert authority_verify_delivery(authority, msg, contract.commitments, fv) \
                == DeliveryVerdict.OUT_OF_RANGE
        assert authority.accepted == {}

    @pytest.mark.parametrize("index", [1.0, "1", None, True])
    def test_verify_gives_verdict_for_an_index_that_is_not_an_int(self, index):
        _, authority, _, contract, operators, fv = run_to_filter()
        from privmarket.protocol import DeliveryMessage

        at_one = next(o for o in operators if index_of(contract, o.profile.active_address) == 1)
        msg = DeliveryMessage(index, at_one.ciphertext)
        assert authority_verify_delivery(authority, msg, contract.commitments, fv) \
            == DeliveryVerdict.OUT_OF_RANGE
        assert authority.accepted == {}

    def test_verify_gives_verdict_for_a_ciphertext_that_is_not_a_ciphertext(self):
        _, authority, _, contract, operators, fv = run_to_filter()
        from privmarket.protocol import DeliveryMessage

        msg = next(m for m in (operator_deliver(o, fv, contract.commitments) for o in operators) if m)
        for body in (None, b"", bytes(msg.ciphertext), bytearray(msg.ciphertext)):
            bad = DeliveryMessage(msg.index, body)
            assert authority_verify_delivery(authority, bad, contract.commitments, fv) \
                == DeliveryVerdict.HASH_MISMATCH
        assert authority.accepted == {}

    def test_verify_gives_verdict_for_an_index_the_filter_does_not_cover(self):
        _, authority, _, contract, operators, _ = run_to_filter(nr=1, count=2)
        from privmarket.protocol import DeliveryMessage, FilterVector

        at_one = next(o for o in operators if index_of(contract, o.profile.active_address) == 1)
        msg = DeliveryMessage(1, at_one.ciphertext)
        assert authority_verify_delivery(authority, msg, contract.commitments, FilterVector((1,))) \
            == DeliveryVerdict.INELIGIBLE
        assert authority.accepted == {}

    def test_deliver_refuses_a_filter_without_its_bit(self):
        _, _, _, contract, operators, _ = run_to_filter(nr=1, count=2)
        from privmarket.protocol import FilterVector

        at_one = next(o for o in operators if index_of(contract, o.profile.active_address) == 1)
        with pytest.raises(ProtocolError, match="no bit for index 1"):
            operator_deliver(at_one, FilterVector((1,)), contract.commitments)

    def test_verify_rejects_duplicates_and_accepts_valid(self):
        _, authority, _, contract, operators, fv = run_to_filter()
        msg = next(m for m in (operator_deliver(o, fv, contract.commitments) for o in operators) if m)
        assert authority_verify_delivery(authority, msg, contract.commitments, fv) \
            == DeliveryVerdict.ACCEPTED
        assert len(authority.accepted) == 1
        assert authority_verify_delivery(authority, msg, contract.commitments, fv) \
            == DeliveryVerdict.DUPLICATE
        assert len(authority.accepted) == 1


@functools.cache
def filtered_survey():
    """A 6-operator survey whose filter marks 3; deliveries neither change it nor its operators."""
    _, _, _, contract, operators, fv = run_to_filter(nr=3, count=6, f=0.5)
    return contract, operators, fv


def tampered(ciphertext):
    body = bytearray(ciphertext.body)
    body[0] ^= 0x01
    return Ciphertext(ciphertext.cipher_nonce, bytes(body))


# an index: in range, out of range, or not an int (a bool among them)
DRAWN_INDEX = st.integers(-2, 8) | st.sampled_from([1 << 70, 1.0, "1", None, True, False])
# a body: some operator's ciphertext, a tampered one, its bare bytes, or nothing usable
DRAWN_BODY = st.tuples(st.sampled_from(["own", "tampered", "bytes"]), st.integers(0, 5)) | st.sampled_from([None, b""])
# the survey's filter, or one too short to cover the commitments
DRAWN_FILTER_LENGTH = st.sampled_from([None, 0, 1, 5])


def body_of(drawn, operators):
    if not isinstance(drawn, tuple):
        return drawn
    kind, i = drawn
    ciphertext = operators[i].ciphertext
    return {"own": ciphertext, "tampered": tampered(ciphertext), "bytes": bytes(ciphertext)}[kind]


def filter_of(length, fv):
    return fv if length is None else FilterVector(fv.bits[:length])


def outcome(run):
    """What `run` returned, or the type and message of what it raised."""
    try:
        return run(), None
    except Exception as exc:
        return None, (type(exc), str(exc))


class TestPopulationFormsAreLoops:
    @given(
        messages=st.lists(st.tuples(DRAWN_INDEX, DRAWN_BODY) | st.integers(0, 5), max_size=10),
        length=DRAWN_FILTER_LENGTH,
        accepted_before=st.lists(st.integers(0, 5), max_size=2),
    )
    @settings(deadline=None, max_examples=150)
    def test_verify_deliveries_is_a_loop_of_authority_verify_delivery(self, messages, length, accepted_before):
        contract, operators, fv = filtered_survey()
        fv = filter_of(length, fv)
        # a bare number i is operator i's own delivery, so that lists repeat deliveries that verify
        messages = [
            DeliveryMessage(index_of(contract, operators[m].profile.active_address), operators[m].ciphertext)
            if isinstance(m, int) else DeliveryMessage(m[0], body_of(m[1], operators))
            for m in messages
        ]

        def authority():
            party = Authority(Address(b"\xaa" * 20), small_config(nr=3, f=0.5))
            party.accepted.update((i, operators[i].ciphertext) for i in accepted_before)
            return party

        loop_party, batch_party = authority(), authority()
        loop = outcome(lambda: [authority_verify_delivery(loop_party, m, contract.commitments, fv) for m in messages])
        batch = outcome(lambda: verify_deliveries(
            batch_party, [m.index for m in messages], [m.ciphertext for m in messages], contract.commitments, fv,
        ))
        assert batch == loop
        assert list(batch_party.accepted.items()) == list(loop_party.accepted.items())

    @given(
        senders=st.lists(st.tuples(st.integers(0, 6), DRAWN_BODY | st.just("prepared")), max_size=8),
        length=DRAWN_FILTER_LENGTH,
    )
    @settings(deadline=None, max_examples=150)
    def test_deliver_population_is_a_loop_of_operator_deliver(self, senders, length):
        # sender 6 never committed; a sender holds its prepared ciphertext, another body, or none
        contract, operators, fv = filtered_survey()
        fv = filter_of(length, fv)
        stranger = Operator(profile(0x77), np.random.default_rng(0))
        senders = [
            (operators[i] if i < 6 else stranger, operators[i].ciphertext if body == "prepared" and i < 6
             else None if body == "prepared" else body_of(body, operators))
            for i, body in senders
        ]

        def loop():
            sent = []
            for operator, ciphertext in senders:
                single = Operator(operator.profile, operator._rng)
                single.ciphertext = ciphertext
                msg = operator_deliver(single, fv, contract.commitments)
                if msg is not None:
                    sent.append((msg.index, msg.ciphertext))
            return sent

        def batch():
            indices, sent = deliver_population(
                Population.of([operator.profile for operator, _ in senders]), [c for _, c in senders], fv,
                contract.commitments,
            )
            return list(zip(indices, sent))

        assert outcome(batch) == outcome(loop)


class TestPopulation:
    PROFILES = [
        OperatorProfile("op-a", (addr(9), addr(8)), {"region": "NSW", "tier": "gold"}, 3),
        OperatorProfile("op-b", (addr(2),), {}, 0),
        OperatorProfile("op-c", (addr(5),), {"tier": ""}, 1),
    ]

    def test_the_columns_are_the_profiles_fields_with_the_active_address_only(self):
        population = Population.of(self.PROFILES)
        assert len(population) == 3 and population.addresses == addr(9).value + addr(2).value + addr(5).value
        assert population.operator_ids == [p.operator_id for p in self.PROFILES]
        assert population.true_choices.dtype == np.int64
        assert population.true_choices.tolist() == [p.true_choice for p in self.PROFILES]
        assert population.attributes == {
            name: [p.attributes.get(name) for p in self.PROFILES] for name in ("region", "tier")
        } == {"region": ["NSW", None, None], "tier": ["gold", None, ""]}

    def test_a_population_is_not_a_sequence_and_reads_no_row(self):
        population = Population.of(self.PROFILES)
        assert not isinstance(population, collections.abc.Sequence)
        for rows in (0, -1, 3, slice(1, None)):
            with pytest.raises(TypeError):
                population[rows]

    def test_a_population_is_its_own_population(self):
        population = Population.of(self.PROFILES)
        assert Population.of(population) is population
        assert len(Population.of([])) == 0 and Population.of([]).addresses == b""

    def test_of_reads_an_iterator_of_profiles_once(self):
        # it walked its input once per column, so an iterator gave an empty population
        once, listed = Population.of(iter(self.PROFILES)), Population.of(self.PROFILES)
        assert once.operator_ids == listed.operator_ids and once.addresses == listed.addresses
        assert once.true_choices.tolist() == listed.true_choices.tolist() and once.attributes == listed.attributes

    def test_a_survey_of_an_iterator_of_profiles_is_the_survey_of_their_list(self):
        def survey(profiles):
            return run_survey(small_config(nr=3, f=0.5), profiles, operator_rngs=rngs(5),
                              infra_rng=np.random.default_rng(0))

        profiles = [profile(i + 1, choice=i % 4) for i in range(5)]
        once, listed = survey(iter(profiles)), survey(profiles)
        assert once.contract.log.to_bytes() == listed.contract.log.to_bytes()
        assert list(once.trace) == list(listed.trace)

    def test_a_population_refuses_one_str_as_its_operator_ids(self):
        # "ab" was read as the ids "a" and "b"
        with pytest.raises(ValueError, match="^operator_ids must be a sequence of ids, not one str$"):
            Population("ab", addr(1).value + addr(2).value, np.array([0, 1]), {})

    @pytest.mark.parametrize("addresses, message", [((), "at least one address"), ((addr(1), addr(1)), "distinct")])
    def test_a_profile_is_checked_when_made_and_frozen_after(self, addresses, message):
        with pytest.raises(ValueError, match=message):
            OperatorProfile("op-x", addresses, {}, 0)
        made = OperatorProfile("op-x", (addr(1),), {}, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            made.addresses = addresses
        made.attributes["region"] = "NSW"  # the contents of its attributes may still change
        population = Population.of([self.PROFILES[1], made])
        assert population.addresses == addr(2).value + addr(1).value and population.attributes == {"region": [None, "NSW"]}

    @pytest.mark.parametrize("addresses, choice, message", [
        ((addr(1).value,), 0, "operator addresses must be Address values"),  # run_survey failed on its .value
        ((addr(1),), 1.7, "true_choice must be an int, got 1.7"),  # silently became choice 1
        ((addr(1),), "1", "true_choice must be an int, got '1'"),
        ((addr(1),), True, "true_choice must be an int, got True"),
    ], ids=["raw address", "float choice", "str choice", "bool choice"])
    def test_a_profile_refuses_a_raw_address_and_a_choice_that_is_no_int(self, addresses, choice, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            OperatorProfile("op-x", addresses, {}, choice)

    def test_a_profile_takes_a_numpy_integer_choice(self):
        assert Population.of([OperatorProfile("op-x", (addr(1),), {}, np.int64(3))]).true_choices.tolist() == [3]

    # each of these ran at run_survey: a 20-byte block failed late with a ProtocolError, a 30-byte one in
    # numpy, and the others completed silently
    @pytest.mark.parametrize("addresses, choices, attributes, message", [
        (addr(1).value, [0, 1], {}, "addresses must be one bytes block of 2 x 20 bytes"),
        (addr(1).value + addr(2).value[:10], [0, 1], {}, "addresses must be one bytes block of 2 x 20 bytes"),
        (addr(1).value + addr(2).value, [0, 1, 2], {}, "true_choices must be a 1-D int64 array of length 2"),
        (addr(1).value + addr(2).value, [0, 1], {"region": ["NSW"]},
         "attribute column 'region' must have length 2, got 1"),
        (addr(1).value + addr(2).value, [0.0, 1.0], {}, "true_choices must be a 1-D int64 array of length 2"),
        (addr(1).value + addr(2).value, [0, 1], {"region": "NS"},  # screened op-a as region "N", op-b as "S"
         "attribute column 'region' must be a sequence of values, not one str"),
    ], ids=["20-byte block", "30-byte block", "3 choices", "1-entry column", "float choices", "str column"])
    def test_a_population_is_checked_when_made(self, addresses, choices, attributes, message):
        def survey(addresses, choices, attributes):
            population = Population(["op-a", "op-b"], addresses, np.array(choices), attributes)
            return run_survey(small_config(nr=2), population, operator_rngs=rngs(2), infra_rng=np.random.default_rng(0))

        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            survey(addresses, choices, attributes)
        assert survey(addr(1).value + addr(2).value, [0, 1], {"region": ["NSW", "VIC"]}).contract.phase == ContractPhase.SETTLED

    def test_of_runs_no_profile_check(self, monkeypatch):
        profiles = [OperatorProfile(f"op-{i}", (Address(i.to_bytes(20, "big")),), {}, i % 4) for i in range(1000)]
        checks = []
        monkeypatch.setattr(OperatorProfile, "__post_init__", lambda self: checks.append(self))
        assert len(Population.of(profiles)) == 1000 and checks == []

    def test_deliver_population_returns_python_ints(self):
        _, _, _, contract, operators, fv = run_to_filter(nr=3, count=5)
        indices, sent = deliver_population(
            Population.of([o.profile for o in operators]), [o.ciphertext for o in operators], fv, contract.commitments,
        )
        assert len(indices) == 3 and all(type(i) is int for i in indices)
        assert sent == [o.ciphertext for o in operators if fv.bits[index_of(contract, o.profile.active_address)]]


class TestDepositAndSettle:
    def _deliver_all(self, authority, contract, operators, fv):
        for operator in operators:
            msg = operator_deliver(operator, fv, contract.commitments)
            if msg is not None:
                authority_verify_delivery(authority, msg, contract.commitments, fv)

    def test_premature_deposit_refused_locally(self):
        _, authority, _, contract, _, _ = run_to_filter(nr=2)
        with pytest.raises(ProtocolError):
            authority_deposit_and_await_reveal(authority, contract)
        assert contract.phase == ContractPhase.FILTERED

    def test_deposit_after_exactly_nr_deliveries(self):
        _, authority, _, contract, operators, fv = run_to_filter(nr=2)
        self._deliver_all(authority, contract, operators, fv)
        authority_deposit_and_await_reveal(authority, contract)
        assert contract.phase == ContractPhase.DEPOSITED
        with pytest.raises(LedgerError):
            authority_deposit_and_await_reveal(authority, contract)

    def test_settle_refused_before_reveal(self):
        _, authority, _, contract, operators, fv = run_to_filter(nr=2)
        self._deliver_all(authority, contract, operators, fv)
        authority_deposit_and_await_reveal(authority, contract)
        with pytest.raises(ProtocolError):
            settle_and_decrypt(authority, contract, authority.accepted)

    def test_settle_refuses_a_delivery_count_other_than_nr(self):
        _, authority, sysop, contract, operators, fv = run_to_filter(nr=2)
        self._deliver_all(authority, contract, operators, fv)
        authority_deposit_and_await_reveal(authority, contract)
        sysop_reveal_secret(sysop, contract)
        before = len(contract.log)
        (first, c), _ = authority.accepted.items()
        with pytest.raises(ProtocolError, match="^have 1 deliveries, need exactly 2$"):
            settle_and_decrypt(authority, contract, {first: c})
        assert len(contract.log) == before

    def test_settle_after_reveal_decrypts_everything(self):
        _, authority, sysop, contract, operators, fv = run_to_filter(nr=3, count=5)
        self._deliver_all(authority, contract, operators, fv)
        authority_deposit_and_await_reveal(authority, contract)
        sysop_reveal_secret(sysop, contract)
        outcome = settle_and_decrypt(authority, contract, authority.accepted)
        assert len(outcome.decrypted_vectors) == 3
        assert outcome.decrypted_vectors.shape == (3, 4)
        # composition: the estimate is exactly the ldp pipeline on the vectors
        recomputed = estimate_frequencies(
            accumulate_counts(outcome.decrypted_vectors), authority.config.privacy
        )
        assert outcome.estimate == recomputed

    @pytest.mark.parametrize(
        "plaintext",
        [bytes.fromhex("000000049f"), bytes.fromhex("0000000380"), bytes.fromhex("000000049000")],
    )
    def test_settle_names_the_delivery_that_fails_to_decode(self, plaintext):
        # nonzero padding, wrong length prefix, trailing byte: each under the right key
        from privmarket.envelope import derive_session_key, encrypt

        _, authority, sysop, contract, operators, fv = run_to_filter(nr=3, count=5)
        self._deliver_all(authority, contract, operators, fv)
        authority_deposit_and_await_reveal(authority, contract)
        sysop_reveal_secret(sysop, contract)
        bad_index = sorted(authority.accepted)[1]
        sk = derive_session_key(contract.s1, contract.revealed_s2)
        accepted = dict(authority.accepted)
        accepted[bad_index] = encrypt(sk, plaintext, b"\x05" * 12)
        outcome = settle_and_decrypt(authority, contract, accepted)
        assert outcome.failed_indices == (bad_index,)
        assert outcome.estimate.report_count == 2
        honest = settle_and_decrypt(authority, contract, authority.accepted)
        assert honest.failed_indices == ()
        assert (outcome.decrypted_vectors == honest.decrypted_vectors[[0, 2]]).all()

    def _settle_with(self, replace):
        """Settle an honest 3-of-5 survey; replace maps a delivery's rank to make(sk, ciphertext)."""
        from privmarket.envelope import derive_session_key

        _, authority, sysop, contract, operators, fv = run_to_filter(nr=3, count=5)
        self._deliver_all(authority, contract, operators, fv)
        authority_deposit_and_await_reveal(authority, contract)
        sysop_reveal_secret(sysop, contract)
        sk = derive_session_key(contract.s1, contract.revealed_s2)
        indices = sorted(authority.accepted)
        accepted = dict(authority.accepted)
        for rank, make in replace.items():
            accepted[indices[rank]] = make(sk, accepted[indices[rank]])
        return indices, settle_and_decrypt(authority, contract, accepted)

    @staticmethod
    def _wrong_nonce(sk, c):
        from privmarket.envelope import Ciphertext

        return Ciphertext(b"\x07" * 12, c.body)

    def test_settle_keeps_what_opens_after_a_decryption_failure(self):
        from privmarket.envelope import encrypt

        def undecodable(sk, c):
            return encrypt(sk, b"\x00\x00\x00\x09\xff", b"\x08" * 12)

        indices, outcome = self._settle_with({2: self._wrong_nonce, 0: undecodable})
        assert outcome.failed_indices == (indices[0], indices[2])
        assert outcome.decrypted_vectors.shape == (1, 4)
        assert outcome.estimate.report_count == 1

    def test_settle_raises_only_when_nothing_opens(self):
        with pytest.raises(ProtocolError, match="none of the 3 deliveries decrypted and decoded"):
            self._settle_with(dict.fromkeys(range(3), self._wrong_nonce))

    @pytest.mark.parametrize("value", [b"\x00" * 40, None, "not a ciphertext"])
    def test_settle_lists_an_accepted_value_that_is_no_ciphertext(self, value):
        indices, outcome = self._settle_with({1: lambda sk, c: value})
        assert outcome.failed_indices == (indices[1],)
        assert outcome.estimate.report_count == 2

    @pytest.mark.parametrize("key", ["0", False, 0.0])  # False and 0.0 equal 0, which no later index is
    def test_settle_refuses_a_key_that_is_no_int_before_decrypting(self, key, monkeypatch):
        _, authority, sysop, contract, operators, fv = run_to_filter(nr=3, count=4)
        self._deliver_all(authority, contract, operators, fv)
        authority_deposit_and_await_reveal(authority, contract)
        sysop_reveal_secret(sysop, contract)
        first, *rest = sorted(authority.accepted)
        accepted = {key: authority.accepted[first], **{i: authority.accepted[i] for i in rest}}
        monkeypatch.setattr(protocol, "decrypt_population", lambda *args: pytest.fail("decrypted"))
        with pytest.raises(ProtocolError, match=re.escape(f"accepted delivery key {key!r} is not an int index")):
            settle_and_decrypt(authority, contract, accepted)


class TestEqualSplit:
    def test_split_rule(self):
        assert equal_split(100, 2) == 40
        assert equal_split(100, 3) == 26

    def test_payout_marks_contract_settled(self):
        _, authority, sysop, contract, operators, fv = run_to_filter(nr=2)
        for operator in operators:
            msg = operator_deliver(operator, fv, contract.commitments)
            if msg is not None:
                authority_verify_delivery(authority, msg, contract.commitments, fv)
        authority_deposit_and_await_reveal(authority, contract)
        sysop_reveal_secret(sysop, contract)
        distribution = sysop_payout(sysop, contract, fv)
        assert contract.phase == ContractPhase.SETTLED
        assert sum(distribution.values()) <= contract.fee
        assert len(distribution) == 2

    def test_an_operator_settles_a_survey_the_system_operator_leaves_revealed(self):
        store, authority, sysop, contract, operators, fv = run_to_filter(nr=2)
        for operator in operators:
            msg = operator_deliver(operator, fv, contract.commitments)
            if msg is not None:
                authority_verify_delivery(authority, msg, contract.commitments, fv)
        authority_deposit_and_await_reveal(authority, contract)
        sysop_reveal_secret(sysop, contract)
        # the system operator stops here; an operator settles with the published filter
        published = list(unpack_bit_vector_stream(store.get(filter_uri(contract)))[0])
        paid = payout(contract, published)
        share = equal_split(contract.fee, contract.required_responses)
        eligible = [a for a, bit in zip(sorted(arrival_addresses(contract.commitments)), fv.bits) if bit]
        assert paid == dict.fromkeys(eligible, share) and share == 40
        assert all(contract.balance_deltas[a] == share for a in eligible)
        assert contract.balance_deltas[sysop.address.value] == contract.fee - 2 * share
        assert contract.phase == ContractPhase.SETTLED
        with pytest.raises(LedgerError, match="phase SETTLED"):
            sysop_payout(sysop, contract, fv)

    @pytest.mark.parametrize("bits", [(2, 0, 0, 0), (0.5, 1, 1, 0)])
    def test_filter_bits_other_than_0_or_1_are_a_ledger_error(self, bits):
        _, authority, sysop, contract, operators, fv = run_to_filter(nr=2, count=4)
        for operator in operators:
            msg = operator_deliver(operator, fv, contract.commitments)
            if msg is not None:
                authority_verify_delivery(authority, msg, contract.commitments, fv)
        authority_deposit_and_await_reveal(authority, contract)
        sysop_reveal_secret(sysop, contract)

        def state():
            return contract.phase, contract.log.to_bytes(), contract.escrow_balance, dict(contract.balance_deltas)

        before = state()
        with pytest.raises(LedgerError, match="not a bit vector"):
            payout(contract, list(bits))
        assert state() == before
        with pytest.raises(LedgerError, match="not a bit vector"):
            sysop_payout(sysop, contract, FilterVector(bits))
        assert state() == before and before[0] == ContractPhase.REVEALED


class TestRunSurvey:
    def test_no_noise_run_recovers_exact_histogram(self):
        choices = [0, 1, 1, 2, 3, 3, 3, 0, 2, 1, 0, 2]
        profiles = [profile(i + 1, choice=c) for i, c in enumerate(choices)]
        config = small_config(nr=len(choices), fee=1000, f=0.0)
        outcome = run_survey(
            config, profiles,
            operator_rngs=rngs(len(profiles)),
            infra_rng=np.random.default_rng(5),
        )
        histogram = [choices.count(j) for j in range(4)]
        assert list(outcome.aggregation.estimate.raw_estimates) == [float(h) for h in histogram]
        assert outcome.contract.phase == ContractPhase.SETTLED
        assert verify_event_chain(outcome.contract.log) == (True, None)

    @pytest.mark.parametrize("term, message", [
        ("fee", "fee must be below 2**64"),
        ("nr", "required response count must be below 2**64"),
    ])
    def test_terms_the_ledger_cannot_record_are_refused(self, term, message):
        # the ledger records the fee and NR as u64: a larger term is refused before a survey starts
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**{term: 2**64})

    @pytest.mark.parametrize("term, name, value", [
        ("nr", "required response count", 3.0),
        ("nr", "required response count", True),
        ("nr", "required response count", "3"),
        ("fee", "fee", True),
        ("fee", "fee", 1.5),
    ])
    def test_terms_that_are_not_ints_are_refused(self, term, name, value):
        # refused by the configuration, not by the ledger once the survey runs
        with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
            small_config(**{term: value})

    def test_exactly_nr_accepted_and_decrypted(self):
        profiles = [profile(i + 1, choice=i % 4) for i in range(6)]
        config = small_config(nr=4, fee=100, f=0.5)
        outcome = run_survey(
            config, profiles,
            operator_rngs=rngs(6, seed=3),
            infra_rng=np.random.default_rng(3),
        )
        assert outcome.filter_vector.popcount == 4
        assert len(outcome.aggregation.decrypted_vectors) == 4

    def test_balances_are_keyed_by_raw_addresses_and_conserve_money(self):
        profiles = [profile(i + 1, choice=i % 4) for i in range(6)]
        outcome = run_survey(
            small_config(nr=4, fee=100, f=0.5), profiles,
            operator_rngs=rngs(6, seed=3),
            infra_rng=np.random.default_rng(3),
        )
        deltas = outcome.contract.balance_deltas
        assert len(deltas) == 6 and all(type(a) is bytes and len(a) == 20 for a in deltas)  # both parties, 4 payees
        assert outcome.contract.escrow_balance + sum(deltas.values()) == 0

    def test_insufficient_operators_raises_with_trace(self):
        profiles = [profile(1), profile(2)]
        config = small_config(nr=3)
        with pytest.raises(ProtocolError) as excinfo:
            run_survey(
                config, profiles,
                operator_rngs=rngs(2),
                infra_rng=np.random.default_rng(0),
            )
        assert excinfo.value.trace  # trace attached for post-mortem

    def test_trace_keeps_the_commits_before_a_failed_one(self):
        # op-02 reuses op-01's address, so the ledger refuses its commitment
        twin = OperatorProfile("op-02", (addr(1),), {"region": "NSW"}, 0)
        with pytest.raises(ProtocolError, match="already committed") as excinfo:
            run_survey(
                small_config(nr=2), [profile(1), twin], operator_rngs=[np.random.default_rng(1)] * 2,
                infra_rng=np.random.default_rng(0),
            )
        commits = [line for line in excinfo.value.trace if " commit " in line]
        assert len(commits) == 1 and "op-01" in commits[0]

    # the exact trace lines of two failed surveys
    def test_duplicate_address_failure_trace_is_pinned(self):
        twin = OperatorProfile("op-03", (addr(2),), {"region": "NSW"}, 0)
        with pytest.raises(ProtocolError) as excinfo:
            run_survey(
                small_config(nr=2, f=0.0), [profile(1), profile(2), twin, profile(4)],
                operator_rngs=[np.random.default_rng(1)] * 4, infra_rng=np.random.default_rng(0),
            )
        assert str(excinfo.value) == f"address {addr(2)} already committed (first commitment wins)"
        assert excinfo.value.trace == [
            "sysop     create-contract        id=b7b656296364423f nr=2 fee=100",
            "sysop     distribute-psk         recipients=4",
            "operator  commit                 op-01 commitment=7b6a52b81f09bde1",
            "operator  commit                 op-02 commitment=04d9ded233ef536b",
        ]

    def test_insufficient_eligible_failure_trace_is_pinned(self):
        criteria = FilterCriteria([("region", ["VIC"])])
        with pytest.raises(InsufficientEligibleError, match="^only 2 eligible commitments, need 3$") as excinfo:
            run_survey(
                small_config(nr=3, f=0.0, criteria=criteria),
                [profile(1, "VIC"), profile(2), profile(3, "VIC"), profile(4)],
                operator_rngs=[np.random.default_rng(1)] * 4, infra_rng=np.random.default_rng(0),
            )
        assert excinfo.value.trace == [
            "sysop     create-contract        id=9b0e13f8d899ce79 nr=3 fee=100",
            "sysop     distribute-psk         recipients=4",
            "operator  commit                 op-01 commitment=7b6a52b81f09bde1",
            "operator  commit                 op-02 commitment=04d9ded233ef536b",
            "operator  commit                 op-03 commitment=e3bf9a62c1f4266f",
            "operator  commit                 op-04 commitment=75135b68dfd77476",
        ]

    def test_trace_is_rendered_on_first_read_from_the_values_of_the_run(self):
        def run():
            profiles = [profile(i + 1, choice=i % 4) for i in range(5)]
            outcome = run_survey(
                small_config(nr=3, f=0.5), profiles, operator_rngs=rngs(5, seed=4),
                infra_rng=np.random.default_rng(4),
            )
            return outcome, profiles

        rendered_at_once = list(run()[0].trace)
        outcome, profiles = run()
        assert isinstance(outcome.trace, SurveyTrace) and outcome.trace._lines is None
        for p in profiles:
            p.attributes["region"] = "renamed"
        profiles.reverse()
        assert list(outcome.trace) == rendered_at_once == list(outcome.trace)
        assert len(outcome.trace) == 2 + 5 + 1 + 3 + 2 + 3 + 1
        assert "op-01" in outcome.trace[2]

    def test_delivery_ends_at_the_first_rejection_with_the_loops_trace(self, monkeypatch):
        # the population commits in one call; arrival 1 then delivers a body other than the one it
        # committed, and arrival 2 never delivers
        def run():
            profiles = [profile(i + 1, choice=i % 4) for i in range(5)]
            return run_survey(small_config(nr=3, f=0.5), profiles, operator_rngs=[np.random.default_rng(6)] * 5,
                              infra_rng=np.random.default_rng(7))

        honest = list(run().trace)
        commit = protocol.commit_population

        def tampering(*args):
            ciphertexts, commitments = commit(*args)
            return [*ciphertexts[:1], tampered(ciphertexts[1]), *ciphertexts[2:]], commitments

        monkeypatch.setattr(protocol, "commit_population", tampering)
        with pytest.raises(ProtocolError, match="rejected: hash_mismatch$") as excinfo:
            run()
        verified = [i for i, line in enumerate(honest) if " verify-delivery " in line]
        rejected = honest[verified[1]].replace("verdict=accepted", "verdict=hash_mismatch")
        assert excinfo.value.trace == honest[: verified[1]] + [rejected]

    @pytest.mark.parametrize("count", [1, 3])
    def test_run_survey_needs_one_random_stream_per_profile(self, count):
        with pytest.raises(ValueError, match="^need exactly one random stream per operator profile$"):
            run_survey(small_config(nr=2), [profile(1), profile(2)], operator_rngs=rngs(count),
                       infra_rng=np.random.default_rng(0))

    def test_a_survey_commits_in_one_call_that_parses_the_configuration_once(self, monkeypatch):
        # five distinct generators are five runs of one generator each, yet one population
        calls = collections.Counter()

        def counted(name):
            original = getattr(protocol, name)

            def call(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(protocol, name, call)

        for name in ("commit_population", "parse_config_file", "derive_session_key"):
            counted(name)
        outcome = run_survey(small_config(nr=5, f=0.5), [profile(i + 1, choice=i % 4) for i in range(5)],
                             operator_rngs=rngs(5), infra_rng=np.random.default_rng(0))
        assert outcome.contract.phase == ContractPhase.SETTLED
        # the session key: once to commit, once to decrypt
        assert calls == {"commit_population": 1, "parse_config_file": 1, "derive_session_key": 2}

    def test_infra_rng_may_not_randomize_operators(self):
        infra = np.random.default_rng(0)
        with pytest.raises(ValueError, match="infra_rng"):
            run_survey(small_config(nr=2), [profile(1), profile(2)], operator_rngs=[infra] * 2, infra_rng=infra)

    def test_fair_exchange_ordering_on_trace(self):
        profiles = [profile(i + 1) for i in range(3)]
        config = small_config(nr=3)
        outcome = run_survey(
            config, profiles,
            operator_rngs=rngs(3, seed=9),
            infra_rng=np.random.default_rng(9),
        )
        kinds = [e.kind for e in outcome.contract.log]
        assert kinds.index(EventKind.DEPOSITED) < kinds.index(EventKind.REVEALED)
        assert kinds.index(EventKind.REVEALED) < kinds.index(EventKind.TRANSFERRED)
        from privmarket.ledger import check_transfer_safety

        assert check_transfer_safety(outcome.contract.log)
