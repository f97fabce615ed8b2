import copy
import dataclasses
import functools
import hashlib
import re
import struct
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privmarket.envelope import Digest, FixedBytes, Nonce, Secret, digest, encode_bit_vector
from privmarket.ledger import (
    OPERATOR_SHARE_PCT,
    Address,
    CommitmentIndex,
    ContractPhase,
    EventKind,
    EventLog,
    LedgerError,
    LogFormatError,
    SurveyContract,
    abort,
    check_transfer_safety,
    commit_response,
    commit_responses,
    deposit,
    finalize_filter,
    payout,
    reveal_secret,
    verify_event_chain,
    _walk,
)
from privmarket.simulate import ExperimentConfig, run_full_protocol_experiment
from reference import arrival_addresses, describe, encode_payload

RNG = np.random.default_rng(2718)

AUTHORITY = Address(b"\xaa" * 20)
SYSOP = Address(b"\xbb" * 20)


def addr(first_byte: int) -> Address:
    return Address(bytes([first_byte]) + b"\x00" * 19)


def make_contract(nr=2, fee=100, deadline=1000, n1=None):
    psk = RNG.bytes(32)
    n1 = n1 if n1 is not None else Nonce(b"\x01" * 16)
    s2 = Secret(b"\x52" * 32)
    return SurveyContract(
        "survey://test/config",
        digest(b"config bytes"),
        nr,
        fee,
        n1,
        Nonce(b"\x02" * 16),
        Secret(b"\x51" * 32),
        digest(s2.value),
        deadline,
        authority=AUTHORITY,
        sysop=SYSOP,
    ), s2


def settle_to_deposit(contract, commitments):
    """Commit the given (address, digest) pairs, finalize an all-ones filter, deposit."""
    for a, d in commitments:
        commit_response(contract, a, d)
    bits = [1] * len(commitments)
    finalize_filter(contract, digest(encode_bit_vector(bits)))
    deposit(contract, AUTHORITY, contract.fee)
    return bits


def contract_state(contract):
    """Every field of a contract by value, its commitments, and its log's bytes."""
    fields = {k: v for k, v in vars(contract).items() if k not in ("commitments", "log")}
    index = contract.commitments
    return copy.deepcopy(fields), sorted(arrival_addresses(index)), index.sorted_commitments(), contract.log.to_bytes()


def terms_of(contract):
    """A contract's init fields by name: the arguments that build it again."""
    return {f.name: getattr(contract, f.name) for f in dataclasses.fields(contract) if f.init}


def reencoded(event) -> bytes:
    """The canonical encoding of an event's fields, made afresh (the hash covers these bytes)."""
    return struct.pack(">IB", event.sequence_no, event.kind) + encode_payload(event.payload) + event.prev_hash


class TestCreate:
    def test_rejects_zero_required_responses(self):
        with pytest.raises(ValueError):
            make_contract(nr=0)

    @pytest.mark.parametrize("fee,deadline", [(-1, 1000), (100, -1)])
    def test_rejects_negative_fee_or_deadline(self, fee, deadline):
        with pytest.raises(ValueError):
            make_contract(fee=fee, deadline=deadline)

    def test_fresh_contract_is_collecting_with_one_event(self):
        contract, _ = make_contract()
        assert contract.phase == ContractPhase.COLLECTING
        assert len(contract.log) == 1
        assert contract.log.events[0].kind == EventKind.CREATED

    def test_contract_id_covers_all_creation_bytes(self):
        c1, _ = make_contract(n1=Nonce(b"\x0a" * 16))
        c2, _ = make_contract(n1=Nonce(b"\x0b" * 16))
        assert c1.contract_id != c2.contract_id

    def test_the_created_payload_is_the_init_fields(self):
        contract, _ = make_contract()
        terms = terms_of(contract)
        created = contract.log.events[0]
        assert sorted(created.payload) == sorted(terms)
        assert dict(created.payload) == {k: v.value if isinstance(v, FixedBytes) else v for k, v in terms.items()}
        assert contract.contract_id == digest(encode_payload(created.payload))
        again = SurveyContract(**terms)
        assert again.contract_id == contract.contract_id
        assert again.log.to_bytes() == contract.log.to_bytes()

    @pytest.mark.parametrize("term", ["config_digest", "n1", "n2", "s1", "h_s2", "authority", "sysop"])
    def test_raw_bytes_for_a_fixed_bytes_term_raise(self, term):
        terms = terms_of(make_contract()[0])
        terms[term] = terms[term].value
        with pytest.raises(TypeError, match=term):
            SurveyContract(**terms)

    def test_a_term_of_another_fixed_bytes_type_raises(self):
        terms = terms_of(make_contract()[0])
        terms["n1"] = digest(b"not a nonce")
        with pytest.raises(TypeError, match="n1"):
            SurveyContract(**terms)


class TestCommit:
    def test_duplicate_address_rejected(self):
        contract, _ = make_contract()
        commit_response(contract, addr(0x0A), digest(b"one"))
        with pytest.raises(LedgerError):
            commit_response(contract, addr(0x0A), digest(b"two"))
        # first commitment wins
        assert contract.commitments.commitments() == [digest(b"one").value]

    def test_commit_after_finalize_rejected(self):
        contract, _ = make_contract(nr=1)
        commit_response(contract, addr(0x0A), digest(b"one"))
        finalize_filter(contract, digest(encode_bit_vector([1])))
        with pytest.raises(LedgerError, match="[Nn]o more responses"):
            commit_response(contract, addr(0x0B), digest(b"late"))

    def test_a_raw_bytes_commitment_changes_nothing(self):
        contract, _ = make_contract()
        before = contract_state(contract)
        with pytest.raises(LedgerError):
            commit_response(contract, addr(0x0A), digest(b"one").value)
        assert contract_state(contract) == before

    def test_sorted_index_order(self):
        contract, _ = make_contract()
        for b in (0x0A, 0x03, 0x07):
            commit_response(contract, addr(b), digest(bytes([b])))
        index = contract.commitments
        assert sorted(arrival_addresses(index)) == [addr(0x03).value, addr(0x07).value, addr(0x0A).value]
        assert index.ranks_of(addr(0x07).value).tolist() == [1]
        assert index.ranks_of(index.arrival_bytes()).tolist() == [2, 0, 1]
        assert arrival_addresses(index) == [addr(0x0A).value, addr(0x03).value, addr(0x07).value]


# small pools, so that a drawn batch repeats addresses; the raw bytes and the swapped types are refused
BATCH_ADDRESSES = [addr(b) for b in (0x0A, 0x03, 0x07, 0x80)]
BATCH_DIGESTS = [digest(bytes([b])) for b in range(3)]
BATCH_ADDRESS = st.sampled_from(BATCH_ADDRESSES) | st.sampled_from([BATCH_ADDRESSES[0].value, None, BATCH_DIGESTS[0]])
BATCH_COMMITMENT = st.sampled_from(BATCH_DIGESTS) | st.sampled_from([BATCH_DIGESTS[0].value, BATCH_ADDRESSES[0]])


def raw(value, kind):
    """The raw bytes of a value of `kind`, or None for a value of another type."""
    return value.value if isinstance(value, kind) else None


class TestCommitResponses:
    @staticmethod
    def outcome(earlier, filtered, commit):
        """Run `commit` on a contract holding the `earlier` commitments; the error and every visible effect."""
        contract, _ = make_contract()
        for address in earlier:
            commit_response(contract, address, digest(address.value))
        if filtered:
            finalize_filter(contract, digest(b"filter"))
        try:
            commit(contract)
            error = None
        except Exception as exc:
            error = (type(exc), str(exc))
        arrival = list(zip(arrival_addresses(contract.commitments), contract.commitments.commitments()))
        return error, arrival, contract_state(contract)  # the state holds the sorted index and the log bytes

    @given(
        earlier=st.lists(st.sampled_from(BATCH_ADDRESSES), unique=True, max_size=2),
        pairs=st.lists(st.tuples(BATCH_ADDRESS, BATCH_COMMITMENT), max_size=6),
        filtered=st.booleans(),
    )
    @settings(deadline=None, max_examples=300)
    def test_a_batch_is_a_loop_of_commit_response(self, earlier, pairs, filtered):
        """The batch takes raw bytes; a value of another type stands as None there, which it refuses as the
        loop refuses the value. A type refusal reads in each call's terms, so it is compared by kind."""
        def loop(contract):
            for address, commitment in pairs:
                commit_response(contract, address, commitment)

        def batch(contract):
            commit_responses(contract, [raw(a, Address) for a, _ in pairs], [raw(c, Digest) for _, c in pairs])

        def by_kind(outcome):
            error, *effects = outcome
            if error is not None and error[1].startswith(("commit needs an Address", "commit pair")):
                error = (error[0], "refused type")
            return error, *effects

        assert by_kind(self.outcome(earlier, filtered, batch)) == by_kind(self.outcome(earlier, filtered, loop))

    @pytest.mark.parametrize("address, commitment", [
        (addr(0x07).value[:19], digest(b"c").value), (addr(0x07), digest(b"c").value),
        (addr(0x07).value, digest(b"c").value + b"\0"), (addr(0x07).value, "c" * 32), (bytearray(20), digest(b"c").value),
    ])
    def test_a_pair_of_the_wrong_type_or_length_is_refused_after_the_pairs_before_it(self, address, commitment):
        contract, _ = make_contract()
        with pytest.raises(LedgerError, match="commit pair 1 is not 20 address and 32 commitment bytes"):
            commit_responses(contract, [addr(0x0A).value, address], [digest(b"a").value, commitment])
        assert arrival_addresses(contract.commitments) == [addr(0x0A).value]
        assert len(contract.log) == 2 and verify_event_chain(contract.log) == (True, None)

    def test_the_pairs_before_a_refused_one_stay_committed(self):
        contract, _ = make_contract()
        addresses = [addr(0x0A), addr(0x03), addr(0x0A), addr(0x07)]
        with pytest.raises(LedgerError, match="already committed"):
            commit_responses(contract, [a.value for a in addresses], [digest(bytes([i])).value for i in range(4)])
        assert arrival_addresses(contract.commitments) == [addr(0x0A).value, addr(0x03).value]
        assert [e.kind for e in contract.log] == [EventKind.CREATED, EventKind.COMMITTED, EventKind.COMMITTED]
        assert verify_event_chain(contract.log) == (True, None)

    def test_unequal_lengths_change_nothing(self):
        contract, _ = make_contract()
        before = contract_state(contract)
        with pytest.raises(LedgerError, match="one commitment per address"):
            commit_responses(contract, [addr(1).value, addr(2).value], [digest(b"one").value])
        assert contract_state(contract) == before

    def test_batch_events_are_those_append_writes(self):
        contract, _ = make_contract()
        commit_responses(contract, [addr(0x0A).value, addr(0x03).value], [digest(b"a").value, digest(b"b").value])
        log = EventLog()
        log.append(EventKind.CREATED, dict(contract.log.events[0].payload))
        for event in contract.log.events[1:]:
            log.append(EventKind.COMMITTED, dict(event.payload))
        assert list(log.events) == list(contract.log.events)


class TestFinalize:
    def test_moves_to_filtered(self):
        contract, _ = make_contract(nr=1)
        commit_response(contract, addr(1), digest(b"r"))
        finalize_filter(contract, digest(encode_bit_vector([1])))
        assert contract.phase == ContractPhase.FILTERED
        assert contract.filter_digest is not None

    def test_a_raw_bytes_filter_digest_changes_nothing(self):
        contract, _ = make_contract(nr=1)
        commit_response(contract, addr(1), digest(b"r"))
        before = contract_state(contract)
        with pytest.raises(LedgerError):
            finalize_filter(contract, digest(encode_bit_vector([1])).value)
        assert contract_state(contract) == before

    def test_double_finalize_rejected(self):
        contract, _ = make_contract(nr=1)
        commit_response(contract, addr(1), digest(b"r"))
        finalize_filter(contract, digest(encode_bit_vector([1])))
        with pytest.raises(LedgerError):
            finalize_filter(contract, digest(encode_bit_vector([1])))


class TestDeposit:
    def test_exact_amount_accepted(self):
        contract, _ = make_contract(nr=1, fee=100)
        settle_to_deposit(contract, [(addr(1), digest(b"r"))])
        assert contract.phase == ContractPhase.DEPOSITED
        assert contract.escrow_balance == 100

    def test_wrong_amount_rejected(self):
        contract, _ = make_contract(nr=1, fee=100)
        commit_response(contract, addr(1), digest(b"r"))
        finalize_filter(contract, digest(encode_bit_vector([1])))
        with pytest.raises(LedgerError):
            deposit(contract, AUTHORITY, 99)

    @pytest.mark.parametrize("fee,amount", [(100, 100.0), (1, True)])
    def test_an_amount_that_is_not_an_int_changes_nothing(self, fee, amount):
        contract, _ = make_contract(nr=1, fee=fee)
        commit_response(contract, addr(1), digest(b"r"))
        finalize_filter(contract, digest(encode_bit_vector([1])))
        before = contract_state(contract)
        with pytest.raises(LedgerError):
            deposit(contract, AUTHORITY, amount)
        assert contract_state(contract) == before

    def test_deposit_before_filter_rejected(self):
        contract, _ = make_contract(fee=100)
        with pytest.raises(LedgerError):
            deposit(contract, AUTHORITY, 100)

    def test_only_authority_may_deposit(self):
        contract, _ = make_contract(nr=1, fee=100)
        commit_response(contract, addr(1), digest(b"r"))
        finalize_filter(contract, digest(encode_bit_vector([1])))
        with pytest.raises(LedgerError):
            deposit(contract, SYSOP, 100)

    def test_double_deposit_rejected(self):
        contract, _ = make_contract(nr=1, fee=100)
        settle_to_deposit(contract, [(addr(1), digest(b"r"))])
        with pytest.raises(LedgerError):
            deposit(contract, AUTHORITY, 100)


class TestReveal:
    def test_correct_secret_transfers_deposit(self):
        contract, s2 = make_contract(nr=1, fee=100)
        settle_to_deposit(contract, [(addr(1), digest(b"r"))])
        reveal_secret(contract, s2)
        assert contract.phase == ContractPhase.REVEALED
        assert contract.revealed_s2 == s2
        transfers = [e for e in contract.log if e.kind == EventKind.TRANSFERRED]
        assert len(transfers) == 1
        assert transfers[0].payload["amount"] == 100
        assert transfers[0].payload["to"] == SYSOP.value
        assert contract.balance_deltas[SYSOP.value] == 100

    def test_wrong_secret_changes_nothing(self):
        contract, s2 = make_contract(nr=1, fee=100)
        settle_to_deposit(contract, [(addr(1), digest(b"r"))])
        events_before = len(contract.log)
        bad = bytearray(s2.value)
        bad[0] ^= 0x01
        with pytest.raises(LedgerError):
            reveal_secret(contract, Secret(bytes(bad)))
        assert contract.phase == ContractPhase.DEPOSITED
        assert contract.escrow_balance == 100
        assert len(contract.log) == events_before
        assert contract.revealed_s2 is None

    def test_a_raw_bytes_secret_changes_nothing(self):
        contract, s2 = make_contract(nr=1, fee=100)
        settle_to_deposit(contract, [(addr(1), digest(b"r"))])
        before = contract_state(contract)
        with pytest.raises(LedgerError):
            reveal_secret(contract, s2.value)
        assert contract_state(contract) == before

    def test_reveal_before_deposit_rejected(self):
        contract, s2 = make_contract(nr=1)
        commit_response(contract, addr(1), digest(b"r"))
        finalize_filter(contract, digest(encode_bit_vector([1])))
        with pytest.raises(LedgerError):
            reveal_secret(contract, s2)


class TestPayout:
    def _revealed_contract(self, nr=2, fee=100, committed=None):
        """A revealed contract whose filter marks every one of `committed` (default nr) commitments."""
        contract, s2 = make_contract(nr=nr, fee=fee)
        pairs = [(addr(i + 1), digest(bytes([i]))) for i in range(committed or nr)]
        bits = settle_to_deposit(contract, pairs)
        reveal_secret(contract, s2)
        return contract, bits, [a for a, _ in pairs]

    def test_equal_split_example(self):
        # fee 100, NR 2, operators share 80%: 40 each, sysop retains 20
        contract, bits, addresses = self._revealed_contract()
        assert payout(contract, bits) == {a.value: 40 for a in addresses}
        assert contract.phase == ContractPhase.SETTLED
        assert contract.balance_deltas[SYSOP.value] == 20
        assert all(contract.balance_deltas[a.value] == 40 for a in addresses)

    def test_a_payee_that_is_also_a_party_keeps_its_earlier_delta(self):
        contract, s2 = make_contract(nr=3, fee=100)
        bits = settle_to_deposit(contract, [(a, digest(a.value)) for a in (SYSOP, AUTHORITY, addr(1))])
        reveal_secret(contract, s2)
        paid = payout(contract, bits)
        assert paid == {addr(1).value: 26, AUTHORITY.value: 26, SYSOP.value: 26}
        assert list(paid) == [addr(1).value, AUTHORITY.value, SYSOP.value]  # ascending address order
        assert contract.balance_deltas == {AUTHORITY.value: -100 + 26, SYSOP.value: 100 - 78 + 26, addr(1).value: 26}
        assert list(contract.balance_deltas) == [AUTHORITY.value, SYSOP.value, addr(1).value]
        assert contract.escrow_balance + sum(contract.balance_deltas.values()) == 0

    def test_the_share_is_not_the_callers(self):
        contract, bits, _ = self._revealed_contract()
        before = contract_state(contract)
        with pytest.raises(TypeError):
            payout(contract, 0, bits)  # a share of 0 would leave the whole fee with the system operator
        assert contract_state(contract) == before

    def test_only_the_filters_ones_are_paid(self):
        contract, s2 = make_contract(nr=1, fee=100)
        commit_response(contract, addr(2), digest(b"b"))
        commit_response(contract, addr(1), digest(b"a"))
        bits = [0, 1]  # addr(1) ranks first, so addr(2) is the marked one
        finalize_filter(contract, digest(encode_bit_vector(bits)))
        deposit(contract, AUTHORITY, 100)
        reveal_secret(contract, s2)
        assert payout(contract, bits) == {addr(2).value: 80}
        assert addr(1).value not in contract.balance_deltas
        assert contract.balance_deltas[SYSOP.value] == 20
        assert contract.log.events[-1].payload["distribution"] == addr(2).value + struct.pack(">Q", 80)

    def test_filter_bits_must_match_recorded_digest(self):
        contract, bits, addresses = self._revealed_contract()
        with pytest.raises(LedgerError):
            payout(contract, [1, 0])

    def test_wrong_popcount_rejected_and_changes_nothing(self):
        contract, bits, addresses = self._revealed_contract(nr=1, committed=2)
        assert bits == [1, 1]  # the filter marks two commitments for NR = 1
        before = contract_state(contract)
        with pytest.raises(LedgerError):
            payout(contract, bits)
        assert contract_state(contract) == before
        assert contract.phase == ContractPhase.REVEALED

    @staticmethod
    def _revealed_with_filter(nr, bits):
        """A revealed contract of len(bits) commitments, in ascending address order, whose recorded filter is `bits`."""
        contract, s2 = make_contract(nr=nr, fee=100_000)
        raws = [i.to_bytes(20, "big") for i in range(1, len(bits) + 1)]
        commit_responses(contract, raws, [digest(raw).value for raw in raws])
        finalize_filter(contract, digest(encode_bit_vector(bits)))
        deposit(contract, AUTHORITY, contract.fee)
        reveal_secret(contract, s2)
        return contract, raws

    # a uint8 filter, as build_and_finalize_filter builds it before `.tolist()`: a `sum` over it wraps at 256
    def test_a_uint8_filter_that_marks_more_than_nr_is_refused_and_changes_nothing(self):
        bits = np.zeros(300, np.uint8)
        bits[:266] = 1  # 266 ones, which a wrapped sum counts as 10
        contract, _ = self._revealed_with_filter(10, bits)
        before = contract_state(contract)
        with pytest.raises(LedgerError, match="must mark exactly 10 of"):
            payout(contract, bits)
        assert contract_state(contract) == before
        assert contract.phase == ContractPhase.REVEALED

    def test_a_uint8_filter_that_marks_exactly_nr_pays_each_of_them(self):
        contract, raws = self._revealed_with_filter(300, np.ones(300, np.uint8))  # 300 ones: a wrapped sum is 44
        assert payout(contract, np.ones(300, np.uint8)) == dict.fromkeys(raws, 266)
        assert contract.phase == ContractPhase.SETTLED
        assert contract.escrow_balance + sum(contract.balance_deltas.values()) == 0

    def test_payout_builds_no_fixed_bytes(self, monkeypatch):
        contract, raws = self._revealed_with_filter(1000, [1] * 1000)
        built = []
        post_init = FixedBytes.__post_init__
        monkeypatch.setattr(FixedBytes, "__post_init__", lambda self: built.append(type(self)) or post_init(self))
        Address(raws[0]), Digest(bytes(32))  # every build runs the one checked constructor, so each is counted
        assert len(built) == 2
        built.clear()
        assert len(payout(contract, [1] * 1000)) == 1000
        assert built == []

    def test_payout_before_reveal_rejected(self):
        contract, _ = make_contract(nr=1, fee=100)
        bits = settle_to_deposit(contract, [(addr(1), digest(b"r"))])
        with pytest.raises(LedgerError):
            payout(contract, bits)

    @given(st.data())
    @settings(deadline=None, max_examples=300)
    def test_payout_settles_by_the_rule_or_changes_nothing(self, data):
        nr = data.draw(st.integers(1, 4), label="nr")
        fee = data.draw(st.integers(0, 1000), label="fee")
        raws = data.draw(
            st.lists(
                st.binary(min_size=20, max_size=20).filter(lambda b: b not in (AUTHORITY.value, SYSOP.value)),
                min_size=nr, max_size=nr + 3, unique=True,
            ),
            label="committed addresses, in arrival order",
        )
        exact = st.permutations([1] * nr + [0] * (len(raws) - nr)).map(list)
        recorded = data.draw(
            st.one_of(exact, st.lists(st.integers(0, 1), min_size=len(raws), max_size=len(raws))), label="filter"
        )
        supplied = data.draw(
            st.one_of(st.just(recorded), st.lists(st.integers(0, 1), max_size=len(raws) + 1)), label="supplied"
        )
        contract, s2 = make_contract(nr=nr, fee=fee)
        for i, raw in enumerate(raws):
            commit_response(contract, Address(raw), digest(bytes([i])))
        finalize_filter(contract, digest(encode_bit_vector(recorded)))
        deposit(contract, AUTHORITY, fee)
        reveal_secret(contract, s2)
        before = contract_state(contract)
        fair = supplied == recorded and sum(recorded) == nr
        try:
            paid = payout(contract, supplied)
        except LedgerError:
            assert not fair
            assert contract_state(contract) == before
            return
        assert fair
        share = fee * OPERATOR_SHARE_PCT // (100 * nr)
        eligible = [a for a, bit in zip(sorted(raws), recorded) if bit]
        assert paid == dict.fromkeys(eligible, share)
        operators = {a: d for a, d in contract.balance_deltas.items() if a not in (AUTHORITY.value, SYSOP.value)}
        assert operators == paid
        assert 0 <= contract.balance_deltas[SYSOP.value] == fee - share * nr
        assert contract.escrow_balance + sum(contract.balance_deltas.values()) == 0
        event = contract.log.events[-1]
        assert event.kind == EventKind.PAID_OUT
        assert event.payload["distribution"] == b"".join(a + struct.pack(">Q", share) for a in eligible)
        assert event.payload["total"] == share * nr
        assert contract.phase == ContractPhase.SETTLED


class TestAbort:
    def test_timeout_while_collecting(self):
        contract, _ = make_contract(deadline=10)
        abort(contract, now=11)
        assert contract.phase == ContractPhase.ABORTED
        assert not [e for e in contract.log if e.kind == EventKind.TRANSFERRED]

    def test_timeout_after_deposit_refunds(self):
        contract, _ = make_contract(nr=1, fee=100, deadline=10)
        settle_to_deposit(contract, [(addr(1), digest(b"r"))])
        abort(contract, now=11)
        refunds = [e for e in contract.log if e.kind == EventKind.TRANSFERRED]
        assert len(refunds) == 1
        assert refunds[0].payload["to"] == AUTHORITY.value
        assert contract.escrow_balance == 0
        assert contract.balance_deltas[AUTHORITY.value] == 0  # - fee + refund

    def test_before_deadline_rejected(self):
        contract, _ = make_contract(deadline=10)
        with pytest.raises(LedgerError):
            abort(contract, now=10)

    @pytest.mark.parametrize("deadline,now", [(1000, float("nan")), (1000, 1001.0), (0, True)])
    def test_a_now_that_is_not_an_int_changes_nothing(self, deadline, now):
        contract, _ = make_contract(deadline=deadline)
        before = contract_state(contract)
        with pytest.raises(LedgerError):
            abort(contract, now)
        assert contract_state(contract) == before

    def test_after_settlement_rejected(self):
        contract, s2 = make_contract(nr=1, fee=100, deadline=10)
        bits = settle_to_deposit(contract, [(addr(1), digest(b"r"))])
        reveal_secret(contract, s2)
        payout(contract, bits)
        with pytest.raises(LedgerError):
            abort(contract, now=999)


def full_honest_log():
    contract, s2 = make_contract(nr=2, fee=100)
    pairs = [(addr(5), digest(b"x")), (addr(9), digest(b"y"))]
    bits = settle_to_deposit(contract, pairs)
    reveal_secret(contract, s2)
    payout(contract, bits)
    return contract


class TestConservation:
    def test_flows_balance_at_every_point(self):
        contract = full_honest_log()
        deposits = escrow = to_sysop = refunds = 0
        for event in contract.log:
            if event.kind == EventKind.DEPOSITED:
                deposits += event.payload["amount"]
                escrow += event.payload["amount"]
            elif event.kind == EventKind.TRANSFERRED:
                escrow -= event.payload["amount"]
                if event.payload["to_role"] == "sysop":
                    to_sysop += event.payload["amount"]
                else:
                    refunds += event.payload["amount"]
            assert deposits == escrow + to_sysop + refunds
        # after settlement: sysop retained + operator payouts == fee
        paid = sum(contract.balance_deltas[a.value] for a in (addr(5), addr(9)))
        assert contract.balance_deltas[SYSOP.value] + paid == contract.fee

    def test_transfer_safety_on_honest_log(self):
        assert check_transfer_safety(full_honest_log().log)


class TestEventChain:
    def test_untouched_log_verifies(self):
        contract = full_honest_log()
        assert verify_event_chain(contract.log) == (True, None)

    def test_export_import_round_trip(self):
        log = full_honest_log().log
        data = log.to_bytes()
        restored = EventLog.from_bytes(data)
        assert verify_event_chain(restored) == (True, None)
        assert restored.to_bytes() == data
        assert [e.event_hash for e in restored] == [e.event_hash for e in log]

    @pytest.mark.parametrize("form", [bytes, bytearray, memoryview])
    def test_any_bytes_like_input_reads_as_its_bytes(self, form):
        data = run_full_protocol_experiment(ExperimentConfig(population=3, seed=1))[1].to_bytes()
        want, log = EventLog.from_bytes(data), EventLog.from_bytes(form(data))
        assert log.text_dump() == want.text_dump() and "bytearray" not in log.text_dump()
        assert list(log) == list(want) and all(type(e.event_bytes) is bytes for e in log)
        assert log.to_bytes() == data and type(log.to_bytes()) is bytes
        assert verify_event_chain(log) == verify_event_chain(want) == (True, None)

    @pytest.mark.parametrize("data", ["", "0 Created", 5, [0, 0, 0, 0]])
    def test_input_that_is_not_bytes_like_is_refused(self, data):
        with pytest.raises(TypeError):
            EventLog.from_bytes(data)

    def test_text_dump_one_line_per_event(self):
        log = full_honest_log().log
        lines = log.text_dump().splitlines()
        assert len(lines) == len(log)
        assert lines[0].startswith("0 Created")
        for event, line in zip(log, lines):
            assert event.event_hash.hex() in line

    def test_text_dump_quotes_party_strings(self):
        forged = "x\n1 Committed event=00\nchain OK"
        log = EventLog()
        log.append(EventKind.CREATED, {"config_uri": forged})
        log.append(EventKind.TRANSFERRED, {"to_role": "'sysop'", "to role": "a=b", "note": "naïve", "memo": "\x1b[2K"})
        lines = EventLog.from_bytes(log.to_bytes()).text_dump().splitlines()
        assert len(lines) == len(log)
        assert lines[0].endswith(" config_uri=" + repr(forged))
        assert lines[1].endswith(" memo='\\x1b[2K' note=naïve 'to role'='a=b' to_role=\"'sysop'\"")

    def test_single_byte_mutations_detected(self):
        data = full_honest_log().log.to_bytes()
        rng = np.random.default_rng(31337)
        for _ in range(200):
            position = int(rng.integers(len(data)))
            delta = int(rng.integers(1, 256))
            mutated = bytearray(data)
            mutated[position] ^= delta
            try:
                log = EventLog.from_bytes(bytes(mutated))
            except LogFormatError:
                continue  # structural damage counts as detected
            ok, bad = verify_event_chain(log)
            assert not ok
            assert bad is not None

    def test_swapped_events_detected(self):
        data = full_honest_log().log.to_bytes()
        records = split_records(data)
        records[2], records[3] = records[3], records[2]
        swapped = EventLog.from_bytes(b"".join(records))
        assert swapped.to_bytes() != data
        ok, bad = verify_event_chain(swapped)
        assert not ok
        assert bad == 2


class TestReadOnlyEvents:
    def test_payload_cannot_be_assigned(self):
        log = full_honest_log().log
        for event in (log.events[1], EventLog.from_bytes(log.to_bytes()).events[1]):
            with pytest.raises(TypeError):
                event.payload["address"] = b"\xee" * 20
            assert event.payload["address"] == addr(5).value

    def test_appended_payload_is_a_copy(self):
        log = EventLog()
        payload = {"amount": 5, "from": AUTHORITY.value}
        event = log.append(EventKind.DEPOSITED, payload)
        before = (dict(event.payload), event.event_bytes, event.event_hash)
        payload["amount"] = 6
        payload["to_role"] = "sysop"
        del payload["from"]
        assert (dict(event.payload), event.event_bytes, event.event_hash) == before
        assert reencoded(event) == event.event_bytes
        assert verify_event_chain(log) == (True, None)

    def test_appended_payload_is_in_key_order(self):
        log = EventLog()
        event = log.append(EventKind.DEPOSITED, {"from": AUTHORITY.value, "amount": 5})
        assert list(event.payload) == ["amount", "from"]
        assert event.describe().endswith(f" amount=5 from={AUTHORITY.value.hex()}")
        assert log.text_dump() == EventLog.from_bytes(log.to_bytes()).text_dump()

    # an int kind the log's readers refuse, one past a u8, and a bool, which wrote a Created record
    @pytest.mark.parametrize("kind", [9, 300, True, 2, None, "COMMITTED"])
    def test_a_kind_that_is_no_event_kind_is_refused_and_changes_nothing(self, kind):
        log = full_honest_log().log
        before = (len(log), log.to_bytes(), log.text_dump())
        with pytest.raises(TypeError, match=f"^event kind must be an EventKind, got {re.escape(repr(kind))}$"):
            log.append(kind, {"a": 1})
        assert (len(log), log.to_bytes(), log.text_dump()) == before

    def test_mutable_payload_values_rejected(self):
        log = EventLog()
        with pytest.raises(TypeError):
            log.append(EventKind.DEPOSITED, {"amount": 5, "from": bytearray(AUTHORITY.value)})
        assert len(log) == 0


# keys of equal length, and one that is not ASCII
PAYLOAD_KEYS = st.sampled_from(["ab", "ba", "cd", "key", "kez", "é"])
PAYLOAD_VALUES = st.one_of(
    st.sampled_from([0, 2**64 - 1]),
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, 20, 32]).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
    st.text(st.characters(codec="ascii"), max_size=6),
    st.text(st.characters(codec="utf-8"), max_size=6),
)
# (value, the error append raises for it)
REFUSED_VALUES = [
    (True, TypeError("payload values must be int, bytes or str")),
    (-1, ValueError("payload int out of u64 range: -1")),
    (2**64, ValueError("payload int out of u64 range: 18446744073709551616")),
    (1.5, TypeError("unsupported payload value type: <class 'float'>")),
    (bytearray(b"ab"), TypeError("unsupported payload value type: <class 'bytearray'>")),
    (None, TypeError("unsupported payload value type: <class 'NoneType'>")),
]


class TestAppendWritesTheReferenceEncoding:
    @given(
        st.lists(st.dictionaries(PAYLOAD_KEYS, PAYLOAD_VALUES, max_size=4), min_size=1, max_size=4),
        st.sampled_from(list(EventKind)),
        PAYLOAD_KEYS,
    )
    @settings(deadline=None, max_examples=300)
    def test_each_record_is_the_field_by_field_encoding(self, payloads, kind, refused_key):
        log, prev = EventLog(), b"\x00" * 32
        for payload in payloads:
            before = log.to_bytes()
            event_bytes = struct.pack(">IB", len(log), kind) + encode_payload(payload) + prev
            prev = hashlib.sha256(event_bytes).digest()
            log.append(kind, payload)
            assert log.to_bytes() == before + struct.pack(">I", len(event_bytes) + 32) + event_bytes + prev
        data = log.to_bytes()
        for value, error in REFUSED_VALUES:
            refused = {**payloads[-1], refused_key: value}
            for encode in (encode_payload, functools.partial(log.append, kind)):
                with pytest.raises(type(error)) as excinfo:
                    encode(refused)
                assert str(excinfo.value) == str(error)
            assert log.to_bytes() == data


def split_records(data: bytes) -> list[bytes]:
    """The length-prefixed records of a log's bytes, each with its u32 prefix."""
    records, offset = [], 0
    while offset < len(data):
        end = offset + 4 + int.from_bytes(data[offset : offset + 4], "big")
        records.append(data[offset:end])
        offset = end
    return records


def wire_record(event) -> bytes:
    body = event.event_bytes + event.event_hash
    return struct.pack(">I", len(body)) + body


def committed_record(event, fields) -> bytes:
    """A Committed event's wire record with its bytes fields in the given order.

    The stored hashes are the event's own, so a parser that re-sorted keys
    or let a repeated key overwrite the first would accept the record and
    verify the chain.
    """
    payload = struct.pack(">H", len(fields)) + b"".join(
        struct.pack(">H", len(key)) + key + b"\x02" + struct.pack(">I", len(value)) + value
        for key, value in fields
    )
    body = struct.pack(">IB", event.sequence_no, event.kind) + payload + event.prev_hash + event.event_hash
    return struct.pack(">I", len(body)) + body


def log_with_committed_fields(fields_of) -> bytes:
    """An honest log's bytes with record 1, a Committed event, rewritten by fields_of(payload)."""
    log = full_honest_log().log
    assert log.events[1].kind == EventKind.COMMITTED
    return b"".join(
        committed_record(event, fields_of(event.payload)) if i == 1 else wire_record(event)
        for i, event in enumerate(log)
    )


@functools.cache
def honest_log_bytes() -> bytes:
    return full_honest_log().log.to_bytes()


class TestCanonicalParse:
    def test_wire_record_helper_matches_to_bytes(self):
        log = full_honest_log().log
        assert b"".join(map(wire_record, log)) == log.to_bytes()
        assert log_with_committed_fields(
            lambda p: [(b"address", p["address"]), (b"commitment", p["commitment"])]
        ) == log.to_bytes()

    def test_keys_out_of_order_rejected(self):
        data = log_with_committed_fields(
            lambda p: [(b"commitment", p["commitment"]), (b"address", p["address"])]
        )
        with pytest.raises(LogFormatError, match="record 1: payload keys not in strictly ascending order") as excinfo:
            EventLog.from_bytes(data)
        assert excinfo.value.record_index == 1

    def test_duplicate_key_hiding_a_value_rejected(self):
        data = log_with_committed_fields(
            lambda p: [(b"address", b"\xee" * 20), (b"address", p["address"]), (b"commitment", p["commitment"])]
        )
        with pytest.raises(LogFormatError, match="record 1: payload keys not in strictly ascending order") as excinfo:
            EventLog.from_bytes(data)
        assert excinfo.value.record_index == 1

    @given(st.binary(max_size=300))
    @settings(deadline=None, max_examples=300)
    def test_fuzz_random_bytes(self, data):
        self._rejected_or_round_trips(data)

    @given(st.data())
    @settings(deadline=None, max_examples=300)
    def test_fuzz_single_byte_mutations(self, data):
        mutated = bytearray(honest_log_bytes())
        mutated[data.draw(st.integers(0, len(mutated) - 1))] ^= data.draw(st.integers(1, 255))
        self._rejected_or_round_trips(bytes(mutated))

    @staticmethod
    def _rejected_or_round_trips(data: bytes):
        try:
            log = EventLog.from_bytes(data)
        except LogFormatError:
            return
        assert log.to_bytes() == data
        for event in log:  # the stored bytes are those of the parsed fields, and they are what gets hashed
            assert reencoded(event) == event.event_bytes
            assert hashlib.sha256(event.event_bytes).digest() == digest(reencoded(event)).value


class TestCommitmentIndex:
    def test_a_missing_address_ranks_minus_one(self):
        assert CommitmentIndex().ranks_of(addr(3).value).tolist() == [-1]

    def test_interleaved_reads_keep_byte_order_and_arrival(self):
        # reads between commits must see every commit so far, in ascending byte order
        contract, _ = make_contract()
        index = contract.commitments
        rng = np.random.default_rng(31)
        arrived = []
        for _ in range(40):
            address = Address(rng.bytes(20))
            commit_response(contract, address, digest(address.value))
            arrived.append(address.value)
            ranked = sorted(arrived)
            probe = arrived[int(rng.integers(len(arrived)))]
            assert index.ranks_of(probe + addr(0xEE).value).tolist() == [ranked.index(probe), -1]
            assert index.ranks_of(index.arrival_bytes()).tolist() == [ranked.index(a) for a in arrived]
            assert index.sorted_commitments() == tuple(digest(a).value for a in ranked)
            assert arrival_addresses(index) == arrived
        assert index.ranks_of(b"".join(ranked)).tolist() == list(range(len(arrived)))


    @pytest.mark.parametrize("raws", [
        [b"\x05" * k + bytes(20 - k) for k in (19, 0, 20, 1, 7)],  # equal up to their trailing zero bytes
        [bytes([b]) + b"\x33" * 19 for b in (0xFF, 0x00, 0x80, 0x7F, 0x01)],  # differing only in byte 0
    ])
    def test_ranks_follow_ascending_byte_order(self, raws):
        contract, _ = make_contract()
        commit_responses(contract, raws, [digest(raw).value for raw in raws])
        index = contract.commitments
        ranked = sorted(raws)
        assert index.ranks_of(b"".join(raws)).tolist() == [ranked.index(raw) for raw in raws]
        assert sorted(arrival_addresses(index)) == ranked and arrival_addresses(index) == raws
        assert index.sorted_commitments() == tuple(digest(raw).value for raw in ranked)  # a tuple: nobody can change it
        assert index.ranks_of(b"".join(ranked) + bytes(19) + b"\x01").tolist() == [*range(len(raws)), -1]


def parsed_record_by_record(data: bytes):
    """Each record of `data` parsed alone and walked (so checked field by field even where it fits): the
    events, and (index, message) of the first record that fails alone, or None."""
    events, offset = [], 0
    while offset < len(data):
        end = offset + 4 + int.from_bytes(data[offset : offset + 4], "big")
        try:
            EventLog.from_bytes(data[offset:end])  # a record cut short fails here, in the split
            events.append(_walk(data[offset:end], 0))
        except LogFormatError as exc:
            assert exc.record_index == 0
            return events, (len(events), str(exc).partition(": ")[2])
        offset = end
    return events, None


def assert_parses_as_its_records_alone(data: bytes):
    events, failure = parsed_record_by_record(data)
    try:
        log = EventLog.from_bytes(data)
    except LogFormatError as exc:
        assert failure == (exc.record_index, str(exc).partition(": ")[2])
        return
    assert failure is None
    assert list(log.events) == events
    assert [list(e.payload.items()) for e in log] == [list(e.payload.items()) for e in events]
    assert all(type(e.payload) is MappingProxyType for e in log)
    assert log.to_bytes() == data


def field_values():
    # an int field is as long as a 4-byte blob, and "é" is as long as "ab" or b"ab"
    same_lengths = st.sampled_from([0, 2**64 - 1, b"wxyz", "abcd", b"ab", "ab", "é"])
    return st.one_of(same_lengths, st.integers(0, 2**64 - 1), st.binary(max_size=4), st.text(max_size=2))


def like(value):
    """Values of the same type and encoded length as `value`, now and then any value."""
    if type(value) is int:
        same = st.integers(0, 2**64 - 1)
    elif type(value) is bytes:
        same = st.binary(min_size=len(value), max_size=len(value))
    else:
        same = st.sampled_from([value, value[::-1]])
    return st.one_of(same, same, same, field_values())


@st.composite
def mixed_shape_logs(draw) -> bytes:
    """Logs whose records often share a shape, or a kind and length with other keys or tags."""
    templates = draw(st.lists(
        st.tuples(
            st.sampled_from([EventKind.COMMITTED, EventKind.TRANSFERRED]),
            st.dictionaries(st.sampled_from(["ab", "ba", "cd", "key"]), field_values(), max_size=2),
        ),
        min_size=1, max_size=3,
    ))
    log = EventLog()
    for _ in range(draw(st.integers(0, 12))):
        kind, fields = draw(st.sampled_from(templates))
        log.append(kind, {key: draw(like(value)) for key, value in fields.items()})
    return log.to_bytes()


@functools.cache
def survey_log() -> bytes:
    """A settled 20-operator full-protocol survey: 20 Committed records of one shape."""
    return run_full_protocol_experiment(ExperimentConfig(population=20, seed=5))[1].to_bytes()


class TestLayoutPath:
    """`from_bytes` passes the records that fit the Committed parts in one check and walks the others;
    each record parsed alone is always walked, so the two must agree event by event and error by error."""

    @given(mixed_shape_logs())
    @settings(deadline=None, max_examples=300)
    def test_mixed_shapes_parse_as_their_records_alone(self, data):
        assert_parses_as_its_records_alone(data)

    @given(mixed_shape_logs(), st.data())
    @settings(deadline=None, max_examples=300)
    def test_mutated_mixed_shapes_parse_as_their_records_alone(self, data, draw):
        if data:
            mutated = bytearray(data)
            mutated[draw.draw(st.integers(0, len(data) - 1))] ^= draw.draw(st.integers(1, 255))
            data = bytes(mutated)
        assert_parses_as_its_records_alone(data)

    @given(st.data())
    @settings(deadline=None, max_examples=300)
    def test_mutated_survey_log_parses_as_its_records_alone(self, data):
        mutated = bytearray(survey_log())
        mutated[data.draw(st.integers(0, len(mutated) - 1))] ^= data.draw(st.integers(1, 255))
        assert_parses_as_its_records_alone(bytes(mutated))

    # shapes: the records' alternating (first key, second key, second value's byte length or 0 for an int),
    # or None for new keys in every record
    @pytest.mark.parametrize(
        "shapes",
        [
            [("address", "value", 0), ("addrezz", "valuf", 0)],
            None,
            # every other record has the Committed layout's length and misses it by its key bytes alone
            [("address", "commitment", 32), ("addrezz", "commitmenX", 32)],
        ],
        ids=["two-alternating-shapes", "new-keys", "committed-length-other-keys"],
    )
    def test_10k_records_of_equal_kind_and_length(self, shapes):
        log, appended = EventLog(), []
        for i in range(10_000):
            first, second, width = shapes[i % 2] if shapes else (f"k{i:07d}", "value", 0)
            payload = {first: i.to_bytes(20, "big"), second: i.to_bytes(width, "big") if width else i}
            appended.append(log.append(EventKind.COMMITTED, payload))
        parsed = EventLog.from_bytes(log.to_bytes())
        assert list(parsed.events) == appended
        assert parsed.text_dump() == "".join(describe(event) + "\n" for event in appended)  # past the first fit block
        assert_parses_as_its_records_alone(log.to_bytes())

    def test_a_str_that_is_not_utf8_fails_on_a_compiled_layout_too(self):
        log = EventLog()
        for role in ("sysop", "sysop", "sysop"):
            log.append(EventKind.TRANSFERRED, {"amount": 1, "to_role": role})
        data = log.to_bytes().replace(b"sysop", b"sys\xffp")
        with pytest.raises(LogFormatError, match="^record 0: payload key or string is not valid UTF-8$"):
            EventLog.from_bytes(data)
        data = bytearray(log.to_bytes())
        data[-66] = 0xFF  # in the last record's str value, after two records that parse
        with pytest.raises(LogFormatError, match="^record 2: payload key or string is not valid UTF-8$"):
            EventLog.from_bytes(bytes(data))

    @pytest.mark.parametrize("value", [True, -1, 2**64, 1.5, bytearray(b"ab"), "\ud800", None])
    def test_a_cached_shape_still_checks_every_value(self, value):
        # a refused value raises as on a fresh log, also after the log took a payload of the same keys
        for cached in (7, "y", b"ab"):
            payload = {"n": 5, "s": "ab", "refused": cached}
            log = EventLog()
            log.append(EventKind.TRANSFERRED, payload)
            before = log.to_bytes()
            with pytest.raises((TypeError, ValueError)) as fresh:
                EventLog().append(EventKind.TRANSFERRED, {**payload, "refused": value})
            with pytest.raises(type(fresh.value)) as excinfo:
                log.append(EventKind.TRANSFERRED, {**payload, "refused": value})
            assert str(excinfo.value) == str(fresh.value)
            assert log.to_bytes() == before

    def test_repeated_shapes_take_the_layout(self, monkeypatch):
        import privmarket.ledger as ledger

        walked, walk = [], ledger._walk
        monkeypatch.setattr(ledger, "_walk", lambda record, index: walked.append(index) or walk(record, index))
        data = survey_log()
        log = EventLog.from_bytes(data)
        assert log.to_bytes() == data
        # 26 records: the 20 Committed fit the Committed parts, and the 6 one-off records are walked
        assert walked == [0, 21, 22, 23, 24, 25]
