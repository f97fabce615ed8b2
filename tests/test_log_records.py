"""The event log as its records' bytes, checked against the event-by-event reference reads.

`EventLog` keeps only canonical records. Its chain check compares record slices column by
column, its transfer check reads kind bytes, and its events are walked when read. Its dump
writes each record that fits the Committed parts from its byte slices, and every other record
by the walk.
Each must agree with `tests/reference.py`, which reads decoded events one by one, on honest
logs and on every kind of single-byte damage.
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from privmarket.cli import main
from privmarket.ledger import GENESIS_PREV, EventKind, EventLog, LogFormatError, _decode_body, check_transfer_safety, verify_event_chain
from privmarket.simulate import ExperimentConfig, run_full_protocol_experiment


def demo_log(*flags: str, criteria: dict | None = None) -> bytes:
    """The events.bin that `demo` writes for these flags."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["demo", *flags, "--trace-out", tmp]
        if criteria is not None:
            (Path(tmp) / "criteria.json").write_text(json.dumps(criteria))
            argv += ["--criteria-file", str(Path(tmp) / "criteria.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return (Path(tmp) / "events.bin").read_bytes()


@functools.cache
def fixed_logs() -> dict[str, bytes]:
    return {
        "demo": demo_log("--operators", "5", "--nr", "3", "--seed", "7"),
        "screened-demo": demo_log("--operators", "300", "--nr", "100", "--seed", "1",
                                  criteria={"region": ["NSW", "VIC"]}),
    }


@st.composite
def drawn_logs(draw) -> bytes:
    """Logs of any kinds in any order: transfers to either role, repeated shapes, and braces in keys and strs."""
    log = EventLog()
    for kind in draw(st.lists(st.sampled_from(list(EventKind)), max_size=12)):
        if kind == EventKind.TRANSFERRED:
            payload = {"amount": draw(st.integers(0, 2**64 - 1)), "to_role": draw(st.sampled_from(["sysop", "authority"]))}
        else:
            payload = draw(st.sampled_from(
                [{}, {"amount": 7}, {"s2": b"\x52" * 32}, {"phase_before": "FILTERED"}, {"{0}": "}{", "x y": "{}"}]
            ))
        log.append(kind, payload)
    return log.to_bytes()


def record_offsets(data: bytes) -> list[int]:
    offsets, offset = [], 0
    while offset + 4 <= len(data):
        offsets.append(offset)
        offset += 4 + int.from_bytes(data[offset : offset + 4], "big")
    return offsets


def rechained(records: list[bytes]) -> bytes:
    """The records with every prev_hash and event_hash recomputed: a chain that links whatever they say."""
    prev, out = GENESIS_PREV, []
    for record in records:
        event_bytes = record[4:-64] + prev
        prev = hashlib.sha256(event_bytes).digest()
        out.append(record[:4] + event_bytes + prev)
    return b"".join(out)


@st.composite
def damaged(draw, data: bytes) -> bytes:
    """`data` as is, or with one byte flipped, one record's kind byte set to any kind, two records swapped,
    or one record's sequence_no changed and the chain rebuilt around it."""
    offsets = record_offsets(data)
    records = [data[a:b] for a, b in zip(offsets, offsets[1:] + [len(data)])]
    how = draw(st.sampled_from(["none", "flip", "kind", "swap", "renumber"]))
    mutated = bytearray(data)
    if how == "flip" and data:
        mutated[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    elif how == "kind" and offsets:
        mutated[draw(st.sampled_from(offsets)) + 8] = draw(st.sampled_from([kind.value for kind in EventKind]))
    elif how == "swap" and len(records) > 1:
        i, j = draw(st.lists(st.integers(0, len(records) - 1), min_size=2, max_size=2, unique=True))
        records[i], records[j] = records[j], records[i]
        mutated = bytearray(b"".join(records))
    elif how == "renumber" and records:
        i = draw(st.integers(0, len(records) - 1))
        sequence_no = draw(st.integers(0, 2**32 - 1)).to_bytes(4, "big")
        records[i] = records[i][:4] + sequence_no + records[i][8:]
        mutated = bytearray(rechained(records))
    return bytes(mutated)


@st.composite
def logs(draw) -> bytes:
    source = draw(st.sampled_from(["demo", "screened-demo", "drawn"]))
    return draw(damaged(draw(drawn_logs()) if source == "drawn" else fixed_logs()[source]))


class TestByteReadsMatchEventReads:
    @given(logs())
    @settings(deadline=None, max_examples=400)
    def test_chain_and_transfer_checks_match_the_reference(self, data):
        try:
            log = EventLog.from_bytes(data)
        except LogFormatError:
            return
        assert verify_event_chain(log) == reference.verify_event_chain(log)
        assert check_transfer_safety(log) == reference.check_transfer_safety(log)

    @pytest.mark.parametrize("name", ["demo", "screened-demo"])
    def test_rechaining_an_honest_log_changes_nothing(self, name):
        data = fixed_logs()[name]
        offsets = record_offsets(data)
        assert rechained([data[a:b] for a, b in zip(offsets, offsets[1:] + [len(data)])]) == data

    @given(logs())
    @settings(deadline=None, max_examples=300)
    def test_read_events_are_their_records_walked(self, data):
        try:
            log = EventLog.from_bytes(data)
        except LogFormatError:
            return
        offsets = record_offsets(data)
        walked = [_decode_body(data[a + 4 : b], i) for i, (a, b) in enumerate(zip(offsets, offsets[1:] + [len(data)]))]
        assert [log.events[i] for i in range(len(log))] == walked
        assert list(log) == walked
        assert log.events[1:-1] == walked[1:-1]
        assert log.text_dump() == "".join(reference.describe(event) + "\n" for event in walked)

    def test_the_honest_logs_verify(self):
        for data in fixed_logs().values():
            log = EventLog.from_bytes(data)
            assert verify_event_chain(log) == reference.verify_event_chain(log) == (True, None)
            assert check_transfer_safety(log) and reference.check_transfer_safety(log)


def split(data: bytes) -> list[bytes]:
    offsets = record_offsets(data)
    return [data[a:b] for a, b in zip(offsets, offsets[1:] + [len(data)])]


def forged(records: list[bytes], damage: dict[str, int]) -> bytes:
    """The records re-chained, each damaged in one check only: `damage` maps "sequence_no", "link" and "hash" to
    the index of the record whose sequence_no is off by one, whose prev_hash misses the hash before it, or whose
    event_hash is not its own. Every other record links to the event_hash recorded before it."""
    prev, out = GENESIS_PREV, []
    for i, record in enumerate(records):
        body = record[4:-64]  # sequence_no | kind | payload
        if i == damage.get("sequence_no"):
            body = (i + 1).to_bytes(4, "big") + body[4:]
        event_bytes = body + (bytes([prev[0] ^ 1]) + prev[1:] if i == damage.get("link") else prev)
        prev = hashlib.sha256(event_bytes).digest()
        if i == damage.get("hash"):
            prev = bytes([prev[0] ^ 1]) + prev[1:]
        out.append(record[:4] + event_bytes + prev)
    return b"".join(out)


def alone(record: bytes) -> str:
    """The message of a record that fails when parsed alone."""
    with pytest.raises(LogFormatError) as excinfo:
        EventLog.from_bytes(record)
    assert excinfo.value.record_index == 0
    return str(excinfo.value).partition(": ")[2]


class TestBlockReads:
    """The reads that take a log's records as one block: the fit check, the chain check by columns, the dump."""

    def test_an_empty_log(self):
        log = EventLog.from_bytes(b"")
        assert verify_event_chain(EventLog()) == verify_event_chain(log) == reference.verify_event_chain(log) == (True, None)
        assert list(log) == [] and log.text_dump() == ""

    @pytest.mark.parametrize("order", list(itertools.permutations(["sequence_no", "link", "hash"])))
    def test_the_smallest_failing_index_of_the_three_checks_wins(self, order):
        records = split(fixed_logs()["demo"])
        places = [2, 6, len(records) - 1]  # a Committed record, a one-off, the last record
        for damage in [dict(zip(order, places)), *({check: i} for check, i in zip(order, places))]:
            log = EventLog.from_bytes(forged(records, damage))
            assert verify_event_chain(log) == reference.verify_event_chain(log) == (False, min(damage.values()))

    # byte positions in a record: 8 is the kind, 13 the first key byte of a Committed record and 20 its first tag
    @pytest.mark.parametrize("committed, position, value", [(True, 20, 0x09), (False, 8, 0x77)],
                             ids=["committed-bad-tag", "one-off-bad-kind"])
    def test_a_record_that_fails_its_walk_wins_over_a_tail_cut_short(self, committed, position, value):
        records = split(fixed_logs()["demo"])
        at = [i for i, record in enumerate(records) if (record[8] == EventKind.COMMITTED) == committed][1]
        failing = bytearray(records[at])
        failing[position] = value
        data = b"".join(records[:at]) + bytes(failing) + b"".join(records[at + 1 :])
        for cut in (data[:-7], data + b"\x00\x00"):  # a record cut short, a length prefix cut short
            with pytest.raises(LogFormatError) as excinfo:
                EventLog.from_bytes(cut)
            assert (excinfo.value.record_index, str(excinfo.value).partition(": ")[2]) == (at, alone(bytes(failing)))
        with pytest.raises(LogFormatError, match=f"^record {len(records) - 1}: record extends past end of data$"):
            EventLog.from_bytes(fixed_logs()["demo"][:-7])

    # byte 13 is the first key byte of a Committed record (in its first piece) and 56 the last (in its middle one);
    # each renamed key still sorts before the other, so the record walks
    @pytest.mark.parametrize("position, flip, keys", [(13, 0x20, ["Address", "commitment"]),
                                                      (56, 0x01, ["address", "commitmenu"])],
                             ids=["Address", "commitmenu"])
    def test_a_committed_record_that_misses_the_layout_by_a_key_byte_is_walked(self, monkeypatch, position, flip, keys):
        import privmarket.ledger as ledger

        records = split(fixed_logs()["demo"])
        committed = [i for i, record in enumerate(records) if record[8] == EventKind.COMMITTED]
        at = committed[1]
        renamed = bytearray(records[at])
        renamed[position] ^= flip
        records[at] = bytes(renamed)
        walked, walk = [], ledger._walk
        monkeypatch.setattr(ledger, "_walk", lambda record, index: walked.append(index) or walk(record, index))
        log = EventLog.from_bytes(b"".join(records))
        assert at in walked and not set(walked) & set(committed) - {at}
        events = [_decode_body(record[4:], i) for i, record in enumerate(records)]
        assert list(events[at].payload) == keys
        assert list(log) == events
        assert log.text_dump() == "".join(reference.describe(event) + "\n" for event in events)


def test_a_parsed_10k_log_holds_little_more_than_its_bytes():
    """The pinned N = 10k survey's log, parsed, holds at most 1.5 times its input length."""
    _, built, _ = run_full_protocol_experiment(ExperimentConfig(population=10_000, seed=104729))
    data = built.to_bytes()
    del built
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = EventLog.from_bytes(data)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log) == 10_006
    assert held <= 1.5 * len(data), f"{held} B held for {len(data)} B of log"
