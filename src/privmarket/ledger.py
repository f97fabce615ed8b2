"""Simulated smart contract with an append-only, hash-chained event log.

Every mutation of a survey contract appends one event; each event hashes
its own canonical serialization and links to the previous event's hash, so
any byte of recorded history is tamper-evident. Money is integer units in
an in-process delta table (relative to each party's starting balance), no
real chain involved.

Canonical wire format, normative so event hashes reproduce anywhere:

    record  := u32 body_len | body
    body    := event_bytes | event_hash(32)
    event_bytes := u32 sequence_no | u8 kind | payload | prev_hash(32)
    payload := u16 field_count, then per field in ascending key order:
               u16 key_len | key utf8 | u8 tag | value
               tag 0x01 int   -> u64 big-endian
               tag 0x02 bytes -> u32 len | raw bytes
               tag 0x03 str   -> u32 len | utf8 bytes

The genesis event uses 32 zero bytes as prev_hash. All integers are
non-negative and big-endian. Digests render as lowercase hex. Parsing is
strict: keys must be strictly ascending (no repeats), strings valid UTF-8,
and nothing may trail a record, so every accepted log re-encodes to
exactly its input bytes.

A log holds its records: packed by `append` and `commit_responses`, or sliced
from a canonical input by `from_bytes`. `to_bytes` joins them and
`check_transfer_safety` reads their kind bytes. One encoder writes every
record: `_encode` cuts an event's bytes at its values into constant pieces and
encoded values, and `_record` joins them between sequence_no and prev_hash.
The Committed parts are encoded once, since a survey writes one Committed
record per operator and every other kind once; the record length and every
part's place in a record follow from their lengths. The reads take the records
as one block. The fit check joins the records of the Committed length in blocks
and compares each block's piece columns with the pieces at once. A log keeps
its records' fit flags (records only append), so a record's fit is checked
once. `from_bytes` walks only the records that do not fit, field by field with
every check, so only the walk raises, and the first record that fails keeps its
index and message. Reading an event, by index, slice or iteration, walks its
record into a `LedgerEvent` with a read-only payload in ascending key order.
`text_dump` writes a fitting record's line as one f-string over its byte
slices, and every other record's with `describe`. Nothing decoded is kept.
`verify_event_chain` checks the records column by column: sequence numbers
against their indices, prev_hash slices against the recorded hashes shifted
by one, and each record's hash, taken once, against its event_hash.

All contract mutations assume a single logical writer: callers sequence
commands per contract (the protocol orchestrator applies them in arrival
order). A command that raises changes nothing: it reads its arguments and
appends its event before it changes any field. `commit_responses` is one
such command per pair of raw address and commitment bytes: the pair that
raises changes nothing, and the pairs before it stay committed.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import KW_ONLY, dataclass, field, fields
from itertools import accumulate
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence, get_type_hints

import numpy as np

from .envelope import Digest, FixedBytes, Nonce, Secret, digest, encode_bit_vector, sha256

ADDRESS_LEN = 20
GENESIS_PREV = b"\x00" * 32
OPERATOR_SHARE_PCT = 80

PayloadValue = int | bytes | str
Payload = dict[str, PayloadValue]


class LedgerError(Exception):
    """A rule violation: wrong phase, duplicate, bad amount, failed check."""


class LogFormatError(Exception):
    """An encoded event log that cannot be parsed."""

    def __init__(self, record_index: int, message: str):
        super().__init__(f"record {record_index}: {message}")
        self.record_index = record_index


class Address(FixedBytes):
    __slots__ = ()
    LENGTH, LABEL = ADDRESS_LEN, "address"

    def __str__(self) -> str:
        return "0x" + self.value.hex()


class ContractPhase(enum.IntEnum):
    CONFIGURED = 0
    COLLECTING = 1
    FILTERED = 2
    DEPOSITED = 3
    REVEALED = 4
    SETTLED = 5
    ABORTED = 99


class EventKind(enum.IntEnum):
    CREATED = 1
    COMMITTED = 2
    FILTER_RECORDED = 3
    DEPOSITED = 4
    REVEALED = 5
    TRANSFERRED = 6
    PAID_OUT = 7
    ABORTED = 8


# display names for the text dump: FILTER_RECORDED -> FilterRecorded
_EVENT_NAMES = {kind: kind.name.title().replace("_", "") for kind in EventKind}

_INT_TAG = 0x01
_BYTES_TAG = 0x02
_STR_TAG = 0x03

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_BODY_HEAD = struct.Struct(">IBH")  # sequence_no, kind, field_count
_INT_FIELD = struct.Struct(">BQ")  # tag, value
_BLOB_FIELD = struct.Struct(">BI")  # tag, length
_KINDS = {kind.value: kind for kind in EventKind}
_UNPLAIN = frozenset(" =\"'")  # in a dump token, these could fake a field or a quoted token


def _walk(record: bytes, index: int) -> LedgerEvent:
    """Walk one record (u32 body_len | body) field by field, every failure a LogFormatError naming `index`."""
    try:
        sequence_no, kind_code, count = _BODY_HEAD.unpack_from(record, 4)
        kind = _KINDS.get(kind_code)
        if kind is None:
            raise LogFormatError(index, f"unknown event kind {kind_code}")
        pos = 4 + _BODY_HEAD.size
        payload: Payload = {}
        for _ in range(count):
            (key_len,) = _U16.unpack_from(record, pos)
            key = record[pos + 2 : pos + 2 + key_len]
            pos += 2 + key_len
            tag = record[pos]
            if tag == _INT_TAG:
                value = _INT_FIELD.unpack_from(record, pos)[1]
                pos += _INT_FIELD.size
            elif tag in (_BYTES_TAG, _STR_TAG):
                start = pos + _BLOB_FIELD.size
                pos = start + _BLOB_FIELD.unpack_from(record, pos)[1]
                value = record[start:pos]
                if pos > len(record):
                    raise LogFormatError(index, "truncated field")
                if tag == _STR_TAG:
                    value = value.decode("utf-8")
            else:
                raise LogFormatError(index, f"unknown payload tag 0x{tag:02x}")
            payload[key.decode("utf-8")] = value
    except (struct.error, IndexError):
        raise LogFormatError(index, "truncated field") from None
    except UnicodeDecodeError:
        raise LogFormatError(index, "payload key or string is not valid UTF-8") from None
    # ascending and distinct keys: the only order a layout writes
    if len(payload) != count or list(payload) != sorted(payload):
        raise LogFormatError(index, "payload keys not in strictly ascending order")
    if len(record) - pos != 64:
        raise LogFormatError(index, "truncated field" if len(record) - pos < 64 else "trailing bytes inside record")
    return LedgerEvent(sequence_no, kind, MappingProxyType(payload), record[pos + 32 :], record[4 : pos + 32])


def _encode(kind: EventKind, payload: Mapping[str, PayloadValue]) -> list[bytes]:
    """An event's bytes between its sequence_no and prev_hash, cut at the values: constant pieces (the kind and
    field count, each key, each value's tag and encoded length) alternate with the encoded values in ascending key
    order, a piece first and last. Each value is checked as `EventLog.append` requires."""
    keys = sorted(payload)
    parts, piece = [], struct.pack(">BH", kind, len(keys))
    for key in keys:
        kb, value = key.encode("utf-8"), payload[key]
        piece += _U16.pack(len(kb)) + kb
        if isinstance(value, bool):
            raise TypeError("payload values must be int, bytes or str")
        if isinstance(value, int):
            if value < 0 or value >= 1 << 64:
                raise ValueError(f"payload int out of u64 range: {value}")
            piece, value = piece + bytes([_INT_TAG]), value.to_bytes(8, "big")
        elif isinstance(value, (bytes, str)):  # bytes are immutable, like every payload value
            tag, value = (_BYTES_TAG, value) if isinstance(value, bytes) else (_STR_TAG, value.encode("utf-8"))
            piece += _BLOB_FIELD.pack(tag, len(value))
        else:
            raise TypeError(f"unsupported payload value type: {type(value)!r}")
        parts += (piece, value)
        piece = b""
    parts.append(piece)  # before prev_hash: empty, or the kind and field count of an empty payload
    return parts


def _record(sequence_no: int, parts: Sequence[bytes], prev: bytes) -> bytes:
    """The record (u32 body_len | event_bytes | event_hash) whose event_bytes are sequence_no, the parts and prev."""
    event_bytes = b"".join([_U32.pack(sequence_no), *parts, prev])
    return _U32.pack(len(event_bytes) + 32) + event_bytes + sha256(event_bytes)


# the parts of every COMMITTED event: three constant pieces around an address and a response commitment
_COMMITTED = _encode(EventKind.COMMITTED, {"address": bytes(ADDRESS_LEN), "commitment": bytes(Digest.LENGTH)})
_AT = list(accumulate(map(len, _COMMITTED), initial=8))  # where each part starts in a record, after the two u32
_ADDRESS, _COMMITMENT = slice(_AT[1], _AT[2]), slice(_AT[3], _AT[4])
_COMMITTED_SIZE = _AT[-1] + 64  # the parts, then prev_hash and event_hash
_PIECES = np.frombuffer(b"".join(_COMMITTED[::2]), np.uint8)  # the constant pieces, and their columns in a record
_PIECE_COLUMNS = np.concatenate([np.arange(_AT[i], _AT[i + 1]) for i in range(0, len(_COMMITTED), 2)])
_FIT_BLOCK = 1024  # records joined per fit comparison: a whole N = 10k log joined at once raises peak RSS


def _split(data: bytes) -> tuple[list[bytes], LogFormatError | None]:
    """The whole records (u32 body_len | body) of `data`, and the LogFormatError of a tail cut short, or None."""
    records, offset, size, unpack = [], 0, len(data), _U32.unpack_from
    while offset < size:
        if size - offset < 4:
            return records, LogFormatError(len(records), "truncated record length prefix")
        end = offset + 4 + unpack(data, offset)[0]
        if end > size:
            return records, LogFormatError(len(records), "record extends past end of data")
        records.append(data[offset:end])
        offset = end
    return records, None


def _fits(records: Sequence[bytes]) -> np.ndarray:
    """Which records fit the Committed parts: the records of the Committed length (its length prefix plus 4), joined
    _FIT_BLOCK at a time, each block's pieces' columns compared with the pieces in one comparison."""
    fits = np.fromiter(map(len, records), np.int64, len(records)) == _COMMITTED_SIZE
    at = np.flatnonzero(fits)
    for chunk in np.split(at, range(_FIT_BLOCK, len(at), _FIT_BLOCK)):
        block = np.frombuffer(b"".join(map(records.__getitem__, chunk.tolist())), np.uint8).reshape(-1, _COMMITTED_SIZE)
        fits[chunk] = (block[:, _PIECE_COLUMNS] == _PIECES).all(axis=1)
    return fits


def _token(text: str) -> str:
    """A key or str value as one dump token: its quoted, escaped repr unless it is plain printable text."""
    return text if text.isidentifier() or (text.isprintable() and _UNPLAIN.isdisjoint(text)) else repr(text)


class LedgerEvent(NamedTuple):
    sequence_no: int
    kind: EventKind
    payload: Mapping[str, PayloadValue]  # read-only, in ascending key order
    event_hash: bytes
    event_bytes: bytes  # the canonical encoding: sequence_no, kind, payload, prev_hash

    @property
    def prev_hash(self) -> bytes:
        return self.event_bytes[-32:]

    def describe(self) -> str:
        """The event's line of the text dump."""
        fields = " ".join([f"{_token(k)}={v.hex() if type(v) is bytes else _token(v) if type(v) is str else v}"
                           for k, v in self.payload.items()])
        hashes = f"event={self.event_hash.hex()} prev={self.prev_hash.hex()}"
        return f"{self.sequence_no} {_EVENT_NAMES[self.kind]} {hashes} {fields}"


class EventLog(Sequence[LedgerEvent]):
    """Append-only sequence of hash-chained events, held as their canonical records.

    Reading an event, by index, slice or iteration, decodes it from its record.
    """

    def __init__(self):
        self._records: list[bytes] = []  # u32 body_len | event_bytes | event_hash
        self._fit = np.empty(0, bool)  # whether each of the first records fits the Committed parts

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        return _walk(self._records[index], index)

    @property
    def events(self) -> EventLog:
        """The log itself: its events, each decoded when read."""
        return self

    def append(self, kind: EventKind, payload: Payload) -> LedgerEvent:
        if not isinstance(kind, EventKind):  # an int would write a kind byte that the log's readers refuse
            raise TypeError(f"event kind must be an EventKind, got {kind!r}")
        payload = dict(sorted(payload.items()))  # a copy: the caller's dict may change later
        record = _record(len(self), _encode(kind, payload), _prev(self._records))
        self._records.append(record)
        return LedgerEvent(len(self) - 1, kind, MappingProxyType(payload), record[-32:], record[4:-32])

    def to_bytes(self) -> bytes:
        return b"".join(self._records)

    @classmethod
    def from_bytes(cls, data: bytes) -> "EventLog":
        """The log whose canonical bytes are `data`, any bytes-like value (read as one `bytes`, a `bytes` uncopied)."""
        log = cls()
        log._records, cut = _split(data if type(data) is bytes else bytes(memoryview(data)))
        log._fit = _fits(log._records)
        for i in np.flatnonzero(~log._fit).tolist():
            _walk(log._records[i], i)  # the first record that fails its walk raises, before a tail cut short
        if cut:
            raise cut
        return log

    def text_dump(self) -> str:
        """One line per event, as `describe` renders it: a record that fits the Committed parts is one f-string
        over its byte slices, and every other record is walked."""
        self._fit = np.concatenate([self._fit, _fits(self._records[len(self._fit) :])])  # records only append
        lines = [f"{_U32.unpack_from(r, 4)[0]} Committed event={r[-32:].hex()} prev={r[-64:-32].hex()} "
                 f"address={r[_ADDRESS].hex()} commitment={r[_COMMITMENT].hex()}" if fit else _walk(r, i).describe()
                 for i, (r, fit) in enumerate(zip(self._records, self._fit.tolist()))]
        return "\n".join([*lines, ""])


def _prev(records: list[bytes]) -> bytes:
    """The hash the next event links to: the last record's tail, or the genesis prev_hash."""
    return records[-1][-32:] if records else GENESIS_PREV


def verify_event_chain(log: EventLog) -> tuple[bool, int | None]:
    """Recompute every hash and link from the records, column by column; returns (ok, first bad index).

    The sequence numbers are compared with their indices, each prev_hash with the event_hash recorded before it
    (the genesis prev_hash first), and each event_hash with the hash of its event_bytes.
    """
    records = log._records
    sequence_nos = np.frombuffer(b"".join(map(itemgetter(slice(4, 8)), records)), ">u4")
    tails = np.frombuffer(b"".join(map(itemgetter(slice(-64, None)), records)), np.uint8).reshape(-1, 64)
    hashes = np.frombuffer(b"".join([sha256(r[4:-32]) for r in records]), np.uint8).reshape(-1, 32)
    links = np.vstack([np.frombuffer(GENESIS_PREV, np.uint8), tails[:-1, 32:]])
    bad = (sequence_nos != np.arange(len(records))) | (tails[:, :32] != links).any(axis=1)
    bad |= (hashes != tails[:, 32:]).any(axis=1)
    return (False, int(bad.argmax())) if bad.any() else (True, None)


def check_transfer_safety(log: EventLog) -> bool:
    """No payment to the system operator, and no reveal, before a deposit. Only TRANSFERRED records are decoded."""
    for i, record in enumerate(log._records):
        kind = record[8]  # after body_len and sequence_no
        if kind == EventKind.DEPOSITED:
            return True  # from the first deposit on, reveals and transfers are allowed
        if kind == EventKind.REVEALED:
            return False
        if kind == EventKind.TRANSFERRED and _walk(record, i).payload.get("to_role") == "sysop":
            return False
    return True


class CommitmentIndex:
    """Map raw address -> raw response commitment, kept in arrival order as `commit_responses` stores them.

    An address's rank in ascending address-byte order is its filter index, from one `np.lexsort` of the arrival
    block's (N, 20) byte columns. That sorted view is taken on first use and again only after a commit, so a survey
    sorts its commitments once, after collection; `ranks_of` any other block is a binary search.
    """

    def __init__(self):
        self._commitments: dict[bytes, bytes] = {}  # raw address -> raw commitment, in arrival order
        self._arrival, self._order = b"", np.empty(0, np.intp)  # as of the last view: addresses, ascending positions
        self._ranked, self._sorted = np.empty(0, f"V{ADDRESS_LEN}"), ()  # addresses and commitments in rank order

    def __len__(self) -> int:
        return len(self._commitments)

    def _view(self) -> None:
        if len(self._arrival) != ADDRESS_LEN * len(self._commitments):  # commits only append
            self._arrival = b"".join(self._commitments)
            rows = np.frombuffer(self._arrival, np.uint8).reshape(-1, ADDRESS_LEN)
            self._order = np.lexsort(rows.T[::-1])  # lexsort's last key is its first: byte 0
            self._ranked = np.frombuffer(self._arrival, f"V{ADDRESS_LEN}")[self._order]  # compared as raw bytes
            self._sorted = tuple(map(self.commitments().__getitem__, self._order.tolist()))

    def arrival_bytes(self) -> bytes:
        """The committed addresses in arrival order, 20 bytes each."""
        self._view()
        return self._arrival

    def commitments(self) -> list[bytes]:
        """The raw commitments in arrival order."""
        return list(self._commitments.values())

    def ranks_of(self, block: bytes) -> np.ndarray:
        """The filter index of each 20-byte address in `block`, or -1 for one that did not commit."""
        self._view()
        if block == self._arrival:  # each arrival's rank: the inverse of the ascending order
            return np.argsort(self._order)
        wanted = np.frombuffer(block, f"V{ADDRESS_LEN}")
        at = np.searchsorted(self._ranked, wanted)
        found = at < len(self._ranked)
        found[found] = self._ranked[at[found]] == wanted[found]
        return np.where(found, at, -1)

    def sorted_commitments(self) -> tuple[bytes, ...]:
        """The raw commitments in filter-index order."""
        self._view()
        return self._sorted


@dataclass
class SurveyContract:
    """On-ledger record of one survey, built from its terms. Mutate only through module functions.

    The terms are the init fields, and only they: construction records them as the CREATED
    event, and `contract_id` is the digest of that payload. A term of the wrong type raises
    and records nothing; a negative fee or deadline fails the payload's u64 check. `Address`
    is the type of the terms and command arguments only: inside the contract an address is its
    raw 20 bytes, which key the commitments and `balance_deltas`.
    """

    config_uri: str
    config_digest: Digest
    required_responses: int
    fee: int
    n1: Nonce
    n2: Nonce
    s1: Secret
    h_s2: Digest
    deadline: int
    _: KW_ONLY
    authority: Address
    sysop: Address
    contract_id: Digest = field(init=False)
    phase: ContractPhase = field(init=False, default=ContractPhase.COLLECTING)
    commitments: CommitmentIndex = field(init=False, default_factory=CommitmentIndex)
    filter_digest: Digest | None = field(init=False, default=None)
    revealed_s2: Secret | None = field(init=False, default=None)
    log: EventLog = field(init=False, default_factory=EventLog)
    escrow_balance: int = field(init=False, default=0)
    balance_deltas: dict[bytes, int] = field(init=False, default_factory=dict)

    def __post_init__(self):
        payload: Payload = {}
        for name, kind in _TERMS:
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise TypeError(f"{name} must be {kind.__name__}, not {type(value).__name__}")
            payload[name] = value.value if isinstance(value, FixedBytes) else value
        if self.required_responses < 1:
            raise ValueError("required response count must be at least 1")
        created = self.log.append(EventKind.CREATED, payload)
        self.contract_id = digest(created.event_bytes[5:-32])  # the payload: after sequence_no and kind

    def _credit(self, address: bytes, amount: int) -> None:
        self.balance_deltas[address] = self.balance_deltas.get(address, 0) + amount


# (name, type) of each term in init order; get_type_hints resolves the string annotations
_HINTS = get_type_hints(SurveyContract)
_TERMS = tuple((f.name, _HINTS[f.name]) for f in fields(SurveyContract) if f.init)


def commit_responses(contract: SurveyContract, addresses: Sequence[bytes], commitments: Sequence[bytes]) -> None:
    """Store each raw address's raw response commitment in turn, first come first served.

    Each pair is its own command: 20 address bytes and 32 commitment bytes, of an address not committed before.
    The first pair refused raises, and those before it stay committed; each record packs the `_COMMITTED` parts.
    """
    if len(addresses) != len(commitments):
        raise LedgerError(f"commit needs one commitment per address, got {len(addresses)} and {len(commitments)}")
    if addresses and contract.phase != ContractPhase.COLLECTING:
        raise LedgerError(
            f"cannot commit in phase {contract.phase.name}: no more responses are accepted"
        )
    records, index = contract.log._records, contract.commitments._commitments
    prev, first, (head, _, middle, _, tail) = _prev(records), len(records), _COMMITTED
    for a, c in zip(addresses, commitments):
        if type(a) is not bytes or len(a) != ADDRESS_LEN or type(c) is not bytes or len(c) != Digest.LENGTH:
            raise LedgerError(f"commit pair {len(records) - first} is not 20 address and 32 commitment bytes")
        if a in index:
            raise LedgerError(f"address 0x{a.hex()} already committed (first commitment wins)")
        record = _record(len(records), (head, a, middle, c, tail), prev)
        records.append(record)
        prev = record[-32:]
        index[a] = c


def commit_response(contract: SurveyContract, address: Address, commitment: Digest) -> None:
    """Store one address's response commitment, first come first served: the one-pair call of `commit_responses`."""
    typed = isinstance(address, Address) and isinstance(commitment, Digest)
    if not typed and contract.phase == ContractPhase.COLLECTING:  # in another phase the phase is refused first
        raise LedgerError(f"commit needs an Address and a Digest, got {type(address).__name__}, {type(commitment).__name__}")
    commit_responses(contract, (address.value if typed else None,), (commitment.value if typed else None,))


def finalize_filter(contract: SurveyContract, filter_digest: Digest) -> None:
    """Record the eligibility filter's hash and stop accepting commitments."""
    if contract.phase != ContractPhase.COLLECTING:
        raise LedgerError(f"cannot finalize filter in phase {contract.phase.name}")
    if not isinstance(filter_digest, Digest):
        raise LedgerError(f"filter digest must be a Digest, not {type(filter_digest).__name__}")
    contract.log.append(EventKind.FILTER_RECORDED, {"filter_digest": filter_digest.value})
    contract.filter_digest = filter_digest
    contract.phase = ContractPhase.FILTERED


def deposit(contract: SurveyContract, from_address: Address, amount: int) -> None:
    """Escrow the agreed fee; only the authority, only the exact amount."""
    if contract.phase != ContractPhase.FILTERED:
        raise LedgerError(f"cannot deposit in phase {contract.phase.name}")
    if from_address != contract.authority:
        raise LedgerError("only the contract's authority may deposit")
    if type(amount) is not int or amount != contract.fee:
        raise LedgerError(f"deposit must equal the agreed fee {contract.fee}, got {amount!r}")
    contract.log.append(EventKind.DEPOSITED, {"from": from_address.value, "amount": amount})
    contract.escrow_balance += amount
    contract._credit(from_address.value, -amount)
    contract.phase = ContractPhase.DEPOSITED


def _release_escrow(contract: SurveyContract, to: Address, role: str) -> int:
    """Move the whole escrow to `to` as one TRANSFERRED event; returns the amount moved."""
    amount = contract.escrow_balance
    contract.log.append(  # from the contract's own synthetic address: its id's first 20 bytes
        EventKind.TRANSFERRED,
        {"from": contract.contract_id.value[:ADDRESS_LEN], "to": to.value, "to_role": role, "amount": amount},
    )
    contract.escrow_balance = 0
    contract._credit(to.value, amount)
    return amount


def reveal_secret(contract: SurveyContract, s2_candidate: Secret) -> None:
    """Atomically record s2 and release the deposit to the system operator.

    A candidate whose hash does not match the stored commitment changes
    nothing: no event, no phase change, no transfer.
    """
    if contract.phase != ContractPhase.DEPOSITED:
        raise LedgerError(f"cannot reveal in phase {contract.phase.name}")
    if not isinstance(s2_candidate, Secret):
        raise LedgerError(f"revealed secret must be a Secret, not {type(s2_candidate).__name__}")
    if sha256(s2_candidate.value) != contract.h_s2.value:
        raise LedgerError("revealed secret does not match the stored hash")
    contract.log.append(EventKind.REVEALED, {"s2": s2_candidate.value})
    contract.revealed_s2 = s2_candidate
    _release_escrow(contract, contract.sysop, "sysop")
    contract.phase = ContractPhase.REVEALED


def equal_split(fee: int, required_responses: int) -> int:
    """Per-operator compensation: operators share OPERATOR_SHARE_PCT of the fee."""
    return fee * OPERATOR_SHARE_PCT // (100 * required_responses)


def payout(contract: SurveyContract, filter_bits: Sequence[int]) -> dict[bytes, int]:
    """Pay the rule's share (`equal_split`) to exactly `required_responses` filter-eligible commitments.

    Anyone holding the published filter may settle: its bits are checked against the recorded
    digest first, then the contract pays its ones in ascending address order (the PAID_OUT
    order), counting the payees it pays. A rejected call changes nothing. Returns the
    distribution paid: each payee's raw 20-byte address and its share, in that order.
    """
    if contract.phase != ContractPhase.REVEALED:
        raise LedgerError(f"cannot pay out in phase {contract.phase.name}")
    try:
        filter_bytes = encode_bit_vector(filter_bits)
    except ValueError as exc:  # a bit other than 0 or 1
        raise LedgerError(f"supplied filter is not a bit vector: {exc}") from exc
    if contract.filter_digest is None or sha256(filter_bytes) != contract.filter_digest.value:
        raise LedgerError("supplied filter does not match the recorded filter hash")
    marked = np.asarray(filter_bits) == 1
    if len(marked) != len(contract.commitments) or np.count_nonzero(marked) != contract.required_responses:
        raise LedgerError(f"filter must mark exactly {contract.required_responses} of the commitments")
    share = equal_split(contract.fee, contract.required_responses)
    total = share * contract.required_responses
    contract.commitments._view()  # the payees' raw addresses, in ascending order
    payees = contract.commitments._ranked[marked].tolist()  # a V20 row lists as its 20 bytes
    amount = struct.pack(">Q", share)
    contract.log.append(EventKind.PAID_OUT, {"distribution": amount.join(payees) + amount, "total": total})
    contract._credit(contract.sysop.value, -total)
    distribution, deltas = dict.fromkeys(payees, share), contract.balance_deltas
    # payees that already have a delta (a party paid as an operator too); the smaller view is the one walked
    earlier = {a: deltas[a] + share for a in distribution.keys() & deltas.keys()}
    deltas.update(distribution)  # reuses the hashes distribution holds
    deltas.update(earlier)
    contract.phase = ContractPhase.SETTLED
    return distribution


def abort(contract: SurveyContract, now: int) -> None:
    """Terminate a stalled survey after its deadline; refund any deposit."""
    if contract.phase in (ContractPhase.REVEALED, ContractPhase.SETTLED, ContractPhase.ABORTED):
        raise LedgerError(f"cannot abort in phase {contract.phase.name}")
    if type(now) is not int:
        raise LedgerError(f"now must be an int, got {now!r}")
    if now <= contract.deadline:
        raise LedgerError(f"deadline {contract.deadline} not yet passed at {now}")
    phase_before = contract.phase
    refund = 0
    if phase_before == ContractPhase.DEPOSITED:
        refund = _release_escrow(contract, contract.authority, "authority")
    contract.log.append(EventKind.ABORTED, {"phase_before": phase_before.name, "refund": refund})
    contract.phase = ContractPhase.ABORTED
