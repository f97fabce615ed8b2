"""Per-respondent reference implementations that the batch code is tested against.

privmarket handles a population as one (N, n) matrix: `ldp.randomize_batch`
encodes and randomizes it, `envelope.decode_bit_matrix` decodes it and
`envelope.read_bit_stream` reads a stream of it as packed rows. The
functions here do the same work one respondent and one record at a time,
written independently of the batch code, so a test can compare the two row
by row. `reference_survey` runs a whole survey that way, one operator and
one command at a time, screening each operator with `evaluate_criteria`.

`ledger.EventLog` holds only its records' bytes. `verify_event_chain`,
`check_transfer_safety` and `describe` here read a log the way the ledger
did when it kept one decoded `LedgerEvent` per event: event by event, from
the decoded fields. `encode_payload` writes a payload field by field, apart
from the encoded parts the ledger packs its records from, and
`arrival_addresses` reads a commitment index's addresses one by one.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from privmarket import ledger
from privmarket.envelope import (
    BitVectorError, decrypt, derive_session_key, digest, encode_bit_vector, encrypt, hmac_derive,
)
from privmarket.ldp import FrequencyEstimate, PrivacyParams, accumulate_counts, estimate_frequencies
from privmarket.protocol import (
    ArtifactStore, Authority, ConfigIntegrityError, DeliveryVerdict, InsufficientEligibleError, ProtocolError,
    SystemOperator, authority_deposit_and_await_reveal, parse_config_file, setup_survey,
    sysop_reveal_secret,
)


@dataclass(frozen=True)
class ResponseVector:
    """A bit vector over the query's choices.

    Freshly encoded vectors are one-hot; randomized vectors generally are
    not. Instances are immutable and safe to share across threads.
    """

    bits: tuple[int, ...]

    def __init__(self, bits: Sequence[int]):
        vals = tuple(int(b) for b in bits)
        if not vals:
            raise ValueError("response vector must not be empty")
        if any(b not in (0, 1) for b in vals):
            raise ValueError("response bits must be 0 or 1")
        object.__setattr__(self, "bits", vals)

    @property
    def n(self) -> int:
        return len(self.bits)


def encode_one_hot(choice_index: int, n: int) -> ResponseVector:
    """Build the pre-randomization vector for a single choice."""
    if n < 2:
        raise ValueError(f"need at least 2 choices, got n={n}")
    if not (0 <= choice_index < n):
        raise ValueError(f"choice index {choice_index} out of range for n={n}")
    bits = [0] * n
    bits[choice_index] = 1
    return ResponseVector(bits)


def randomize_response(
    rv: ResponseVector, params: PrivacyParams, rng: np.random.Generator
) -> ResponseVector:
    """Apply the per-bit randomized-response game to a vector.

    Bit j draws a uniform u: u < f/2 gives 1, f/2 <= u < f gives 0, and
    u >= f copies the input bit. Consumes exactly one length-n uniform draw
    from `rng`, so identical (rv, f, seed) always yields identical output.

    The input vector is not modified.
    """
    f = params.f
    u = rng.random(rv.n)
    return ResponseVector([int(x < f / 2.0) if x < f else bit for x, bit in zip(u, rv.bits)])


def decode_bit_vector(data: bytes) -> tuple[int, ...]:
    """Strict inverse of encode_bit_vector.

    Rejects truncated input, trailing bytes and nonzero padding bits;
    every byte string decodes to at most one bit sequence.
    """
    if len(data) < 4:
        raise ValueError("bit vector record truncated before length prefix")
    (n,) = struct.unpack(">I", data[:4])
    expected = 4 + (n + 7) // 8
    if len(data) != expected:
        raise ValueError(f"bit vector record length mismatch: want {expected} bytes, got {len(data)}")
    packed = data[4:]
    bits = tuple((packed[j // 8] >> (7 - j % 8)) & 1 for j in range(n))
    # padding bits beyond n must be zero or decoding would be ambiguous
    if n % 8 and packed and packed[-1] & ((1 << (8 - n % 8)) - 1):
        raise ValueError("nonzero padding bits in bit vector record")
    return bits


def unpack_bit_vector_stream(data: bytes) -> list[tuple[int, ...]]:
    """Parse a concatenation of encoded bit vectors, strictly."""
    out: list[tuple[int, ...]] = []
    offset = 0
    while offset < len(data):
        if len(data) - offset < 4:
            raise BitVectorError(len(out), "truncated length prefix")
        (n,) = struct.unpack(">I", data[offset : offset + 4])
        end = offset + 4 + (n + 7) // 8
        if end > len(data):
            raise BitVectorError(len(out), "truncated body")
        out.append(decode_bit_vector(data[offset:end]))
        offset = end
    return out


def canonical_encode_response(rv: ResponseVector) -> bytes:
    """Stable bytes of a response vector for encryption and hashing."""
    return encode_bit_vector(rv.bits)


def decode_response(data: bytes) -> ResponseVector:
    """Inverse of canonical_encode_response; rejects malformed input."""
    return ResponseVector(decode_bit_vector(data))


def evaluate_criteria(profile, criteria) -> bool:
    """True iff every predicate's attribute is present with an allowed value: one operator's screening."""
    for attr, allowed in criteria.predicates:
        if profile.attributes.get(attr) not in allowed:
            return False
    return True


@dataclass
class ReferenceOutcome:
    contract: ledger.SurveyContract
    trace: list[str]
    estimate: FrequencyEstimate
    decrypted_vectors: np.ndarray
    failed_indices: tuple[int, ...]


def reference_survey(config, profiles, operator_rngs, infra_rng) -> ReferenceOutcome:
    """One honest survey, one operator and one command at a time; `protocol.run_survey` must match it byte for byte.

    Generators are drawn from in the order the `simulate` and `commit_population` docstrings
    document: the authority's and the system operator's addresses, then the key material, then
    per operator in arrival order one length-n uniform draw from its own report generator and
    12 cipher-nonce bytes from `infra_rng`. The filter, the deliveries and their checks, and the
    payout are built by their own loops here, from the rules: first come first served up to NR
    eligible; bits, filter indices and payees in ascending address order; a delivery accepted
    once, when it hashes to the commitment at its index. A survey that cannot complete raises
    the ProtocolError that run_survey raises, with the trace so far.
    """
    trace: list[str] = []

    def line(party: str, action: str, detail: str) -> None:
        trace.append(f"{party:<9} {action:<22} {detail}".rstrip())

    store = ArtifactStore()
    authority = Authority(ledger.Address(infra_rng.bytes(20)), config)
    sysop = SystemOperator(ledger.Address(infra_rng.bytes(20)), infra_rng)
    for profile in profiles:
        sysop.register_operator(profile)
    try:
        contract, _ = setup_survey(authority, sysop, config, store=store)
        line("sysop", "create-contract", f"id={contract.contract_id.hex[:16]} nr={config.required_responses} fee={config.fee}")
        line("sysop", "distribute-psk", f"recipients={len(sysop.registry)}")

        config_bytes = store.get(contract.config_uri)
        prepared, committed = [], {}  # (raw address, ciphertext) in arrival order; raw address -> commitment
        for profile, rng in zip(profiles, operator_rngs):
            if digest(config_bytes) != contract.config_digest:
                raise ConfigIntegrityError("configuration bytes do not match the on-ledger digest")
            terms = parse_config_file(config_bytes)
            psk = sysop.issue_psk(contract, profile.operator_id)
            sk = derive_session_key(hmac_derive(psk, contract.n1), hmac_derive(psk, contract.n2))
            report = randomize_response(encode_one_hot(profile.true_choice, terms.query.n), terms.privacy, rng)
            ciphertext = encrypt(sk, canonical_encode_response(report), infra_rng.bytes(12))
            commitment = digest(ciphertext.cipher_nonce + ciphertext.body)
            ledger.commit_response(contract, profile.active_address, commitment)
            prepared.append((profile.active_address.value, ciphertext))
            committed[profile.active_address.value] = commitment
            line("operator", "commit", f"{profile.operator_id} commitment={commitment.hex[:16]}")

        marked = []
        for profile in profiles:
            if len(marked) < config.required_responses and evaluate_criteria(profile, config.criteria):
                marked.append(profile.active_address.value)
        if len(marked) < config.required_responses:
            raise InsufficientEligibleError(
                f"only {len(marked)} eligible commitments, need {config.required_responses}"
            )
        ascending = sorted(profile.active_address.value for profile in profiles)
        bits = tuple(int(raw in marked) for raw in ascending)
        ledger.finalize_filter(contract, digest(encode_bit_vector(bits)))
        line("sysop", "finalize-filter", f"eligible={sum(bits)} of {len(bits)}")

        for raw, ciphertext in prepared:  # an operator whose filter bit is set delivers; the authority checks it
            index = ascending.index(raw)
            if not bits[index]:
                continue
            if digest(ciphertext.cipher_nonce + ciphertext.body) != committed[raw]:
                verdict = DeliveryVerdict.HASH_MISMATCH
            elif index in authority.accepted:
                verdict = DeliveryVerdict.DUPLICATE
            else:
                authority.accepted[index] = ciphertext
                verdict = DeliveryVerdict.ACCEPTED
            line("authority", "verify-delivery", f"index={index} verdict={verdict.value}")
            if verdict != DeliveryVerdict.ACCEPTED:
                raise ProtocolError(f"honest delivery at index {index} rejected: {verdict.value}")

        authority_deposit_and_await_reveal(authority, contract)
        line("authority", "deposit", f"amount={contract.fee}")
        sysop_reveal_secret(sysop, contract)
        line("sysop", "reveal-secret", f"h_s2={contract.h_s2.hex[:16]}")

        share = ledger.equal_split(contract.fee, contract.required_responses)
        payees = [raw for raw, bit in zip(ascending, bits) if bit]
        contract.log.append(ledger.EventKind.PAID_OUT, {
            "distribution": b"".join(raw + struct.pack(">Q", share) for raw in payees),
            "total": share * contract.required_responses,
        })
        contract.phase = ledger.ContractPhase.SETTLED
        for raw in payees:
            line("sysop", "pay-operator", f"0x{raw.hex()} amount={share}")

        sk = derive_session_key(contract.s1, contract.revealed_s2)
        rows, failed = [], []
        for index in sorted(authority.accepted):
            try:
                rows.append(decode_response(decrypt(sk, authority.accepted[index])).bits)
            except Exception:
                failed.append(index)
        vectors = np.array(rows, dtype=np.uint8).reshape(len(rows), config.query.n)
        estimate = estimate_frequencies(accumulate_counts(vectors), config.privacy)
        line("authority", "decrypt-aggregate", f"responses={len(vectors)}")
    except ledger.LedgerError as exc:
        raise ProtocolError(str(exc), trace) from exc
    except ProtocolError as exc:
        exc.trace = trace
        raise
    return ReferenceOutcome(contract, trace, estimate, vectors, tuple(failed))


def encode_payload(payload) -> bytes:
    """A payload's canonical bytes: u16 field_count, then per field in ascending key order u16 key_len, the
    utf8 key, a u8 tag and the value (0x01 u64; 0x02 bytes and 0x03 utf8 str, each after a u32 length)."""
    parts = [struct.pack(">H", len(payload))]
    for key in sorted(payload):
        kb = key.encode("utf-8")
        value = payload[key]
        if isinstance(value, bool):
            raise TypeError("payload values must be int, bytes or str")
        if isinstance(value, int):
            if value < 0 or value >= 1 << 64:
                raise ValueError(f"payload int out of u64 range: {value}")
            parts += (struct.pack(">H", len(kb)), kb, struct.pack(">BQ", 0x01, value))
        elif isinstance(value, bytes):
            parts += (struct.pack(">H", len(kb)), kb, struct.pack(">BI", 0x02, len(value)), value)
        elif isinstance(value, str):
            sb = value.encode("utf-8")
            parts += (struct.pack(">H", len(kb)), kb, struct.pack(">BI", 0x03, len(sb)), sb)
        else:
            raise TypeError(f"unsupported payload value type: {type(value)!r}")
    return b"".join(parts)


def verify_event_chain(log: ledger.EventLog) -> tuple[bool, int | None]:
    """Recompute every hash and link from the decoded events; returns (ok, first bad index)."""
    prev = ledger.GENESIS_PREV
    for i, event in enumerate(log.events):
        if event.sequence_no != i or event.prev_hash != prev:
            return False, i
        if hashlib.sha256(event.event_bytes).digest() != event.event_hash:
            return False, i
        prev = event.event_hash
    return True, None


def check_transfer_safety(log: ledger.EventLog) -> bool:
    """No payment to the system operator, and no reveal, before a deposit."""
    deposited_at: int | None = None
    for i, event in enumerate(log.events):
        if event.kind == ledger.EventKind.DEPOSITED and deposited_at is None:
            deposited_at = i
        elif event.kind == ledger.EventKind.REVEALED and deposited_at is None:
            return False
        elif event.kind == ledger.EventKind.TRANSFERRED and event.payload.get("to_role") == "sysop":
            if deposited_at is None:
                return False
    return True


def arrival_addresses(index: ledger.CommitmentIndex) -> list[bytes]:
    """An index's committed addresses in arrival order: the 20-byte chunks of its arrival block. `sorted` of them
    is the ascending order that filter indices follow."""
    block = index.arrival_bytes()
    return [block[i : i + ledger.ADDRESS_LEN] for i in range(0, len(block), ledger.ADDRESS_LEN)]


def describe(event: ledger.LedgerEvent) -> str:
    """One event's line of the text dump."""
    fields = " ".join([f"{ledger._token(k)}={v.hex() if type(v) is bytes else ledger._token(v) if type(v) is str else v}"
                       for k, v in event.payload.items()])
    hashes = f"event={event.event_hash.hex()} prev={event.event_bytes[-32:].hex()}"
    return f"{event.sequence_no} {ledger._EVENT_NAMES[event.kind]} {hashes} {fields}"
