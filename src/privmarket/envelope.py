"""Two-secret key escrow and the encrypted response envelope.

The symmetric session key is split between two HMAC-derived secrets: s1 is
public from the moment a survey contract is created, s2 is withheld until
payment lands on the ledger. The session key is SHA-256(s1 || s2), so
holding either half alone decrypts nothing.

Concrete algorithms are fixed so tests can pin exact vectors: SHA-256 for
hashing, HMAC-SHA-256 for secret derivation, AES-256-GCM for authenticated
encryption.

Normative byte layouts (inputs to hashing and commitments, bit-exact):

* bit vector: 4-byte big-endian length n, then ceil(n/8) bytes with bit j
  stored at byte j//8, most significant bit first; padding bits are zero.
  decode_bit_matrix reports the records that do not decode by position, a
  None slot of decrypt_population among them. read_bit_stream, the one
  stream reader, validates a stream on its packed rows, and count_ones
  counts their ones per position: `estimate` never unpacks a stream.
* ciphertext: 12-byte cipher nonce, then the AES-GCM body (payload plus
  16-byte authentication tag). A Ciphertext is these bytes, so H(C_R), the
  SHA-256 of the Ciphertext itself, commits to nonce, body and tag jointly.

Digests render as lowercase hex everywhere (logs, CSV, CLI).

Lengths and types are checked in the one constructor of each FixedBytes
(ledger.Address included), in Ciphertext's constructor, and in the nonce
block of encrypt_population (once per block). A Ciphertext is the bytes that
travel between parties and that its commitment hashes; its nonce and body are
slices of them. Only the envelopes encrypt_population seals skip a check
(`bytes.__new__`), for the reason its docstring gives.

SHA-256 has one home: `sha256` returns the raw 32 bytes, for a hash that is
only compared or chained; `digest` wraps them in a Digest, for one that is
kept. AES-GCM seals and opens a population in one call each (one AES-GCM
object per call); `encrypt` and `decrypt` are their one-row calls.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import struct
from dataclasses import dataclass
from operator import itemgetter
from typing import ClassVar, Sequence

import numpy as np
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

CIPHER_NONCE_LEN = 12
GCM_TAG_LEN = 16


class DecryptionError(Exception):
    """Authentication failure: wrong key, wrong nonce, or tampered bytes."""


class BitVectorError(ValueError):
    """A malformed bit vector record, at position `record` of its input."""

    def __init__(self, record: int, message: str):
        super().__init__(f"record {record}: {message}")
        self.record = record


class MixedLengthsError(BitVectorError):
    """A whole record of a bit-vector stream holds another number of bits than record 0."""


def _expect_len(name: str, value: bytes, expected: int) -> bytes:
    if not isinstance(value, (bytes, bytearray)):
        raise ValueError(f"{name} must be bytes")
    if len(value) != expected:
        raise ValueError(f"{name} must be exactly {expected} bytes, got {len(value)}")
    return bytes(value)


@dataclass(frozen=True, slots=True)
class FixedBytes:
    """Exactly LENGTH bytes, checked on construction; subclasses differ only in LENGTH and LABEL, and declare `__slots__ = ()`."""

    value: bytes
    LENGTH: ClassVar[int]
    LABEL: ClassVar[str]

    def __post_init__(self):
        object.__setattr__(self, "value", _expect_len(self.LABEL, self.value, self.LENGTH))


class PreSharedKey(FixedBytes):
    __slots__ = ()
    LENGTH, LABEL = 32, "pre-shared key"


class Nonce(FixedBytes):
    __slots__ = ()
    LENGTH, LABEL = 16, "nonce"


class Secret(FixedBytes):
    __slots__ = ()
    LENGTH, LABEL = 32, "secret"


class SessionKey(FixedBytes):
    __slots__ = ()
    LENGTH, LABEL = 32, "session key"


class Digest(FixedBytes):
    __slots__ = ()
    LENGTH, LABEL = 32, "digest"

    @property
    def hex(self) -> str:
        return self.value.hex()


class Ciphertext(bytes):
    """AES-GCM envelope: the 12-byte cipher nonce, then the body (payload plus the 16-byte tag), as one bytes value."""

    __slots__ = ()

    def __new__(cls, cipher_nonce: bytes, body: bytes) -> "Ciphertext":
        nonce = _expect_len("cipher nonce", cipher_nonce, CIPHER_NONCE_LEN)
        if not isinstance(body, (bytes, bytearray)) or len(body) < GCM_TAG_LEN:
            raise ValueError("ciphertext body must hold at least the authentication tag")
        return super().__new__(cls, nonce + body)

    # read-only slices, taken in C: decrypt_population reads both of every delivery
    cipher_nonce = property(itemgetter(slice(CIPHER_NONCE_LEN)), doc="The 12-byte cipher nonce.")
    body = property(itemgetter(slice(CIPHER_NONCE_LEN, None)), doc="The AES-GCM payload plus its 16-byte tag.")


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Raw HMAC-SHA-256 entry point (any key length, e.g. for test vectors)."""
    return _hmac.new(key, message, hashlib.sha256).digest()


def hmac_derive(psk: PreSharedKey, nonce: Nonce) -> Secret:
    """Derive a 32-byte secret: HMAC-SHA-256(key=psk, message=nonce)."""
    return Secret(hmac_sha256(psk.value, nonce.value))


def derive_session_key(s1: Secret, s2: Secret) -> SessionKey:
    """SHA-256 over the 64-byte concatenation s1 || s2, in that order."""
    return SessionKey(sha256(s1.value + s2.value))


def sha256(data: bytes, _new=hashlib.sha256) -> bytes:
    """The raw 32-byte SHA-256 of the exact input bytes."""
    return _new(data).digest()


def digest(data: bytes) -> Digest:
    """SHA-256 of the exact input bytes, as a Digest to keep."""
    return Digest(sha256(data))


def encrypt_population(sk: SessionKey, plaintexts: Sequence[bytes], nonces: bytes) -> list[Ciphertext]:
    """AES-256-GCM of each plaintext under row i of the nonce block, its bytes [12i, 12i + 12).

    The block is checked once: bytes, exactly 12 per plaintext. Each nonce must be unique per
    (key, message) pair. The envelopes skip Ciphertext's checks, which add about half again to the seals'
    time (one per operator): each is a 12-byte row of the checked block and an AES-GCM output, tag included.
    """
    block = _expect_len("cipher nonce", nonces, CIPHER_NONCE_LEN * len(plaintexts))
    seal, new = AESGCM(sk.value).encrypt, bytes.__new__
    rows = [block[i : i + CIPHER_NONCE_LEN] for i in range(0, len(block), CIPHER_NONCE_LEN)]
    return [new(Ciphertext, nonce + seal(nonce, bytes(plaintext), None)) for nonce, plaintext in zip(rows, plaintexts)]


def decrypt_population(sk: SessionKey, ciphertexts: Sequence[Ciphertext]) -> list[bytes | None]:
    """Open each ciphertext: one slot per input, its plaintext, or None where it is no Ciphertext or does not
    authenticate (wrong key, wrong nonce or tampered bytes)."""
    open_, opened = AESGCM(sk.value).decrypt, []
    for c in ciphertexts:
        try:
            opened.append(open_(c.cipher_nonce, c.body, None) if isinstance(c, Ciphertext) else None)
        except InvalidTag:
            opened.append(None)
    return opened


def encrypt(sk: SessionKey, plaintext: bytes, cipher_nonce: bytes) -> Ciphertext:
    """AES-256-GCM of one plaintext: the one-row call of encrypt_population."""
    return encrypt_population(sk, [plaintext], cipher_nonce)[0]


def decrypt(sk: SessionKey, c: Ciphertext) -> bytes:
    """Recover one plaintext: the one slot of decrypt_population. Raises DecryptionError on any authentication
    failure."""
    (plaintext,) = decrypt_population(sk, [c])
    if plaintext is None:
        raise DecryptionError("ciphertext failed authentication")
    return plaintext


def encode_bit_matrix(bits: np.ndarray) -> list[bytes]:
    """Pack each row of an (N, n) 0/1 matrix into the normative layout; inverse of decode_bit_matrix."""
    values = np.asarray(bits)
    ones = values == 1
    # numbers only, and every nonzero entry must be a 1
    if values.ndim != 2 or values.dtype.kind not in "biuf" or np.count_nonzero(values) != np.count_nonzero(ones):
        raise ValueError("bits must be 0 or 1")
    prefix = np.frombuffer(struct.pack(">I", values.shape[1]), dtype=np.uint8)
    rows = np.hstack([np.broadcast_to(prefix, (len(values), 4)), np.packbits(ones, axis=1)])
    blob, size = rows.tobytes(), rows.shape[1]
    return [blob[i : i + size] for i in range(0, len(blob), size)]


def encode_bit_vector(bits: Sequence[int] | np.ndarray) -> bytes:
    """Pack bits into the normative layout (see module docstring)."""
    return encode_bit_matrix(np.asarray(bits)[None])[0]  # only a 1-D input passes the 2-D check


def _check_rows(data: bytes, count: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first `count` n-bit records of data as uint8 rows; per row: is its prefix n, is its padding zero."""
    size = 4 + (n + 7) // 8
    rows = np.frombuffer(data, np.uint8, count * size).reshape(count, size)
    prefixed = np.ndarray((count,), ">u4", data, 0, (size,)) == n  # one strided big-endian view of every prefix
    padded = (rows[:, -1] & ((1 << (-n % 8)) - 1)) == 0  # a multiple of 8 bits has no padding
    return rows, prefixed, padded


def decode_bit_matrix(records: Sequence[bytes | None], n: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Strictly decode records that each hold n bits; returns (bits, undecodable).

    bits is the (M, n) uint8 matrix of the records that decode, in input order; undecodable the
    ascending positions of the others: None (an envelope that did not open), another length, another
    length prefix, or nonzero padding.
    """
    size = 4 + (n + 7) // 8
    # swap None or a record of another length for all ones, which never decode (at n = 2**32 - 1 a padding bit is set)
    records = [record if len(record or b"") == size else b"\xff" * size for record in records]
    rows, prefixed, padded = _check_rows(b"".join(records), len(records), n)
    good = prefixed & padded
    return np.unpackbits(rows[good, 4:], axis=1, count=n), tuple(np.flatnonzero(~good).tolist())


def read_bit_stream(data: bytes) -> tuple[np.ndarray, int]:
    """Strictly read a concatenation of equal-length bit vectors: its records as validated, still packed rows.

    Returns the (N, 4 + ceil(n/8)) uint8 rows, row i record i, and n, the first record's length prefix (0 for empty
    input). BitVectorError names the first bad record: truncated, nonzero padding, or (MixedLengthsError) a whole
    record holding another number of bits.
    """
    n = int.from_bytes(data[:4], "big")  # input shorter than a prefix holds no whole record
    size = 4 + (n + 7) // 8
    count = len(data) // size
    rows, prefixed, padded = _check_rows(data, count, n)
    bad = np.flatnonzero(~(prefixed & padded))
    if bad.size and prefixed[bad[0]]:
        raise BitVectorError(int(bad[0]), "nonzero padding bits")
    good = int(bad[0]) if bad.size else count
    rest = data[good * size :]
    if not rest:
        return rows, n
    if len(rest) < 4:
        raise BitVectorError(good, "truncated length prefix")
    m = int.from_bytes(rest[:4], "big")
    if len(rest) < 4 + (m + 7) // 8:
        raise BitVectorError(good, "truncated body")
    raise MixedLengthsError(good, f"holds {m} bits, record 0 holds {n}")


def count_ones(rows: np.ndarray, n: int) -> np.ndarray:
    """The int64 count of ones at each of the n positions of packed rows as `read_bit_stream` returns them, without
    unpacking them: one histogram of each byte column's values, times the bits of each value."""
    histograms = np.array([np.bincount(column, minlength=256) for column in rows[:, 4:].T], np.int64).reshape(-1, 256)
    return (histograms @ np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)).reshape(-1)[:n]
