"""Per-respondent reference implementations that the batch code is tested against.

privmarket handles a population as one (N, n) matrix: `ldp.randomize_batch`
encodes and randomizes it, `envelope.decode_bit_matrix` and
`envelope.decode_bit_stream` decode it. The functions here do the same work
one respondent and one record at a time, written independently of the batch
code, so a test can compare the two row by row.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from privmarket.envelope import BitVectorError, encode_bit_vector
from privmarket.ldp import PrivacyParams


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
