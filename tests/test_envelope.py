import dataclasses
import hashlib
import re

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

from privmarket.envelope import (
    BitVectorError,
    Ciphertext,
    DecryptionError,
    Digest,
    MixedLengthsError,
    Nonce,
    PreSharedKey,
    Secret,
    SessionKey,
    count_ones,
    decode_bit_matrix,
    decrypt,
    decrypt_population,
    derive_session_key,
    digest,
    encode_bit_matrix,
    encode_bit_vector,
    encrypt,
    encrypt_population,
    hmac_derive,
    hmac_sha256,
    read_bit_stream,
    sha256,
)
from privmarket.ledger import Address
from privmarket.protocol import OperatorProfile
from reference import (
    ResponseVector,
    canonical_encode_response,
    decode_bit_vector,
    decode_response,
    unpack_bit_vector_stream,
)


class TestNewtypes:
    @pytest.mark.parametrize(
        "cls,length",
        [(PreSharedKey, 32), (Nonce, 16), (Secret, 32), (SessionKey, 32), (Digest, 32), (Address, 20)],
    )
    def test_length_enforced(self, cls, length):
        cls(b"\x00" * length)
        with pytest.raises(ValueError):
            cls(b"\x00" * (length - 1))
        with pytest.raises(ValueError):
            cls(b"\x00" * (length + 1))
        for not_bytes in ("\x00" * length, [0] * length, None):
            with pytest.raises(ValueError):
                cls(not_bytes)

    def test_ciphertext_needs_tag(self):
        Ciphertext(b"\x00" * 12, b"\x00" * 16)
        with pytest.raises(ValueError):
            Ciphertext(b"\x00" * 12, b"\x00" * 15)
        with pytest.raises(ValueError):
            Ciphertext(b"\x00" * 11, b"\x00" * 16)
        with pytest.raises(ValueError):
            Ciphertext(b"\x00" * 13, b"\x00" * 16)
        with pytest.raises(ValueError):
            Ciphertext("\x00" * 12, b"\x00" * 16)
        with pytest.raises(ValueError):
            Ciphertext(b"\x00" * 12, "\x00" * 16)

    @pytest.mark.parametrize("nonce", [b"\x00" * 11, b"\x00" * 13, "\x00" * 12, None])
    def test_encrypt_checks_nonce(self, nonce):
        with pytest.raises(ValueError):
            encrypt(SessionKey(b"\x00" * 32), b"x", nonce)

    def test_made_values_equal_checked_ones(self):
        # digest, hmac_derive and derive_session_key build through the checked constructors, encrypt skips
        # Ciphertext's: either way each value equals, and hashes as, one the checked constructor builds
        secret = hmac_derive(PreSharedKey(b"\x07" * 32), Nonce(b"\x01" * 16))
        key = derive_session_key(secret, secret)
        c = encrypt(key, b"payload", b"\x02" * 12)
        made = [secret, key, digest(b"abc"), c]
        checked = [Secret(secret.value), SessionKey(key.value), Digest(hashlib.sha256(b"abc").digest())]
        checked.append(Ciphertext(c.cipher_nonce, c.body))
        for m, k in zip(made, checked):
            assert type(m) is type(k)
            assert m == k
            assert hash(m) == hash(k)


class TestSlots:
    """Per-operator value types hold their fields in slots; a subclass that forgets `__slots__ = ()` gets a dict."""

    FROZEN = [
        Address(b"\x01" * 20),
        Digest(b"\x02" * 32),
        Nonce(b"\x03" * 16),
        Secret(b"\x04" * 32),
        PreSharedKey(b"\x05" * 32),
        SessionKey(b"\x08" * 32),
    ]
    CIPHERTEXT = Ciphertext(b"\x06" * 12, b"\x07" * 16)

    @pytest.mark.parametrize("instance", [*FROZEN, CIPHERTEXT, OperatorProfile("op", (Address(b"\x01" * 20),))],
                             ids=lambda instance: type(instance).__name__)
    def test_no_instance_dict(self, instance):
        assert not hasattr(instance, "__dict__")

    @pytest.mark.parametrize("instance", FROZEN, ids=lambda instance: type(instance).__name__)
    def test_frozen_ones_refuse_assignment(self, instance):
        field = dataclasses.fields(instance)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, field, getattr(instance, field))

    @pytest.mark.parametrize("field", ["cipher_nonce", "body"])
    def test_a_ciphertext_refuses_assignment(self, field):
        with pytest.raises(AttributeError):
            setattr(self.CIPHERTEXT, field, getattr(self.CIPHERTEXT, field))


class TestHmacDerive:
    def test_rfc4231_case_1(self):
        # published HMAC-SHA-256 vector: 20 bytes of 0x0b, "Hi There"
        out = hmac_sha256(b"\x0b" * 20, b"Hi There")
        assert out.hex() == "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"

    def test_deterministic(self):
        psk = PreSharedKey(bytes(range(32)))
        nonce = Nonce(bytes(range(16)))
        assert hmac_derive(psk, nonce) == hmac_derive(psk, nonce)

    def test_distinct_nonces_give_distinct_secrets(self):
        rng = np.random.default_rng(42)
        psk = PreSharedKey(rng.bytes(32))
        for _ in range(20):
            n1, n2 = Nonce(rng.bytes(16)), Nonce(rng.bytes(16))
            assert n1 != n2
            assert hmac_derive(psk, n1) != hmac_derive(psk, n2)


class TestSessionKey:
    def test_zero_secrets_vector(self):
        # SHA-256 over 64 zero bytes, computed with an independent oracle
        sk = derive_session_key(Secret(b"\x00" * 32), Secret(b"\x00" * 32))
        assert sk.value.hex() == "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b"

    def test_order_sensitive(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, b = Secret(rng.bytes(32)), Secret(rng.bytes(32))
            assert derive_session_key(a, b) != derive_session_key(b, a)

    def test_deterministic(self):
        a, b = Secret(b"\x01" * 32), Secret(b"\x02" * 32)
        assert derive_session_key(a, b) == derive_session_key(a, b)


class TestDigest:
    def test_empty_string_vector(self):
        assert digest(b"").hex == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

    def test_abc_vector(self):
        assert digest(b"abc").hex == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

    def test_stable(self):
        assert digest(b"payload") == digest(b"payload")

    @pytest.mark.parametrize("data", [b"", b"abc", b"\x00" * 64])
    def test_raw_hash_is_the_digest_value(self, data):
        # the known-answer inputs above and the zero-secrets session key input
        assert sha256(data) == digest(data).value == hashlib.sha256(data).digest()
        assert type(sha256(data)) is bytes


class TestAead:
    def test_gcm_known_answer_empty_plaintext(self):
        # AES-256-GCM, zero key, zero nonce, empty plaintext (published KAT)
        sk = SessionKey(b"\x00" * 32)
        c = encrypt(sk, b"", b"\x00" * 12)
        assert c.body.hex() == "530f8afbc74536b9a963b4f1c4cb738b"

    def test_gcm_known_answer_zero_block(self):
        sk = SessionKey(b"\x00" * 32)
        c = encrypt(sk, b"\x00" * 16, b"\x00" * 12)
        assert c.body.hex() == (
            "cea7403d4d606b6e074ec5d3baf39d18" "d0d1c8a799996bf0265b98b5d48ab919"
        )

    @given(st.binary(max_size=4096))
    @settings(deadline=None, max_examples=40)
    def test_round_trip(self, message):
        rng = np.random.default_rng(len(message) + 1)
        sk = SessionKey(rng.bytes(32))
        c = encrypt(sk, message, rng.bytes(12))
        assert decrypt(sk, c) == message

    def test_distinct_nonces_distinct_ciphertexts(self):
        sk = SessionKey(b"\x11" * 32)
        message = b"same message"
        rng = np.random.default_rng(3)
        for _ in range(10):
            c1 = encrypt(sk, message, rng.bytes(12))
            c2 = encrypt(sk, message, rng.bytes(12))
            assert c1.body != c2.body

    def test_wrong_key_fails(self):
        sk = SessionKey(b"\x22" * 32)
        c = encrypt(sk, b"secret payload", b"\x07" * 12)
        flipped = bytearray(sk.value)
        flipped[0] ^= 0x01
        with pytest.raises(DecryptionError):
            decrypt(SessionKey(bytes(flipped)), c)

    def test_tampered_body_fails(self):
        sk = SessionKey(b"\x22" * 32)
        c = encrypt(sk, b"secret payload", b"\x07" * 12)
        body = bytearray(c.body)
        body[3] ^= 0x80
        with pytest.raises(DecryptionError):
            decrypt(sk, Ciphertext(c.cipher_nonce, bytes(body)))

    def test_bytes_round_trip(self):
        sk = SessionKey(b"\x22" * 32)
        c = encrypt(sk, b"abc", b"\x07" * 12)
        assert bytes(c) == c.cipher_nonce + c.body
        assert not isinstance(bytes(c), Ciphertext)  # the bare bytes are no envelope
        assert Ciphertext(c.cipher_nonce, c.body) == c


PLAINTEXT_LISTS = st.lists(st.binary(max_size=64), max_size=12)


class TestPopulationAead:
    """encrypt_population and decrypt_population are loops of their one-row calls, byte for byte."""

    @given(PLAINTEXT_LISTS, st.binary(min_size=32, max_size=32), st.data())
    @settings(deadline=None, max_examples=100)
    def test_population_calls_equal_a_loop_of_one_row_calls(self, plaintexts, key, data):
        sk = SessionKey(key)
        nonces = [data.draw(st.binary(min_size=12, max_size=12)) for _ in plaintexts]
        sealed = encrypt_population(sk, plaintexts, b"".join(nonces))
        assert sealed == [encrypt(sk, p, n) for p, n in zip(plaintexts, nonces)]
        # and each row is the library's AES-GCM under its own nonce
        library = AESGCM(key)
        assert [bytes(c) for c in sealed] == [n + library.encrypt(n, p, None) for p, n in zip(plaintexts, nonces)]
        assert decrypt_population(sk, sealed) == [decrypt(sk, c) for c in sealed]
        assert decrypt_population(sk, sealed) == plaintexts

    @given(PLAINTEXT_LISTS, st.data())
    @settings(deadline=None, max_examples=100)
    def test_what_does_not_open_is_a_position(self, plaintexts, data):
        sk = SessionKey(b"\x31" * 32)
        sealed = encrypt_population(sk, plaintexts, bytes(range(12)) * len(plaintexts))
        damaged = set(data.draw(st.sets(st.integers(0, len(sealed) - 1))) if sealed else ())
        received = []
        for position, c in enumerate(sealed):
            if position in damaged:
                if data.draw(st.booleans()):  # a tampered body
                    body = bytearray(c.body)
                    body[data.draw(st.integers(0, len(body) - 1))] ^= data.draw(st.integers(1, 255))
                    c = Ciphertext(c.cipher_nonce, bytes(body))
                else:  # a foreign nonce
                    c = Ciphertext(b"\xee" * 12, c.body)
            received.append(c)
        opened = decrypt_population(sk, received)  # one slot per envelope, None where it does not open
        assert [position for position, slot in enumerate(opened) if slot is None] == sorted(damaged)
        assert opened == [None if position in damaged else p for position, p in enumerate(plaintexts)]
        for position, c in enumerate(received):
            if position in damaged:
                with pytest.raises(DecryptionError, match="^ciphertext failed authentication$"):
                    decrypt(sk, c)

    @pytest.mark.parametrize("rows,block,message", [
        (1, b"\x00" * 11, "cipher nonce must be exactly 12 bytes, got 11"),
        (1, b"\x00" * 13, "cipher nonce must be exactly 12 bytes, got 13"),
        (1, "\x00" * 12, "cipher nonce must be bytes"),
        (1, None, "cipher nonce must be bytes"),
        (2, b"\x00" * 23, "cipher nonce must be exactly 24 bytes, got 23"),
        (2, b"\x00" * 25, "cipher nonce must be exactly 24 bytes, got 25"),
        (2, b"", "cipher nonce must be exactly 24 bytes, got 0"),
        (2, "\x00" * 24, "cipher nonce must be bytes"),
        (2, [0] * 24, "cipher nonce must be bytes"),
        (0, b"\x00" * 12, "cipher nonce must be exactly 0 bytes, got 12"),
    ])
    def test_a_bad_nonce_block_raises_the_one_row_error(self, rows, block, message):
        # the block is checked once, with the one-row call's ValueError and message
        sk = SessionKey(b"\x00" * 32)
        with pytest.raises(ValueError, match=f"^{message}$"):
            encrypt_population(sk, [b"a"] * rows, block)
        if rows == 1:
            with pytest.raises(ValueError, match=f"^{message}$"):
                encrypt(sk, b"a", block)

    def test_an_empty_population_seals_and_opens_nothing(self):
        sk = SessionKey(b"\x00" * 32)
        assert encrypt_population(sk, [], b"") == []
        assert decrypt_population(sk, []) == []


class TestEscrowSoundness:
    def test_s1_plus_random_guesses_never_decrypt(self):
        rng = np.random.default_rng(99)
        psk = PreSharedKey(rng.bytes(32))
        n1, n2 = Nonce(rng.bytes(16)), Nonce(rng.bytes(16))
        s1, s2 = hmac_derive(psk, n1), hmac_derive(psk, n2)
        c = encrypt(derive_session_key(s1, s2), b"response bytes", rng.bytes(12))
        for _ in range(2000):
            guess = derive_session_key(s1, Secret(rng.bytes(32)))
            with pytest.raises(DecryptionError):
                decrypt(guess, c)


class TestBitVectorCodec:
    def test_hand_computed_layout(self):
        # n=3, bits 101: length prefix then 0xA0 (MSB-first packing)
        assert encode_bit_vector([1, 0, 1]) == bytes.fromhex("00000003a0")

    def test_zero_byte(self):
        assert encode_bit_vector([0] * 8) == bytes.fromhex("0000000800")

    def test_canonical_response_encoding(self):
        assert canonical_encode_response(ResponseVector([1, 0, 1])) == bytes.fromhex("00000003a0")

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=333))
    @settings(deadline=None)
    def test_round_trip(self, bits):
        assert decode_bit_vector(encode_bit_vector(bits)) == tuple(bits)

    def test_decode_rejects_trailing_garbage(self):
        with pytest.raises(ValueError):
            decode_bit_vector(encode_bit_vector([1, 0, 1]) + b"\x00")

    def test_decode_rejects_truncation(self):
        data = encode_bit_vector([1] * 20)
        with pytest.raises(ValueError):
            decode_bit_vector(data[:-1])
        with pytest.raises(ValueError):
            decode_bit_vector(b"\x00\x00")

    def test_decode_rejects_nonzero_padding(self):
        with pytest.raises(ValueError):
            decode_bit_vector(bytes.fromhex("00000003a1"))

    def test_response_round_trip(self):
        rv = ResponseVector([0, 1, 1, 0, 1, 0, 0, 0, 1])
        assert decode_response(canonical_encode_response(rv)) == rv

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=30), st.data())
    @settings(deadline=None, max_examples=60)
    def test_matrix_decode_matches_per_record_decode(self, n, count, data):
        rows = [data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for _ in range(count)]
        matrix, undecodable = decode_bit_matrix([encode_bit_vector(r) for r in rows], n)
        assert matrix.shape == (count, n) and matrix.dtype == np.uint8 and undecodable == ()
        assert [tuple(r) for r in matrix.tolist()] == [decode_bit_vector(encode_bit_vector(r)) for r in rows]

    @pytest.mark.parametrize(
        "bad",
        [bytes.fromhex("00000003a1"), bytes.fromhex("00000002a0"), bytes.fromhex("00000003a000"), b"\x00\x00"],
    )
    def test_matrix_decode_names_the_bad_record(self, bad):
        # nonzero padding, wrong length prefix, trailing byte, truncation
        good, other = encode_bit_vector([1, 0, 1]), encode_bit_vector([0, 1, 1])
        matrix, undecodable = decode_bit_matrix([good, good, bad, other], 3)
        assert undecodable == (2,)
        assert matrix.tolist() == [[1, 0, 1], [1, 0, 1], [0, 1, 1]]
        # a second bad record is named too, not only the first
        matrix, undecodable = decode_bit_matrix([good, bad, good, bad, other], 3)
        assert undecodable == (1, 3)
        assert matrix.tolist() == [[1, 0, 1], [1, 0, 1], [0, 1, 1]]

    def test_matrix_decode_sets_aside_a_slot_that_did_not_open(self):
        # a None slot of decrypt_population is a record that does not decode, named by its position
        good = encode_bit_vector([1, 0, 1])
        matrix, undecodable = decode_bit_matrix([None, good, None, good], 3)
        assert undecodable == (0, 2)
        assert matrix.tolist() == [[1, 0, 1], [1, 0, 1]]
        assert decode_bit_matrix([None], 3)[0].shape == (0, 3)

    @given(st.integers(min_value=0, max_value=20), st.data())
    @settings(deadline=None, max_examples=200)
    def test_matrix_decode_sets_aside_what_the_per_record_decode_refuses(self, n, data):
        records = []
        for _ in range(data.draw(st.integers(0, 6))):
            record = bytearray(encode_bit_vector(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))))
            kind = data.draw(st.sampled_from(["whole", "flipped", "cut", "random"]))
            if kind == "flipped":
                record[data.draw(st.integers(0, len(record) - 1))] ^= data.draw(st.integers(1, 255))
            elif kind == "cut":
                del record[data.draw(st.integers(0, len(record) - 1)) :]
            elif kind == "random":
                record = data.draw(st.binary(max_size=8))
            records.append(bytes(record))
        want, refused = [], []
        for i, record in enumerate(records):
            try:
                bits = decode_bit_vector(record)
            except ValueError:
                bits = None
            if bits is None or len(bits) != n:
                refused.append(i)
            else:
                want.append(list(bits))
        matrix, undecodable = decode_bit_matrix(records, n)
        assert matrix.shape == (len(want), n) and matrix.tolist() == want
        assert undecodable == tuple(refused)

    def test_stream_parses_concatenation(self):
        blob = encode_bit_vector([1, 0]) + encode_bit_vector([0, 1]) + encode_bit_vector([1, 1])
        assert unpack_bit_vector_stream(blob) == [(1, 0), (0, 1), (1, 1)]

    def test_stream_rejects_partial_record(self):
        blob = encode_bit_vector([1, 0]) + b"\x00\x00"
        with pytest.raises(ValueError, match="record 1"):
            unpack_bit_vector_stream(blob)


def unpacked(data: bytes) -> np.ndarray:
    """`read_bit_stream`'s rows unpacked in the test: the (N, n) uint8 bit matrix of a stream, (0, 0) for empty input."""
    rows, n = read_bit_stream(data)
    return np.unpackbits(rows[:, 4:], axis=1, count=n)


def stream_reference(data: bytes) -> list[tuple[int, ...]] | None:
    """Per-record decode of a report stream, or None where read_bit_stream must refuse it."""
    try:
        rows = unpack_bit_vector_stream(data)
    except ValueError:
        return None
    return rows if len({len(r) for r in rows}) <= 1 else None


def stream_refusal(data: bytes) -> tuple[type, int, str] | None:
    """The error of the first record a record-by-record walk refuses, or None: a record cut short, one whose length
    prefix is not record 0's, or one that the reference's decode_bit_vector refuses (nonzero padding)."""
    offset, index, first = 0, 0, None
    while offset < len(data):
        if len(data) - offset < 4:
            return BitVectorError, index, "truncated length prefix"
        m = int.from_bytes(data[offset : offset + 4], "big")
        end = offset + 4 + (m + 7) // 8
        if end > len(data):
            return BitVectorError, index, "truncated body"
        first = m if first is None else first
        if m != first:
            return MixedLengthsError, index, f"holds {m} bits, record 0 holds {first}"
        try:
            decode_bit_vector(data[offset:end])
        except ValueError:
            return BitVectorError, index, "nonzero padding bits"
        offset, index = end, index + 1
    return None


class TestBitStream:
    def test_equal_length_records_become_one_matrix(self):
        blob = encode_bit_vector([1, 0, 1]) + encode_bit_vector([0, 0, 1])
        matrix = unpacked(blob)
        assert matrix.dtype == np.uint8
        assert matrix.tolist() == [[1, 0, 1], [0, 0, 1]]

    def test_empty_stream_is_an_empty_matrix(self):
        assert unpacked(b"").shape == (0, 0)

    @pytest.mark.parametrize(
        "tail,message",
        [
            (b"\x00\x00", "record 2: truncated length prefix"),
            (b"\x00\x00\x00\x03", "record 2: truncated body"),
            (bytes.fromhex("00000009ff"), "record 2: truncated body"),
            # a 2**32 - 1 bit claim must fail on length, not allocate
            (b"\xff\xff\xff\xff\x00", "record 2: truncated body"),
            (bytes.fromhex("00000003a1"), "record 2: nonzero padding bits"),
            # the first bad record wins over a later one
            (bytes.fromhex("00000003a1") + encode_bit_vector([1] * 9), "record 2: nonzero padding bits"),
        ],
    )
    def test_names_the_first_bad_record(self, tail, message):
        good = encode_bit_vector([1, 0, 1])
        with pytest.raises(BitVectorError, match=message) as excinfo:
            unpacked(good + good + tail)
        assert excinfo.value.record == 2

    @pytest.mark.parametrize("other", [[1, 1], [1] * 9])
    def test_mixed_lengths_are_their_own_error(self, other):
        good = encode_bit_vector([1, 0, 1])
        with pytest.raises(MixedLengthsError, match="record 1") as excinfo:
            unpacked(good + encode_bit_vector(other) + good)
        assert excinfo.value.record == 1

    @given(st.binary(max_size=64))
    @settings(deadline=None, max_examples=300)
    def test_fuzz_random_bytes(self, data):
        self._agrees_with_reference(data)

    @given(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=6),
        st.data(),
    )
    @settings(deadline=None, max_examples=300)
    def test_fuzz_mutated_streams(self, n, count, data):
        rows = [data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for _ in range(count)]
        blob = bytearray(b"".join(encode_bit_vector(r) for r in rows))
        if blob:
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
        self._agrees_with_reference(bytes(blob[: data.draw(st.integers(0, len(blob)))]))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 20, 64])
    @pytest.mark.parametrize("count", [0, 1, 1000])
    @given(st.integers(0, 2**32 - 1), st.data())
    @settings(deadline=None, max_examples=15)
    def test_fuzz_mutated_wide_and_long_streams(self, n, count, seed, data):
        blob = bytearray(b"".join(encode_bit_matrix(np.random.default_rng(seed).integers(0, 2, size=(count, n)))))
        if blob and data.draw(st.booleans()):
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
        self._agrees_with_reference(bytes(blob[: data.draw(st.just(len(blob)) | st.integers(0, len(blob)))]))

    @staticmethod
    def _agrees_with_reference(data: bytes):
        """read_bit_stream's rows unpack to the reference's rows, and count_ones gives their per-position sums, for a
        stream the reference accepts; for any other, the validating reader raises the walk's first refusal."""
        want, refusal = stream_reference(data), stream_refusal(data)
        assert (want is None) == (refusal is not None)
        try:
            rows, n = read_bit_stream(data)
        except BitVectorError as exc:
            assert (type(exc), exc.record, str(exc)) == (refusal[0], refusal[1], f"record {refusal[1]}: {refusal[2]}")
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                unpacked(data)
            return
        assert [tuple(r) for r in unpacked(data).tolist()] == want
        sums = np.array(want, dtype=np.int64).reshape(len(want), n).sum(axis=0)
        assert count_ones(rows, n).dtype == np.int64 and count_ones(rows, n).tolist() == sums.tolist()
