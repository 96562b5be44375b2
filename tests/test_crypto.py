"""Deterministic primitive tests: PRF, bucket, Bernoulli sampling, request
ids, and signatures.  Golden values were computed with an independent HMAC /
hash oracle before the build and frozen here.
"""

import hashlib
import hmac
import struct

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric import ed25519
from hypothesis import given, strategies as st

from posp import crypto


SEED_A = bytes([0x0B] * 32)
SEED_Z = bytes(32)


class TestEncodeFields:
    def test_length_prefix(self):
        assert crypto.encode_fields(b"ab") == b"\x00\x00\x00\x02ab"

    def test_unambiguous(self):
        assert crypto.encode_fields(b"ab", b"c") != crypto.encode_fields(b"a", b"bc")

    def test_empty_field_roundtrip(self):
        assert crypto.encode_fields(b"", b"x") == b"\x00\x00\x00\x00\x00\x00\x00\x01x"

    def test_field_of_2_32_bytes_is_refused(self):
        with pytest.raises(ValueError):
            crypto.encode_fields(b"ok", HugeField())

    @given(st.lists(st.tuples(st.binary(max_size=80), st.booleans()), max_size=12))
    def test_matches_reference_framing(self, drawn):
        fields = [bytearray(field) if mutable else field for field, mutable in drawn]
        expected = b""
        for field in fields:
            expected += struct.pack(">I", len(field)) + bytes(field)
        encoded = crypto.encode_fields(*fields)
        assert type(encoded) is bytes and encoded == expected


class HugeField:
    """Claims 2^32 bytes, one past the 4-byte length prefix, without holding
    them: the length check must refuse it before reading any byte."""

    def __len__(self):
        return 1 << 32


class TestSha256Fields:
    @given(st.lists(st.binary(max_size=64), max_size=12))
    def test_matches_hashing_the_whole_encoding(self, fields):
        expected = hashlib.sha256(crypto.encode_fields(*fields)).digest()
        assert crypto.sha256_fields(fields) == expected
        assert crypto.sha256_fields(iter(fields)) == expected

    def test_no_fields(self):
        assert crypto.sha256_fields([]) == hashlib.sha256(b"").digest()

    def test_field_of_2_32_bytes_is_refused(self):
        with pytest.raises(ValueError):
            crypto.sha256_fields([b"ok", HugeField()])


class TestPrf:
    def test_deterministic(self):
        assert crypto.prf(SEED_A, b"data") == crypto.prf(SEED_A, b"data")

    def test_bit_flip_changes_output(self):
        assert crypto.prf(SEED_A, b"data") != crypto.prf(SEED_A, b"dat`")

    def test_golden_hmac_vector(self):
        # independently computed HMAC-SHA-256(key=32*0x0b, "Hi There")
        assert crypto.prf(SEED_A, b"Hi There").hex() == (
            "198a607eb44bfbc69903a0f1cf2bbdc5ba0aa3f3d9ae3c1c7a3b1696a0b68cf7"
        )

    def test_rejects_short_seed(self):
        with pytest.raises(ValueError):
            crypto.prf(b"short", b"data")

    @pytest.mark.parametrize("seed", [memoryview(SEED_A), "k" * 32, list(SEED_A)],
                             ids=["memoryview", "str", "list-of-ints"])
    def test_rejects_seed_that_is_not_bytes_or_bytearray(self, seed):
        with pytest.raises(ValueError):
            crypto.prf(seed, b"data")

    # data up to 200 bytes spans one to four SHA-256 blocks after the key block
    @given(seed=st.binary(min_size=32, max_size=32), data=st.binary(max_size=200),
           mutable=st.booleans())
    def test_matches_hmac_object(self, seed, data, mutable):
        expected = hmac.new(seed, data, hashlib.sha256).digest()
        if mutable:
            seed, data = bytearray(seed), bytearray(data)
        assert crypto.prf(seed, data) == expected

    @given(seed=st.binary(min_size=32, max_size=32), data=st.binary(max_size=200),
           mutable=st.booleans())
    def test_keyed_prf_is_the_prf(self, seed, data, mutable):
        expected = hmac.digest(seed, data, "sha256")
        if mutable:
            seed, data = bytearray(seed), bytearray(data)
        keyed = crypto.keyed_prf(seed)
        assert keyed(data) == crypto.prf(seed, data) == expected
        # an evaluation leaves the hashed key blocks as they were
        assert keyed(data) == expected

    @pytest.mark.parametrize("seed", [b"short", bytes(33), bytearray(31), memoryview(SEED_A),
                                      "k" * 32, list(SEED_A), None],
                             ids=["short", "long", "short-bytearray", "memoryview", "str",
                                  "list-of-ints", "none"])
    def test_bad_seeds_are_refused_by_both_forms(self, seed):
        with pytest.raises(ValueError):
            crypto.prf(seed, b"data")
        with pytest.raises(ValueError):
            crypto.keyed_prf(seed)


class TestBucket:
    def test_n_one_always_zero(self):
        assert crypto.bucket(SEED_Z, b"anything", 1) == 0

    def test_deterministic(self):
        assert crypto.bucket(SEED_Z, b"s", 97) == crypto.bucket(SEED_Z, b"s", 97)

    def test_golden(self):
        # frozen from an independent HMAC-then-mod oracle
        assert crypto.bucket(SEED_Z, b"a", 97) == 90

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            crypto.bucket(SEED_Z, b"a", 0)

    def test_range(self):
        for i in range(50):
            assert 0 <= crypto.bucket(SEED_Z, i.to_bytes(4, "big"), 7) < 7


class TestSampled:
    def test_p_zero_never(self):
        assert not any(
            crypto.sampled(SEED_Z, i.to_bytes(4, "big"), 0.0) for i in range(200)
        )

    def test_p_one_always(self):
        assert all(
            crypto.sampled(SEED_Z, i.to_bytes(4, "big"), 1.0) for i in range(200)
        )

    def test_threshold_exact_integer(self):
        assert crypto.sample_threshold(0.5) == 1 << 63
        assert crypto.sample_threshold(1.0) == crypto.PRF_MAX
        assert crypto.sample_threshold(0.0) == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            crypto.sampled(SEED_Z, b"a", 1.5)

    @given(
        st.binary(min_size=1, max_size=16),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_p(self, data, p1, p2):
        lo, hi = min(p1, p2), max(p1, p2)
        if crypto.sampled(SEED_A, data, lo):
            assert crypto.sampled(SEED_A, data, hi)


class TestDeriveReqid:
    PREFIX = crypto.request_prefix(bytes(range(32)), b"input-bytes")

    def test_deterministic(self):
        a = crypto.derive_reqid(self.PREFIX, b"nonce-1")
        assert a == crypto.derive_reqid(self.PREFIX, b"nonce-1")

    def test_nonce_changes_id(self):
        a = crypto.derive_reqid(self.PREFIX, b"nonce-1")
        b = crypto.derive_reqid(self.PREFIX, b"nonce-2")
        assert a != b

    def test_golden(self):
        # frozen from an independent SHA-256 oracle over the canonical encoding
        # of (pk, x, nonce)
        assert crypto.derive_reqid(self.PREFIX, b"nonce-1").hex() == (
            "080373c4eea06a974a43cf834fae8c3430804852080f518dbc924007308e9e59"
        )


class TestSignatures:
    def test_roundtrip(self):
        kp = crypto.KeyPair.from_seed(bytes([1] * 32))
        sig = kp.sign(b"x", b"reqid", b"y")
        assert kp.public.verify(sig, b"x", b"reqid", b"y")

    def test_wrong_key_fails(self):
        kp1 = crypto.KeyPair.from_seed(bytes([1] * 32))
        kp2 = crypto.KeyPair.from_seed(bytes([2] * 32))
        sig = kp1.sign(b"x", b"reqid", b"y")
        assert not kp2.public.verify(sig, b"x", b"reqid", b"y")

    def test_tampered_field_fails(self):
        kp = crypto.KeyPair.from_seed(bytes([1] * 32))
        sig = kp.sign(b"x", b"reqid", b"y")
        assert not kp.public.verify(sig, b"x", b"reqid", b"z")

    def test_deterministic_key_derivation(self):
        a = crypto.KeyPair.from_seed(bytes([9] * 32))
        b = crypto.KeyPair.from_seed(bytes([9] * 32))
        assert a.public.raw == b.public.raw

    def test_public_key_roundtrip(self):
        kp = crypto.KeyPair.from_seed(bytes([5] * 32))
        pk = crypto.PublicKey.from_bytes(kp.public.raw)
        sig = kp.sign(b"m")
        assert pk.verify(sig, b"m")


# fields that cannot be encoded (or, for a leaf, are not exactly bytes)
NOT_BYTES = [None, "a str", 5]


class TestFieldsThatAreNotBytes:
    @pytest.mark.parametrize("leaf", NOT_BYTES + [bytearray(crypto.merkle_leaf(b"m"))],
                             ids=["None", "str", "int", "bytearray"])
    def test_merkle_proves_refuses_leaf(self, leaf):
        levels = crypto.merkle_levels([crypto.merkle_leaf(b"m"), crypto.merkle_leaf(b"n")])
        path = crypto.merkle_path(levels, 0)
        assert crypto.merkle_proves(levels[-1][0], crypto.merkle_leaf(b"m"), path)
        assert crypto.merkle_proves(levels[-1][0], leaf, path) is False
        assert crypto.merkle_proves(root=None, leaf=leaf, path=b"\x00" + 32 * b"a") is False

    @pytest.mark.parametrize("field", NOT_BYTES, ids=["None", "str", "int"])
    @pytest.mark.parametrize("at", [0, 1])
    def test_verify_refuses_fields_that_cannot_be_encoded(self, field, at):
        kp = crypto.KeyPair.from_seed(bytes([1] * 32))
        fields = [b"x", b"y"]
        sig = kp.sign(*fields)
        fields[at] = field
        assert kp.public.verify(sig, *fields) is False


# order of the Ed25519 base point; S + L is the classic malleated scalar
ED25519_L = 2**252 + 27742317777372353535851937790883648493


def raw_verify(pk_raw: bytes, signature: bytes, *fields: bytes) -> bool:
    """Ed25519 verification with no memo in front of it."""
    try:
        ed25519.Ed25519PublicKey.from_public_bytes(pk_raw).verify(
            signature, crypto.encode_fields(*fields))
        return True
    except InvalidSignature:
        return False


class TestSignMemo:
    """``PublicKey.verify`` answers an exact (message, signature) pair that
    ``KeyPair.sign`` made with the key from the key's own memo; everything
    else is verified for real."""

    FIELDS = (b"x", b"reqid", b"y")
    KP = crypto.KeyPair.from_seed(bytes([1] * 32))
    OTHER = crypto.KeyPair.from_seed(bytes([2] * 32))

    def test_signature_made_outside_sign_verifies(self):
        sk = ed25519.Ed25519PrivateKey.from_private_bytes(bytes([7] * 32))
        sig = sk.sign(crypto.encode_fields(*self.FIELDS))
        pk = crypto.PublicKey(sk.public_key())
        assert not pk.signed_here(sig, crypto.encode_fields(*self.FIELDS))
        assert pk.verify(sig, *self.FIELDS)

    def test_mismatches_rejected_right_after_sign(self):
        sig = self.KP.sign(*self.FIELDS)
        s = int.from_bytes(sig[32:], "little")
        malleated = sig[:32] + (s + ED25519_L).to_bytes(32, "little")
        flipped = sig[:-1] + bytes([sig[-1] ^ 0x01])
        pk = self.KP.public
        assert not self.OTHER.public.verify(sig, *self.FIELDS)
        assert not pk.verify(sig, b"x", b"reqid", b"z")
        assert not pk.verify(flipped, *self.FIELDS)
        assert not pk.verify(malleated, *self.FIELDS)
        # an equivocating orchestrator's vote mutates the first field
        assert not pk.verify(sig, b"x?", b"reqid", b"y")
        assert pk.verify(sig, *self.FIELDS)

    @pytest.mark.parametrize("signature", [None, "sig", 0, 1.5, [0] * 64])
    def test_non_bytes_like_signature_is_false(self, signature):
        self.KP.sign(*self.FIELDS)
        assert self.KP.public.verify(signature, *self.FIELDS) is False

    def test_probe_answers_from_the_memo_only(self):
        message = crypto.encode_fields(*self.FIELDS)
        sig = self.KP.sign(*self.FIELDS)
        assert self.KP.public.signed_here(sig, message)
        assert not self.OTHER.public.signed_here(sig, message)
        assert not self.KP.public.signed_here(sig, message + b"?")
        assert not self.KP.public.signed_here(bytearray(sig), message)
        # valid, but not made by KeyPair.sign: the probe cannot tell
        sk = ed25519.Ed25519PrivateKey.from_private_bytes(bytes([7] * 32))
        outside = sk.sign(message)
        pk = crypto.PublicKey(sk.public_key())
        assert not pk.signed_here(outside, message)
        assert pk.verify(outside, *self.FIELDS)

    def test_non_bytes_signature_checked_for_real(self):
        sig = self.KP.sign(*self.FIELDS)
        assert self.KP.public.verify(bytearray(sig), *self.FIELDS)
        assert not self.KP.public.verify(bytearray(sig[:-1] + bytes([sig[-1] ^ 1])), *self.FIELDS)

    @given(
        fields=st.lists(st.binary(max_size=8), min_size=1, max_size=3),
        other_key=st.booleans(),
        field_edit=st.none() | st.tuples(st.integers(min_value=0), st.binary(max_size=8)),
        sig_edit=st.none() | st.tuples(st.integers(min_value=0, max_value=63),
                                       st.integers(min_value=1, max_value=255)),
    )
    def test_matches_raw_verify(self, fields, other_key, field_edit, sig_edit):
        sig = self.KP.sign(*fields)
        if field_edit is not None:
            i, value = field_edit
            fields[i % len(fields)] = value
        if sig_edit is not None:
            i, mask = sig_edit
            sig = sig[:i] + bytes([sig[i] ^ mask]) + sig[i + 1:]
        pk = self.OTHER.public if other_key else self.KP.public
        assert pk.verify(sig, *fields) == raw_verify(pk.raw, sig, *fields)

    def test_memo_never_evicts(self, ed25519_checks):
        kp, other = (crypto.KeyPair.from_seed(bytes([k] * 32)) for k in (3, 4))
        first = kp.sign(b"first")
        for i in range(640):
            kp.sign(i.to_bytes(4, "big"))
        assert kp.public.verify(first, b"first")
        assert ed25519_checks == []
        # each PublicKey object has its own memo: a copy checks for real
        copy = crypto.PublicKey.from_bytes(kp.public.raw)
        assert copy.verify(first, b"first")
        assert len(ed25519_checks) == 1
        assert not other.public.signed_here(first, crypto.encode_fields(b"first"))
        assert not other.public.verify(first, b"first")


class TestUniformity:
    def test_bucket_chi_square_quick(self):
        # smaller sibling of the acceptance-scale test: 10^4 draws, N=10
        seed = bytes([3] * 32)
        counts = [0] * 10
        draws = 10_000
        for i in range(draws):
            counts[crypto.bucket(seed, i.to_bytes(8, "big"), 10)] += 1
        expected = draws / 10
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 27.877  # df=9 critical value at significance 0.001
