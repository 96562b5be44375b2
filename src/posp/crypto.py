"""Bit-exact deterministic primitives: PRF, bucket/Bernoulli sampling,
request-id derivation, and Ed25519 signatures over a canonical encoding.

The canonical encoding of a message is the concatenation of its fields,
each prefixed with a 4-byte big-endian length.  Every signature in the
protocol is produced over this encoding, which removes the ambiguity a
plain ``a || b || c`` concatenation would leave.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as _hmac
from fractions import Fraction

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric import ed25519
from cryptography.hazmat.primitives import serialization

SEED_LEN = 32
PRF_MAX = 1 << 64


def _check_seed(seed: bytes) -> None:
    if not isinstance(seed, (bytes, bytearray)) or len(seed) != SEED_LEN:
        raise ValueError(f"seed must be {SEED_LEN} raw bytes")


def encode_fields(*fields: bytes) -> bytes:
    """Canonical byte encoding: [4-byte BE length][raw bytes] per field."""
    out = bytearray()
    for field in fields:
        if len(field) >= 1 << 32:
            raise ValueError("field too long for 4-byte length prefix")
        out += len(field).to_bytes(4, "big")
        out += field
    return bytes(out)


def prf(seed: bytes, data: bytes) -> bytes:
    """HMAC-SHA-256 keyed by a 32-byte seed; deterministic and bit-exact."""
    _check_seed(seed)
    return _hmac.new(bytes(seed), data, hashlib.sha256).digest()


def _prf_u64(seed: bytes, data: bytes) -> int:
    return int.from_bytes(prf(seed, data)[:8], "big")


def bucket(seed: bytes, unique_string: bytes, n: int) -> int:
    """Deterministic sample in [0, n) from the first 8 PRF output bytes."""
    if n < 1:
        raise ValueError("bucket requires n >= 1")
    return _prf_u64(seed, unique_string) % n


@functools.lru_cache(maxsize=256)
def sample_threshold(p: float) -> int:
    """round(p * 2^64) computed exactly in integer arithmetic.

    Going through Fraction keeps the comparison free of float rounding bias,
    which matters for probabilities at the 0.7% scale.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    return round(Fraction(p) * PRF_MAX)


def sampled(seed: bytes, unique_string: bytes, p: float) -> bool:
    """True with probability ~p; p=0 is never true, p=1 always true."""
    return _prf_u64(seed, unique_string) < sample_threshold(p)


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def derive_reqid(pk_user: bytes, x: bytes, user_nonce: bytes) -> bytes:
    """Request id: SHA-256 over the canonical encoding of (pk, x, nonce)."""
    return sha256(encode_fields(pk_user, x, user_nonce))


class PublicKey:
    """Ed25519 verification key over canonically encoded message fields."""

    __slots__ = ("_pk", "raw")

    def __init__(self, pk: ed25519.Ed25519PublicKey):
        self._pk = pk
        self.raw = pk.public_bytes(
            encoding=serialization.Encoding.Raw,
            format=serialization.PublicFormat.Raw,
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PublicKey":
        return cls(ed25519.Ed25519PublicKey.from_public_bytes(raw))

    def verify(self, signature: bytes, *fields: bytes) -> bool:
        """Never raises: any tampered bit simply yields False."""
        try:
            self._pk.verify(signature, encode_fields(*fields))
            return True
        except InvalidSignature:
            return False

    def __eq__(self, other) -> bool:
        return isinstance(other, PublicKey) and self.raw == other.raw

    def __hash__(self) -> int:
        return hash(self.raw)


class KeyPair:
    """Ed25519 signing key; immutable after creation."""

    __slots__ = ("_sk", "public")

    def __init__(self, sk: ed25519.Ed25519PrivateKey):
        self._sk = sk
        self.public = PublicKey(sk.public_key())

    @classmethod
    def generate(cls) -> "KeyPair":
        return cls(ed25519.Ed25519PrivateKey.generate())

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyPair":
        """Deterministic key derivation; used to make simulations replayable."""
        _check_seed(seed)
        return cls(ed25519.Ed25519PrivateKey.from_private_bytes(bytes(seed)))

    def sign(self, *fields: bytes) -> bytes:
        return self._sk.sign(encode_fields(*fields))
