"""Bit-exact deterministic primitives: a PRF (HMAC-SHA-256 computed from
two SHA-256 calls by its RFC 2104 definition, bit-identical to
``hmac.digest`` at about 70% of its cost, and a keyed form that hashes one
seed's key blocks once for many inputs), bucket/Bernoulli sampling, request-id
derivation from the encoded (pk_user, x) prefix, Merkle inclusion proofs,
and Ed25519 signatures over a canonical encoding.

The canonical encoding of a message is the concatenation of its fields,
each prefixed with a 4-byte big-endian length.  Every signature in the
protocol is produced over this encoding, which removes the ambiguity a
plain ``a || b || c`` concatenation would leave.  ``sha256_fields`` hashes
that encoding field by field, so a large batch is never encoded whole.

Ed25519 signing (RFC 8032) is deterministic, and a signature this process
made with a private key is valid under its public key by construction.
``KeyPair.sign`` therefore records the exact (encoded message, signature)
bytes of every signature it makes in a memo on its own ``PublicKey``, and
``PublicKey.verify`` answers True for an exact match without redoing the
curve arithmetic.  The memo lasts as long as the key and never evicts.  Any
other pair (forged, tampered, malleated, signed by another key, or checked
on another ``PublicKey`` object) is verified for real.

A Merkle tree commits to many messages under one 32-byte root, so one
signature over the root covers them all (Merkle 1987).  The protocol signs
batch roots (the orchestrators' task votes and each executor's responses)
and the user's one message per arrival epoch, which lists the epoch's
request ids in full: the committee receives them together, so a path per
request would prove nothing more.  Leaves and interior nodes are hashed with distinct prefixes, as
in RFC 9162 section 2.1, so no leaf can pass for an interior node.  An
inclusion path is one ``bytes`` of 33-byte steps, a side byte and the
sibling's hash each.
"""

from __future__ import annotations

import functools
import hashlib
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric import ed25519

SEED_LEN = 32
PRF_MAX = 1 << 64
# HMAC's key block is the seed zero-padded to 64 bytes, XOR the inner or outer
# pad: a table XORs each seed byte, and the fill is the pad over the zeros.
_IPAD, _OPAD = (bytes(b ^ pad for b in range(256)) for pad in (0x36, 0x5C))
_IPAD_FILL, _OPAD_FILL = b"\x36" * SEED_LEN, b"\x5c" * SEED_LEN


def _check_seed(seed: bytes) -> None:
    if not isinstance(seed, (bytes, bytearray)) or len(seed) != SEED_LEN:
        raise ValueError(f"seed must be {SEED_LEN} raw bytes")


def encode_fields(*fields: bytes) -> bytes:
    """Canonical byte encoding: [4-byte BE length][raw bytes] per field."""
    try:
        return b"".join([len(f).to_bytes(4, "big") + f for f in fields])
    except OverflowError:
        raise ValueError("field too long for 4-byte length prefix") from None


def prf(seed: bytes, data: bytes) -> bytes:
    """HMAC-SHA-256 keyed by a 32-byte seed; deterministic and bit-exact.
    ``sha256(seed ^ opad || sha256(seed ^ ipad || data))`` per RFC 2104."""
    # the seed check of ``_check_seed``, inline: every sampling draw pays it
    if not isinstance(seed, (bytes, bytearray)) or len(seed) != SEED_LEN:
        raise ValueError(f"seed must be {SEED_LEN} raw bytes")
    inner = hashlib.sha256(seed.translate(_IPAD) + _IPAD_FILL + data).digest()
    return hashlib.sha256(seed.translate(_OPAD) + _OPAD_FILL + inner).digest()


def keyed_prf(seed: bytes) -> Callable[[bytes], bytes]:
    """``prf(seed, ·)`` for many inputs under one seed: the seed is checked
    once and its two key blocks are hashed once, so each call hashes only
    its data and the inner digest (the precomputation of RFC 2104 section 4)."""
    _check_seed(seed)
    inner = hashlib.sha256(seed.translate(_IPAD) + _IPAD_FILL).copy
    outer = hashlib.sha256(seed.translate(_OPAD) + _OPAD_FILL).copy

    def keyed(data: bytes) -> bytes:
        h = inner()
        h.update(data)
        o = outer()
        o.update(h.digest())
        return o.digest()
    return keyed


def prf_u64(seed: bytes, data: bytes) -> int:
    """The PRF's first 8 output bytes as an integer in [0, 2^64): the value
    that ``sampled`` compares with its threshold and ``bucket`` reduces."""
    return int.from_bytes(prf(seed, data)[:8], "big")


def bucket(seed: bytes, unique_string: bytes, n: int) -> int:
    """Deterministic sample in [0, n) from the first 8 PRF output bytes."""
    if n < 1:
        raise ValueError("bucket requires n >= 1")
    return prf_u64(seed, unique_string) % n


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
    return prf_u64(seed, unique_string) < sample_threshold(p)


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def sha256_fields(fields: Iterable[bytes]) -> bytes:
    """``sha256(encode_fields(*fields))``, hashed one field at a time (its
    length prefix, then its bytes), so the encoding is never held whole."""
    h = hashlib.sha256()
    try:
        for field in fields:
            h.update(len(field).to_bytes(4, "big"))
            h.update(field)
    except OverflowError:
        raise ValueError("field too long for 4-byte length prefix") from None
    return h.digest()


def request_prefix(pk_user: bytes, x: bytes) -> bytes:
    """The encoded (pk_user, x) fields that a request id's preimage and a
    selection string (``protocol.selection_string``) both begin with.  Both
    rules take this prefix, so a caller encodes each pair once."""
    return encode_fields(pk_user, x)


def derive_reqid(prefix: bytes, user_nonce: bytes) -> bytes:
    """Request id: SHA-256 over the canonical encoding of (pk_user, x,
    nonce), given ``prefix = request_prefix(pk_user, x)``."""
    return sha256(prefix + encode_fields(user_nonce))


# A path longer than this cannot belong to a tree that fits in memory.
MERKLE_MAX_DEPTH = 64
# the leaf and interior-node hash prefixes of RFC 9162 section 2.1
_LEAF_PREFIX, _NODE_PREFIX = b"\x00", b"\x01"
_LEFT, _RIGHT = 0, 1  # the side a path step's sibling sits on
_LEFT_BYTE, _RIGHT_BYTE = bytes((_LEFT,)), bytes((_RIGHT,))
_STEP = 33  # a path step: the side byte, then the sibling's hash


def merkle_leaf(*fields: bytes) -> bytes:
    """Leaf hash of a message given as its canonical fields."""
    return hashlib.sha256(_LEAF_PREFIX + encode_fields(*fields)).digest()


def merkle_levels(leaves: Sequence[bytes]) -> list[list[bytes]]:
    """Every level of the tree over ``leaves`` (at least one), leaves first
    and the one-node root level last.  Neighbours pair up; an unpaired last
    node moves up a level unchanged."""
    if not leaves:
        raise ValueError("a Merkle tree needs at least one leaf")
    levels = [list(leaves)]
    while len(level := levels[-1]) > 1:
        parents = [hashlib.sha256(_NODE_PREFIX + left + right).digest()
                   for left, right in zip(level[::2], level[1::2])]
        if len(level) % 2:
            parents.append(level[-1])
        levels.append(parents)
    return levels


def merkle_path(levels: Sequence[Sequence[bytes]], index: int) -> bytes:
    """Inclusion path of leaf ``index``: one 33-byte step per level where
    the node has a sibling, each the sibling's side byte followed by its
    hash, concatenated."""
    steps = []
    for level in levels[:-1]:
        sibling = index ^ 1
        if sibling < len(level):
            steps.append((_LEFT_BYTE if sibling < index else _RIGHT_BYTE) + level[sibling])
        index //= 2
    return b"".join(steps)


def merkle_proves(root: bytes, leaf: bytes, path: bytes) -> bool:
    """True when ``path`` leads from ``leaf`` to ``root``.  Never raises: a
    leaf that is not bytes, a path that is not bytes made of 33-byte steps
    with a valid side byte, or is deeper than any tree, or a root that is
    not bytes, simply yields False."""
    if (type(leaf) is not bytes or type(path) is not bytes or len(path) % _STEP
            or len(path) > _STEP * MERKLE_MAX_DEPTH):
        return False
    node = leaf
    for k in range(0, len(path), _STEP):
        side, sibling = path[k], path[k + 1:k + _STEP]
        if side == _LEFT:
            node = hashlib.sha256(_NODE_PREFIX + sibling + node).digest()
        elif side == _RIGHT:
            node = hashlib.sha256(_NODE_PREFIX + node + sibling).digest()
        else:
            return False
    return type(root) is bytes and node == root


class PublicKey:
    """Ed25519 verification key over canonically encoded message fields."""

    __slots__ = ("_pk", "raw", "_signed")

    def __init__(self, pk: ed25519.Ed25519PublicKey):
        self._pk = pk
        # (encoded message, signature) of every KeyPair.sign with this key
        self._signed: set[tuple[bytes, bytes]] = set()
        self.raw = pk.public_bytes_raw()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PublicKey":
        return cls(ed25519.Ed25519PublicKey.from_public_bytes(raw))

    def signed_here(self, signature: bytes, message: bytes) -> bool:
        """Memo-only probe: True when ``KeyPair.sign`` made exactly this
        signature over this encoded message with this key.  False proves
        nothing; it never runs the Ed25519 check."""
        # exact bytes only: a bytearray is unhashable, and a bytes subclass
        # could redefine equality
        return type(signature) is bytes and (message, signature) in self._signed

    def verify(self, signature: bytes, *fields: bytes) -> bool:
        """Never raises: any tampered bit, a signature that is not
        bytes-like at all, or fields that cannot be encoded simply yield
        False."""
        try:
            message = encode_fields(*fields)
        except (TypeError, ValueError):
            return False
        if self.signed_here(signature, message):
            return True
        try:
            self._pk.verify(signature, message)
            return True
        except (InvalidSignature, TypeError):
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
    def from_seed(cls, seed: bytes) -> "KeyPair":
        """Deterministic key derivation; used to make simulations replayable."""
        _check_seed(seed)
        return cls(ed25519.Ed25519PrivateKey.from_private_bytes(bytes(seed)))

    def sign(self, *fields: bytes) -> bytes:
        message = encode_fields(*fields)
        signature = self._sk.sign(message)
        self.public._signed.add((message, signature))
        return signature
