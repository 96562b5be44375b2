"""Deterministic stand-in for the outsourced function: a small feed-forward
network evaluated entirely in Q16.16 fixed point, so two independent
evaluations on any platform are byte-identical.  Also provides the
wrong-result generators used by simulated adversaries.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Sequence

from . import crypto

FRAC_BITS = 16
ONE = 1 << FRAC_BITS
_RAW_MIN = -(1 << 63)
_RAW_MAX = (1 << 63) - 1


class FixedOverflowError(ArithmeticError):
    """Raised instead of wrapping around on any out-of-range result."""


def _check_raw(raw: int) -> int:
    if raw < _RAW_MIN or raw > _RAW_MAX:
        raise FixedOverflowError(f"raw value {raw} outside signed 64-bit range")
    return raw


@dataclass(frozen=True, slots=True)
class Fixed:
    """Signed 64-bit Q16.16 value (raw / 2^16)."""

    raw: int

    @classmethod
    def from_float(cls, value: float) -> "Fixed":
        return cls(_check_raw(int(round(value * ONE))))

    @classmethod
    def from_int(cls, value: int) -> "Fixed":
        return cls(_check_raw(value * ONE))

    def to_float(self) -> float:
        return self.raw / ONE

    def __add__(self, other: "Fixed") -> "Fixed":
        return Fixed(_check_raw(self.raw + other.raw))

    def __sub__(self, other: "Fixed") -> "Fixed":
        return Fixed(_check_raw(self.raw - other.raw))

    def __mul__(self, other: "Fixed") -> "Fixed":
        return fixed_mul(self, other)


ZERO = Fixed(0)


def fixed_mul(a: Fixed, b: Fixed) -> Fixed:
    # Python's >> on the (arbitrary-precision) product truncates toward
    # negative infinity, which is exactly the pinned semantics.
    return Fixed(_check_raw((a.raw * b.raw) >> FRAC_BITS))


def relu(a: Fixed) -> Fixed:
    return a if a.raw > 0 else ZERO


@dataclass(frozen=True)
class ToyModel:
    """Immutable network: alternating affine layers and exact ReLUs.

    ``weights[l][i][j]`` connects input i to output j of layer l;
    ``biases[l][j]`` is added to output j.
    """

    dims: tuple[int, ...]
    weights: tuple[tuple[tuple[Fixed, ...], ...], ...]
    biases: tuple[tuple[Fixed, ...], ...]
    seed: bytes

    @property
    def input_dim(self) -> int:
        return self.dims[0]


def _weight_stream(seed: bytes, count: int, start: int = 0):
    """PRF counter stream mapped to Fixed in [-1, 1): its values start to
    start + count - 1, eight to a PRF block."""
    produced = start
    end = start + count
    block_index, first = divmod(start, 8)
    while produced < end:
        block = crypto.prf(seed, b"model-weights" + block_index.to_bytes(8, "big"))
        block_index += 1
        for off in range(4 * first, 32, 4):
            if produced == end:
                break
            u = int.from_bytes(block[off : off + 4], "big")
            yield Fixed((u % (1 << (FRAC_BITS + 1))) - ONE)
            produced += 1
        first = 0


def param_count(dims: Sequence[int]) -> int:
    """Weights plus biases of a model with these layer sizes."""
    return sum(n_in * n_out + n_out for n_in, n_out in zip(dims, dims[1:]))


def generate_model(seed: bytes, dims: Sequence[int]) -> ToyModel:
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError("dims must list at least two sizes, all >= 1")
    stream = _weight_stream(seed, param_count(dims))
    weights = []
    biases = []
    for l in range(len(dims) - 1):
        n_in, n_out = dims[l], dims[l + 1]
        weights.append(
            tuple(tuple(next(stream) for _ in range(n_out)) for _ in range(n_in))
        )
        biases.append(tuple(next(stream) for _ in range(n_out)))
    return ToyModel(dims=dims, weights=tuple(weights), biases=tuple(biases), seed=bytes(seed))


def forward(model: ToyModel, x: Sequence[Fixed]) -> tuple[Fixed, ...]:
    """Bit-exact evaluation; accumulation order is pinned (row-major)."""
    if len(x) != model.input_dim:
        raise ValueError(f"expected input of length {model.input_dim}, got {len(x)}")
    activ = tuple(x)
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        out = []
        for j in range(len(b)):
            acc = b[j]
            for i in range(len(activ)):
                acc = acc + fixed_mul(w[i][j], activ[i])
            out.append(acc)
        if l != last:
            out = [relu(v) for v in out]
        activ = tuple(out)
    return activ


CORRUPT_MODES = ("flip-last-bit", "constant", "offset")


def corrupt(y: Sequence[Fixed], mode: str, amount: Optional[int] = None) -> tuple[Fixed, ...]:
    """Deterministic wrong-result generator; differs from y when y is nonempty.

    ``amount`` lets distinct adversary groups produce distinct wrong results
    (offset step, default 1, or constant raw value, default 0x2A).
    """
    if mode == "flip-last-bit":
        return tuple(Fixed(v.raw ^ 1) for v in y)
    if mode == "constant":
        return tuple(Fixed(0x2A if amount is None else amount) for _ in y)
    if mode == "offset":
        step = 1 if amount is None else amount
        if step == 0:
            raise ValueError("offset amount must be nonzero")
        return tuple(Fixed(_check_raw(v.raw + step)) for v in y)
    raise ValueError(f"unknown corruption mode {mode!r}")


def encode_vector(y: Sequence[Fixed]) -> bytes:
    """Canonical serialization used for signing, comparison, and golden files."""
    return b"".join(struct.pack(">q", v.raw) for v in y)


def decode_vector(data: bytes) -> tuple[Fixed, ...]:
    if len(data) % 8 != 0:
        raise ValueError("vector encoding must be a multiple of 8 bytes")
    return tuple(Fixed(v[0]) for v in struct.iter_unpack(">q", data))
