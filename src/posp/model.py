"""Deterministic stand-in for the outsourced function: a small feed-forward
network evaluated entirely in Q16.16 fixed point, so two independent
evaluations on any platform are byte-identical.  `Fixed`, `fixed_mul` and
`relu` specify the arithmetic; `forward` runs it on raw ints, range-checking
every product and partial sum.  Also provides the wrong-result generator
used by simulated adversaries.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Sequence

from . import crypto

FRAC_BITS = 16
ONE = 1 << FRAC_BITS
_RAW_MIN = -(1 << 63)
_RAW_MAX = (1 << 63) - 1


class FixedOverflowError(ArithmeticError):
    """Raised instead of wrapping around on any out-of-range result."""


def _check_raw(raw: int) -> None:
    if raw < _RAW_MIN or raw > _RAW_MAX:
        raise FixedOverflowError(f"raw value {raw} outside signed 64-bit range")


@dataclass(frozen=True, slots=True)
class Fixed:
    """Signed 64-bit Q16.16 value (raw / 2^16); a raw value that is not
    exactly an ``int`` raises `TypeError`, and one outside the signed 64-bit
    range raises `FixedOverflowError`."""

    raw: int

    def __post_init__(self):
        if type(self.raw) is not int:
            raise TypeError(f"raw must be an int, not {type(self.raw).__name__}")
        _check_raw(self.raw)

    @classmethod
    def from_float(cls, value: float) -> "Fixed":
        try:
            raw = int(round(value * ONE))
        except OverflowError:  # infinite, or finite but infinite once scaled
            raise FixedOverflowError(f"{value} outside the Q16.16 range") from None
        return cls(raw)

    @classmethod
    def from_int(cls, value: int) -> "Fixed":
        return cls(value * ONE)

    def to_float(self) -> float:
        return self.raw / ONE

    def __add__(self, other: "Fixed") -> "Fixed":
        return Fixed(self.raw + other.raw)

    def __sub__(self, other: "Fixed") -> "Fixed":
        return Fixed(self.raw - other.raw)

    def __mul__(self, other: "Fixed") -> "Fixed":
        return fixed_mul(self, other)


ZERO = Fixed(0)


def fixed_mul(a: Fixed, b: Fixed) -> Fixed:
    # Python's >> on the (arbitrary-precision) product truncates toward
    # negative infinity, which is exactly the pinned semantics.
    return Fixed((a.raw * b.raw) >> FRAC_BITS)


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
    # per layer, the raw weight column into each output and the raw biases
    _layers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_layers", tuple(
            (tuple(tuple(v.raw for v in col) for col in zip(*w)), tuple(v.raw for v in b))
            for w, b in zip(self.weights, self.biases)))

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
    """Bit-exact evaluation on raw Q16.16 ints, in the pinned (row-major)
    order: products round like `fixed_mul`, and a product or partial sum
    outside the signed 64-bit range raises `FixedOverflowError` at once."""
    if len(x) != model.input_dim:
        raise ValueError(f"expected input of length {model.input_dim}, got {len(x)}")
    lo, hi, frac = _RAW_MIN, _RAW_MAX, FRAC_BITS
    activ = [v.raw for v in x]
    last = len(model._layers) - 1
    for l, (columns, biases) in enumerate(model._layers):
        out = []
        for column, acc in zip(columns, biases):
            for w, a in zip(column, activ):
                p = (w * a) >> frac
                acc += p
                if not (lo <= p <= hi and lo <= acc <= hi):
                    _check_raw(p)
                    _check_raw(acc)
            out.append(acc)
        activ = out if l == last else [v if v > 0 else 0 for v in out]
    return tuple(Fixed(v) for v in activ)


def corrupt(y: Sequence[Fixed], amount: int = 1) -> tuple[Fixed, ...]:
    """Deterministic wrong-result generator; differs from y when y is nonempty.

    Adds ``amount`` to every raw value, so distinct adversary groups can
    produce distinct wrong results.
    """
    if amount == 0:
        raise ValueError("offset amount must be nonzero")
    return tuple(Fixed(v.raw + amount) for v in y)


def encode_vector(y: Sequence[Fixed]) -> bytes:
    """Canonical serialization used for signing, comparison, and golden files."""
    return b"".join(struct.pack(">q", v.raw) for v in y)


def decode_vector(data: bytes) -> tuple[Fixed, ...]:
    if len(data) % 8 != 0:
        raise ValueError("vector encoding must be a multiple of 8 bytes")
    return tuple(Fixed(v[0]) for v in struct.iter_unpack(">q", data))
