"""Fixed-point arithmetic and deterministic network evaluation tests."""

import hashlib
import math

import pytest
from hypothesis import given, strategies as st

from posp import model
from posp.model import Fixed, FixedOverflowError, ONE, corrupt, fixed_mul, relu


class TestFixed:
    def test_mul_representable_product(self):
        a = Fixed.from_float(1.5)
        b = Fixed.from_float(2.0)
        assert a.raw == 98304 and b.raw == 131072
        assert (a * b).raw == 3 * ONE

    def test_mul_truncates(self):
        # 6554^2 = 42954916; >> 16 -> 655
        a = Fixed(6554)
        assert fixed_mul(a, a).raw == 655

    def test_mul_zero(self):
        assert (Fixed(123456) * Fixed(0)).raw == 0

    def test_mul_truncates_toward_negative_infinity(self):
        # (-1 * 1/2^16) product raw is -65536 >> 16 = -1, but a sub-ulp
        # negative product must floor to -1, not round to 0
        assert fixed_mul(Fixed(-1), Fixed(1)).raw == -1

    def test_add_sub_exact(self):
        a = Fixed.from_float(0.5)
        b = Fixed.from_float(0.25)
        assert (a + b).to_float() == 0.75
        assert (a - b).to_float() == 0.25

    def test_add_overflow_rejected(self):
        with pytest.raises(FixedOverflowError):
            Fixed((1 << 63) - 1) + Fixed(1)

    def test_mul_overflow_rejected(self):
        big = Fixed((1 << 62))
        with pytest.raises(FixedOverflowError):
            fixed_mul(big, big)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, 1e308, -1e300])
    def test_from_float_out_of_range_rejected(self, value):
        with pytest.raises(FixedOverflowError):
            Fixed.from_float(value)

    def test_from_float_nan_rejected(self):
        with pytest.raises(ValueError):
            Fixed.from_float(math.nan)

    @pytest.mark.parametrize("raw", [1 << 63, -(1 << 63) - 1, 1 << 70])
    def test_out_of_range_raw_rejected(self, raw):
        with pytest.raises(FixedOverflowError):
            Fixed(raw)

    @pytest.mark.parametrize("raw", [0.5, "1", True], ids=["float", "str", "bool"])
    def test_non_int_raw_rejected(self, raw):
        with pytest.raises(TypeError):
            Fixed(raw)

    def test_range_ends_construct(self):
        ends = (Fixed(-(1 << 63)), Fixed((1 << 63) - 1))
        assert model.decode_vector(model.encode_vector(ends)) == ends

    def test_from_int_roundtrip(self):
        assert Fixed.from_int(-3).to_float() == -3.0

    def test_relu(self):
        assert model.relu(Fixed(-5)).raw == 0
        assert model.relu(Fixed(5)).raw == 5

    @given(
        st.integers(min_value=-(1 << 24), max_value=1 << 24),
        st.integers(min_value=-(1 << 24), max_value=1 << 24),
    )
    def test_truncation_bias_below_one_ulp(self, ra, rb):
        a, b = Fixed(ra), Fixed(rb)
        exact = a.to_float() * b.to_float()
        assert abs(fixed_mul(a, b).to_float() - exact) < 2.0 ** -16


class TestGenerateModel:
    SEED = bytes([7] * 32)

    def test_same_seed_identical(self):
        m1 = model.generate_model(self.SEED, (4, 8, 2))
        m2 = model.generate_model(self.SEED, (4, 8, 2))
        assert m1 == m2

    def test_different_seed_differs(self):
        m1 = model.generate_model(self.SEED, (4, 8, 2))
        m2 = model.generate_model(bytes([8] * 32), (4, 8, 2))
        assert m1.weights != m2.weights

    def test_shapes(self):
        m = model.generate_model(self.SEED, (4, 8, 2))
        assert len(m.weights[0]) == 4 and len(m.weights[0][0]) == 8
        assert len(m.biases[0]) == 8
        assert len(m.weights[1]) == 8 and len(m.weights[1][0]) == 2
        assert len(m.biases[1]) == 2

    def test_weights_in_range(self):
        m = model.generate_model(self.SEED, (4, 8, 2))
        for layer in m.weights:
            for row in layer:
                for w in row:
                    assert -ONE <= w.raw < ONE

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            model.generate_model(self.SEED, (4,))
        with pytest.raises(ValueError):
            model.generate_model(self.SEED, (4, 0, 2))


def reference_forward(m, x):
    """`forward` spelled with the public Q16.16 operations, row-major."""
    activ = tuple(x)
    last = len(m.weights) - 1
    for l, (w, b) in enumerate(zip(m.weights, m.biases)):
        out = []
        for j in range(len(b)):
            acc = b[j]
            for i in range(len(activ)):
                acc = acc + fixed_mul(w[i][j], activ[i])
            out.append(acc)
        activ = tuple(out) if l == last else tuple(relu(v) for v in out)
    return activ


def evaluate(fn, m, x):
    try:
        return fn(m, x)
    except FixedOverflowError:
        return FixedOverflowError


@st.composite
def models_and_inputs(draw):
    """A seeded model, its weights scaled by 2^shift so that products and
    partial sums can leave the 64-bit range, and an input for it."""
    dims = tuple(draw(st.lists(st.integers(1, 8), min_size=2, max_size=5)))
    seeded = model.generate_model(draw(st.binary(min_size=32, max_size=32)), dims)
    shift = draw(st.sampled_from([0, 0, 8, 16, 24]))
    m = model.ToyModel(
        dims=dims,
        weights=tuple(tuple(tuple(Fixed(w.raw << shift) for w in row) for row in layer)
                      for layer in seeded.weights),
        biases=seeded.biases,
        seed=seeded.seed,
    )
    raw = st.one_of(st.integers(-(1 << 40), 1 << 40), st.integers(-(1 << 63), (1 << 63) - 1))
    x = tuple(Fixed(v) for v in draw(st.lists(raw, min_size=dims[0], max_size=dims[0])))
    return m, x


class TestForward:
    def test_zero_weights_returns_bias(self):
        z = Fixed(0)
        bias = (Fixed.from_float(1.5), Fixed.from_float(-2.0))
        m = model.ToyModel(
            dims=(3, 2),
            weights=(((z, z), (z, z), (z, z)),),
            biases=(bias,),
            seed=bytes(32),
        )
        x = tuple(Fixed.from_int(v) for v in (1, 2, 3))
        assert model.forward(m, x) == bias

    def test_identity_single_layer(self):
        one, z = Fixed.from_int(1), Fixed(0)
        m = model.ToyModel(
            dims=(2, 2),
            weights=(((one, z), (z, one)),),
            biases=((z, z),),
            seed=bytes(32),
        )
        x = (Fixed.from_float(0.25), Fixed.from_float(-3.5))
        assert model.forward(m, x) == x

    def test_golden_output(self):
        # frozen on first run of the pinned (seed, dims, x) triple
        m = model.generate_model(bytes([7] * 32), (4, 8, 2))
        x = tuple(Fixed.from_float(v) for v in (0.25, -0.5, 1.0, 0.125))
        y = model.forward(m, x)
        assert [v.raw for v in y] == [9540, 18947]

    def test_dimension_mismatch(self):
        m = model.generate_model(bytes([7] * 32), (4, 8, 2))
        with pytest.raises(ValueError):
            model.forward(m, (Fixed(0),))

    @given(models_and_inputs())
    def test_matches_the_fixed_point_reference(self, case):
        m, x = case
        assert evaluate(model.forward, m, x) == evaluate(reference_forward, m, x)

    @pytest.mark.parametrize("bias, weights, x", [
        # 2^62 + 2^62 leaves the range; the third term would bring it back
        (0, (ONE, ONE, -ONE), (1 << 62, 1 << 62, 1 << 62)),
        # the product 2^63 leaves the range although bias + product does not
        (-(1 << 62), (2 * ONE,), (1 << 62,)),
    ], ids=["partial-sum", "product"])
    def test_out_of_range_step_raises_even_if_the_total_fits(self, bias, weights, x):
        m = model.ToyModel(
            dims=(len(x), 1),
            weights=(tuple((Fixed(w),) for w in weights),),
            biases=((Fixed(bias),),),
            seed=bytes(32),
        )
        x = tuple(Fixed(v) for v in x)
        for fn in (model.forward, reference_forward):
            with pytest.raises(FixedOverflowError):
                fn(m, x)

    def test_out_of_range_parameter_cannot_be_built(self):
        # input -1.0 would bring the first partial sum back into range
        with pytest.raises(FixedOverflowError):
            m = model.ToyModel(dims=(1, 1), weights=(((Fixed.from_float(1.0),),),),
                               biases=((Fixed(1 << 63),),), seed=bytes(32))
            model.forward(m, (Fixed.from_float(-1.0),))

    def test_non_int_parameter_cannot_be_built(self):
        # a float bias would make forward return Fixed(raw=65536.5) on input 1.0
        with pytest.raises(TypeError):
            m = model.ToyModel(dims=(1, 1), weights=(((Fixed.from_float(1.0),),),),
                               biases=((Fixed(0.5),),), seed=bytes(32))
            model.forward(m, (Fixed.from_float(1.0),))

    def test_deterministic_hash(self):
        m = model.generate_model(bytes([7] * 32), (4, 8, 2))
        x = tuple(Fixed.from_float(v) for v in (0.25, -0.5, 1.0, 0.125))
        h1 = hashlib.sha256(model.encode_vector(model.forward(m, x))).hexdigest()
        h2 = hashlib.sha256(model.encode_vector(model.forward(m, x))).hexdigest()
        assert h1 == h2


class TestCorrupt:
    Y = (Fixed(0), Fixed(100))

    def test_offset_default(self):
        assert [v.raw for v in corrupt(self.Y)] == [1, 101]

    def test_differs_from_original(self):
        for amount in (1, -1, 7, -(1 << 40)):
            assert corrupt(self.Y, amount) != self.Y

    def test_offset_zero_rejected(self):
        with pytest.raises(ValueError):
            corrupt(self.Y, amount=0)


class TestVectorEncoding:
    def test_roundtrip(self):
        y = (Fixed(-1), Fixed(0), Fixed(1 << 40))
        assert model.decode_vector(model.encode_vector(y)) == y

    def test_rejects_ragged_length(self):
        with pytest.raises(ValueError):
            model.decode_vector(b"\x00" * 9)
