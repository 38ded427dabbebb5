import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ordervote.field import FieldError, PrimeField, is_prime
from ordervote.transport import HEADER, MessageKind, ProtocolMessage

M31 = (1 << 31) - 1


def test_mul_add_agree_with_bignum():
    f = PrimeField(M31)
    rng = np.random.default_rng(1)
    a = rng.integers(0, M31, size=100_000, dtype=np.uint64)
    b = rng.integers(0, M31, size=100_000, dtype=np.uint64)
    got = f.mul_vec(a, b)
    expect = (a.astype(object) * b.astype(object)) % M31
    assert np.array_equal(got.astype(object), expect)
    got = f.add_vec(a, b)
    assert np.array_equal(got.astype(object), (a.astype(object) + b.astype(object)) % M31)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, M31 - 1), st.integers(0, M31 - 1))
def test_scalar_ops_match_python(a, b):
    # the vector ops on single elements
    f = PrimeField(M31)
    assert int(f.mul_vec(a, b)) == a * b % M31
    assert int(f.add_vec(a, b)) == (a + b) % M31
    assert int(f.sub_vec(a, b)) == (a - b) % M31


def test_pow_examples():
    f7 = PrimeField(7)
    assert f7.pow_vec(np.array([3, 0]), 0).tolist() == [1, 1]  # empty product
    assert f7.pow_vec(np.array([3, 0]), 6).tolist() == [1, 0]  # Fermat


def test_fermat_on_random_elements():
    f = PrimeField(M31)
    rng = np.random.default_rng(2)
    xs = rng.integers(1, M31, size=50, dtype=np.uint64)
    assert (f.pow_vec(xs, M31 - 1) == 1).all()


def test_pow_vec_matches_scalar():
    f = PrimeField(M31)
    rng = np.random.default_rng(3)
    xs = rng.integers(0, M31, size=200, dtype=np.uint64)
    got = f.pow_vec(xs, (M31 + 1) // 4)
    expect = np.array([pow(int(x), (M31 + 1) // 4, M31) for x in xs], dtype=np.uint64)
    assert np.array_equal(got, expect)


def test_inv():
    # the engine inverts by Fermat: x^(p-2)
    f7 = PrimeField(7)
    assert f7.pow_vec(np.array([1, 3]), 5).tolist() == [1, 5]  # 3*5 = 15 = 1 mod 7
    f = PrimeField(M31)
    rng = np.random.default_rng(4)
    xs = rng.integers(1, M31, size=50, dtype=np.uint64)
    assert (f.mul_vec(f.pow_vec(xs, M31 - 2), xs) == 1).all()


def test_sqrt_canonical():
    for p in (7, 31, M31, 13):  # 13 = 1 mod 4 exercises Tonelli-Shanks
        f = PrimeField(p)
        rng = np.random.default_rng(5)
        for x in rng.integers(1, p, size=40):
            sq = pow(int(x), 2, p)
            r = f.sqrt(sq)
            assert pow(r, 2, p) == sq
            assert r <= p - r  # canonical choice
    with pytest.raises(FieldError):
        PrimeField(7).sqrt(3)  # non-residue mod 7


def test_primality_and_modulus_checks():
    assert is_prime(M31) and is_prime(31) and is_prime(7)
    assert not is_prime(1) and not is_prime((1 << 31) - 3)
    assert PrimeField(M31).ell == 31 and PrimeField(29).ell == 5
    with pytest.raises(FieldError):
        PrimeField(15)  # not prime
    with pytest.raises(FieldError):
        PrimeField((1 << 61) - 1)  # beyond the 64-bit-product bound


def test_wire_encoding_round_trip():
    # field elements travel inside a ProtocolMessage as 8-byte little-endian words
    rng = np.random.default_rng(6)
    xs = rng.integers(0, M31, size=1000, dtype=np.uint64)
    frame = ProtocolMessage(1, 1, 1, MessageKind.POINTWISE, xs).encode()
    body = frame[len(frame) - 8000:]
    assert len(frame) == 4 + HEADER.size + 8000
    assert body[:8] == int(xs[0]).to_bytes(8, "little")
    assert np.array_equal(ProtocolMessage.decode(frame[4:]).payload, xs)
