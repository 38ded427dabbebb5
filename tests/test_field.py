import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ordervote.config import PRIME_LADDER
from ordervote.engine import Shares
from ordervote.field import FieldError, PrimeField, is_prime, philox_words, stream_rng
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


@pytest.mark.parametrize("p", [65_519, M31, 4_294_967_291])
def test_canonical_ops_agree_with_python_integers(p):
    """add_vec, sub_vec, Shares negation and mul_vec on canonical operands,
    random ones and the edges 0, 1 and p - 1, array with array and array
    with scalar: canonical results equal to Python's, and no overflow
    warning from the wrapped uint64 words they pass through."""
    f = PrimeField(p)
    edges = np.array([0, 1, p - 1], dtype=np.uint64)
    drawn = np.empty((2, 2000), dtype=np.uint64)
    f.draw(np.random.default_rng(p), *drawn)
    a = np.concatenate([np.repeat(edges, 3), drawn[0]])
    b = np.concatenate([np.tile(edges, 3), drawn[1]])
    ops = {"add": (f.add_vec, lambda x, y: (x + y) % p),
           "sub": (f.sub_vec, lambda x, y: (x - y) % p),
           "mul": (f.mul_vec, lambda x, y: x * y % p)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for vec, exact in ops.values():
            got = vec(a, b)
            assert got.dtype == np.uint64
            assert got.tolist() == [exact(int(x), int(y)) for x, y in zip(a, b)]
            for y in (*(int(e) for e in edges), int(b[-1])):
                for scalar in (y, np.uint64(y)):
                    assert vec(a, scalar).tolist() == [exact(int(x), y) for x in a]
                    assert vec(scalar, a).tolist() == [exact(y, int(x)) for x in a]
                    assert int(vec(scalar, scalar)) == exact(y, y)
        neg = -Shares(f, 2, a)
        assert neg.values.dtype == np.uint64
        assert neg.values.tolist() == [-int(x) % p for x in a]


@pytest.mark.parametrize("p", sorted({7, 13, 31, 65_519, (1 << 31) - 1, 4_294_967_291,
                                      *PRIME_LADDER}))
def test_reduce_equals_the_remainder_at_the_edges(p):
    """reduce, x - (x // p) * p in place, equals x % p on 0, p - 1, p,
    (p - 1)**2, the largest product of canonical elements, and 2**64 - 1."""
    f = PrimeField(p)
    words = [0, p - 1, p, (p - 1) ** 2, (1 << 64) - 1]
    x = np.array(words, dtype=np.uint64)
    assert f.reduce(x) is x
    assert x.tolist() == [w % p for w in words]


def test_draw_is_uniform_at_7():
    """At p = 7 a lane is >= p one time in eight, so many are redrawn: the
    70,000 values drawn are canonical, and each count is within 300 of
    10,000, about 3.2 standard deviations; this seed's counts lie within
    140 of it."""
    f = PrimeField(7)
    out = np.empty(70_000, dtype=np.uint64)
    f.draw(np.random.default_rng(27), out)
    assert out.dtype == np.uint64 and int(out.max()) < 7
    counts = np.bincount(out.astype(np.int64), minlength=7)
    assert np.abs(counts - 10_000).max() < 300


def test_draw_redraws_every_lane_at_or_above_p():
    """A stub generator whose first words hold lanes >= p: a lane masked to
    ell bits that is p or more is replaced, in order, by the lanes of a
    fresh draw, themselves redrawn while >= p, and two rows are filled in
    turn from one draw."""
    f = PrimeField(5)  # ell = 3: lanes 5, 6 and 7 are redrawn

    class Words:
        def __init__(self, *draws):
            self.draws, self.sizes = list(draws), []

        def integers(self, low, high, size, dtype):
            assert (low, high, dtype) == (0, 1 << 64, np.uint64)
            self.sizes.append(size)
            lanes = np.array(self.draws.pop(0), dtype=np.uint32)
            return lanes.view(np.uint64)

    # the six lanes of three words mask to 3, 7, 1, 5, 4, 0: positions 1
    # and 3 take the lanes 6 and 2 of one fresh word, and position 1 again
    # the first lane of each next word, 5 and then 1; an odd draw's last
    # lane is not used
    rng = Words([3, 7, 1, 13, 4, 8], [6, 2], [0xFFFF_FFFD, 0xFFFF_FFFF], [9, 0])
    rows = np.empty(4, dtype=np.uint64), np.empty(2, dtype=np.uint64)
    f.draw(rng, *rows)
    assert rows[0].tolist() == [3, 1, 1, 2] and rows[1].tolist() == [4, 0]
    assert rng.sizes == [3, 1, 1, 1] and not rng.draws


@pytest.mark.parametrize("w", [0, 1, 4, 5, 9])
def test_philox_words_equal_numpys_philox(w):
    """The first w raw words of numpy's Philox4x64-10 at the counter
    (0, 0, i, 0), for random 128-bit keys and for stream ids 1, 2,
    2**32 + 5, 2**63 and 2**64 - 1, computed at once for every stream; a
    stream's words do not depend on the others, and ``stream_rng`` is
    that generator."""
    ids = [1, 2, (1 << 32) + 5, 1 << 63, (1 << 64) - 1]
    rng = np.random.default_rng(w)
    for key in (0, (1 << 128) - 1, *(int(rng.integers(0, 1 << 64, dtype=np.uint64)) << 64
                                    | int(rng.integers(0, 1 << 64, dtype=np.uint64))
                                    for _ in range(3))):
        got = philox_words(key, ids, w)
        assert got.shape == (len(ids), w) and got.dtype == np.uint64
        for i, row in zip(ids, got):
            counter = np.array([0, 0, i, 0], dtype=np.uint64)
            want = np.random.Philox(key=key, counter=counter).random_raw(w)
            assert np.array_equal(row, want)
            assert np.array_equal(philox_words(key, [i], w)[0], want)
            assert np.array_equal(stream_rng(key, i).integers(0, 1 << 64, size=w,
                                                              dtype=np.uint64), want)
    assert philox_words(5, [], w).shape == (0, w)


@pytest.mark.parametrize("p", [5, 7, 13, 65_519, M31, 4_294_967_291])
def test_draw_batch_rows_equal_each_streams_draw(p):
    """Row i of ``draw_batch`` is what ``draw`` writes from stream i alone,
    for 0, 1, 9 and 30 lanes: at p = 5, 7 and 13 most rows hold a lane
    >= p and are recomputed on their own stream."""
    f = PrimeField(p)
    key = 0x0123456789ABCDEF_FEDCBA9876543210
    ids = np.arange(1, 201, dtype=np.uint64)
    for n in (0, 1, 9, 30):
        got = f.draw_batch(key, ids, n)
        assert got.shape == (ids.size, n) and got.dtype == np.uint64
        for i, row in zip(ids.tolist(), got):
            alone = np.empty(n, dtype=np.uint64)
            f.draw(stream_rng(key, i), alone)
            assert np.array_equal(row, alone)
    assert f.draw_batch(key, ids[:0], 4).shape == (0, 4)
