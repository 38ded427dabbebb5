import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from conftest import run_parties
from ordervote.engine import Shares
from ordervote.field import PrimeField
from ordervote.shamir import (InsufficientShares, InvalidThreshold,
                              degree_at_most, reconstruct_batch, share_batch)


def _evaluate(coeffs, xs, p):
    """Plain evaluation of the polynomial with ``coeffs`` (constant first)."""
    return [sum(c * x ** i for i, c in enumerate(coeffs)) % p for x in xs]


def test_known_polynomial_shares(f31):
    # g(x) = 5 + 4x at x = 1, 2, 3
    shares = np.array([[9], [13], [17]], dtype=np.uint64)
    assert degree_at_most(f31, shares, 2).all()
    assert reconstruct_batch(f31, [1, 2], shares[:2]).tolist() == [5]
    assert reconstruct_batch(f31, [1, 3], shares[[0, 2]]).tolist() == [5]
    dealt = share_batch(f31, np.array([5]), 2, 3, np.random.default_rng(0))
    assert degree_at_most(f31, dealt, 2).all()  # a line, like g


def test_threshold_one_gives_constant_shares(f31):
    rng = np.random.default_rng(0)
    matrix = share_batch(f31, np.array([17], dtype=np.uint64), 1, 5, rng)
    assert matrix[:, 0].tolist() == [17] * 5


def test_round_trip_every_subset(f31):
    rng = np.random.default_rng(1)
    for parties in range(1, 10):
        for threshold in range(1, parties + 1):
            secrets = rng.integers(0, 31, size=4, dtype=np.uint64)
            matrix = share_batch(f31, secrets, threshold, parties, rng)
            for subset in itertools.combinations(range(parties), threshold):
                got = reconstruct_batch(f31, [d + 1 for d in subset],
                                        matrix[list(subset)])
                assert np.array_equal(got, secrets)


def test_reconstruct_errors(f31):
    def prog(ctx):  # a threshold-4 sharing cannot be opened by 3 parties
        return ctx.open(Shares(f31, 4, np.zeros(1, dtype=np.uint64)), "final_output")

    with pytest.raises(InsufficientShares):
        run_parties(3, 2, f31, prog)
    with pytest.raises(InvalidThreshold):
        share_batch(f31, np.array([5]), 4, 3, np.random.default_rng(0))
    with pytest.raises(InvalidThreshold):
        share_batch(f31, np.array([5]), 2, 31, np.random.default_rng(0))  # D >= p


def test_interpolate_full_degrees(f31):
    # columns: degree 2, degree 0, the zero polynomial, and the line 7 + 3x
    points = np.array([[1, 5, 0, 10], [2, 5, 0, 13], [4, 5, 0, 16]], dtype=np.uint64)
    assert degree_at_most(f31, points, 3).tolist() == [True] * 4
    assert degree_at_most(f31, points, 2).tolist() == [False, True, True, True]
    assert degree_at_most(f31, points, 1).tolist() == [False, True, True, False]
    assert reconstruct_batch(f31, [1, 2], points[:2, 3:]).tolist() == [7]


def test_interpolate_recovers_generator(f31):
    """Random polynomials of degree <= 3 evaluated at x = 1..7: the degree test
    passes exactly from the polynomial's own degree up, and any four points
    give back its constant term."""
    rng = np.random.default_rng(2)
    polys = [tuple(int(v) for v in rng.integers(0, 31, size=4)) for _ in range(50)]
    polys[:2] = [(0, 0, 0, 0), (9, 0, 0, 0)]  # the zero and a constant polynomial
    points = np.array([_evaluate(c, range(1, 8), 31) for c in polys],
                      dtype=np.uint64).T
    degrees = [max((i for i, c in enumerate(cs) if c), default=-1) for cs in polys]
    for threshold in range(1, 8):
        expect = [deg <= threshold - 1 for deg in degrees]
        assert degree_at_most(f31, points, threshold).tolist() == expect
    got = reconstruct_batch(f31, [2, 4, 5, 7], points[[1, 3, 4, 6]])
    assert got.tolist() == [cs[0] for cs in polys]


def test_share_batch_matches_scalar_reconstruct(f31):
    rng = np.random.default_rng(3)
    secrets = rng.integers(0, 31, size=64, dtype=np.uint64)
    matrix = share_batch(f31, secrets, 3, 5, rng)
    assert matrix.shape == (5, 64)
    got = reconstruct_batch(f31, [1, 2, 3], matrix[:3])
    assert np.array_equal(got, secrets)
    # any 3-subset agrees
    rows = [4, 2, 0]
    got = reconstruct_batch(f31, [5, 3, 1], matrix[rows])
    assert np.array_equal(got, secrets)


def test_degree_at_most_flags_high_degree(f31):
    rng = np.random.default_rng(4)
    honest = share_batch(f31, np.arange(10, dtype=np.uint64), 2, 5, rng)
    assert degree_at_most(f31, honest, 2).all()
    tampered = honest.copy()
    tampered[4, 3] = (tampered[4, 3] + 1) % 31
    flags = degree_at_most(f31, tampered, 2)
    assert not flags[3] and flags[[0, 1, 2, 4, 5, 6, 7, 8, 9]].all()
    # degree exactly D'(=2) polynomials must be rejected
    bad = share_batch(f31, np.arange(10, dtype=np.uint64), 3, 5, rng)
    keep = ~degree_at_most(f31, bad, 2)
    assert keep.sum() >= 8  # a random quadratic is almost never a line


def test_secrecy_single_share_uniform(f31):
    # For a fixed secret, any D'-1 = 1 share is uniform over Z_31.
    rng = np.random.default_rng(5)
    samples = share_batch(f31, np.full(31 * 400, 12, dtype=np.uint64), 2, 3, rng)[0]
    counts = np.bincount(samples.astype(int), minlength=31)
    assert stats.chisquare(counts).pvalue > 1e-4


def test_secrecy_joint_pair_uniform(f31):
    # D' = 3: two shares jointly uniform over Z_31^2 (chi-squared on 961 cells).
    rng = np.random.default_rng(6)
    n = 961 * 40
    mat = share_batch(f31, np.full(n, 7, dtype=np.uint64), 3, 5, rng)
    cells = mat[0].astype(int) * 31 + mat[1].astype(int)
    counts = np.bincount(cells, minlength=961)
    assert stats.chisquare(counts).pvalue > 1e-4


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30), st.integers(0, 30),
       st.integers(0, 30))
def test_lincomb_commutes_with_reconstruct(a, b, u, v, offset):
    f = PrimeField(31)
    rng = np.random.default_rng(a * 31 + b)
    matrix = share_batch(f, np.array([u, v], dtype=np.uint64), 2, 3, rng)
    # each party combines its own two shares locally, then adds the public offset
    combined = f.add_vec(f.add_vec(f.mul_vec(a, matrix[:, 0]),
                                   f.mul_vec(b, matrix[:, 1])), offset)
    got = reconstruct_batch(f, [1, 2], combined[:2, None])
    assert got.tolist() == [(a * u + b * v + offset) % 31]
    assert degree_at_most(f, combined[:, None], 2).all()


def test_lincomb_offset_embeds_public_shift(f31):
    # adding a public N to every share shifts the secret by N
    rng = np.random.default_rng(7)
    matrix = share_batch(f31, np.array([9], dtype=np.uint64), 2, 3, rng)
    shifted = f31.add_vec(matrix, 10)
    assert reconstruct_batch(f31, [2, 3], shifted[1:]).tolist() == [19]
