"""Shamir threshold secret sharing over Z_p, batched.

A secret s is hidden in a uniformly random polynomial g of degree at most
threshold-1 with g(0) = s; party d (d = 1..D) receives the share g(d).  Any
``threshold`` shares determine g by interpolation; fewer reveal nothing.
Evaluation points are fixed at 1..D, so a full share vector also shows the
degree the dealer actually used (the share-legality check relies on this).

Every entry point works on numpy arrays with one column per independent
secret: ``share_batch`` deals, ``reconstruct_batch`` interpolates at x = 0,
and ``degree_at_most`` tests each column's degree.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .field import PrimeField


class ShamirError(Exception):
    pass


class InvalidThreshold(ShamirError):
    pass


class InsufficientShares(ShamirError):
    pass


def share_batch(field: PrimeField, secrets: np.ndarray, threshold: int, parties: int,
                rng: np.random.Generator) -> np.ndarray:
    """Share k independent secrets at once; returns a (parties, k) uint64 matrix."""
    if not 1 <= threshold <= parties:
        raise InvalidThreshold(f"need 1 <= threshold <= parties, got {threshold}/{parties}")
    if parties >= field.p:
        raise InvalidThreshold(f"parties ({parties}) must be below the field size {field.p}")
    secrets = np.asarray(secrets, dtype=np.uint64)
    k = secrets.shape[0]
    coeffs = field.rand_vec(rng, (threshold - 1, k))
    out = np.empty((parties, k), dtype=np.uint64)
    for d in range(1, parties + 1):
        acc = np.zeros(k, dtype=np.uint64)
        for j in range(threshold - 2, -1, -1):  # Horner over a_{t-1}..a_1
            acc = field.add_vec(field.mul_vec(np.uint64(d), acc), coeffs[j])
        out[d - 1] = field.add_vec(field.mul_vec(np.uint64(d), acc), secrets)
    return out


@lru_cache(maxsize=None)
def _lagrange_at(p: int, xs: tuple[int, ...], target: int) -> tuple[int, ...]:
    """Coefficients c_i with g(target) = sum c_i * g(x_i) for deg g < len(xs)."""
    out = []
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if j != i:
                num = num * (target - xj) % p
                den = den * (xi - xj) % p
        out.append(num * pow(den, -1, p) % p)
    return tuple(out)


def lagrange_at_zero(field: PrimeField, xs: Sequence[int]) -> tuple[int, ...]:
    return _lagrange_at(field.p, tuple(xs), 0)


def reconstruct_batch(field: PrimeField, xs: Sequence[int], rows: np.ndarray) -> np.ndarray:
    """Interpolate at x = 0: rows is (len(xs), k); returns the k secrets."""
    coeffs = np.array(lagrange_at_zero(field, xs), dtype=np.uint64)
    terms = field.mul_vec(coeffs[:, None], rows)
    return field.sum_vec(terms, axis=0)


@lru_cache(maxsize=None)
def _extension_matrix(p: int, threshold: int, parties: int) -> np.ndarray:
    """Rows predict shares at x = threshold+1..parties from shares at x = 1..threshold."""
    rows = []
    basis = tuple(range(1, threshold + 1))
    for x in range(threshold + 1, parties + 1):
        rows.append(_lagrange_at(p, basis, x))
    return np.array(rows, dtype=np.uint64).reshape(parties - threshold, threshold)


def degree_at_most(field: PrimeField, matrix: np.ndarray, threshold: int) -> np.ndarray:
    """Boolean per column of the (D, k) share matrix: does the interpolant through
    points 1..D have degree <= threshold-1?  Columns are independent sharings."""
    parties = matrix.shape[0]
    if threshold >= parties:
        return np.ones(matrix.shape[1], dtype=bool)
    ext = _extension_matrix(field.p, threshold, parties)
    predicted = np.empty((parties - threshold, matrix.shape[1]), dtype=np.uint64)
    for r in range(ext.shape[0]):
        predicted[r] = field.sum_vec(field.mul_vec(ext[r][:, None], matrix[:threshold]), axis=0)
    return np.all(predicted == matrix[threshold:], axis=0)
