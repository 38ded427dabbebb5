"""Shamir threshold secret sharing over Z_p, batched.

A secret s is hidden in a uniformly random polynomial g of degree at most
threshold-1 with g(0) = s; party d (d = 1..D) receives the share g(d).  Any
``threshold`` shares determine g by interpolation; fewer reveal nothing.
Evaluation points are fixed at 1..D, so a full share vector also shows the
degree the dealer actually used (the share-legality check relies on this).

Every entry point works on numpy arrays with one column per independent
secret: ``share_batch`` deals, ``reconstruct_batch`` interpolates at x = 0,
and ``degree_at_most`` tests each column's degree.  The last two take the
parties' shares as rows, one per evaluation point, read where they lie: a
(D, k) array or the D rows an exchange received.  ``combine_rows``, the
public linear combination both rest on, also recomposes shared bits and
extracts the talliers' dealt randomness.  Operands are canonical and every
result is, with one reduction per value (see ``field``).

``share_batch`` deals one way, in evaluation form: it draws the shares at
1..t-1 and interpolates the rest through (0, secret), a few array passes
per share, distributed exactly as uniform coefficients are.  Only the draw
depends on the dealer: one dealer of many sharings (a tallier, or a voter
alone) draws with ``PrimeField.draw`` from its generator; a batch of
seeded voters, many dealers of a few sharings each, draws with its batch
form ``PrimeField.draw_batch``, voter i from stream i of one Philox key,
so each voter's sharing still replays from its own stream alone.
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


CHUNK = 1 << 17  # uint64 words of shares per column chunk, about 1 MB


def share_batch(field: PrimeField, secrets: np.ndarray, threshold: int, parties: int,
                rng, out=None) -> np.ndarray:
    """Share independent canonical secrets at once, each under its own polynomial.

    One dealer: ``secrets`` is (k,) and ``rng`` a generator; returns a
    (parties, k) uint64 matrix, or fills ``out``, a sequence of ``parties``
    writable uint64 rows of length k (party d's shares go to ``out[d - 1]``).
    A batch of n dealers, the seeded voters' deal: ``secrets`` is (n, k)
    and ``rng`` a pair (key, ids), dealer i drawing from the Philox stream
    ``stream_rng(key, ids[i])`` (see ``field``); returns an (n, parties, k)
    block, or fills ``out`` of that shape, dealer i's shares a contiguous
    (parties, k) slice.

    Both deal in evaluation form: the shares at the points 1..t-1,
    t = ``threshold``, are drawn uniformly straight into their rows, and
    those at t..D are the polynomial of degree <= t-1 through (0, secret)
    and them, evaluated by ``combine_rows`` with cached Lagrange
    coefficients; secrets that are all zero drop their term.  For a fixed
    secret s, the coefficients a_1..a_{t-1} of g(x) = s + sum_j a_j x**j map
    one-to-one onto the values g(1)..g(t-1), since g(i) - s = sum_j a_j i**j
    and the matrix (i**j) is diag(i) times a Vandermonde matrix on distinct
    nonzero points, which is invertible mod p.  So uniform values at
    1..t-1 give exactly the distribution of uniform coefficients, and any
    t-1 shares are uniform and independent of s: the secrecy is perfect.

    The draw is the only difference.  One dealer fills its rows with
    ``PrimeField.draw``, row after row; a batch draws each chunk's dealers
    at once with ``PrimeField.draw_batch``, whose row i is the same
    (t - 1) * k lanes in the same order.  So dealer i's sharing is the
    matrix one dealer of ``secrets[i]`` deals alone from
    ``stream_rng(key, ids[i])`` whenever one chunk holds its k secrets
    (k <= CHUNK / parties, as for every ballot), and depends on no other
    dealer.  Either works in chunks of about 1 MB of shares, so a chunk's
    inputs stay in cache while every party's row of it is computed, and
    reduces each share once."""
    if not 1 <= threshold <= parties:
        raise InvalidThreshold(f"need 1 <= threshold <= parties, got {threshold}/{parties}")
    if parties >= field.p:
        raise InvalidThreshold(f"parties ({parties}) must be below the field size {field.p}")
    secrets = np.asarray(secrets, dtype=np.uint64)
    many = secrets.ndim == 2  # a batch of dealers, one Philox stream each
    if many:
        key, ids = rng
        ids = np.asarray(ids, dtype=np.uint64)
    width = secrets.shape[1] if many else 1  # a party's shares per row of secrets
    if out is None:
        out = np.empty((*secrets.shape[:-1], parties, secrets.shape[-1]), dtype=np.uint64)
    by_party = out.swapaxes(0, 1) if many else out
    drop = threshold > 1 and not secrets.any()  # sharings of zero
    basis = tuple(range(threshold))  # 0, then the drawn points
    rows = [(_lagrange_at(field.p, basis, x)[drop:], by_party[x - 1])
            for x in range(threshold, parties + 1)]
    step = max(1, CHUNK // (parties * max(width, 1)))
    for lo in range(0, len(secrets), step):
        cols = slice(lo, lo + step)
        drawn = [row[cols] for row in by_party[:threshold - 1]]
        if many:
            dealt = out[cols, :threshold - 1]
            lanes = field.draw_batch(key, ids[cols], (threshold - 1) * width)
            dealt[...] = lanes.reshape(dealt.shape)
        else:
            field.draw(rng, *drawn)
        terms = [secrets[cols], *drawn][drop:]
        for coeffs, row in rows:
            combine_rows(field, coeffs, terms, out=row[cols])
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


def combine_rows(field: PrimeField, coeffs: Sequence[int], rows: Sequence[np.ndarray],
                 out: np.ndarray | None = None) -> np.ndarray:
    """sum_i coeffs[i] * rows[i] mod p for canonical rows, written into ``out``
    when given.  A product is at most (p-1)^2, so ``room`` of them add up in
    uint64 without wrapping and share one reduction; the reductions, not the
    products, are the cost here.  A row with coefficient 1 is added without
    a product."""
    room = (2**64 - 1) // (field.p - 1) ** 2
    acc = None
    for start in range(0, len(coeffs), room):
        part = np.multiply(rows[start], np.uint64(coeffs[start]),
                           out=out if acc is None else None)
        for c, row in zip(coeffs[start + 1:start + room], rows[start + 1:start + room]):
            part += row if c == 1 else row * np.uint64(c)
        field.reduce(part)
        if acc is None:
            acc = part
        else:
            acc += part
            field.reduce(acc)
    return acc


def reconstruct_batch(field: PrimeField, xs: Sequence[int],
                      rows: Sequence[np.ndarray]) -> np.ndarray:
    """Interpolate at x = 0 from the rows of shares at the points xs, one
    row of k per point (a (len(xs), k) array serves too); returns the k
    secrets.  The rows are read where they lie, never stacked."""
    return combine_rows(field, _lagrange_at(field.p, tuple(xs), 0),
                        [np.asarray(row, dtype=np.uint64) for row in rows])


def degree_at_most(field: PrimeField, rows: Sequence[np.ndarray], threshold: int) -> np.ndarray:
    """Boolean per column of the rows of shares at the points 1..D, one row
    per point (a (D, k) array serves too): does the interpolant through
    them have degree <= threshold-1?  Columns are independent sharings."""
    ok = np.ones(len(rows[0]), dtype=bool)
    basis = tuple(range(1, threshold + 1))
    for x in range(threshold + 1, len(rows) + 1):  # none when threshold >= D
        ok &= combine_rows(field, _lagrange_at(field.p, basis, x),
                           rows[:threshold]) == rows[x - 1]
    return ok
