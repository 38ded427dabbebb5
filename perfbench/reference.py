"""Plaintext tally and ballot legality: the benchmark's ground truth.

Written from the rule definitions alone, apart from ``ordervote.oracle`` and
from the multiparty code, so that a fault the two share cannot hide.  It
imports nothing from ``ordervote``.

A ballot is the vector of entries a voter shares, in the canonical order:
the upper triangle row by row for Copeland and Maximin (the rest of the
matrix follows from antisymmetry, or from 1 - x for Maximin), every
off-diagonal entry row by row for Kemeny.  Candidates are 1-based.

Ties follow the policy documented in ``ordervote.config``: the lowest
candidate index wins a score tie, and Kemeny takes the first rank vector in
``itertools.permutations`` order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

REASON_DEGREE = "ShareDegree"
REASON_DOMAIN = "EntryDomain"
REASON_SUMS = "ColumnSums"
# A Kemeny ballot whose entries and pair sums are in {0, 1} but that no rank
# vector induces (a preference cycle).  The protocol accepts such a ballot,
# so expecting this reason makes the check fail; no workload builds one.
REASON_CYCLE = "Intransitive"

DOMAIN = {"copeland": (-1, 1), "maximin": (0, 1), "kemeny": (0, 1)}


def shared_pairs(rule: str, m: int) -> list[tuple[int, int]]:
    if rule == "kemeny":
        return [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a != b]
    return [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]


def ballot_entries(rule: str, rankings) -> np.ndarray:
    """(B, C) shared entries of B honest ballots.  A ranking is a strict order
    of candidates, most preferred first, or for Kemeny a rank vector (entry
    m-1 is candidate m's rank, ties allowed)."""
    rankings = np.atleast_2d(np.asarray(rankings, dtype=np.int64))
    # Position of each candidate in its voter's order.
    ranks = rankings if rule == "kemeny" else np.argsort(rankings, axis=1)
    a, b = (np.array(shared_pairs(rule, rankings.shape[1])) - 1).T
    above = ranks[:, a] < ranks[:, b]
    return np.where(above, 1, -1 if rule == "copeland" else 0).astype(np.int64)


@lru_cache(maxsize=None)
def legal_ballots(rule: str, m: int) -> frozenset:
    """Every entry vector an honest voter can cast."""
    if rule == "kemeny":
        rankings = list(itertools.product(range(1, m + 1), repeat=m))
    else:
        rankings = list(itertools.permutations(range(1, m + 1)))
    return frozenset(map(tuple, ballot_entries(rule, rankings).tolist()))


def full_matrix(rule: str, m: int, entries, count: int = 1) -> list[list[int]]:
    """The M x M matrix that a vector of shared entries stands for.  With a
    sum of ``count`` ballots' entries it is the aggregated matrix."""
    q = [[0] * m for _ in range(m)]
    for (a, b), v in zip(shared_pairs(rule, m), entries):
        q[a - 1][b - 1] = int(v)
        if rule == "copeland":
            q[b - 1][a - 1] = -int(v)
        elif rule == "maximin":
            q[b - 1][a - 1] = count - int(v)
    return q


def dealt_polynomials(shares: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree and value at 0 of the polynomial through (d, shares[d-1]).

    ``shares`` is (D, ...) with canonical values below p.  Uses the forward
    differences at x = 1: the degree is the highest order whose difference is
    nonzero (-1 for the zero polynomial), and g(0) = sum_k (-1)^k D^k g(1).
    """
    rows = np.asarray(shares, dtype=np.int64) % p
    degree = np.full(rows.shape[1:], -1, dtype=np.int64)
    at_zero = np.zeros(rows.shape[1:], dtype=np.int64)
    for k in range(rows.shape[0]):
        degree = np.where(rows[0] != 0, k, degree)
        at_zero = (at_zero + (-1) ** k * rows[0]) % p
        rows = (rows[1:] - rows[:-1]) % p
    return degree, at_zero


def expected_reason(rule: str, m: int, entries, degree_ok: bool) -> str | None:
    """The verdict the protocol must reach: None for an accepted ballot,
    else the reason of the first failed check (degree, domain, sums)."""
    if not degree_ok:
        return REASON_DEGREE
    entries = tuple(int(v) for v in entries)
    if entries in legal_ballots(rule, m):
        return None
    if any(v not in DOMAIN[rule] for v in entries):
        return REASON_DOMAIN
    if rule == "kemeny":
        q = full_matrix(rule, m, entries)
        if any(q[a][b] + q[b][a] not in (0, 1)
               for a in range(m) for b in range(a + 1, m)):
            return REASON_DOMAIN
        return REASON_CYCLE
    return REASON_SUMS


def expected_verdicts(rule: str, m: int, entries: np.ndarray, shares: np.ndarray,
                      p: int, threshold: int) -> list[str | None]:
    """Verdicts for B ballots: ``entries`` is (B, C) signed plaintext,
    ``shares`` is (D, B, C) as dealt.  Raises if a sharing does not encode its
    plaintext entry, which would be a voter-side fault."""
    degree, at_zero = dealt_polynomials(shares, p)
    if not np.array_equal(at_zero, np.mod(entries, p)):
        raise ValueError("a dealt sharing does not encode its plaintext entry")
    degree_ok = (degree <= threshold - 1).all(axis=1)
    legal = legal_ballots(rule, m)
    out: list[str | None] = []
    for row, ok in zip(entries.tolist(), degree_ok.tolist()):
        out.append(None if ok and tuple(row) in legal
                   else expected_reason(rule, m, row, ok))
    return out


def winners(rule: str, m: int, k: int, accepted: np.ndarray,
            alpha: tuple[int, int] = (1, 2)) -> tuple[list[int], tuple | None]:
    """K winners (and the Kemeny rank vector) from the (B, C) entries of the
    accepted ballots."""
    total = np.asarray(accepted, dtype=np.int64).reshape(-1, len(shared_pairs(rule, m)))
    q = full_matrix(rule, m, total.sum(axis=0).tolist(), count=total.shape[0])
    others = [[b for b in range(m) if b != a] for a in range(m)]
    if rule == "kemeny":
        best, best_score = None, None
        for ranks in itertools.permutations(range(1, m + 1)):
            score = sum(q[a][b] for a in range(m) for b in range(m)
                        if ranks[a] < ranks[b])
            if best_score is None or score > best_score:
                best, best_score = ranks, score
        by_rank = sorted(range(1, m + 1), key=lambda c: best[c - 1])
        return by_rank[:k], best
    if rule == "copeland":
        credit = Fraction(*alpha)
        scores = [sum(1 for b in others[a] if q[a][b] > 0)
                  + credit * sum(1 for b in others[a] if q[a][b] == 0)
                  for a in range(m)]
    else:
        scores = [min((q[a][b] for b in others[a]), default=0) for a in range(m)]
    order = sorted(range(1, m + 1), key=lambda c: (-scores[c - 1], c))
    return order[:k], None
