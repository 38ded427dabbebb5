"""Plaintext reference implementations: the ground truth for equivalence tests.

Everything here sees the ballots in the clear and computes the same outputs
the multiparty protocol produces obliviously.  The implementations are direct
transcriptions of the rule definitions (deliberately independent of the MPC
code paths), pure, and deterministic, so MPC-vs-oracle comparisons can assert
exact equality.  The kemeny oracle enumerates all M! rankings by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ballots import InvalidRanking, check_order, check_ranks
from .config import rank_vectors, ranking_winners, select_winners


@dataclass(frozen=True)
class PlainElection:
    """A fully visible election: rule, candidates, winners wanted, ballots.

    ``rankings`` holds orders (candidate indices, most preferred first) for
    copeland/maximin and rank vectors (ties allowed) for kemeny.
    """

    rule: str
    num_candidates: int
    num_winners: int
    rankings: tuple
    alpha: tuple[int, int] = (1, 2)


def preference_counts(orders: Sequence[Sequence[int]], m: int) -> np.ndarray:
    """P[a-1, b-1] = number of voters ranking candidate a above candidate b."""
    p = np.zeros((m, m), dtype=np.int64)
    for order in orders:
        order = check_order(order, m)
        for i, a in enumerate(order):
            for b in order[i + 1:]:
                p[a - 1, b - 1] += 1
    return p


def plain_copeland(election: PlainElection) -> tuple[list[int], list[int]]:
    """Winners and rescaled scores t*w(m) under copeland with alpha = s/t."""
    m = election.num_candidates
    counts = preference_counts(election.rankings, m)
    margins = counts - counts.T  # aggregated +/-1 ballot matrix
    s, t = election.alpha
    scores = []
    for a in range(m):
        wins = sum(1 for b in range(m) if b != a and margins[a, b] > 0)
        ties = sum(1 for b in range(m) if b != a and margins[a, b] == 0)
        scores.append(t * wins + s * ties)
    return select_winners(scores, election.num_winners), scores


def plain_maximin(election: PlainElection) -> tuple[list[int], list[int]]:
    """Winners and scores w(m) = min over opponents of supporting-voter counts."""
    m = election.num_candidates
    counts = preference_counts(election.rankings, m)
    scores = []
    for a in range(m):
        others = [int(counts[a, b]) for b in range(m) if b != a]
        scores.append(min(others) if others else 0)
    return select_winners(scores, election.num_winners), scores


def kemeny_counts(rank_lists: Sequence[Sequence[int]], m: int) -> np.ndarray:
    """P[a-1, b-1] = number of voters ranking a strictly higher than b."""
    p = np.zeros((m, m), dtype=np.int64)
    for ranks in rank_lists:
        ranks = check_ranks(ranks, m)
        for a in range(m):
            for b in range(m):
                if a != b and ranks[a] < ranks[b]:
                    p[a, b] += 1
    return p


def kemeny_score(counts: np.ndarray, ranks: Sequence[int]) -> int:
    """Pairwise agreement of a candidate ranking with the aggregated counts."""
    m = counts.shape[0]
    return int(sum(counts[a, b] for a in range(m) for b in range(m)
                   if a != b and ranks[a] < ranks[b]))


def kemeny_agreements_direct(rank_lists: Sequence[Sequence[int]],
                             ranks: Sequence[int]) -> int:
    """Double-entry check: count ballot-by-ballot pairwise agreements without
    going through the aggregated matrix."""
    m = len(ranks)
    total = 0
    for ballot in rank_lists:
        for a in range(m):
            for b in range(m):
                if a != b and ranks[a] < ranks[b] and ballot[a] < ballot[b]:
                    total += 1
    return total


def plain_kemeny(election: PlainElection) -> tuple[tuple[int, ...], list[int], int]:
    """Best ranking (first in enumeration order on ties), its top-K candidates,
    and its score."""
    m = election.num_candidates
    counts = kemeny_counts(election.rankings, m)
    best_ranks, best_score = None, -1
    for ranks in rank_vectors(m):
        score = kemeny_score(counts, ranks)
        if score > best_score:
            best_ranks, best_score = ranks, score
    return best_ranks, ranking_winners(best_ranks, election.num_winners), best_score


def plain_winners(election: PlainElection) -> list[int]:
    if election.rule == "copeland":
        return plain_copeland(election)[0]
    if election.rule == "maximin":
        return plain_maximin(election)[0]
    if election.rule == "kemeny":
        return plain_kemeny(election)[1]
    raise InvalidRanking(f"unknown rule {election.rule!r}")


# -- ideal functionalities of the MPC primitives -------------------------------

def plain_primitive(kind: str, inputs: Sequence[int], p: int) -> int:
    """The plaintext function each MPC primitive must agree with when opened.

    Signed kinds interpret canonical representatives above p/2 as negatives,
    matching the v mod p embedding of values in [-N, N].
    """
    if kind == "lsb":
        (x,) = inputs
        return (x % p) & 1
    if kind == "compare":
        a, b = inputs
        return 1 if (a % p) < (b % p) else 0
    if kind == "is_positive":
        (x,) = inputs
        x %= p
        signed = x - p if x > p // 2 else x
        return 1 if signed > 0 else 0
    if kind == "add":
        a, b = inputs
        return (a + b) % p
    if kind == "mul":
        a, b = inputs
        return (a * b) % p
    raise ValueError(f"unknown primitive {kind!r}")


def legal_ballot_matrix(rule: str, entries: np.ndarray) -> bool:
    """Plaintext check of the conditions characterizing legal ballot matrices."""
    m = entries.shape[0]
    if np.any(np.diag(entries) != 0):
        return False
    if rule == "copeland":
        for a in range(m):
            for b in range(a + 1, m):
                if entries[a, b] not in (-1, 1) or entries[a, b] + entries[b, a] != 0:
                    return False
        sums = entries.sum(axis=0)
        return len(set(sums.tolist())) == m
    if rule == "maximin":
        for a in range(m):
            for b in range(a + 1, m):
                if entries[a, b] not in (0, 1) or entries[a, b] + entries[b, a] != 1:
                    return False
        sums = entries.sum(axis=0)
        return len(set(sums.tolist())) == m
    if rule == "kemeny":
        for a in range(m):
            for b in range(m):
                if a != b and entries[a, b] not in (0, 1):
                    return False
        for a in range(m):
            for b in range(a + 1, m):
                if entries[a, b] + entries[b, a] not in (0, 1):
                    return False
        return True
    raise ValueError(f"unknown rule {rule!r}")
