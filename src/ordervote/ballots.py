"""Voter-side ballot construction and share generation.

A ballot is an M x M pairwise-preference matrix.  Candidates and parties are
indexed 1-based throughout (matching the protocol's evaluation points), and a
matrix entry (m, m') says how the voter ordered candidates m and m':

* copeland: +1 above, -1 below, 0 on the diagonal; the matrix is antisymmetric.
* maximin:  1 if m is ranked strictly higher than m', else 0.
* kemeny:   rankings may contain ties; 1 iff strictly higher, so tied pairs
  have 0 in both orientations.

For copeland/maximin only the upper triangle is shared (the rest follows from
antisymmetry); kemeny shares every off-diagonal entry because ties break the
symmetry.  Each shared entry gets its own fresh share-generating polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import PrimeField
from .shamir import share_batch

RULES = ("copeland", "maximin", "kemeny")


class InvalidRanking(Exception):
    pass


class WrongRule(Exception):
    pass


class ConfigMismatch(Exception):
    pass


@dataclass(frozen=True)
class BallotMatrix:
    rule: str
    m: int
    entries: np.ndarray  # (m, m) signed ints

    def entry(self, row: int, col: int) -> int:
        return int(self.entries[row - 1, col - 1])


def check_order(order, m: int) -> tuple[int, ...]:
    order = tuple(int(c) for c in order)
    if sorted(order) != list(range(1, m + 1)):
        raise InvalidRanking(f"order {order} is not a permutation of 1..{m}")
    return order


def check_ranks(ranks, m: int) -> tuple[int, ...]:
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != m or any(not 1 <= r <= m for r in ranks):
        raise InvalidRanking(f"ranks {ranks} must be {m} values in 1..{m}")
    return ranks


def ranking_to_matrix(rule: str, ranking, m: int) -> BallotMatrix:
    """Build the ballot matrix a ranking induces under the given rule."""
    if rule not in RULES:
        raise WrongRule(f"unknown rule {rule!r}")
    q = np.zeros((m, m), dtype=np.int64)
    if rule == "kemeny":
        ranks = check_ranks(ranking, m)
        for a in range(m):
            for b in range(m):
                if a != b and ranks[a] < ranks[b]:
                    q[a, b] = 1
        return BallotMatrix(rule, m, q)
    order = check_order(ranking, m)
    position = {c: i for i, c in enumerate(order)}
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            if a == b:
                continue
            higher = position[a] < position[b]
            if rule == "copeland":
                q[a - 1, b - 1] = 1 if higher else -1
            else:
                q[a - 1, b - 1] = 1 if higher else 0
    return BallotMatrix(rule, m, q)


def upper_pairs(m: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]


def off_diagonal_pairs(m: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a != b]


def entry_pairs(rule: str, m: int) -> list[tuple[int, int]]:
    """The index pairs a ballot shares, in the canonical (row-major) order."""
    return off_diagonal_pairs(m) if rule == "kemeny" else upper_pairs(m)


def project_upper(q: BallotMatrix) -> list[tuple[int, int, int]]:
    """Upper-triangle projection; with the zero diagonal and antisymmetry it
    determines the whole copeland/maximin matrix."""
    if q.rule == "kemeny":
        raise WrongRule("kemeny ballots share all off-diagonal entries, not a triangle")
    return [(a, b, q.entry(a, b)) for a, b in upper_pairs(q.m)]


@dataclass(frozen=True)
class TallierBundle:
    """What one tallier receives from one voter: its share of every shared entry."""

    voter_id: int
    rule: str
    m: int
    values: np.ndarray  # aligned with entry_pairs(rule, m)


@dataclass(frozen=True)
class SharedBallot:
    voter_id: int
    rule: str
    m: int
    bundles: np.ndarray  # (D, k); row d-1 goes to tallier d

    def bundle_for(self, party: int) -> TallierBundle:
        return TallierBundle(self.voter_id, self.rule, self.m, self.bundles[party - 1])


def matrix_entry_values(q: BallotMatrix, field: PrimeField) -> np.ndarray:
    """Shared entries of the matrix in canonical order, negatives embedded mod p."""
    vals = [q.entry(a, b) % field.p for a, b in entry_pairs(q.rule, q.m)]
    return np.array(vals, dtype=np.uint64)


def share_ballot(q: BallotMatrix, field: PrimeField, threshold: int, parties: int,
                 rng: np.random.Generator, voter_id: int) -> SharedBallot:
    """Independently share each matrix entry; bundle d holds the evaluations at x=d."""
    if q.m < 1:
        raise ConfigMismatch("need at least one candidate")
    values = matrix_entry_values(q, field)
    if len(values) == 0:
        bundles = np.zeros((parties, 0), dtype=np.uint64)
    else:
        bundles = share_batch(field, values, threshold, parties, rng)
    return SharedBallot(voter_id, q.rule, q.m, bundles)


# -- wire encoding of a submission ------------------------------------------
# payload = [voter_id, share_1, ..., share_C] in entry_pairs order; the session
# fixes the rule and M, and validation rejects a bundle of the wrong length.

def encode_bundle(bundle: TallierBundle) -> np.ndarray:
    return np.concatenate([np.array([bundle.voter_id], dtype=np.uint64),
                           np.asarray(bundle.values, dtype=np.uint64)])


def decode_bundle(payload: np.ndarray, rule: str, m: int) -> TallierBundle:
    return TallierBundle(int(payload[0]), rule, m, payload[1:])


# -- CLI ballot input -----------------------------------------------------------

def parse_order(text: str, name_to_index: dict[str, int]) -> tuple[int, ...]:
    """Comma-separated candidate names, most preferred first."""
    names = [t.strip() for t in text.split(",") if t.strip()]
    unknown = [n for n in names if n not in name_to_index]
    if unknown:
        raise InvalidRanking(f"unknown candidates: {', '.join(unknown)}")
    order = tuple(name_to_index[n] for n in names)
    check_order(order, len(name_to_index))
    return order


def parse_ranks(text: str, name_to_index: dict[str, int]) -> tuple[int, ...]:
    """name=rank pairs, e.g. ``A=3,B=2,C=1,D=3``; ties allowed."""
    ranks = [0] * len(name_to_index)
    seen = set()
    for item in (t.strip() for t in text.split(",") if t.strip()):
        if "=" not in item:
            raise InvalidRanking(f"expected name=rank, got {item!r}")
        name, _, rank = item.partition("=")
        name = name.strip()
        if name not in name_to_index:
            raise InvalidRanking(f"unknown candidate {name!r}")
        if name in seen:
            raise InvalidRanking(f"candidate {name!r} ranked twice")
        seen.add(name)
        try:
            ranks[name_to_index[name] - 1] = int(rank)
        except ValueError:
            raise InvalidRanking(f"rank for {name!r} is not an integer")
    if len(seen) != len(name_to_index):
        missing = set(name_to_index) - seen
        raise InvalidRanking(f"missing ranks for: {', '.join(sorted(missing))}")
    return check_ranks(ranks, len(name_to_index))
