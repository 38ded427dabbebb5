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

The voter side has one path, batched: ``share_rankings`` checks a batch of
rankings at once, builds their (N, C) entries by indexing, and deals them
in one ``share_batch`` call, voter i drawing its shares at the points
1..D'-1 from stream i of one Philox key (``field.PrimeField.draw_batch``).
``ranking_to_matrix`` and ``share_ballot``, which deals one ballot from
one generator, are its one-ballot case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


def _keys(rule: str, rankings, m: int) -> np.ndarray:
    """The (N, m) preference keys of N rankings, a lower key ranked higher:
    a kemeny ranking's ranks, or each candidate's position in an order, in
    the smallest unsigned dtype.  Every ranking is checked at once; the
    first one that is not a permutation of 1..m (kemeny: m ranks in 1..m)
    raises InvalidRanking, with ``check_order``'s or ``check_ranks``'
    message."""
    if rule not in RULES:
        raise WrongRule(f"unknown rule {rule!r}")
    if not isinstance(rankings, np.ndarray):
        rankings = list(rankings)
    if len(rankings) == 0:
        return np.zeros((0, m), dtype=np.min_scalar_type(m))
    try:
        table = np.array(rankings, dtype=np.int64)
    except (ValueError, TypeError, OverflowError):  # ragged, or not integers
        table = None
    if table is not None and table.shape == (len(rankings), m):
        if rule == "kemeny":
            ok = ((table >= 1) & (table <= m)).all(axis=1)
        else:
            ok = (np.sort(table, axis=1) == np.arange(1, m + 1)).all(axis=1)
        if ok.all():
            keys = table if rule == "kemeny" else np.argsort(table, axis=1)
            return keys.astype(np.min_scalar_type(m))
    check = check_ranks if rule == "kemeny" else check_order
    for ranking in rankings:
        check(ranking, m)
    raise InvalidRanking(f"rankings must each hold {m} integers")


def _entries(rule: str, keys: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entry (rows[j], cols[j]) of each ballot matrix, as an (N, len(rows))
    int8 array: 1 where the row candidate is ranked strictly higher; -1
    where it is lower under copeland, else 0."""
    first, second = keys[:, rows], keys[:, cols]
    entries = (first < second).astype(np.int8)
    if rule == "copeland":
        entries -= first > second
    return entries


def ranking_to_matrix(rule: str, ranking, m: int) -> BallotMatrix:
    """Build the ballot matrix a ranking induces under the given rule."""
    entries = _entries(rule, _keys(rule, [ranking], m), *np.divmod(np.arange(m * m), m))
    return BallotMatrix(rule, m, entries.reshape(m, m).astype(np.int64))


def upper_pairs(m: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]


def off_diagonal_pairs(m: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a != b]


def entry_pairs(rule: str, m: int) -> list[tuple[int, int]]:
    """The index pairs a ballot shares, in the canonical (row-major) order."""
    return off_diagonal_pairs(m) if rule == "kemeny" else upper_pairs(m)


@lru_cache(maxsize=None)
def _pair_index(rule: str, m: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based rows and columns of ``entry_pairs(rule, m)``."""
    pairs = np.array(entry_pairs(rule, m), dtype=np.intp).reshape(-1, 2) - 1
    rows, cols = pairs[:, 0].copy(), pairs[:, 1].copy()
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


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


@dataclass(frozen=True)
class Spool:
    """One tallier's ballots of a (rule, M) session, held as columns.

    Row i holds voter ``ids[i]``'s shares of the C entries of
    ``entry_pairs(rule, m)``, reduced mod p.  A row whose submission does
    not fit the session (another rule or M, a wrong length, or a value that
    is no 64-bit word) is ``malformed`` and holds zeros; the talliers'
    roster round (``session._agree_roster``) rejects its voter at every
    tallier.  Indexing a spool with a slice, an index array or a mask gives
    the spool of those rows.
    """

    rule: str
    m: int
    ids: np.ndarray  # (N,) uint64
    shares: np.ndarray  # (N, C) uint64, each < p
    malformed: np.ndarray  # (N,) bool

    def __len__(self) -> int:
        return self.ids.size

    def __getitem__(self, rows) -> Spool:
        return Spool(self.rule, self.m, self.ids[rows], self.shares[rows], self.malformed[rows])

    @classmethod
    def build(cls, rule: str, m: int, p: int, ids, rows: list) -> Spool:
        """The spool of ``ids``, with ``rows[i]`` voter ``ids[i]``'s shares,
        or None when the submission is malformed; a row of the wrong length
        is malformed too."""
        width = len(entry_pairs(rule, m))
        ok = np.fromiter((r is not None and len(r) == width for r in rows), bool, len(rows))
        if ok.all():
            shares = np.array(rows, dtype=np.uint64).reshape(len(rows), width)
        else:
            shares = np.zeros((len(rows), width), dtype=np.uint64)
            if ok.any():
                shares[ok] = np.array([r for r, good in zip(rows, ok) if good], dtype=np.uint64)
        shares %= np.uint64(p)
        return cls(rule, m, np.array(ids, dtype=np.uint64).reshape(-1), shares, ~ok)

    @classmethod
    def from_bundles(cls, bundles: list[TallierBundle], rule: str, m: int, p: int) -> Spool:
        """One tallier's bundles, in their order; a bundle of another rule or
        M is malformed."""
        return cls.build(rule, m, p, [b.voter_id for b in bundles],
                         [b.values if (b.rule, b.m) == (rule, m) else None for b in bundles])

    @classmethod
    def from_ballots(cls, ballots: list[SharedBallot], rule: str, m: int, p: int,
                     parties: int) -> dict[int, Spool]:
        """Every tallier's spool of the shared ballots, split for all talliers
        at once: party d's shares form row d-1 of one (D, N, C) block, so each
        spool is a contiguous view of it.  A ballot of another rule, M or
        shape is malformed."""
        width = len(entry_pairs(rule, m))
        shape = (parties, width)
        n = len(ballots)
        ok = np.fromiter((b.rule == rule and b.m == m and b.bundles.shape == shape
                          for b in ballots), bool, n)
        good = [b.bundles for b, fits in zip(ballots, ok.tolist()) if fits]
        block = np.concatenate(good, axis=1).astype(np.uint64, copy=False) if good \
            else np.zeros((parties, 0), dtype=np.uint64)
        block = block.reshape(parties, len(good), width)
        if not ok.all():
            full = np.zeros((parties, n, width), dtype=np.uint64)
            full[:, ok] = block
            block = full
        block %= np.uint64(p)
        ids = np.fromiter((b.voter_id for b in ballots), np.uint64, n)
        return {d: cls(rule, m, ids, block[d - 1], ~ok) for d in range(1, parties + 1)}

    def rows(self, ids) -> np.ndarray:
        """The row that holds each of ``ids``, -1 where none does (for an id
        held twice, its first row)."""
        ids = np.asarray(ids, dtype=np.uint64)
        if not len(self):
            return np.full(ids.size, -1)
        order = np.argsort(self.ids, kind="stable")
        rows = order[np.minimum(np.searchsorted(self.ids[order], ids), order.size - 1)]
        return np.where(self.ids[rows] == ids, rows, -1)


def _embed(entries: np.ndarray, field: PrimeField) -> np.ndarray:
    """Signed entries as canonical field elements, negatives mod p."""
    return np.mod(entries, field.p, dtype=np.int64).view(np.uint64)


def matrix_entry_values(q: BallotMatrix, field: PrimeField) -> np.ndarray:
    """Shared entries of the matrix in canonical order, negatives embedded mod p."""
    return _embed(np.asarray(q.entries)[_pair_index(q.rule, q.m)], field)


def _deal(m: int, values: np.ndarray, field: PrimeField, threshold: int, parties: int,
          rng) -> np.ndarray:
    """``shamir.share_batch`` of ``values``: one voter's (D, C) shares from
    the generator ``rng``, or a batch's (N, D, C) block from the Philox
    streams ``rng`` = (key, ids) name."""
    if m < 1:
        raise ConfigMismatch("need at least one candidate")
    return share_batch(field, values, threshold, parties, rng)


def share_rankings(rule: str, rankings, m: int, field: PrimeField, threshold: int,
                   parties: int, voter_key: int) -> list[SharedBallot]:
    """Build and share the ballots of a batch of rankings in one pass: voter
    i, numbered from 1, shares the i-th ranking from stream i of the Philox
    key ``voter_key``, exactly as ``share_ballot`` would alone from
    ``stream_rng(voter_key, i)`` (see ``field``); its bundles are a (D, C)
    slice of one (N, D, C) block.  Every ranking is checked before any is
    shared."""
    keys = _keys(rule, rankings, m)
    values = _embed(_entries(rule, keys, *_pair_index(rule, m)), field)
    ids = np.arange(1, len(values) + 1, dtype=np.uint64)
    block = _deal(m, values, field, threshold, parties, (voter_key, ids))
    return [SharedBallot(voter, rule, m, bundles) for voter, bundles in enumerate(block, 1)]


def share_ballot(q: BallotMatrix, field: PrimeField, threshold: int, parties: int,
                 rng: np.random.Generator, voter_id: int) -> SharedBallot:
    """Independently share each matrix entry; bundle d holds the evaluations at x=d."""
    bundles = _deal(q.m, matrix_entry_values(q, field), field, threshold, parties, rng)
    return SharedBallot(voter_id, q.rule, q.m, bundles)


# -- wire encoding of a submission ------------------------------------------
# payload = [voter_id, share_1, ..., share_C] in entry_pairs order; the session
# fixes the rule and M, and validation rejects a bundle of the wrong length.

def encode_bundle(bundle: TallierBundle) -> np.ndarray:
    return np.concatenate([np.array([bundle.voter_id], dtype=np.uint64),
                           np.asarray(bundle.values, dtype=np.uint64)])


def decode_spool(payloads: list[np.ndarray], rule: str, m: int, p: int) -> Spool:
    """The spool of submission payloads (``encode_bundle``), ordered by
    voter id; the transport refuses a payload without a voter id."""
    spool = Spool.build(rule, m, p, [pl[0] for pl in payloads], [pl[1:] for pl in payloads])
    return spool[np.argsort(spool.ids, kind="stable")]


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
