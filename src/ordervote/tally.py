"""Aggregation of validated ballots and MPC winner determination.

Aggregation is pure local share addition.  Scoring touches the network only
through the comparison and positivity primitives:

* copeland: one batched LSB extraction gives the positivity bits of P(m,m')
  and -P(m,m') for every upper-triangle entry; the zero bit is 1 minus both,
  and the rescaled score t*w(m) is a local linear combination of the bits.
* maximin: below-diagonal entries follow from the public accepted-ballot
  count (P(m',m) = N_acc - P(m,m')); each candidate's minimum over its M-1
  opponents is a pairwise min-tree, ceil(log2(M-1)) batched comparisons deep
  and M(M-2) comparisons overall.
* kemeny: all M! ranking scores are local linear combinations of the
  aggregated entries; an argmax tree over them opens only the winner's row.

Winner selection runs an argmax tree (n-1 comparisons in ceil(log2 n)
batched levels) per elected candidate and opens only candidate identities;
scores stay secret unless the operator explicitly asks for them.  A strict
comparison keeps the left entry of each pair on a tie, so the lowest index
(or first-enumerated ranking) wins, the tie policy of ``config``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .ballots import TallierBundle, entry_pairs, upper_pairs
from .config import FieldTooSmall, kemeny_score_bound, rank_vectors, ranking_winners
from .engine import PartyContext, Shares

KEMENY_MAX_CANDIDATES = 6


class RuleMismatch(Exception):
    pass


class TooManyCandidates(Exception):
    pass


@dataclass
class AggregatedShares:
    """This party's shares of the aggregated ballot matrix entries."""

    rule: str
    m: int
    ballots: int  # accepted-ballot count N_acc (public)
    entries: Shares  # aligned with entry_pairs(rule, m)


@dataclass
class TallyResult:
    rule: str
    winners: list[int]  # 1-based candidate indices in elected order
    winner_names: list[str] = dataclass_field(default_factory=list)
    kemeny_ranking: tuple[int, ...] | None = None
    opened_scores: list[int] | None = None
    counters: dict = dataclass_field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "rule": self.rule,
            "winners": list(self.winners),
            "winner_names": list(self.winner_names),
            "counters": dict(self.counters),
        }
        if self.kemeny_ranking is not None:
            out["kemeny_ranking"] = list(self.kemeny_ranking)
        if self.opened_scores is not None:
            out["opened_scores"] = list(self.opened_scores)
        return out


def aggregate(ctx: PartyContext, bundles: list[TallierBundle], rule: str,
              m: int) -> AggregatedShares:
    """Sum this party's shares over all accepted ballots; no communication."""
    k = len(entry_pairs(rule, m))
    for b in bundles:
        if b.rule != rule or b.m != m:
            raise RuleMismatch(f"ballot of voter {b.voter_id} belongs to a different session")
    if bundles:
        stacked = np.stack([np.asarray(b.values, dtype=np.uint64) for b in bundles])
        stacked %= np.uint64(ctx.field.p)  # a share >= p would overflow the sum
        total = ctx.field.sum_vec(stacked, axis=0)
    else:
        total = np.zeros(k, dtype=np.uint64)
    return AggregatedShares(rule, m, len(bundles),
                            Shares(ctx.field, ctx.threshold, total))


def _check_field_bounds(ctx: PartyContext, agg: AggregatedShares,
                        alpha: tuple[int, int] | None) -> None:
    p = ctx.field.p
    if p <= 2 * agg.ballots:
        raise FieldTooSmall(f"p = {p} must exceed 2N = {2 * agg.ballots}")
    if alpha is not None:
        s, t = alpha
        if p <= max(s, t) * (agg.m - 1):
            raise FieldTooSmall(f"p = {p} must exceed max(s,t)(M-1)")
    if agg.rule == "kemeny" and p <= kemeny_score_bound(agg.ballots, agg.m):
        raise FieldTooSmall(f"p = {p} must exceed the largest ranking score N*M(M-1)/2")


def copeland_scores(ctx: PartyContext, agg: AggregatedShares,
                    alpha: tuple[int, int] = (1, 2)) -> Shares:
    """Shares of the rescaled scores t*w(m), m = 1..M.

    One batched LSB extraction covers all positivity bits (both signs of every
    upper entry).  Entries lie in [-N, N] with p > 2N, so exactly one of
    P > 0, -P > 0 and P = 0 holds and the zero bit is 1 - sigma_+ - sigma_-.
    """
    _check_field_bounds(ctx, agg, alpha)
    s, t = alpha
    m = agg.m
    pairs = upper_pairs(m)
    c = len(pairs)
    entries = agg.entries
    if c == 0:
        return ctx.constant(np.zeros(m, dtype=np.uint64))
    both_signs = Shares.concat([entries, -entries])
    pos = ctx.is_positive(both_signs)
    sigma_pos, sigma_neg = pos[:c], pos[c:]
    sigma_zero = 1 - sigma_pos - sigma_neg

    score = [ctx.constant(0) for _ in range(m)]
    for i, (a, b) in enumerate(pairs):  # a win earns t, a tie earns s
        score[a - 1] = score[a - 1] + t * sigma_pos[i] + s * sigma_zero[i]
        score[b - 1] = score[b - 1] + t * sigma_neg[i] + s * sigma_zero[i]
    return Shares.concat(score)


def maximin_scores(ctx: PartyContext, agg: AggregatedShares) -> Shares:
    """Shares of w(m) = min over opponents of the supporting-voter counts.

    A min-tree over the M-1 opponent columns; all M candidates advance in
    lockstep, ceil(log2(M-1)) batched levels and M(M-2) comparisons overall.
    """
    _check_field_bounds(ctx, agg, None)
    m = agg.m
    if m == 1:
        return ctx.constant(np.zeros(1, dtype=np.uint64))
    pos = {pair: i for i, pair in enumerate(upper_pairs(m))}
    ordered = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if b != a]
    lower = np.array([a > b for a, b in ordered])  # P(a,b) = N_acc - P(b,a)
    support = agg.entries[[pos[min(a, b), max(a, b)] for a, b in ordered]]
    support = support * np.where(lower, -1, 1) + np.where(lower, agg.ballots, 0)
    return _fold_columns(ctx, support.reshape(m, m - 1),
                         lambda left, right: ctx.compare(right, left))[:, 0]


def _fold_columns(ctx: PartyContext, rows: Shares, right_wins) -> Shares:
    """Tournament tree over the columns of an (r, n) sharing, ceil(log2 n) levels:
    each level pairs adjacent columns (lower index left) and keeps the right one
    where the batched bit ``right_wins(left, right)`` is 1; an odd one passes."""
    while rows.values.shape[1] > 1:
        n = rows.values.shape[1] // 2 * 2
        left, right = rows[:, 0:n:2], rows[:, 1:n:2]
        kept = ctx.select(right_wins(left, right), left, right)
        rows = Shares(ctx.field, ctx.threshold,
                      np.concatenate([kept.values, rows.values[:, n:]], axis=1))
    return rows


def _argmax(ctx: PartyContext, scores: Shares, labels: Shares) -> Shares:
    """Shares of the label of the leftmost maximum score: n-1 comparisons in
    ceil(log2 n) levels.  The strict comparison keeps the left entry on a
    tie, so the lowest index wins."""
    def right_wins(left: Shares, right: Shares) -> Shares:
        bit = ctx.compare(left[0], right[0])  # 1 iff the right score is larger
        return Shares(ctx.field, ctx.threshold, np.tile(bit.values, (2, 1)))

    rows = Shares(ctx.field, ctx.threshold, np.stack([scores.values, labels.values]))
    return _fold_columns(ctx, rows, right_wins)[1, 0]


def top_k(ctx: PartyContext, scores: Shares, k: int) -> list[int]:
    """Elect K candidates, one argmax tree over the remaining pool per stage.

    The pool stays in ascending candidate order, so ties go to the lowest
    index.  Stage k runs M-k comparisons in ceil(log2(M-k+1)) levels; the
    winner's index (never its score) is opened and leaves the pool.
    """
    pool = list(range(1, scores.size + 1))
    winners: list[int] = []
    for _ in range(k):
        best = _argmax(ctx, scores[[c - 1 for c in pool]], ctx.constant(pool))
        winner = int(ctx.open(best, "winner_index")[0])
        winners.append(winner)
        pool.remove(winner)
    return winners


def kemeny_winners(ctx: PartyContext, agg: AggregatedShares,
                   k: int) -> tuple[list[int], tuple[int, ...]]:
    """Best ranking by pairwise agreement; returns its top-K candidates.

    Scores for all M! rankings are local linear combinations of the aggregated
    entries; the argmax tree costs M!-1 comparisons in ceil(log2 M!) levels
    and opens only the winning ranking's identity.
    """
    m = agg.m
    if m > KEMENY_MAX_CANDIDATES:
        raise TooManyCandidates(
            f"kemeny enumerates M! rankings; M = {m} exceeds the guard "
            f"({KEMENY_MAX_CANDIDATES})")
    _check_field_bounds(ctx, agg, None)
    pairs = entry_pairs("kemeny", m)
    rankings = list(rank_vectors(m))
    coef = np.array([[ranks[a - 1] < ranks[b - 1] for a, b in pairs] for ranks in rankings],
                    dtype=np.uint64)  # ranking r agrees with entry P(a,b)
    scores = Shares(ctx.field, ctx.threshold,
                    (coef @ agg.entries.values) % np.uint64(ctx.field.p))
    best = _argmax(ctx, scores, ctx.constant(np.arange(len(rankings))))
    ranking = rankings[int(ctx.open(best, "winner_index")[0])]
    return ranking_winners(ranking, k), ranking
