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

Every comparison is ``compare_bounded``, one LSB extraction each: the field
bounds (``config.check_field_bounds`` over the accepted ballots) keep every
compared difference below p/2.
``lsb_extractions`` gives a tally's exact extraction count, so its LSB masks
can all be prepared in one batch before the ballots are validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .ballots import Spool, entry_pairs, upper_pairs
from .config import check_field_bounds, check_kemeny_size, rank_vectors, ranking_winners
from .engine import WINDOW, PartyContext, Shares


class RuleMismatch(Exception):
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


def lsb_extractions(rule: str, m: int, k: int) -> int:
    """LSB extractions of scoring and electing K of M candidates under
    ``rule``: M(M-1) positivity bits for copeland scoring and M(M-2)
    comparisons for maximin scoring, plus K(M-(K+1)/2) comparisons of top-K;
    M!-1 comparisons for kemeny."""
    if rule == "kemeny":
        check_kemeny_size(m)
        return math.factorial(m) - 1
    scoring = m * (m - 1) if rule == "copeland" else max(m * (m - 2), 0)
    return scoring + k * m - k * (k + 1) // 2


def phase_rounds(rule: str, m: int, k: int, ell: int,
                 open_scores: bool = False) -> dict[str, int]:
    """Communication rounds per phase of a tally of legal ballots, at a
    prime of ``ell`` >= 3 bits.  An LSB extraction
    opens x + r and runs t = ceil(log2 ceil(ell/4)) carry-tree levels over
    the 4-bit windows of r (``engine.WINDOW``); a min or argmax level adds
    its select; L(n) = ceil(log2 n).

    * offline, when the tally extracts at all: a deal round, the random bits
      (a square and its opening), the two layers of products within windows
      and the r < p check (t levels and an opening), 3 + (2 + t + 1);
    * validate: the roster round, then, when a ballot shares any entry, a
      deal round, the degree check, the product layers (M(M-1)/2, or one for
      kemeny) and their opening;
    * score: 1 + t for copeland, L(M-1)(t + 2) for maximin;
    * select: L(n)(t + 2) + 1 per argmax over n entries and the opening of
      its winner; 1 more for ``open_scores`` (copeland and maximin).

    The offline batch draws spare masks for those that fail their checks
    (``engine.spare_masks``), so the model is exact at every p but for a
    shortfall, below 2**-40 a tally."""
    def levels(n: int) -> int:
        return max(n - 1, 0).bit_length()

    t = levels(-(-ell // WINDOW))

    pairs = len(upper_pairs(m))
    products = (1 if rule == "kemeny" else pairs) if pairs else 0
    rounds = {"offline": 3 + (2 + t + 1) if lsb_extractions(rule, m, k) else 0,
              "validate": 1 + (3 + products if pairs else 0),
              "aggregate": 0}
    if rule == "kemeny":
        rounds["select"] = levels(math.factorial(m)) * (t + 2) + 1
        return rounds
    rounds["score"] = (1 + t if pairs else 0) if rule == "copeland" \
        else levels(m - 1) * (t + 2)
    rounds["select"] = sum(levels(m - j + 1) * (t + 2) + 1 for j in range(1, k + 1)) \
        + int(open_scores)
    return rounds


def aggregate(ctx: PartyContext, spool: Spool, rule: str, m: int) -> AggregatedShares:
    """Sum this party's shares over every row of the spool, the accepted
    ballots; no communication."""
    if (spool.rule, spool.m) != (rule, m):
        raise RuleMismatch(f"a {spool.rule} M={spool.m} spool belongs to a different session")
    if spool.malformed.any():
        voter = int(spool.ids[spool.malformed.argmax()])
        raise RuleMismatch(f"ballot of voter {voter} does not fit the session")
    total = ctx.field.sum_vec(spool.shares, axis=0)  # canonical shares: no overflow
    return AggregatedShares(rule, m, len(spool), Shares(ctx.field, ctx.threshold, total))


def copeland_scores(ctx: PartyContext, agg: AggregatedShares,
                    alpha: tuple[int, int] = (1, 2)) -> Shares:
    """Shares of the rescaled scores t*w(m), m = 1..M.

    One batched LSB extraction covers all positivity bits (both signs of every
    upper entry).  Entries lie in [-N, N] with p > 2N, so exactly one of
    P > 0, -P > 0 and P = 0 holds and the zero bit is 1 - sigma_+ - sigma_-.
    """
    check_field_bounds(ctx.field.p, agg.rule, agg.m, agg.ballots, alpha)
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
    check_field_bounds(ctx.field.p, agg.rule, agg.m, agg.ballots, None)
    m = agg.m
    if m == 1:
        return ctx.constant(np.zeros(1, dtype=np.uint64))
    pos = {pair: i for i, pair in enumerate(upper_pairs(m))}
    ordered = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if b != a]
    lower = np.array([a > b for a, b in ordered])  # P(a,b) = N_acc - P(b,a)
    support = agg.entries[[pos[min(a, b), max(a, b)] for a, b in ordered]]
    support = support * np.where(lower, -1, 1) + np.where(lower, agg.ballots, 0)
    return _fold_columns(ctx, support.reshape(m, m - 1),
                         lambda left, right: ctx.compare_bounded(right, left))[:, 0]


def _fold_columns(ctx: PartyContext, rows: Shares, right_wins) -> Shares:
    """Tournament tree over the columns of an (r, n) sharing, ceil(log2 n) levels:
    each level pairs adjacent columns (lower index left) and keeps the right one
    where the batched bit ``right_wins(left, right)`` is 1; an odd one passes."""
    while rows.values.shape[1] > 1:
        n = rows.values.shape[1] // 2 * 2
        left, right = rows[:, 0:n:2], rows[:, 1:n:2]
        ctx.expect(doubles=left.size)  # the select rides on the comparison's opening
        kept = ctx.select(right_wins(left, right), left, right)
        rows = Shares(ctx.field, ctx.threshold,
                      np.concatenate([kept.values, rows.values[:, n:]], axis=1))
    return rows


def _argmax(ctx: PartyContext, scores: Shares, labels: Shares) -> Shares:
    """Shares of the label of the leftmost maximum score: n-1 comparisons in
    ceil(log2 n) levels.  The strict comparison keeps the left entry on a
    tie, so the lowest index wins."""
    def right_wins(left: Shares, right: Shares) -> Shares:
        bit = ctx.compare_bounded(left[0], right[0])  # 1 iff the right score is larger
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
    check_kemeny_size(m)
    check_field_bounds(ctx.field.p, agg.rule, agg.m, agg.ballots, None)
    pairs = entry_pairs("kemeny", m)
    rankings = list(rank_vectors(m))
    coef = np.array([[ranks[a - 1] < ranks[b - 1] for a, b in pairs] for ranks in rankings],
                    dtype=np.uint64)  # ranking r agrees with entry P(a,b)
    scores = Shares(ctx.field, ctx.threshold,
                    (coef @ agg.entries.values) % np.uint64(ctx.field.p))
    best = _argmax(ctx, scores, ctx.constant(np.arange(len(rankings))))
    ranking = rankings[int(ctx.open(best, "winner_index")[0])]
    return ranking_winners(ranking, k), ranking
