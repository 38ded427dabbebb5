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

Every comparison is the positivity of an affine margin, one LSB extraction
each: the field bounds (``config.check_field_bounds`` over the accepted
ballots) keep every compared difference below p/2.  In a min or argmax
tree each level's select opens the next level's masked margin, and the
argmax root's select its winner, in the select's own round
(``PartyContext.mul`` with ``then``), so a level costs the carry tree and
one round.  Top-K's first masked margin rides the scores' last layer in
the same way (``select_ahead``): Copeland's last carry level and Maximin's
min-tree root select.
``lsb_extractions`` gives a tally's exact extraction count, so its LSB masks
can all be prepared in one batch, which rides validation's rounds
(``PartyContext.prepare_masks``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

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
    M!-1 comparisons for kemeny.  A tally starts preparing exactly this many
    masks before its roster round (``session.tallier_program``)."""
    if rule == "kemeny":
        check_kemeny_size(m)
        return math.factorial(m) - 1
    scoring = m * (m - 1) if rule == "copeland" else max(m * (m - 2), 0)
    return scoring + k * m - k * (k + 1) // 2


def phase_rounds(rule: str, m: int, k: int, ell: int) -> dict[str, int]:
    """Communication rounds per phase of a tally of legal ballots, at a
    prime of ``ell`` >= 3 bits.  An LSB extraction opens x + r and runs
    t = ceil(log2 ceil(ell/4)) carry-tree levels over the 4-bit windows of r
    (``engine.WINDOW``).  A min or argmax level ends in its select, which
    opens the next level's x + r, or the argmax's winner, in the same round
    (``PartyContext.mul`` with ``then``); L(n) = ceil(log2 n).

    * validate: the roster round, then, when a ballot shares any entry, a
      deal round, the degree check and the product layers (M(M-1)/2, or one
      for kemeny), the last of which opens what is left to open: V rounds;
    * offline, the rounds in which the mask stream runs alone: it has
      S = 4 + t layers when the tally extracts at all (a deal, the random
      bits, whose squares open on their own layer, the two layers of
      products within windows and the r < p check, t levels whose last
      opens the check; 5 at t = 0, where the check's opening has a round of
      its own) and rides the V - 1 validate rounds from the deal round on,
      so it runs alone for max(0, S - (V - 1));
    * score: 1 + t for copeland; for maximin, 1 + L(M-1)(t + 1), or 0 when
      M = 1.  When M >= 2 the scores' last layer also opens top-K's first
      x + r, so copeland at t = 0 and maximin at M = 2, which have no such
      layer, spend a round of their own on it;
    * select: 1 + L(n)(t + 1) per argmax over n entries, its first opening
      and its levels, less top-K's first opening when M >= 2; the winner is
      opened on the last select, or alone when n = 1.  Opened scores cost
      no round: they ride on the last winner's opening (``top_k``).

    The mask batch draws spare masks for those that fail their checks
    (``engine.spare_masks``), so the model is exact at every p but for a
    shortfall, below 2**-40 a tally."""
    def levels(n: int) -> int:
        return max(n - 1, 0).bit_length()

    t = levels(-(-ell // WINDOW))

    pairs = len(upper_pairs(m))
    products = (1 if rule == "kemeny" else pairs) if pairs else 0
    validate = 1 + (2 + products if pairs else 0)
    stream = 4 + max(t, 1) if lsb_extractions(rule, m, k) else 0
    rounds = {"validate": validate, "offline": max(stream - (validate - 1), 0),
              "aggregate": 0}
    if rule == "kemeny":
        rounds["select"] = levels(math.factorial(m)) * (t + 1) + 1
        return rounds
    ride = m >= 2  # top-K's first opening moves to the scores' last layer
    rounds["score"] = (1 + max(t, 1) if pairs else 0) if rule == "copeland" \
        else (1 + levels(m - 1) * (t + 1) if m > 1 else 0)
    rounds["select"] = sum(levels(m - j + 1) * (t + 1) + 1 for j in range(1, k + 1)) - ride
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
                    alpha: tuple[int, int] = (1, 2),
                    then: Callable[[Shares], Shares] | None = None
                    ) -> Shares | tuple[Shares, np.ndarray]:
    """Shares of the rescaled scores t*w(m), m = 1..M.

    One batched LSB extraction covers all positivity bits (both signs of every
    upper entry).  Entries lie in [-N, N] with p > 2N, so exactly one of
    P > 0, -P > 0 and P = 0 holds and the zero bit is 1 - sigma_+ - sigma_-.
    The scores are affine in the bits, so with ``then``, an affine map of
    the scores, the extraction's last carry level opens it too; returns the
    scores and, with ``then``, the opened value.
    """
    check_field_bounds(ctx.field.p, agg.rule, agg.m, agg.ballots, alpha)
    s, t = alpha
    m = agg.m
    pairs = upper_pairs(m)
    c = len(pairs)
    entries = agg.entries
    # a win earns t and a tie s, so pair (a, b) adds (t-s)*sigma_+ - s*sigma_- + s
    # to a's score and (t-s)*sigma_- - s*sigma_+ + s to b's: the scores are
    # weights @ (sigma_+, sigma_-) + s*(M-1); a row's weights sum below p in
    # size (``check_field_bounds``), so its products with shares sum in int64
    weights = np.zeros((m, 2 * c), dtype=np.int64)
    for i, (a, b) in enumerate(pairs):
        weights[[a - 1, b - 1], [i, c + i]] += t - s
        weights[[a - 1, b - 1], [c + i, i]] -= s

    def scores(pos: Shares) -> Shares:
        values = (weights @ pos.values.astype(np.int64) + s * (m - 1)) % ctx.field.p
        return Shares(ctx.field, ctx.threshold, values.astype(np.uint64))

    if c == 0:
        out = ctx.constant(np.zeros(m, dtype=np.uint64))
        return out if then is None else (out, ctx.open(then(out), "lsb_mask"))
    both_signs = Shares.concat([entries, -entries])
    if then is None:
        return scores(ctx.is_positive(both_signs))
    pos, opened = ctx.is_positive(both_signs, lambda bits: then(scores(bits)))
    return scores(pos), opened


def maximin_scores(ctx: PartyContext, agg: AggregatedShares,
                   then: Callable[[Shares], Shares] | None = None
                   ) -> Shares | tuple[Shares, np.ndarray]:
    """Shares of w(m) = min over opponents of the supporting-voter counts.

    A min-tree over the M-1 opponent columns; all M candidates advance in
    lockstep, ceil(log2(M-1)) batched levels and M(M-2) comparisons overall.
    With ``then``, an affine map of the scores, the root's select opens it
    too, or a round of its own when M <= 2; returns the scores and, with
    ``then``, the opened value.
    """
    check_field_bounds(ctx.field.p, agg.rule, agg.m, agg.ballots, None)
    m = agg.m
    if m == 1:
        out = ctx.constant(np.zeros(1, dtype=np.uint64))
        return out if then is None else (out, ctx.open(then(out), "lsb_mask"))
    pos = {pair: i for i, pair in enumerate(upper_pairs(m))}
    ordered = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if b != a]
    lower = np.array([a > b for a, b in ordered])  # P(a,b) = N_acc - P(b,a)
    support = agg.entries[[pos[min(a, b), max(a, b)] for a, b in ordered]]
    support = support * np.where(lower, -1, 1) + np.where(lower, agg.ballots, 0)
    root, opened = _fold_columns(ctx, support.reshape(m, m - 1),
                                 lambda left, right: left - right,
                                 None if then is None else lambda root: then(root[:, 0]),
                                 "lsb_mask")
    return root[:, 0] if then is None else (root[:, 0], opened)


def _halves(ctx: PartyContext, values: np.ndarray) -> tuple[Shares, Shares, np.ndarray]:
    """The left and right columns of each adjacent pair of a fold level's
    (r, n) columns, and the odd one that passes."""
    n = values.shape[1] // 2 * 2
    f, t = ctx.field, ctx.threshold
    return Shares(f, t, values[:, 0:n:2]), Shares(f, t, values[:, 1:n:2]), values[:, n:]


def _level_masks(ctx: PartyContext, height: int, width: int,
                 margin: Callable[[Shares, Shares], Shares]) -> np.ndarray:
    """The masks of a fold level over ``width`` columns of ``height`` rows,
    one per margin entry (``take_masks``), its select declared."""
    left, right, _ = _halves(ctx, np.zeros((height, width), dtype=np.uint64))
    ctx.expect(doubles=left.size)
    return ctx.take_masks(margin(left, right).size)


def _masked(ctx: PartyContext, margin: Callable[[Shares, Shares], Shares],
            cols: np.ndarray, mask: np.ndarray) -> Shares:
    """c = -2*margin + r of the fold level over the columns ``cols``."""
    left, right, _ = _halves(ctx, cols)
    return -2 * margin(left, right).reshape(-1) + Shares(ctx.field, ctx.threshold, mask[-1])


def _fold_columns(ctx: PartyContext, rows: Shares, margin: Callable[[Shares, Shares], Shares],
                  then: Callable[[Shares], Shares] | None = None,
                  purpose: str = "winner_index",
                  first: tuple[np.ndarray, np.ndarray] | None = None,
                  ) -> tuple[Shares, np.ndarray | None]:
    """Tournament tree over the columns of an (r, n) sharing, ceil(log2 n) levels:
    each level pairs adjacent columns (lower index left) and keeps the right one
    where the affine ``margin(left, right)`` is positive; an odd one passes.

    A level compares as ``PartyContext.is_positive`` does: it takes a mask r
    per margin entry, opens c = -2*margin + r and finishes the LSB from c
    (``take_masks``, ``finish_lsb``).  Its select ``mul`` opens the next
    level's c in the same round, so a level takes t + 1 rounds after the
    first level's opening, and the root's select opens the affine ``then``
    of the root for ``purpose``.  ``first``, the first level's masks and
    its opened c, comes from a layer before the tree's (``select_ahead``);
    without it the tree opens c in a round of its own.  Each level's masks
    and select sharings are declared before the exchange that precedes
    them, and its comparisons are counted when it ends.  Returns the (r, 1)
    root and what ``then`` opened (None without it); with one column,
    ``then`` is opened in a round of its own."""
    f, t = ctx.field, ctx.threshold
    height = rows.values.shape[0]
    if rows.values.shape[1] == 1:
        return rows, None if then is None else ctx.open(then(rows), purpose)
    if first is None:
        mask = _level_masks(ctx, height, rows.values.shape[1], margin)
        opened = ctx.open(_masked(ctx, margin, rows.values, mask), "lsb_mask")
    else:
        mask, opened = first
    while rows.values.shape[1] > 1:
        left, right, rest = _halves(ctx, rows.values)
        bit = ctx.finish_lsb(opened, mask).values.reshape(margin(left, right).values.shape)
        ctx.counters.comparisons += bit.size
        z = Shares(f, t, np.broadcast_to(bit, left.values.shape))
        width = left.values.shape[1] + rest.shape[1]
        if width > 1:
            mask = _level_masks(ctx, height, width, margin)
            ride, tag = (lambda cols: _masked(ctx, margin, cols.values, mask)), "lsb_mask"
        else:
            ride, tag = then, purpose

        def kept(chosen: Shares) -> Shares:  # the next level's columns
            return Shares(f, t, np.concatenate([(left + chosen).values, rest], axis=1))

        if ride is None:
            chosen, opened = ctx.mul(z, right - left), None
        else:
            chosen, opened = ctx.mul(z, right - left, lambda x: ride(kept(x)), tag)
        rows = kept(chosen)
    return rows, opened


def _argmax_margin(left: Shares, right: Shares) -> Shares:
    """Positive where the right score beats the left one."""
    return right[0] - left[0]


def _argmax(ctx: PartyContext, scores: Shares, labels: Shares,
            extra: Shares | None = None,
            first: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """The label of the leftmost maximum score: n-1 comparisons in ceil(log2 n)
    levels, the label opened on the root's select with the shares ``extra``
    behind it.  The strict comparison keeps the left entry on a tie, so the
    lowest index wins.  ``first`` is the first level's masks and opened c
    (``_fold_columns``).  Returns the opened values, the label first."""
    def then(root: Shares) -> Shares:
        return root[1, 0] if extra is None else Shares.concat([root[1, 0], extra])

    rows = Shares(ctx.field, ctx.threshold, np.stack([scores.values, labels.values]))
    return _fold_columns(ctx, rows, _argmax_margin, then,
                         "winner_index" if extra is None else "final_output", first)[1]


def select_ahead(ctx: PartyContext, m: int) -> tuple[np.ndarray, Callable[[Shares], Shares]]:
    """Top-K's first level over M scores, started before the scores exist:
    its masks, its select declared, and the affine map from the scores to
    its c = -2*margin + r, which the scores' last layer opens
    (``copeland_scores`` or ``maximin_scores`` with ``then``).  Pass the
    masks and the opened c to ``top_k`` as ``first``.  With M = 1 there is
    no level: the masks and the map are empty."""
    mask = _level_masks(ctx, 2, m, _argmax_margin)

    def ride(scores: Shares) -> Shares:  # the margin reads the scores' row alone
        return _masked(ctx, _argmax_margin, scores.values[None], mask)

    return mask, ride


def top_k(ctx: PartyContext, scores: Shares, k: int, return_scores: bool = False,
          first: tuple[np.ndarray, np.ndarray] | None = None
          ) -> list[int] | tuple[list[int], list[int]]:
    """Elect K candidates, one argmax tree over the remaining pool per stage.

    The pool stays in ascending candidate order, so ties go to the lowest
    index.  Stage k runs M-k comparisons in ceil(log2(M-k+1)) levels; the
    winner's index (never its score) is opened on its root's select and
    leaves the pool.  ``first`` is the first stage's first level, its masks
    and opened c (``select_ahead``).  With ``return_scores`` the scores are
    opened with the last winner's index, and (winners, scores) is returned.
    """
    pool = list(range(1, scores.size + 1))
    winners: list[int] = []
    for stage in range(1, k + 1):
        extra = scores if return_scores and stage == k else None
        opened = _argmax(ctx, scores[[c - 1 for c in pool]], ctx.constant(pool), extra,
                         first if stage == 1 else None)
        winners.append(int(opened[0]))
        pool.remove(winners[-1])
    return (winners, [int(v) for v in opened[1:]]) if return_scores else winners


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
    ranking = rankings[int(_argmax(ctx, scores, ctx.constant(np.arange(len(rankings))))[0])]
    return ranking_winners(ranking, k), ranking
