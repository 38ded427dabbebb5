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
  Its levels compare within groups wider than pairs (``KEMENY_GROUPS``):
  more comparisons in fewer rounds.

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
one round, or ceil(log2 g) rounds for a level in groups of g.  Top-K's
first masked margin rides the scores' last layer in the same way
(``select_ahead``): Copeland's last carry level and Maximin's min-tree
root select.
``lsb_extractions`` gives a tally's exact extraction count, so its LSB masks
can all be prepared in one batch, which rides validation's rounds
(``PartyContext.prepare_masks``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
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


# Kemeny's argmax over the M! rankings compares within groups of these sizes,
# level by level (``_fold_columns``): fewer levels for more comparisons.  Each
# is the plan of its M that ``ordervote bench`` timed fastest at 1 ms a round,
# but M=5's: (4, 4, 8) was 9% faster there, yet its 90 more masks, all dealt
# on the roster round, raised the peak RSS of ``perfbench``'s rounds-latency
# workload by 3 MB (6%), where (2, 2, 4, 8) gains nearly as much
KEMENY_GROUPS = {1: (), 2: (2,), 3: (6,), 4: (4, 6), 5: (2, 2, 4, 8), 6: (2, 2, 4, 6, 8)}


def lsb_extractions(rule: str, m: int, k: int) -> int:
    """LSB extractions of scoring and electing K of M candidates under
    ``rule``: M(M-1) positivity bits for copeland scoring and M(M-2)
    comparisons for maximin scoring, plus K(M-(K+1)/2) comparisons of top-K;
    for kemeny, every pair within each group of its argmax's levels over
    the M! rankings (``KEMENY_GROUPS``), M!-1 if they were all pairs.  A
    tally starts preparing exactly this many masks before its roster round
    (``session.tallier_program``)."""
    if rule == "kemeny":
        check_kemeny_size(m)
        return sum(_comparisons(n, g) for n, g in _levels(math.factorial(m), KEMENY_GROUPS[m]))
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
      its own) and rides the V validate rounds from the roster round on,
      so it runs alone for max(0, S - V);
    * score: 1 + t for copeland; for maximin, 1 + L(M-1)(t + 1), or 0 when
      M = 1.  When M >= 2 the scores' last layer also opens top-K's first
      x + r, so copeland at t = 0 and maximin at M = 2, which have no such
      layer, spend a round of their own on it;
    * select: 1 + L(n)(t + 1) per argmax over n entries, its first opening
      and its levels, less top-K's first opening when M >= 2; the winner is
      opened on the last select, or alone when n = 1.  Opened scores cost
      no round: they ride on the last winner's opening (``top_k``).
      Kemeny's argmax over the M! rankings takes 1 + the sum of
      t + L(g) over its levels in groups of g (``KEMENY_GROUPS``).

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
    rounds = {"validate": validate, "offline": max(stream - validate, 0), "aggregate": 0}
    if rule == "kemeny":
        rounds["select"] = 1 + sum(t + levels(g) for _, g in
                                   _levels(math.factorial(m), KEMENY_GROUPS[m]))
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


def _levels(n: int, groups: tuple[int, ...] = ()) -> list[tuple[int, int]]:
    """(columns, group size) of each level of a tree over n columns: the
    sizes of ``groups`` in turn, then pairs, each at most the columns left.
    A level over n columns in groups of g leaves ceil(n / g) of them."""
    out, plan = [], iter(groups)
    while n > 1:
        g = min(next(plan, 2), n)
        out.append((n, g))
        n = -(-n // g)
    return out


def _groups(n: int, g: int) -> list[tuple[int, int, int]]:
    """The groups of a level over n columns in groups of g, as (first
    column, size, count): n // g adjacent groups of g, then the rest, one
    group of n mod g columns; a column alone passes."""
    return [(0, g, n // g)] + ([(n // g * g, n % g, 1)] if n % g else [])


def _comparisons(n: int, g: int) -> int:
    """The comparisons of a level over n columns in groups of g: every pair
    within a group."""
    return sum(count * size * (size - 1) // 2 for _, size, count in _groups(n, g))


@lru_cache(maxsize=None)
def _pair_columns(n: int, g: int) -> tuple[np.ndarray, np.ndarray]:
    """The lower and the higher column of every pair within a group of a
    level over n columns in groups of g, pair by pair, and within a pair
    group by group: for g = 2, the columns 0, 2, 4, ... and 1, 3, 5, ..."""
    lows, highs = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for start, size, count in _groups(n, g):
        first = start + size * np.arange(count)
        for a, b in itertools.combinations(range(size), 2):
            lows.append(first + a)
            highs.append(first + b)
    return np.concatenate(lows), np.concatenate(highs)


def _pairs(ctx: PartyContext, values: np.ndarray, g: int) -> tuple[Shares, Shares]:
    """The lower and the higher columns of every pair within a group of a
    fold level over the (r, n) columns ``values`` (``_pair_columns``)."""
    return tuple(Shares(ctx.field, ctx.threshold, values[:, side])
                 for side in _pair_columns(values.shape[1], g))


@dataclass(frozen=True)
class _PassUp:
    """The pass-up of a fold level (``_pass_up``) as index arrays into a
    pool of words: a zero, the comparison bits z, then 1 - z, each
    (bit rows, pairs) row by row, then x_i - x_0 of every column i >= 1 of
    every group, (rows, terms) row by row, then the products of each layer
    in turn.  ``lo`` and ``hi`` pick x_0 and x_i from the level's (rows, n)
    values, raveled; ``layers`` holds each layer's operands; the next
    level's (rows, groups) entries, raveled, are ``heads`` of the values
    plus the pool words ``sums`` names, padded with the zero."""

    lo: np.ndarray
    hi: np.ndarray
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    heads: np.ndarray
    sums: np.ndarray

    @property
    def gates(self) -> int:
        return sum(u.size for u, _ in self.layers)


@lru_cache(maxsize=None)
def _pass_up_plan(n: int, g: int, height: int, bit_rows: int) -> _PassUp:
    """The pass-up of a level over n columns of ``height`` rows in groups of
    g, with ``bit_rows`` rows of comparison bits (1 or ``height``).  Column
    i of a group wins when w_i, the product of z_ji for j < i and of
    1 - z_ij for j > i, is 1, which holds for exactly one column, so the
    group passes up x_0 + sum_{i>=1} w_i*(x_i - x_0).  Each term is a
    product tree over its s - 1 bits and x_i - x_0, whose adjacent factors
    multiply layer by layer, an odd last one passing up: ceil(log2 s)
    layers in a group of s.  A factor of one row multiplies each row of a
    factor of ``height``."""
    pairs = _comparisons(n, g)
    terms = sum((size - 1) * count for _, size, count in _groups(n, g))
    rows, base = np.arange(height), 1 + 2 * bit_rows * pairs  # where x_i - x_0 starts
    z_rows = 1 + pairs * np.arange(bit_rows)  # where each row of z starts
    heads, lo, hi, trees, groups, at = [], [], [], [], [], 0
    for start, size, count in _groups(n, g):
        index = {pair: k for k, pair in enumerate(itertools.combinations(range(size), 2))}
        for group in range(count):
            first = start + group * size
            heads.append(first)
            groups.append([])
            for i in range(1, size):
                groups[-1].append(len(trees))
                trees.append([z_rows + at + index[min(i, j), max(i, j)] * count + group
                              + (j > i) * bit_rows * pairs for j in range(size) if j != i]
                             + [base + rows * terms + len(lo)])
                lo.append(first)
                hi.append(first + i)
        at += len(index) * count
    words, layers = base + height * terms, []  # the pool's words so far
    while any(len(tree) > 1 for tree in trees):
        u, v = [], []
        for tree in trees:
            for k in range(0, len(tree) - 1, 2):
                a, b = np.broadcast_arrays(tree[k], tree[k + 1])
                u.append(a)
                v.append(b)
                tree[k // 2] = words + np.arange(a.size)
                words += a.size
            tree[len(tree) // 2:] = tree[len(tree) - len(tree) % 2:]
        layers.append((np.concatenate(u), np.concatenate(v)))
    sums = np.zeros((height, len(groups), max(g - 1, 1)), dtype=np.intp)
    for q, members in enumerate(groups):
        for k, term in enumerate(members):
            sums[:, q, k] = trees[term][0]
    return _PassUp(lo=(rows[:, None] * n + np.array(lo, dtype=np.intp)).ravel(),
                   hi=(rows[:, None] * n + np.array(hi, dtype=np.intp)).ravel(),
                   layers=tuple(layers),
                   heads=(rows[:, None] * n + np.array(heads, dtype=np.intp)).ravel(),
                   sums=sums.reshape(height * len(groups), -1))


def _level_masks(ctx: PartyContext, height: int, n: int, g: int,
                 margin: Callable[[Shares, Shares], Shares]) -> np.ndarray:
    """The masks of a fold level over n columns of ``height`` rows in groups
    of g, one per margin entry (``take_masks``), its pass-up declared."""
    pairs = _comparisons(n, g)
    zero = Shares(ctx.field, ctx.threshold, np.zeros((height, pairs), dtype=np.uint64))
    size = margin(zero, zero).size
    ctx.expect(doubles=_pass_up_plan(n, g, height, size // max(pairs, 1)).gates)
    return ctx.take_masks(size)


def _masked(ctx: PartyContext, margin: Callable[[Shares, Shares], Shares],
            cols: np.ndarray, g: int, mask: np.ndarray) -> Shares:
    """c = -2*margin + r of the fold level over the columns ``cols`` in
    groups of g."""
    c = -2 * margin(*_pairs(ctx, cols, g)).reshape(-1)
    return c + Shares(ctx.field, ctx.threshold, mask[-1])


def _pass_up(ctx: PartyContext, values: np.ndarray, bits: np.ndarray, g: int,
             then: Callable[[Shares], Shares] | None, purpose: str
             ) -> tuple[Shares, np.ndarray | None]:
    """The winner of each group of g of the (r, n) columns ``values``, the
    next level's columns (``_pass_up_plan``).  ``bits`` holds
    z_ab = [margin(a, b) > 0] for every pair a < b of each group, one row or
    r rows, ordered as ``_pairs`` orders the pairs.  The plan's layers are
    batched over the level (a group of 2 passes up x_0 + z_01*(x_1 - x_0)
    in one), and the last opens the affine ``then`` of the next level's
    columns for ``purpose`` (``PartyContext.mul``).  Returns the columns and
    what ``then`` opened (None without it)."""
    f, t = ctx.field, ctx.threshold
    height, n = values.shape
    plan = _pass_up_plan(n, g, height, bits.size // _comparisons(n, g))
    flat, z = values.ravel(), bits.ravel()
    pool = np.concatenate([np.zeros(1, dtype=np.uint64), z, f.sub_vec(np.uint64(1), z),
                           f.sub_vec(flat[plan.hi], flat[plan.lo])])
    heads = flat[plan.heads]

    def winners(pool: np.ndarray) -> Shares:
        sums = f.sum_vec(pool[plan.sums], axis=1)
        return Shares(f, t, f.add_vec(heads, sums).reshape(height, -1))

    opened = None
    for k, (u, v) in enumerate(plan.layers):
        a, b = Shares(f, t, pool[u]), Shares(f, t, pool[v])
        if then is not None and k == len(plan.layers) - 1:
            out, opened = ctx.mul(a, b, lambda x, pool=pool: then(winners(
                np.concatenate([pool, x.values]))), purpose)
        else:
            out = ctx.mul(a, b)
        pool = np.concatenate([pool, out.values])
    return winners(pool), opened


def _fold_columns(ctx: PartyContext, rows: Shares, margin: Callable[[Shares, Shares], Shares],
                  then: Callable[[Shares], Shares] | None = None,
                  purpose: str = "winner_index",
                  first: tuple[np.ndarray, np.ndarray] | None = None,
                  groups: tuple[int, ...] = (),
                  ) -> tuple[Shares, np.ndarray | None]:
    """Tournament tree over the columns of an (r, n) sharing (``_levels``):
    each level splits its columns into adjacent groups, of the sizes
    ``groups`` names and of 2 past them, and passes up the winner of each
    (``_pass_up``): within a group, a higher column beats a lower one where
    the affine ``margin(lower, higher)`` is positive, so a tie keeps the
    lower column; a column alone passes.

    A level compares every pair within a group in one batch, as
    ``PartyContext.is_positive`` does: it takes a mask r per margin entry,
    opens c = -2*margin + r and finishes the LSB from c (``take_masks``,
    ``finish_lsb``).  The last layer of its pass-up opens the next level's
    c, so a level in groups of g takes t + ceil(log2 g) rounds after the
    first level's opening, and the root's last layer opens the affine
    ``then`` of the root for ``purpose``.  ``first``, the first level's
    masks and its opened c, comes from a layer before the tree's
    (``select_ahead``); without it the tree opens c in a round of its own.
    Each level's masks and pass-up sharings are declared before the
    exchange that precedes them, and its comparisons are counted when it
    ends.  Returns the (r, 1) root and what ``then`` opened (None without
    it); with one column, ``then`` is opened in a round of its own."""
    height = rows.values.shape[0]
    levels = _levels(rows.values.shape[1], groups)
    if not levels:
        return rows, None if then is None else ctx.open(then(rows), purpose)
    if first is None:
        mask = _level_masks(ctx, height, *levels[0], margin)
        opened = ctx.open(_masked(ctx, margin, rows.values, levels[0][1], mask), "lsb_mask")
    else:
        mask, opened = first
    for (_, g), after in zip(levels, [*levels[1:], None]):
        bits = ctx.finish_lsb(opened, mask).values
        ctx.counters.comparisons += bits.size
        if after is None:
            ride, tag = then, purpose
        else:
            mask = _level_masks(ctx, height, *after, margin)

            def ride(cols: Shares, g: int = after[1], mask: np.ndarray = mask) -> Shares:
                return _masked(ctx, margin, cols.values, g, mask)

            tag = "lsb_mask"
        rows, opened = _pass_up(ctx, rows.values, bits, g, ride, tag)
    return rows, opened


def _argmax_margin(left: Shares, right: Shares) -> Shares:
    """Positive where the right score beats the left one."""
    return right[0] - left[0]


def _argmax(ctx: PartyContext, scores: Shares, labels: Shares,
            extra: Shares | None = None,
            first: tuple[np.ndarray, np.ndarray] | None = None,
            groups: tuple[int, ...] = ()) -> np.ndarray:
    """The label of the leftmost maximum score, the label opened on the
    root's last layer with the shares ``extra`` behind it.  In pairs, n-1
    comparisons in ceil(log2 n) levels; ``groups`` names wider levels
    (``_fold_columns``).  The strict comparison keeps the lower entry on a
    tie, so the lowest index wins.  ``first`` is the first level's masks
    and opened c.  Returns the opened values, the label first."""
    def then(root: Shares) -> Shares:
        return root[1, 0] if extra is None else Shares.concat([root[1, 0], extra])

    rows = Shares(ctx.field, ctx.threshold, np.stack([scores.values, labels.values]))
    return _fold_columns(ctx, rows, _argmax_margin, then,
                         "winner_index" if extra is None else "final_output", first, groups)[1]


def select_ahead(ctx: PartyContext, m: int) -> tuple[np.ndarray, Callable[[Shares], Shares]]:
    """Top-K's first level over M scores, started before the scores exist:
    its masks, its select declared, and the affine map from the scores to
    its c = -2*margin + r, which the scores' last layer opens
    (``copeland_scores`` or ``maximin_scores`` with ``then``).  Pass the
    masks and the opened c to ``top_k`` as ``first``.  With M = 1 there is
    no level: the masks and the map are empty."""
    mask = _level_masks(ctx, 2, m, 2, _argmax_margin)

    def ride(scores: Shares) -> Shares:  # the margin reads the scores' row alone
        return _masked(ctx, _argmax_margin, scores.values[None], 2, mask)

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
    entries; the argmax tree runs in the levels ``KEMENY_GROUPS`` names for
    M, with ``lsb_extractions`` comparisons, and opens only the winning
    ranking's identity.
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
    labels = ctx.constant(np.arange(len(rankings)))
    ranking = rankings[int(_argmax(ctx, scores, labels, groups=KEMENY_GROUPS[m])[0])]
    return ranking_winners(ranking, k), ranking
