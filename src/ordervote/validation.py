"""Tallier-side oblivious validation of shared ballots.

A bundle whose rule, M or length does not match the session is malformed:
its holder sends p, which is not a field element, in place of its masked
shares in check 1, so every tallier flags that ballot alike and rejects it as
``Malformed`` in the same round (a stand-in of zeros alone would pass as the
legal Maximin ballot (M, ..., 1)).  Three checks run against every
submission, in this order:

1. share-degree legality: each entry's D shares must lie on a polynomial of
   degree at most D'-1.  Every tallier adds its share of a fresh joint random
   mask and broadcasts the sum; the interpolant through the D masked points
   has the same degree as the dealer's polynomial, while its free coefficient
   is uniformly random, so nothing about the entry leaks.
2. entry domain (condition 1): a shared x is in {-1,1} iff (x+1)(x-1) = 0 and
   in {0,1} iff x(x-1) = 0; one multiplication gate per entry, all entries in
   the same round, products opened and compared with zero.  Kemeny ballots
   additionally check every opposing pair sum against {0,1} the same way.
3. distinct column sums (condition 4, copeland/maximin): shares of the column
   sums come from local linear algebra; the product of all pairwise
   differences F(Q) is folded one factor per round and finally squared, so the
   opened value F(Q)^2 is rule-and-M constant for every legal ballot and zero
   exactly when two sums collide.

``batch_validate`` is the only entry point.  It interleaves checks 2 and 3
across B ballots so each of the M(M-1)/2 rounds carries 2B simultaneous
multiplication gates (the last round carries the B squarings), and returns
one verdict per bundle, by position.  A share value >= p is reduced first:
it stands for the same field element, and only the tallier holding it could
see it, so rejecting it would split the talliers' verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ballots import TallierBundle, entry_pairs, upper_pairs
from .engine import PartyContext, Shares
from .shamir import degree_at_most, reconstruct_batch

REASON_DEGREE = "ShareDegree"
REASON_DOMAIN = "EntryDomain"
REASON_SUMS = "ColumnSums"
REASON_MALFORMED = "Malformed"
REASON_DUPLICATE = "DuplicateVoter"  # assigned by session.validate_bundles


@dataclass(frozen=True)
class ValidationVerdict:
    voter_id: int
    accepted: bool
    reason: str | None = None

    def record(self) -> dict:
        out = {"voter_id": self.voter_id, "accepted": self.accepted}
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def masked_degree_check(ctx: PartyContext, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Degree-legality of k independent sharings held as this party's values.

    A value >= p marks a sharing this party cannot check: it sends p in place
    of the masked share, and every party flags each column that holds a
    value >= p.  Returns (legal flags, opened masked constants); the
    constants are uniform field elements, exposed only so tests can verify
    that uniformity, and a flagged column reads p.
    """
    values = np.asarray(values, dtype=np.uint64)
    k = values.size
    if k == 0:
        return np.ones(0, dtype=bool), np.zeros(0, dtype=np.uint64)
    p = np.uint64(ctx.field.p)
    masks = ctx.rand_shares(k)
    masked = np.where(values < p, ctx.field.add_vec(values, masks.values), p)
    matrix = ctx.open_share_matrix(masked, "degree_check")
    flagged = (matrix >= p).any(axis=0)
    matrix[:, flagged] = 0  # any field element: a flagged column is illegal anyway
    legal = degree_at_most(ctx.field, matrix, ctx.threshold) & ~flagged
    constants = reconstruct_batch(ctx.field, range(1, ctx.parties + 1), matrix)
    return legal, np.where(flagged, p, constants)


def _domain_factors(rule: str, entries: Shares) -> tuple[Shares, Shares]:
    if rule == "copeland":
        return entries + 1, entries - 1  # zero iff entry in {-1, 1}
    return entries, entries - 1  # zero iff entry in {0, 1}


def column_sum_shares(ctx: PartyContext, entry_shares: np.ndarray, rule: str,
                      m: int) -> Shares:
    """Shares of the column sums Q_m from upper-triangle shares; local only.

    Copeland uses antisymmetry (lower entries are negated upper ones); maximin
    additionally credits the public M-m complement of the lower entries.
    """
    values = np.atleast_2d(np.asarray(entry_shares, dtype=np.uint64))  # (B, C)
    batch = values.shape[0]
    pos = {pair: i for i, pair in enumerate(upper_pairs(m))}
    sums = np.zeros((batch, m), dtype=np.uint64)
    for col in range(1, m + 1):
        acc = np.zeros(batch, dtype=np.uint64)
        for row in range(1, col):
            acc = ctx.field.add_vec(acc, values[:, pos[(row, col)]])
        for row in range(col + 1, m + 1):
            acc = ctx.field.sub_vec(acc, values[:, pos[(col, row)]])
        if rule == "maximin":
            acc = ctx.field.add_vec(acc, np.uint64(m - col))
        sums[:, col - 1] = acc
    if np.asarray(entry_shares).ndim == 1:
        sums = sums[0]
    return Shares(ctx.field, ctx.threshold, sums)


def batch_validate(ctx: PartyContext, bundles: list[TallierBundle], rule: str,
                   m: int) -> list[ValidationVerdict]:
    """Validate B ballots of a (rule, M) session: degree first, then
    conditions 1 and 4 interleaved so every round carries 2B simultaneous
    multiplications."""
    if not bundles:
        return []
    p = np.uint64(ctx.field.p)
    expected = len(entry_pairs(rule, m))
    rows = [np.asarray(b.values, dtype=np.uint64) for b in bundles]
    bad = [i for i, b in enumerate(bundles)
           if b.rule != rule or b.m != m or rows[i].shape != (expected,)]
    for i in bad:
        rows[i] = np.zeros(expected, dtype=np.uint64)
    stacked = np.stack(rows)
    stacked %= p
    stacked[bad] = p  # sent as p in the degree check

    legal, constants = masked_degree_check(ctx, stacked.ravel())
    malformed = (constants >= p).reshape(stacked.shape).any(axis=1)
    degree_ok = legal.reshape(stacked.shape).all(axis=1)
    domain_ok = np.zeros(len(bundles), dtype=bool)
    sums_ok = np.ones(len(bundles), dtype=bool)
    live = np.flatnonzero(degree_ok)
    if live.size:
        if rule == "kemeny":
            domain_ok[live] = _validate_kemeny_conditions(ctx, stacked[live], m)
        else:
            domain_ok[live], sums_ok[live] = _validate_interleaved(
                ctx, stacked[live], rule, m)

    verdicts = []
    for b, bad, degree, domain, sums in zip(bundles, malformed, degree_ok, domain_ok,
                                            sums_ok):
        reason = (REASON_MALFORMED if bad else REASON_DEGREE if not degree
                  else REASON_DOMAIN if not domain else REASON_SUMS if not sums else None)
        verdicts.append(ValidationVerdict(b.voter_id, reason is None, reason))
    return verdicts


def _validate_interleaved(ctx: PartyContext, values: np.ndarray, rule: str,
                          m: int) -> tuple[np.ndarray, np.ndarray]:
    """Copeland/maximin conditions over a (B, C) value matrix: C rounds of 2B
    gates; round r pairs entry r's domain product with fold step r of F(Q),
    the final fold step being the squaring."""
    batch, c = values.shape
    if c == 0:
        return np.ones(batch, dtype=bool), np.ones(batch, dtype=bool)
    entries = Shares(ctx.field, ctx.threshold, values)
    u_all, v_all = _domain_factors(rule, entries)
    sums = column_sum_shares(ctx, values, rule, m)
    pairs = upper_pairs(m)
    diffs = [sums[:, b - 1] - sums[:, a - 1] for a, b in pairs]

    products = np.empty((batch, c), dtype=np.uint64)
    fold = diffs[0]
    for r in range(1, c + 1):
        factor = diffs[r] if r < c else fold  # last step squares F
        left = Shares.concat([u_all[:, r - 1], fold])
        right = Shares.concat([v_all[:, r - 1], factor])
        out = ctx.mul(left, right)
        products[:, r - 1] = out.values[:batch]
        fold = out[batch:]
    opened = ctx.open(
        Shares.concat([Shares(ctx.field, ctx.threshold, products.ravel()), fold]),
        "validation_product").reshape(-1)
    domain_ok = (opened[:batch * c].reshape(batch, c) == 0).all(axis=1)
    sums_ok = opened[batch * c:] != 0
    return domain_ok, sums_ok


def _validate_kemeny_conditions(ctx: PartyContext, values: np.ndarray,
                                m: int) -> np.ndarray:
    """Kemeny legality: every entry in {0,1} and every opposing pair sum in
    {0,1}; all products run as one simultaneous round."""
    entries = Shares(ctx.field, ctx.threshold, values)
    u, v = _domain_factors("kemeny", entries)
    pos = {pair: i for i, pair in enumerate(entry_pairs("kemeny", m))}
    idx_ab = [pos[(a, b)] for a, b in upper_pairs(m)]
    idx_ba = [pos[(b, a)] for a, b in upper_pairs(m)]
    sums = entries[:, idx_ab] + entries[:, idx_ba]
    # one row per ballot: its domain factors, then its pair-sum factors
    left = np.concatenate([u.values, sums.values], axis=1)
    right = np.concatenate([v.values, (sums - 1).values], axis=1)
    products = ctx.mul(Shares(ctx.field, ctx.threshold, left),
                       Shares(ctx.field, ctx.threshold, right))
    return (ctx.open(products, "validation_product") == 0).all(axis=1)


def reconstruct_rejected(ctx: PartyContext, bundle: TallierBundle) -> np.ndarray:
    """Recover a rejected ballot as dishonesty proof (explicit cooperation of
    >= D' talliers; here all parties broadcast their raw shares).  Returns the
    signed M x M matrix implied by the shared entries."""
    values = np.asarray(bundle.values, dtype=np.uint64) % np.uint64(ctx.field.p)
    matrix = ctx.open_share_matrix(values, "rejected_ballot_proof")
    opened = reconstruct_batch(ctx.field, range(1, ctx.threshold + 1),
                               matrix[:ctx.threshold])
    half = ctx.field.p // 2
    signed = np.where(opened > half, opened.astype(np.int64) - ctx.field.p,
                      opened.astype(np.int64))
    out = np.zeros((bundle.m, bundle.m), dtype=np.int64)
    for (a, b), val in zip(entry_pairs(bundle.rule, bundle.m), signed):
        out[a - 1, b - 1] = val
        if bundle.rule == "copeland":
            out[b - 1, a - 1] = -val
        elif bundle.rule == "maximin":
            out[b - 1, a - 1] = 1 - val
    return out
