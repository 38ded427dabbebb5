"""Tallier-side oblivious validation of shared ballots.

Validation sees only ballots that every tallier holds once and in the
session's shape: the talliers' roster round (``session.validate_bundles``)
rejects duplicate, malformed and missing ballots before any of this runs.
Three checks run against every submission, in this order:

1. share-degree legality: each entry's D shares must lie on a polynomial of
   degree at most D'-1.  Every tallier adds its share of a fresh joint random
   mask and broadcasts the sum; the interpolant through the D masked points
   has the same degree as the dealer's polynomial, while its free coefficient
   is uniformly random, so nothing about the entry leaks.
2. entry domain (condition 1): a shared x is in {-1,1} iff (x+1)(x-1) = 0 and
   in {0,1} iff x(x-1) = 0; one multiplication gate per entry, its product
   opened and compared with zero.  Kemeny ballots additionally check every
   opposing pair sum against {0,1} the same way.
3. distinct column sums (condition 4, copeland/maximin): shares of the column
   sums come from local linear algebra; the product of all pairwise
   differences F(Q) is folded one factor per round and finally squared, so the
   opened value F(Q)^2 is rule-and-M constant for every legal ballot and zero
   exactly when two sums collide.

``batch_validate`` is the only entry point.  It takes B ballots as a
``ballots.Spool``, one row of shares per voter, interleaves checks 2 and 3
across them so each of the M(M-1)/2 rounds carries 2B simultaneous
multiplication gates, and returns the rows' verdicts as columns
(``Verdicts``): their voter ids and one int8 reason code per row, in row
order, indices into ``REASONS``.  A ``ValidationVerdict`` object is built
only when a caller reads one; the tally itself never does.  Only
the domain products and F(Q)^2 are ever revealed, so they open straight
from their product shares (``PartyContext.open_products``): round r opens
entry r's domain product and multiplies fold step r in the same frame, and
the last round opens the last domain product and F(Q)^2, with no opening
round after it.  Kemeny's products all open in one round.  The spool holds
each share reduced mod p: a value >= p stands for the same field element,
and only the tallier holding it could see it, so rejecting it would split
the talliers' verdicts.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial
from typing import NamedTuple

import numpy as np

from .ballots import ConfigMismatch, Spool, entry_pairs, upper_pairs
from .engine import PartyContext, Shares
from .shamir import degree_at_most, reconstruct_batch

REASON_DEGREE = "ShareDegree"
REASON_DOMAIN = "EntryDomain"
REASON_SUMS = "ColumnSums"
REASON_MALFORMED = "Malformed"  # assigned by session._agree_roster
REASON_DUPLICATE = "DuplicateVoter"  # assigned by session._agree_roster


class ValidationVerdict(NamedTuple):
    voter_id: int
    accepted: bool
    reason: str | None = None

    def record(self) -> dict:
        out = {"voter_id": self.voter_id, "accepted": self.accepted}
        if self.reason is not None:
            out["reason"] = self.reason
        return out


# a verdict's reason code indexes REASONS; code 0 accepts, codes 1-3 are
# validation's, by the first check a ballot fails, and 4-5 the roster's
REASONS = (None, REASON_SUMS, REASON_DOMAIN, REASON_DEGREE, REASON_MALFORMED, REASON_DUPLICATE)
CODE_MALFORMED = REASONS.index(REASON_MALFORMED)
CODE_DUPLICATE = REASONS.index(REASON_DUPLICATE)
_REASONS = np.array(REASONS, dtype=object)


class Verdicts(Sequence[ValidationVerdict]):
    """Verdicts held as columns: voter ``ids`` (uint64) and reason
    ``codes`` (int8, indices into ``REASONS``), one of each per ballot.
    Indexing gives a ``ValidationVerdict``, built only when asked; a slice
    gives the ``Verdicts`` of those rows."""

    __slots__ = ("ids", "codes")

    def __init__(self, ids, codes) -> None:
        self.ids = np.asarray(ids, dtype=np.uint64)
        self.codes = np.asarray(codes, dtype=np.int8)

    def __len__(self) -> int:
        return self.ids.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Verdicts(self.ids[i], self.codes[i])
        code = int(self.codes[i])
        return ValidationVerdict(int(self.ids[i]), code == 0, REASONS[code])

    def __iter__(self):
        return iter(self.tolist())

    def __repr__(self) -> str:
        return f"Verdicts({self.tolist()!r})"

    def tolist(self) -> list[ValidationVerdict]:
        """Every verdict as a ``ValidationVerdict``, in row order."""
        # tuple.__new__ builds each verdict from its fields in C, without the
        # Python-level __new__ that NamedTuple generates
        return list(map(partial(tuple.__new__, ValidationVerdict), zip(
            self.ids.tolist(), (self.codes == 0).tolist(), _REASONS[self.codes].tolist())))

    def records(self) -> list[dict]:
        """Every verdict's ``record()``, in row order."""
        return [v.record() for v in self.tolist()]

    def first_split(self, other: Verdicts) -> int | None:
        """The first voter id at which ``other`` holds another verdict, or
        lists another voter or none; None when the two are the same."""
        if np.array_equal(self.codes, other.codes) and np.array_equal(self.ids, other.ids):
            return None
        n = min(len(self), len(other))
        split = np.flatnonzero((self.ids[:n] != other.ids[:n])
                               | (self.codes[:n] != other.codes[:n]))
        at = split[0] if split.size else n
        return int((self.ids if at < len(self) else other.ids)[at])


def masked_degree_check(ctx: PartyContext, values: np.ndarray) -> np.ndarray:
    """Degree-legality of k independent sharings held as this party's
    values: one flag per sharing.  The masked constants the opened rows
    determine are uniform field elements, and nothing here reconstructs
    them."""
    values = np.asarray(values, dtype=np.uint64)
    k = values.size
    if k == 0:
        return np.ones(0, dtype=bool)
    masks = ctx.rand_shares(k)
    rows = ctx.open_share_matrix(ctx.field.add_vec(values, masks.values), "degree_check")
    return degree_at_most(ctx.field, rows, ctx.threshold)


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


def batch_validate(ctx: PartyContext, spool: Spool, rule: str, m: int) -> Verdicts:
    """Validate the B ballots of a (rule, M) session's spool, rows of
    ballots every tallier holds well-formed: degree first, then conditions
    1 and 4 interleaved so every round carries 2B simultaneous
    multiplications.  Returns the verdicts of the spool's rows, in order."""
    if (spool.rule, spool.m) != (rule, m):
        raise ConfigMismatch(f"a {spool.rule} M={spool.m} spool in a {rule} M={m} session")
    if not len(spool):
        return Verdicts(spool.ids, np.zeros(0, dtype=np.int8))
    values = spool.shares

    # the first product layer is dealt for every ballot with the degree
    # check's masks; the ballots that fail the check then leave it
    batch = len(spool)
    opened, reduced = _first_layer(rule, m)
    ctx.expect(rand=values.size, zeros=opened * batch, doubles=reduced * batch)
    degree_ok = masked_degree_check(ctx, values.ravel()).reshape(values.shape).all(axis=1)
    domain_ok = np.zeros(batch, dtype=bool)
    sums_ok = np.ones(batch, dtype=bool)
    live = np.flatnonzero(degree_ok)
    failed = batch - live.size
    ctx.expect(zeros=-opened * failed, doubles=-reduced * failed)
    if live.size:
        if rule == "kemeny":
            domain_ok[live] = _validate_kemeny_conditions(ctx, values[live], m)
        else:
            domain_ok[live], sums_ok[live] = _validate_interleaved(
                ctx, values[live], rule, m)

    return Verdicts(spool.ids, np.select([~degree_ok, ~domain_ok, ~sums_ok], [3, 2, 1], 0))


def _first_layer(rule: str, m: int) -> tuple[int, int]:
    """Gates per ballot in the first product layer of conditions 1 and 4,
    as (opened, degree-reduced)."""
    pairs = len(upper_pairs(m))
    if rule == "kemeny":
        return 3 * pairs, 0  # M(M-1) entry domains and M(M-1)/2 pair sums
    if pairs == 1:
        return 2, 0  # the only entry domain and F(Q)^2
    return (1, 1) if pairs else (0, 0)  # an entry domain, and a fold step of F(Q)


def _validate_interleaved(ctx: PartyContext, values: np.ndarray, rule: str,
                          m: int) -> tuple[np.ndarray, np.ndarray]:
    """Copeland/maximin conditions over a (B, C) value matrix: C layers of 2B
    gates.  Layer r < C opens entry r's domain product and multiplies fold
    step r of F(Q); layer C opens the last domain product and F(Q)^2, the
    squaring of the fold."""
    batch, c = values.shape
    if c == 0:
        return np.ones(batch, dtype=bool), np.ones(batch, dtype=bool)
    entries = Shares(ctx.field, ctx.threshold, values)
    u_all, v_all = _domain_factors(rule, entries)
    sums = column_sum_shares(ctx, values, rule, m)
    pairs = upper_pairs(m)
    diffs = [sums[:, b - 1] - sums[:, a - 1] for a, b in pairs]

    domain_ok = np.ones(batch, dtype=bool)
    fold = diffs[0]
    for r in range(1, c):
        last = r + 1 == c  # the next layer's sharings are dealt on this one
        ctx.expect(zeros=(2 if last else 1) * batch, doubles=(0 if last else 1) * batch)
        opened, fold = ctx.open_products(u_all[:, r - 1], v_all[:, r - 1],
                                         "validation_product", (fold, diffs[r]))
        domain_ok &= opened == 0
    opened = ctx.open_products(Shares.concat([u_all[:, c - 1], fold]),
                               Shares.concat([v_all[:, c - 1], fold]), "validation_product")
    domain_ok &= opened[:batch] == 0
    return domain_ok, opened[batch:] != 0


def _validate_kemeny_conditions(ctx: PartyContext, values: np.ndarray,
                                m: int) -> np.ndarray:
    """Kemeny legality: every entry in {0,1} and every opposing pair sum in
    {0,1}; all products open in one layer."""
    entries = Shares(ctx.field, ctx.threshold, values)
    u, v = _domain_factors("kemeny", entries)
    pos = {pair: i for i, pair in enumerate(entry_pairs("kemeny", m))}
    idx_ab = [pos[(a, b)] for a, b in upper_pairs(m)]
    idx_ba = [pos[(b, a)] for a, b in upper_pairs(m)]
    sums = entries[:, idx_ab] + entries[:, idx_ba]
    # one row per ballot: its domain factors, then its pair-sum factors
    left = np.concatenate([u.values, sums.values], axis=1)
    right = np.concatenate([v.values, (sums - 1).values], axis=1)
    products = ctx.open_products(Shares(ctx.field, ctx.threshold, left),
                                 Shares(ctx.field, ctx.threshold, right), "validation_product")
    return (products == 0).all(axis=1)


def reconstruct_rejected(ctx: PartyContext, spool: Spool) -> list[np.ndarray]:
    """Recover the spool's ballots as dishonesty proofs (explicit cooperation
    of >= D' talliers; here all parties broadcast their raw shares), all of
    them in one round.  Returns, per row, the signed M x M matrix implied by
    its shared entries."""
    if not len(spool):
        return []
    rows = ctx.open_share_matrix(spool.shares.ravel(), "rejected_ballot_proof")
    opened = reconstruct_batch(ctx.field, range(1, ctx.threshold + 1), rows[:ctx.threshold])
    half = ctx.field.p // 2
    signed = np.where(opened > half, opened.astype(np.int64) - ctx.field.p,
                      opened.astype(np.int64)).reshape(spool.shares.shape)
    rule, m = spool.rule, spool.m
    proofs = []
    for entries in signed:
        out = np.zeros((m, m), dtype=np.int64)
        for (a, b), val in zip(entry_pairs(rule, m), entries):
            out[a - 1, b - 1] = val
            if rule == "copeland":
                out[b - 1, a - 1] = -val
            elif rule == "maximin":
                out[b - 1, a - 1] = 1 - val
        proofs.append(out)
    return proofs
