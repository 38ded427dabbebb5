"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 2 simulates 600
random elections end to end and dominates the runtime (several minutes).
"""

import itertools
import time

import numpy as np
import pytest

from conftest import deal, dealt_shares, run_parties
from ordervote.ballots import (BallotMatrix, SharedBallot, Spool, matrix_entry_values,
                               ranking_to_matrix, share_ballot, upper_pairs)
from ordervote.config import ElectionConfig
from ordervote.engine import Shares
from ordervote.field import PrimeField
from ordervote.oracle import PlainElection, plain_primitive, plain_winners
from ordervote.session import (make_shared_ballots, run_local_election,
                               run_local_validation)
from ordervote.shamir import degree_at_most, reconstruct_batch, share_batch
from ordervote.tally import maximin_scores, top_k
from ordervote.validation import batch_validate, column_sum_shares
from test_validation import flip_breaking_condition4

M31 = (1 << 31) - 1


def _report(number: int, text: str) -> None:
    import conftest
    line = f"ACCEPTANCE {number}: PASS - {text}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(f"\n{line}")


def test_criterion_1_primitive_oracle_equivalence_exhaustive(f31):
    """p=31, D=3: every primitive agrees with the plaintext oracle on its
    whole domain, exactly: 31 LSBs, 21 signs, and the 721 pairs with
    2|a - b| < 31 that the bounded comparison takes, as the positivity of
    b - a."""
    start = time.monotonic()
    xs = np.arange(31, dtype=np.uint64)
    signed = np.array([v % 31 for v in range(-10, 11)], dtype=np.uint64)
    pairs = [(a, b) for a in range(31) for b in range(31) if 2 * abs(a - b) < 31]
    av = np.array([a for a, _ in pairs], dtype=np.uint64)
    bv = np.array([b for _, b in pairs], dtype=np.uint64)
    mx = deal(f31, xs, 2, 3, seed=1)
    msigned = deal(f31, signed, 2, 3, seed=2)
    ma, mb = deal(f31, av, 2, 3, seed=3), deal(f31, bv, 2, 3, seed=4)

    def prog(ctx):
        x = dealt_shares(f31, mx, 2, ctx.party_id)
        s = dealt_shares(f31, msigned, 2, ctx.party_id)
        a = dealt_shares(f31, ma, 2, ctx.party_id)
        b = dealt_shares(f31, mb, 2, ctx.party_id)
        return (ctx.open(ctx.shared_lsb(x), "final_output"),
                ctx.open(ctx.is_positive(s), "final_output"),
                ctx.open(ctx.is_positive(b - a), "final_output"))

    lsb, pos, cmp_ = run_parties(3, 2, f31, prog)[1]
    cases = 0
    for got, val in zip(lsb, xs):
        assert got == plain_primitive("lsb", [int(val)], 31)
        cases += 1
    for got, val in zip(pos, signed):
        assert got == plain_primitive("is_positive", [int(val)], 31)
        cases += 1
    for got, a, b in zip(cmp_, av, bv):
        assert got == plain_primitive("compare", [int(a), int(b)], 31)
        cases += 1
    elapsed = time.monotonic() - start
    assert cases == 31 + 21 + 721
    assert elapsed < 60
    _report(1, f"{cases} exhaustive primitive cases match the oracle "
               f"({elapsed:.1f}s)")


def _random_election(rng, rule):
    n = int(rng.choice([3, 25, 200]))
    m = 3 if rule == "kemeny" else int(rng.choice([3, 5]))
    k = int(rng.choice([1, 2, m]))
    d = int(rng.choice([3, 5]))
    alpha = (1, 2)
    if rule == "copeland":
        alpha = [(0, 1), (1, 2), (1, 1)][int(rng.integers(3))]
    if rule == "kemeny":
        rankings = [tuple(int(r) for r in rng.integers(1, m + 1, m))
                    for _ in range(n)]
    else:
        rankings = [tuple(int(c) for c in rng.permutation(m) + 1)
                    for _ in range(n)]
    cfg = ElectionConfig(rule=rule, candidates=tuple(f"C{i}" for i in range(1, m + 1)),
                         num_winners=k, talliers=d, prime=M31, alpha=alpha,
                         expected_voters=n, seed=int(rng.integers(1 << 30))).validate()
    return cfg, rankings


@pytest.mark.parametrize("rule", ["copeland", "maximin", "kemeny"])
def test_criterion_2_end_to_end_winner_equivalence(rule):
    """200 random elections per rule at p = 2^31 - 1: MPC winners equal the
    plaintext oracle's winners exactly under the documented tie-break."""
    rng = np.random.default_rng({"copeland": 10, "maximin": 20, "kemeny": 30}[rule])
    start = time.monotonic()
    for trial in range(200):
        cfg, rankings = _random_election(rng, rule)
        outcome = run_local_election(cfg, make_shared_ballots(cfg, rankings))
        expect = plain_winners(PlainElection(rule, cfg.m, cfg.num_winners,
                                             tuple(rankings), cfg.alpha))
        assert outcome.result.winners == expect, \
            f"trial {trial}: {cfg.rule} M={cfg.m} K={cfg.num_winners} " \
            f"D={cfg.talliers} N={len(rankings)}"
    elapsed = time.monotonic() - start
    _report(2, f"200 random {rule} elections match the oracle ({elapsed:.0f}s)")


def _legal_rankings(rng, rule, m, count):
    if rule == "kemeny":
        return [tuple(int(r) for r in rng.integers(1, m + 1, m)) for _ in range(count)]
    return [tuple(int(c) for c in rng.permutation(m) + 1) for _ in range(count)]


def _validate_batch(field, ballots, rule, seed=0):
    def prog(ctx):
        bundles = [b.bundle_for(ctx.party_id) for b in ballots]
        return batch_validate(ctx, Spool.from_bundles(bundles, rule, ballots[0].m, ctx.field.p),
                              rule, ballots[0].m)

    return run_parties(3, 2, field, prog, seed=seed)[1]


def test_criterion_3_validation_soundness_and_completeness():
    """1000 legal ballots per rule all accepted; 1000 inflated, 1000
    sign-flipped (condition-4-breaking) and 1000 high-degree share bundles
    all rejected."""
    field = PrimeField(M31)
    rng = np.random.default_rng(5)
    m = 3

    for rule in ("copeland", "maximin", "kemeny"):
        rankings = _legal_rankings(rng, rule, m, 1000)
        ballots = [share_ballot(ranking_to_matrix(rule, r, m), field, 2, 3,
                                np.random.default_rng(i), i + 1)
                   for i, r in enumerate(rankings)]
        verdicts = _validate_batch(field, ballots, rule)
        assert sum(v.accepted for v in verdicts) == 1000, rule

    # Inflating by c=2 only constitutes an attack when it changes the shared
    # entries; a maximin/kemeny matrix whose shared entries are all zero is
    # unchanged by doubling (the voter would just be submitting the legal
    # ballot).  Trials therefore sample ballots with a nonzero shared entry.
    inflated_total = 0
    for rule in ("copeland", "maximin", "kemeny"):
        bad = []
        i = 0
        while len(bad) < 1000:
            r = _legal_rankings(rng, rule, m, 1)[0]
            q = ranking_to_matrix(rule, r, m)
            i += 1
            if not matrix_entry_values(q, field).any():
                continue
            bad.append(share_ballot(BallotMatrix(rule, m, 2 * q.entries), field,
                                    2, 3, np.random.default_rng(1000 + i),
                                    len(bad) + 1))
        verdicts = _validate_batch(field, bad, rule)
        rejected = sum(not v.accepted for v in verdicts)
        assert rejected == 1000, rule
        inflated_total += rejected

    flip_total = 0
    for rule in ("copeland", "maximin"):  # condition 4 exists for these rules
        bad = [share_ballot(flip_breaking_condition4(rule, m, rng), field, 2, 3,
                            np.random.default_rng(2000 + i), i + 1)
               for i in range(1000)]
        verdicts = _validate_batch(field, bad, rule)
        rejected = sum(not v.accepted for v in verdicts)
        assert rejected == 1000, rule
        flip_total += rejected

    # degree-D' (here quadratic) share bundles for every entry of every ballot
    values = np.array([1 % field.p, (-1) % field.p, 1], dtype=np.uint64)
    bad = []
    for i in range(1000):
        while True:
            matrix = share_batch(field, values, 3, 3, np.random.default_rng(3000 + i))
            if not degree_at_most(field, matrix, 2).any():
                break
        bad.append(SharedBallot(i + 1, "copeland", m, matrix))
    verdicts = _validate_batch(field, bad, "copeland")
    degree_rejected = sum(not v.accepted for v in verdicts)
    assert degree_rejected == 1000

    _report(3, f"3000 legal accepted; {inflated_total} inflated, {flip_total} "
               f"sign-flipped, {degree_rejected} high-degree bundles rejected")


def test_criterion_4_condition4_privacy_constant():
    """For every legal ballot the opened F(Q)^2 is the same rule/M constant:
    256 for copeland M=3 and 4 for maximin (the squared permutation signature
    of the column-sum tuple, which squaring scrubs of its sign)."""
    field = PrimeField(M31)
    rng = np.random.default_rng(6)
    for rule, expect in (("copeland", 256), ("maximin", 4)):
        orders = _legal_rankings(rng, rule, 3, 100)
        stacked = np.stack([
            np.array([ranking_to_matrix(rule, r, 3).entry(a, b) % field.p
                      for a, b in upper_pairs(3)], dtype=np.uint64)
            for r in orders])
        dealt = share_batch(field, stacked.ravel(), 2, 3, rng).reshape(3, 100, 3)

        def prog(ctx):
            values = dealt[ctx.party_id - 1]
            sums = column_sum_shares(ctx, values, rule, 3)
            diffs = [sums[:, b - 1] - sums[:, a - 1] for a, b in upper_pairs(3)]
            fold = diffs[0]
            for d in diffs[1:]:
                fold = ctx.mul(fold, d)
            squared = ctx.mul(fold, fold)
            return ctx.open(squared, "validation_product")

        opened = run_parties(3, 2, field, prog, seed=7)[1]
        assert np.all(opened == expect), rule
    _report(4, "opened F(Q)^2 is constant: 256 (copeland M=3), 4 (maximin M=3)")


def test_criterion_5_gate_and_round_count_identities():
    """Portable cost claims, asserted by instrumentation: validation runs
    M(M-1)/2 rounds of 2B gates (the per-ballot squaring gate rides in the
    final round); top-k uses K(M-(K+1)/2) comparisons; maximin scoring uses
    M(M-2)."""
    field = PrimeField(M31)
    rng = np.random.default_rng(8)
    m, batch = 5, 40
    c = m * (m - 1) // 2
    ballots = [share_ballot(ranking_to_matrix("copeland", r, m), field, 2, 3,
                            np.random.default_rng(i), i + 1)
               for i, r in enumerate(_legal_rankings(rng, "copeland", m, batch))]

    def prog(ctx):
        bundles = [b.bundle_for(ctx.party_id) for b in ballots]
        r0, g0 = ctx.counters.mul_rounds, ctx.counters.mul_gates
        batch_validate(ctx, Spool.from_bundles(bundles, "copeland", m, ctx.field.p),
                       "copeland", m)
        validation_counts = (ctx.counters.mul_rounds - r0,
                             ctx.counters.mul_gates - g0)

        topk_counts = []
        for k in (1, 2, m):
            scores = ctx.rand_shares(m)
            c0 = ctx.counters.comparisons
            top_k(ctx, scores, k)
            topk_counts.append((k, ctx.counters.comparisons - c0))

        from ordervote.tally import AggregatedShares, aggregate
        agg = aggregate(ctx, Spool.from_bundles([b.bundle_for(ctx.party_id) for b in ballots[:7]],
                                                "copeland", m, ctx.field.p), "copeland", m)
        agg = AggregatedShares("maximin", m, 7, agg.entries)  # same share layout
        c0 = ctx.counters.comparisons
        maximin_scores(ctx, agg)
        maximin_count = ctx.counters.comparisons - c0
        return validation_counts, topk_counts, maximin_count

    (val_rounds, val_gates), topk_counts, maximin_count = \
        run_parties(3, 2, field, prog, seed=9)[1]
    assert val_rounds == c
    assert val_gates == 2 * batch * c  # includes the B squaring gates
    for k, comps in topk_counts:
        assert comps == k * m - k * (k + 1) // 2, f"K={k}"
    assert maximin_count == m * (m - 2)
    _report(5, f"validation {val_rounds} rounds x {2 * batch} gates; top-k and "
               f"maximin comparison identities hold")


def test_criterion_6_degree_reduction_property(f31):
    """10^4 random multiplication gates across D in {3,5,7,9}: every output
    share vector interpolates to degree <= D'-1 and opens to the product."""
    per_d = 2500
    total = 0
    for parties in (3, 5, 7, 9):
        threshold = (parties + 1) // 2
        rng = np.random.default_rng(parties)
        u = rng.integers(0, 31, size=per_d, dtype=np.uint64)
        v = rng.integers(0, 31, size=per_d, dtype=np.uint64)
        mu = deal(f31, u, threshold, parties, seed=parties)
        mv = deal(f31, v, threshold, parties, seed=parties + 1)

        def prog(ctx):
            return ctx.mul(dealt_shares(f31, mu, threshold, ctx.party_id),
                           dealt_shares(f31, mv, threshold, ctx.party_id)).values

        res = run_parties(parties, threshold, f31, prog)
        matrix = np.stack([res[d] for d in range(1, parties + 1)])
        assert degree_at_most(f31, matrix, threshold).all()
        opened = reconstruct_batch(f31, range(1, threshold + 1), matrix[:threshold])
        assert np.array_equal(opened, u * v % 31)
        total += per_d
    assert total == 10_000
    _report(6, "10^4 mul gates at D=3,5,7,9: outputs stay at degree <= D'-1 "
               "and open to the products")


def test_criterion_7_robustness_threshold_property():
    """Every shared quantity of a completed session reconstructs identically
    from every D'-subset of talliers (loss of D-D' talliers tolerated)."""
    cfg = ElectionConfig(rule="copeland", candidates=("A", "B", "C"),
                         num_winners=1, talliers=5, prime=M31,
                         expected_voters=10, seed=99).validate()
    rankings = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)]
    outcome = run_local_election(cfg, make_shared_ballots(cfg, rankings),
                                 capture=True)
    field, threshold = cfg.field, cfg.threshold
    checked = 0
    for label in ("aggregate", "scores"):
        rows = np.stack([outcome.captures[d][label][1] for d in range(1, 6)])
        reference = None
        for subset in itertools.combinations(range(5), threshold):
            got = reconstruct_batch(field, [i + 1 for i in subset],
                                    rows[list(subset)])
            if reference is None:
                reference = got
            assert np.array_equal(got, reference), (label, subset)
            checked += 1
    _report(7, f"aggregates and scores agree across all {checked} "
               f"D'-subsets of 5 talliers")


def test_criterion_8_performance_sanity():
    """Desk-scale run (in-memory, M=5, D=3): validation of B=500 ballots in
    < 10 s, one full tally of the same N=500 in < 30 s, its validation phase
    M(M-1)/2 rounds of 2B gates."""
    cfg = ElectionConfig(rule="copeland", candidates=tuple("ABCDE"),
                         num_winners=1, talliers=3, prime=M31,
                         expected_voters=500, seed=17).validate()
    rng = np.random.default_rng(1)
    ballots = make_shared_ballots(cfg, [tuple(int(c) for c in rng.permutation(5) + 1)
                                        for _ in range(500)])
    start = time.perf_counter()
    verdicts, _ = run_local_validation(cfg, ballots)
    validate_s = time.perf_counter() - start
    assert validate_s < 10
    assert all(v.accepted for v in verdicts)
    start = time.perf_counter()
    counters = run_local_election(cfg, ballots).result.counters
    tally_s = time.perf_counter() - start
    assert tally_s < 30
    validate = counters["phases"]["validate"]
    assert validate["mul_rounds"] == 10  # M(M-1)/2
    assert validate["mul_gates"] == 2 * 500 * 10  # 2B per round
    assert counters["comparisons"] == 1 * (5 - 1)  # K(M-(K+1)/2) for K=1
    _report(8, f"B=500 validation {validate_s:.2f}s "
               f"({validate['mul_gates']} gates / {validate['mul_rounds']} rounds); "
               f"N=500 tally {tally_s:.2f}s")
