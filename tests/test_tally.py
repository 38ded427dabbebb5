import math

import numpy as np
import pytest

from conftest import deal, run_parties
from ordervote.ballots import Spool, ranking_to_matrix, share_ballot
from ordervote.config import (PRIME_LADDER, FieldTooSmall, TooManyCandidates, rank_vectors,
                              select_winners)
from ordervote.engine import Shares
from ordervote.field import PrimeField
from ordervote.oracle import (PlainElection, kemeny_counts, kemeny_score,
                              plain_copeland, plain_kemeny, plain_maximin)
from ordervote.shamir import reconstruct_batch
from ordervote.tally import (AggregatedShares, RuleMismatch, _argmax, aggregate,
                             copeland_scores, kemeny_winners, lsb_extractions,
                             maximin_scores, top_k)

M31 = (1 << 31) - 1
ORDERS = ((1, 2, 3), (1, 3, 2), (2, 1, 3))  # the running three-voter example


def _ballots(field, rule, rankings, m, parties=3, threshold=2, seed=0):
    out = []
    for i, r in enumerate(rankings, 1):
        rng = np.random.default_rng(seed + i)
        out.append(share_ballot(ranking_to_matrix(rule, r, m), field, threshold,
                                parties, rng, i))
    return out


def _agg_from(field, rule, rankings, m, ctx):
    bundles = [b.bundle_for(ctx.party_id)
               for b in _ballots(field, rule, rankings, m)]
    return aggregate(ctx, Spool.from_bundles(bundles, rule, m, ctx.field.p), rule, m)


def test_aggregate_hand_examples(f_mersenne31):
    f = f_mersenne31

    def prog(ctx):
        cop = _agg_from(f, "copeland", ORDERS, 3, ctx)
        mxm = _agg_from(f, "maximin", ORDERS, 3, ctx)
        return (ctx.open(cop.entries, "final_output"),
                ctx.open(mxm.entries, "final_output"))

    res = run_parties(3, 2, f, prog)
    cop, mxm = res[1]
    assert cop.tolist() == [1, 3, 1]  # P(1,2), P(1,3), P(2,3)
    assert mxm.tolist() == [2, 3, 2]


def test_aggregate_single_ballot_and_rule_mismatch(f31):
    f = PrimeField(31)
    ballots = _ballots(f, "copeland", ((2, 1, 3),), 3)

    def prog(ctx):
        spool = Spool.from_bundles([ballots[0].bundle_for(ctx.party_id)], "copeland", 3,
                                   ctx.field.p)
        agg = aggregate(ctx, spool, "copeland", 3)
        with pytest.raises(RuleMismatch):
            aggregate(ctx, spool, "maximin", 3)
        return ctx.open(agg.entries, "final_output")

    got = run_parties(3, 2, f, prog)[1]
    assert got.tolist() == [30, 1, 1]  # exactly that ballot's entries


def test_copeland_scores_three_voters(f_mersenne31):
    f = f_mersenne31

    def prog(ctx):
        agg = _agg_from(f, "copeland", ORDERS, 3, ctx)
        scores = copeland_scores(ctx, agg, alpha=(1, 2))
        return ctx.open(scores, "final_output")

    got = run_parties(3, 2, f, prog)[1]
    assert got.tolist() == [4, 2, 0]  # 2*w


def test_copeland_all_tie_scores(f_mersenne31):
    f = f_mersenne31
    # two opposite voters: P = 0 everywhere, every score is s*(M-1)
    rankings = ((1, 2, 3), (3, 2, 1))

    def prog(ctx):
        agg = _agg_from(f, "copeland", rankings, 3, ctx)
        scores = copeland_scores(ctx, agg, alpha=(1, 2))
        return ctx.open(scores, "final_output")

    got = run_parties(3, 2, f, prog)[1]
    assert got.tolist() == [2, 2, 2]


def test_copeland_single_candidate(f_mersenne31):
    f = f_mersenne31

    def prog(ctx):
        agg = _agg_from(f, "copeland", ((1,),), 1, ctx)
        return ctx.open(copeland_scores(ctx, agg, (1, 2)), "final_output")

    assert run_parties(3, 2, f, prog)[1].tolist() == [0]


def test_maximin_scores_and_comparison_count(f_mersenne31):
    f = f_mersenne31

    def prog(ctx):
        agg = _agg_from(f, "maximin", ORDERS, 3, ctx)
        before = ctx.counters.comparisons
        scores = maximin_scores(ctx, agg)
        delta = ctx.counters.comparisons - before
        return ctx.open(scores, "final_output"), delta

    res = run_parties(3, 2, f, prog)
    scores, comparisons = res[1]
    assert scores.tolist() == [2, 1, 0]
    assert comparisons == 3 * (3 - 2)  # M(M-2)


def test_maximin_two_candidates_no_comparisons(f_mersenne31):
    f = f_mersenne31

    def prog(ctx):
        agg = _agg_from(f, "maximin", ((1, 2), (2, 1), (1, 2)), 2, ctx)
        before = ctx.counters.comparisons
        scores = maximin_scores(ctx, agg)
        assert ctx.counters.comparisons == before
        return ctx.open(scores, "final_output")

    assert run_parties(3, 2, f, prog)[1].tolist() == [2, 1]


def test_top_k_winner_and_counts(f_mersenne31):
    f = f_mersenne31
    scores_plain = np.array([4, 2, 0], dtype=np.uint64)
    mx = deal(f, scores_plain, 2, 3, seed=5)

    def prog(ctx):
        scores = Shares(f, 2, mx[ctx.party_id - 1].copy())
        before = ctx.counters.comparisons
        winners = top_k(ctx, scores, 1)
        return winners, ctx.counters.comparisons - before

    res = run_parties(3, 2, f, prog)
    winners, comps = res[1]
    assert winners == [1]
    assert comps == 2  # K(M - (K+1)/2) = 1*(3-1)


@pytest.mark.parametrize("m,k", [(3, 3), (4, 2), (5, 5), (1, 1)])
def test_top_k_comparison_identity(f_mersenne31, m, k):
    f = f_mersenne31
    rng = np.random.default_rng(m * 10 + k)
    plain = rng.integers(0, 50, size=m, dtype=np.uint64)
    mx = deal(f, plain, 2, 3, seed=6)

    def prog(ctx):
        scores = Shares(f, 2, mx[ctx.party_id - 1].copy())
        before = ctx.counters.comparisons
        winners = top_k(ctx, scores, k)
        return winners, ctx.counters.comparisons - before

    res = run_parties(3, 2, f, prog)
    winners, comps = res[1]
    assert comps == k * m - k * (k + 1) // 2  # K(M-(K+1)/2)
    expect = sorted(range(1, m + 1), key=lambda i: (-int(plain[i - 1]), i))[:k]
    assert winners == expect
    if k == m:
        assert comps == m * (m - 1) // 2  # full ranking bound


def test_top_k_tie_goes_to_lowest_index(f_mersenne31):
    f = f_mersenne31
    mx = deal(f, np.array([5, 9, 9, 9], dtype=np.uint64), 2, 3, seed=7)

    def prog(ctx):
        scores = Shares(f, 2, mx[ctx.party_id - 1].copy())
        return top_k(ctx, scores, 4)

    assert run_parties(3, 2, f, prog)[1] == [2, 3, 4, 1]


def test_argmax_invariant_under_public_rescaling(f_mersenne31):
    f = f_mersenne31
    plain = np.array([7, 3, 11, 11], dtype=np.uint64)
    mx = deal(f, plain, 2, 3, seed=8)

    def prog(ctx):
        scores = Shares(f, 2, mx[ctx.party_id - 1].copy())
        w1 = top_k(ctx, scores, 4)
        w2 = top_k(ctx, 5 * scores, 4)  # t > 0 leaves the order unchanged
        return w1, w2

    w1, w2 = run_parties(3, 2, f, prog)[1]
    assert w1 == w2 == [3, 4, 1, 2]


def test_kemeny_single_voter_m2(f_mersenne31):
    f = f_mersenne31

    def prog(ctx):
        agg = _agg_from(f, "kemeny", ((1, 2),), 2, ctx)
        return kemeny_winners(ctx, agg, 2)

    winners, ranking = run_parties(3, 2, f, prog)[1]
    assert ranking == (1, 2) and winners == [1, 2]


def test_kemeny_unanimous(f_mersenne31):
    f = f_mersenne31
    rankings = ((2, 1, 3),) * 4

    def prog(ctx):
        agg = _agg_from(f, "kemeny", rankings, 3, ctx)
        return kemeny_winners(ctx, agg, 1)

    winners, ranking = run_parties(3, 2, f, prog)[1]
    assert ranking == (2, 1, 3) and winners == [2]


def test_kemeny_random_matches_oracle(f_mersenne31):
    f = f_mersenne31
    rng = np.random.default_rng(9)
    for trial in range(5):
        m = int(rng.integers(2, 5))
        rankings = tuple(tuple(int(r) for r in rng.integers(1, m + 1, m))
                         for _ in range(int(rng.integers(1, 9))))

        def prog(ctx):
            agg = _agg_from(f, "kemeny", rankings, m, ctx)
            before = ctx.counters.comparisons
            out = kemeny_winners(ctx, agg, m)
            return out, ctx.counters.comparisons - before

        (winners, ranking), comps = run_parties(3, 2, f, prog, seed=trial)[1]
        oracle_ranking, oracle_winners, _ = plain_kemeny(
            PlainElection("kemeny", m, m, rankings))
        assert ranking == oracle_ranking
        assert winners == oracle_winners
        assert comps == lsb_extractions("kemeny", m, k=m)


def test_kemeny_candidate_guard(f_mersenne31):
    f = f_mersenne31

    def prog(ctx):
        agg = AggregatedShares("kemeny", 7, 1, ctx.constant(np.zeros(42)))
        with pytest.raises(TooManyCandidates):
            kemeny_winners(ctx, agg, 1)
        with pytest.raises(TooManyCandidates):  # before 7! - 1 masks are prepared
            lsb_extractions("kemeny", 7, 1)
        return True

    assert run_parties(1, 1, f, prog)[1]


def test_field_too_small_guard(f31):
    """Each bound that keeps compared scores less than p/2 apart is enforced
    by the tally itself, not only by the config."""
    def prog(ctx):
        agg = AggregatedShares("copeland", 3, 20, ctx.constant(np.zeros(3)))
        with pytest.raises(FieldTooSmall):
            copeland_scores(ctx, agg, (1, 2))  # p = 31 <= 2N = 40
        agg = AggregatedShares("copeland", 9, 15, ctx.constant(np.zeros(36)))
        with pytest.raises(FieldTooSmall, match="max"):
            copeland_scores(ctx, agg, (1, 2))  # scores 16 and 0: 31 <= 2 * 2 * 8
        agg = AggregatedShares("kemeny", 3, 6, ctx.constant(np.zeros(6)))
        with pytest.raises(FieldTooSmall, match="ranking score"):
            kemeny_winners(ctx, agg, 1)  # scores up to 18: 31 <= 6 * 3 * 2
        return True

    assert run_parties(1, 1, f31, prog)[1]


def test_no_intermediate_secret_opened(f_mersenne31):
    """The only openings in a full tally are validation products, the
    degree-check broadcasts, LSB maskings, winner identities, and whatever the
    operator explicitly publishes."""
    f = f_mersenne31
    from ordervote.validation import batch_validate

    def prog(ctx):
        ballots = _ballots(f, "copeland", ORDERS, 3)
        bundles = [b.bundle_for(ctx.party_id) for b in ballots]
        spool = Spool.from_bundles(bundles, "copeland", 3, ctx.field.p)
        verdicts = batch_validate(ctx, spool, "copeland", 3)
        assert all(v.accepted for v in verdicts)
        agg = aggregate(ctx, spool, "copeland", 3)
        scores = copeland_scores(ctx, agg, (1, 2))
        top_k(ctx, scores, 1)
        return {tag for tag, _ in ctx.counters.open_log}

    purposes = run_parties(3, 2, f, prog)[1]
    assert purposes <= {"degree_check", "validation_product", "lsb_mask",
                        "winner_index"}


def test_shares_reconstruct_from_any_threshold_subset(f_mersenne31):
    """Robustness: aggregated entries and scores reconstruct identically from
    every D'-subset of talliers (loss of D - D' talliers is tolerated)."""
    import itertools
    f = f_mersenne31
    parties, threshold = 5, 3

    def prog(ctx):
        ballots = _ballots(f, "maximin", ORDERS, 3, parties=parties,
                           threshold=threshold)
        agg = aggregate(ctx, Spool.from_bundles([b.bundle_for(ctx.party_id) for b in ballots],
                                                "maximin", 3, ctx.field.p), "maximin", 3)
        scores = maximin_scores(ctx, agg)
        return agg.entries.values, scores.values

    res = run_parties(parties, threshold, f, prog)
    for what in (0, 1):
        rows = np.stack([res[d][what] for d in range(1, parties + 1)])
        reference = None
        for subset in itertools.combinations(range(parties), threshold):
            xs = [i + 1 for i in subset]
            got = reconstruct_batch(f, xs, rows[list(subset)])
            if reference is None:
                reference = got
            assert np.array_equal(got, reference)
    assert reference.tolist() == [2, 1, 0]


# -- log-depth selection trees --------------------------------------------------------

def _dealt_scores(f, plain, seed):
    mx = deal(f, np.asarray(plain, dtype=np.uint64), 2, 3, seed=seed)
    return lambda ctx: Shares(f, 2, mx[ctx.party_id - 1].copy())


@pytest.mark.parametrize("plain", [[5, 1, 1, 1, 5], [1, 7, 3, 7, 7, 7]])
def test_top_k_ties_across_subtrees_go_to_lowest_index(f31, plain):
    """Equal maxima that meet only high in the tree (at the root for
    [5,1,1,1,5]) still elect the lowest index first."""
    scores = _dealt_scores(f31, plain, seed=21)
    got = run_parties(3, 2, f31, lambda ctx: top_k(ctx, scores(ctx), len(plain)))[1]
    assert got == select_winners(plain, len(plain))
    assert got[0] == plain.index(max(plain)) + 1


def test_top_k_every_m_and_k_matches_select_winners(f31):
    rng = np.random.default_rng(22)
    cases = [(m, k, rng.integers(0, 5, size=m).tolist())
             for m in range(1, 9) for k in range(1, m + 1)]
    dealt = [_dealt_scores(f31, plain, seed=30 + i) for i, (_, _, plain) in enumerate(cases)]

    def prog(ctx):
        out = []
        for (m, k, _), scores in zip(cases, dealt):
            before = ctx.counters.comparisons
            winners = top_k(ctx, scores(ctx), k)
            out.append((winners, ctx.counters.comparisons - before))
        return out

    for (m, k, plain), (winners, comps) in zip(cases, run_parties(3, 2, f31, prog)[1]):
        assert winners == select_winners(plain, k), (m, k, plain)
        assert comps == k * m - k * (k + 1) // 2  # K(M-(K+1)/2)


def test_selection_depth_is_log2_of_entries(f_mersenne31):
    """One batch of LSB extractions per tree level: ceil(log2 n) mask takes
    per argmax over n entries, counted by wrapping ctx.take_masks (a mask
    batch that falls short may add rounds, so round totals are not
    asserted)."""
    f = f_mersenne31
    rng = np.random.default_rng(24)
    plains = [rng.integers(0, 9, n).tolist() for n in range(1, 10)]
    dealt = [_dealt_scores(f, plain, seed=40 + n) for n, plain in enumerate(plains)]

    def prog(ctx):
        calls = []
        take = ctx.take_masks

        def counted(k):
            calls.append(k)
            return take(k)

        ctx.take_masks = counted

        def depth(fn, *args):
            del calls[:]
            out = fn(*args)
            return out, len(calls)

        argmax = []
        for scores, plain in zip(dealt, plains):
            opened, d = depth(_argmax, ctx, scores(ctx), ctx.constant(range(1, len(plain) + 1)))
            argmax.append((int(opened[0]), d))
        top2 = depth(top_k, ctx, dealt[4](ctx), 2)[1]  # n = 5, then n = 4
        maximin = depth(maximin_scores, ctx,
                        _agg_from(f, "maximin", ((1, 2, 3, 4, 5, 6),) * 3, 6, ctx))[1]
        kemeny = depth(kemeny_winners, ctx, _agg_from(f, "kemeny", ((2, 1, 3),), 3, ctx), 1)[1]
        return argmax, top2, maximin, kemeny

    argmax, top2, maximin, kemeny = run_parties(3, 2, f, prog)[1]
    for plain, (winner, d) in zip(plains, argmax):
        assert d == math.ceil(math.log2(len(plain)))
        assert winner == plain.index(max(plain)) + 1
    assert top2 == 3 + 2
    assert maximin == 3  # M-1 = 5 opponent columns
    assert kemeny == 1  # 3! = 6 rankings in one group (KEMENY_GROUPS)


def test_kemeny_tie_across_tree_halves_picks_first_ranking(f_mersenne31):
    """Rankings 2 = (2,1,3) and 4 = (3,1,2) tie for the best score; the
    lower index wins their group, the argmax's only level at M = 3."""
    f = f_mersenne31
    rankings = ((2, 1, 2), (3, 1, 3))
    counts = kemeny_counts(rankings, 3)
    all_scores = [kemeny_score(counts, r) for r in rank_vectors(3)]
    best = max(all_scores)
    assert [i for i, s in enumerate(all_scores) if s == best] == [2, 4]

    def prog(ctx):
        return kemeny_winners(ctx, _agg_from(f, "kemeny", rankings, 3, ctx), 3)

    winners, ranking = run_parties(3, 2, f, prog)[1]
    assert ranking == (2, 1, 3) == plain_kemeny(PlainElection("kemeny", 3, 3, rankings))[0]
    assert winners == [2, 1, 3]


@pytest.mark.parametrize("prime", PRIME_LADDER)
def test_kemeny_every_m_matches_the_oracle_at_both_ladder_primes(prime):
    """Kemeny for M = 1..6 at both primes of the ladder: the ranking and the
    winners are the oracle's, and the argmax makes the comparisons of its
    plan (``KEMENY_GROUPS``) that ``lsb_extractions`` counts."""
    f = PrimeField(prime)
    rng = np.random.default_rng(prime % 1000)
    for m in range(1, 7):
        k = int(rng.integers(1, m + 1))
        rankings = tuple(tuple(int(r) for r in rng.integers(1, m + 1, m)) for _ in range(7))

        def prog(ctx):
            agg = _agg_from(f, "kemeny", rankings, m, ctx)
            out = kemeny_winners(ctx, agg, k)
            return out, ctx.counters.comparisons

        (winners, ranking), comps = run_parties(3, 2, f, prog, seed=m)[1]
        oracle_ranking, oracle_winners, _ = plain_kemeny(PlainElection("kemeny", m, k, rankings))
        assert (ranking, winners) == (oracle_ranking, oracle_winners), (prime, m)
        assert comps == lsb_extractions("kemeny", m, k), (prime, m)


@pytest.mark.parametrize("groups", [(3,), (4,), (2, 4), (4, 2), (3, 3), (8,)])
def test_wider_levels_elect_the_lowest_index_of_the_maximum(f31, groups):
    """Argmax trees whose levels compare within groups wider than pairs:
    ties within a group, ties between the winners of different groups, and
    a last group shorter than the rest, or a column alone, all elect the
    lowest index of the maximum."""
    rng = np.random.default_rng(sum(groups))
    plains = [[5] * 9, [1, 4, 4, 2, 0, 4, 3, 4], [0, 1, 2, 3, 2, 3, 3], [6, 0, 0, 0, 6],
              [0, 2, 1, 2, 0, 0, 0, 0, 2, 2], [3, 1]]
    plains += [rng.integers(0, 3, n).tolist() for n in range(2, 12)]
    dealt = [_dealt_scores(f31, plain, seed=60 + i) for i, plain in enumerate(plains)]

    def prog(ctx):
        return [int(_argmax(ctx, scores(ctx), ctx.constant(range(1, len(plain) + 1)),
                            groups=groups)[0]) for scores, plain in zip(dealt, plains)]

    got = run_parties(3, 2, f31, prog)[1]
    assert got == [plain.index(max(plain)) + 1 for plain in plains]


@pytest.mark.parametrize("m, levels", [(4, [36, 15]), (5, [60, 30, 43, 28]),
                                       (6, [360, 180, 270, 108, 28])])
def test_kemeny_opens_only_the_masked_margins_and_the_winning_label(f_mersenne31, m, levels):
    """With the masks prepared ahead, a Kemeny argmax opens one masked
    margin c per comparison, level by level in its plan's groups, and then
    the winning ranking's label, nothing else: no score, no comparison bit
    and no label of a losing ranking."""
    f = f_mersenne31
    rankings = tuple(tuple(int(r) for r in rng_row)
                     for rng_row in np.random.default_rng(m).integers(1, m + 1, (5, m)))

    def prog(ctx):
        agg = _agg_from(f, "kemeny", rankings, m, ctx)
        ctx.prepare_masks(lsb_extractions("kemeny", m, 1))
        ctx.finish_masks()
        before = len(ctx.counters.open_log)
        ranking = kemeny_winners(ctx, agg, 1)[1]
        return ranking, ctx.counters.open_log[before:]

    ranking, opened = run_parties(3, 2, f, prog)[1]
    assert ranking == plain_kemeny(PlainElection("kemeny", m, 1, rankings))[0]
    assert opened == [("lsb_mask", n) for n in levels] + [("winner_index", 1)]
    assert sum(levels) == lsb_extractions("kemeny", m, 1)


def test_maximin_tree_matches_oracle_for_m_2_to_7(f_mersenne31):
    f = f_mersenne31
    rng = np.random.default_rng(23)
    elections = {m: tuple(tuple(int(c) for c in rng.permutation(m) + 1) for _ in range(7))
                 for m in range(2, 8)}

    def prog(ctx):
        out = {}
        for m, rankings in elections.items():
            before = ctx.counters.comparisons
            scores = maximin_scores(ctx, _agg_from(f, "maximin", rankings, m, ctx))
            out[m] = (ctx.open(scores, "final_output").tolist(),
                      ctx.counters.comparisons - before)
        return out

    got = run_parties(3, 2, f, prog)[1]
    for m, rankings in elections.items():
        _, oracle_scores = plain_maximin(PlainElection("maximin", m, 1, rankings))
        assert got[m] == (oracle_scores, m * (m - 2))


def test_copeland_scoring_spends_gates_only_on_positivity(f_mersenne31):
    """The zero bit is 1 - sigma_+ - sigma_-: every scoring gate lies inside
    the one batched LSB extraction, 2 per upper entry."""
    f = f_mersenne31

    def prog(ctx):
        agg = _agg_from(f, "copeland", ((1, 2, 3), (3, 2, 1), (2, 1, 3)), 3, ctx)
        g0, x0 = ctx.counters.mul_gates, ctx.counters.lsb_extractions
        scores = copeland_scores(ctx, agg, (1, 2))
        g1, x1 = ctx.counters.mul_gates, ctx.counters.lsb_extractions
        ctx.shared_lsb(ctx.rand_shares(x1 - x0))  # a bare extraction of as many
        return (ctx.open(scores, "final_output").tolist(),
                g1 - g0 == ctx.counters.mul_gates - g1, x1 - x0)

    scores, only_lsb, extractions = run_parties(3, 2, f, prog)[1]
    _, oracle = plain_copeland(PlainElection("copeland", 3, 1,
                                             ((1, 2, 3), (3, 2, 1), (2, 1, 3))))
    assert scores == oracle
    assert only_lsb and extractions == 2 * 3


def test_kemeny_wrapping_scores_refused():
    """p = 101, M = 4: twenty identical ballots score 20 * 6 = 120 > p, which
    would wrap and elect (1,2,4,3); the tally refuses instead."""
    f = PrimeField(101)
    rankings = ((1, 2, 3, 4),) * 20

    def prog(ctx):
        agg = _agg_from(f, "kemeny", rankings, 4, ctx)
        with pytest.raises(FieldTooSmall, match="ranking score"):
            kemeny_winners(ctx, agg, 1)
        return True

    assert run_parties(3, 2, f, prog)[1]
