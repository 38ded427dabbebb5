import itertools

import numpy as np
from scipy import stats

from conftest import deal, run_parties
from ordervote.ballots import (BallotMatrix, SharedBallot, Spool, ranking_to_matrix,
                               share_ballot, upper_pairs)
from ordervote.field import PrimeField
from ordervote.oracle import legal_ballot_matrix
from ordervote.shamir import reconstruct_batch, share_batch
from ordervote.validation import (REASON_DEGREE, REASON_DOMAIN, REASON_SUMS,
                                  batch_validate, column_sum_shares,
                                  masked_degree_check, reconstruct_rejected)

M31 = (1 << 31) - 1


def shared_from_matrix(field, matrix, rule, m, voter_id):
    return SharedBallot(voter_id, rule, m, matrix)


def legal_shared_ballot(field, rule, order_or_ranks, m, threshold, parties, seed, voter):
    q = ranking_to_matrix(rule, order_or_ranks, m)
    rng = np.random.default_rng(seed)
    return share_ballot(q, field, threshold, parties, rng, voter)


def flip_breaking_condition4(rule, m, rng):
    """A legal ballot matrix with some upper entries flipped so the column
    sums collide (the matrix stays in-domain but encodes no ordering)."""
    pairs = upper_pairs(m)
    while True:
        order = tuple(int(c) for c in rng.permutation(m) + 1)
        q = ranking_to_matrix(rule, order, m)
        for mask in range(1, 1 << len(pairs)):
            entries = q.entries.copy()
            for i, (a, b) in enumerate(pairs):
                if mask >> i & 1:
                    v = entries[a - 1, b - 1]
                    flipped = -v if rule == "copeland" else 1 - v
                    entries[a - 1, b - 1] = flipped
                    entries[b - 1, a - 1] = -flipped if rule == "copeland" else 1 - flipped
            if not legal_ballot_matrix(rule, entries):
                return BallotMatrix(rule, m, entries)


# -- share-degree legality -----------------------------------------------------

def _degree_flags(field, rows):
    """masked_degree_check over party d's values rows[d]; party 1's flags."""
    def prog(ctx):
        return masked_degree_check(ctx, np.asarray(rows[ctx.party_id - 1], dtype=np.uint64))

    flags = run_parties(3, 2, field, prog)
    assert all(np.array_equal(flags[d], flags[1]) for d in (2, 3))
    return flags[1]


def test_degree_check_accepts_honest_sharing(f31):
    mx = deal(f31, np.arange(12, dtype=np.uint64), 2, 3, seed=1)
    assert _degree_flags(f31, mx).all()


def test_degree_check_rejects_quadratic_shares(f31):
    # shares (1, 2, 4) at x = 1, 2, 3: the interpolant is a parabola
    assert not _degree_flags(f31, [[1], [2], [4]]).any()


def test_degree_check_accepts_constant_shares(f31):
    assert _degree_flags(f31, [[7, 7]] * 3).all()


def test_degree_check_opened_constants_are_uniform(f31):
    # the masked constants behind the rows the check opens are uniform
    mx = deal(f31, np.full(31 * 60, 13, dtype=np.uint64), 2, 3, seed=2)

    def prog(ctx):
        opened = []
        open_share_matrix = ctx.open_share_matrix

        def capture(values, purpose):
            opened.append(open_share_matrix(values, purpose))
            return opened[-1]

        ctx.open_share_matrix = capture
        assert masked_degree_check(ctx, mx[ctx.party_id - 1]).all()
        (rows,) = opened
        return reconstruct_batch(ctx.field, range(1, ctx.parties + 1), rows)

    res = run_parties(3, 2, f31, prog)
    counts = np.bincount(res[1].astype(int), minlength=31)
    assert stats.chisquare(counts).pvalue > 1e-4


# -- entry domain ----------------------------------------------------------------

def _validate_one(field, rule, m, values, seed):
    """batch_validate with B = 1 on a ballot dealt from raw entry values."""
    mx = deal(field, np.asarray(values, dtype=np.uint64), 2, 3, seed=seed)
    return _run_batch(field, [SharedBallot(1, rule, m, mx)], rule)[0][0]


def test_entry_domain_examples(f31):
    cases = [
        ("copeland", [30], True),   # -1: ( -1+1)(-1-1) = 0
        ("copeland", [2], False),   # 2: 3*1 = 3 != 0
        ("maximin", [1], True),     # 1: 1*0 = 0
        ("maximin", [2], False),
        ("kemeny", [0, 0], True),   # a tie
        ("kemeny", [29, 0], False),  # -2 embeds as 29
    ]
    for rule, values, expect in cases:
        verdict = _validate_one(f31, rule, 2, values, seed=3)
        assert verdict.accepted == expect, (rule, values)
        if not expect:
            assert verdict.reason == REASON_DOMAIN


def test_kemeny_pair_sum_check(f31):
    # entries (1, 1) for the pair (1,2),(2,1): each alone is in {0,1} but the
    # sum 2 betrays an inconsistent ballot
    verdict = _validate_one(f31, "kemeny", 2, [1, 1], seed=4)
    assert not verdict.accepted and verdict.reason == REASON_DOMAIN


def test_cyclic_kemeny_ballot_is_accepted_by_the_check_and_the_oracle(f31):
    """The Kemeny ballot contract: entries in {0,1} and opposing pair sums in
    {0,1}, with no transitivity.  The cycle 1 > 2 > 3 > 1 is accepted by the
    shared check and by the plaintext oracle alike."""
    entries = np.zeros((3, 3), dtype=np.int64)
    entries[0, 1] = entries[1, 2] = entries[2, 0] = 1
    q = BallotMatrix("kemeny", 3, entries)
    ballot = share_ballot(q, f31, 2, 3, np.random.default_rng(6), 1)
    verdict = _run_batch(f31, [ballot], "kemeny")[0][0]
    assert verdict.accepted and legal_ballot_matrix("kemeny", entries)


# -- column sums and distinctness ---------------------------------------------------

def test_column_sums_match_hand_example(f31):
    q = ranking_to_matrix("copeland", (2, 1, 3), 3)
    vals = np.array([q.entry(a, b) % 31 for a, b in upper_pairs(3)], dtype=np.uint64)
    mx = deal(f31, vals, 2, 3, seed=5)

    def prog(ctx):
        sums = column_sum_shares(ctx, mx[ctx.party_id - 1], "copeland", 3)
        return ctx.open(sums, "final_output")

    got = run_parties(3, 2, f31, prog)[1]
    assert got.tolist() == [0, (-2) % 31, 2]


def test_maximin_column_sums_are_permutation(f31):
    rng = np.random.default_rng(6)
    for m in (1, 2, 4):
        order = tuple(int(c) for c in rng.permutation(m) + 1)
        q = ranking_to_matrix("maximin", order, m)
        vals = np.array([q.entry(a, b) for a, b in upper_pairs(m)], dtype=np.uint64)
        mx = deal(f31, vals, 2, 3, seed=m)

        def prog(ctx):
            sums = column_sum_shares(ctx, mx[ctx.party_id - 1], "maximin", m)
            return ctx.open(sums, "final_output")

        got = run_parties(3, 2, f31, prog)[1]
        assert sorted(got.tolist()) == list(range(m))


def test_distinct_sums_constants(f_mersenne31):
    f = f_mersenne31
    rng = np.random.default_rng(7)
    for rule, expect in (("copeland", 256), ("maximin", 4)):
        order = tuple(int(c) for c in rng.permutation(3) + 1)
        q = ranking_to_matrix(rule, order, 3)
        vals = np.array([q.entry(a, b) % f.p for a, b in upper_pairs(3)],
                        dtype=np.uint64)
        mx = deal(f, vals, 2, 3, seed=8)

        def prog(ctx):
            sums = column_sum_shares(ctx, mx[ctx.party_id - 1], rule, 3)
            diffs = [sums[b - 1] - sums[a - 1] for a, b in upper_pairs(3)]
            fold = diffs[0]
            for d in diffs[1:]:
                fold = ctx.mul(fold, d)
            squared = ctx.mul(fold, fold)
            return int(ctx.open(squared, "validation_product")[0])

        got = run_parties(3, 2, f, prog)[1]
        assert got == expect


def test_verify_distinct_sums_detects_collision(f31):
    # the cyclic Copeland entries P(1,2), P(1,3), P(2,3) = 1, -1, 1 are each in
    # {-1, 1}, but every column sums to 0: F = 0
    verdict = _validate_one(f31, "copeland", 3, [1, 30, 1], seed=9)
    assert not verdict.accepted and verdict.reason == REASON_SUMS


# -- batch validation ------------------------------------------------------------

def _run_batch(field, ballots, rule, parties=3, threshold=2, seed=10):
    def prog(ctx):
        bundles = [b.bundle_for(ctx.party_id) for b in ballots]
        before_rounds = ctx.counters.mul_rounds
        before_gates = ctx.counters.mul_gates
        verdicts = batch_validate(ctx, Spool.from_bundles(bundles, rule, ballots[0].m,
                                                          ctx.field.p), rule, ballots[0].m)
        return (verdicts,
                ctx.counters.mul_rounds - before_rounds,
                ctx.counters.mul_gates - before_gates)

    return run_parties(parties, threshold, field, prog, seed=seed)[1]


def test_batch_accepts_legal_ballots_and_counts_gates(f_mersenne31):
    f = f_mersenne31
    m, batch = 4, 8
    rng = np.random.default_rng(11)
    ballots = [legal_shared_ballot(f, "copeland", tuple(int(c) for c in rng.permutation(m) + 1),
                                   m, 2, 3, seed=100 + i, voter=i + 1)
               for i in range(batch)]
    verdicts, mul_rounds, mul_gates = _run_batch(f, ballots, "copeland")
    assert all(v.accepted for v in verdicts)
    c = m * (m - 1) // 2
    assert mul_rounds == c  # M(M-1)/2 rounds...
    assert mul_gates == 2 * batch * c  # ...of 2B simultaneous gates each


def test_batch_rejects_inflated_ballot(f_mersenne31):
    f = f_mersenne31
    m = 3
    rng = np.random.default_rng(12)
    good = legal_shared_ballot(f, "copeland", (2, 1, 3), m, 2, 3, 200, 1)
    q = ranking_to_matrix("copeland", (1, 2, 3), m)
    inflated = BallotMatrix("copeland", m, 2 * q.entries)
    bad = share_ballot(inflated, f, 2, 3, rng, 2)
    verdicts, _, _ = _run_batch(f, [good, bad], "copeland")
    assert verdicts[0].accepted
    assert not verdicts[1].accepted and verdicts[1].reason == REASON_DOMAIN


def test_batch_rejects_sign_flip_breaking_condition4(f_mersenne31):
    f = f_mersenne31
    rng = np.random.default_rng(13)
    for rule in ("copeland", "maximin"):
        flipped = flip_breaking_condition4(rule, 3, rng)
        bad = share_ballot(flipped, f, 2, 3, rng, 7)
        verdicts, _, _ = _run_batch(f, [bad], rule)
        assert not verdicts[0].accepted
        assert verdicts[0].reason == REASON_SUMS


def test_batch_rejects_high_degree_sharing(f31):
    # a degree-D' (quadratic at D'=2) share bundle for every entry
    m = 3
    q = ranking_to_matrix("copeland", (1, 2, 3), m)
    vals = np.array([q.entry(a, b) % 31 for a, b in upper_pairs(m)], dtype=np.uint64)
    rng = np.random.default_rng(14)
    while True:
        matrix = share_batch(PrimeField(31), vals, 3, 3, rng)  # degree <= 2
        from ordervote.shamir import degree_at_most
        if not degree_at_most(PrimeField(31), matrix, 2).any():
            break
    bad = SharedBallot(1, "copeland", m, matrix)
    verdicts, _, _ = _run_batch(PrimeField(31), [bad], "copeland")
    assert not verdicts[0].accepted and verdicts[0].reason == REASON_DEGREE


def test_batch_kemeny_legal_and_inconsistent(f_mersenne31):
    f = f_mersenne31
    rng = np.random.default_rng(15)
    good = legal_shared_ballot(f, "kemeny", (2, 2, 1), 3, 2, 3, 300, 1)
    entries = ranking_to_matrix("kemeny", (1, 2, 3), 3).entries.copy()
    entries[1, 0] = 1  # both (1,2) and (2,1) claim "higher": pair sum 2
    bad = share_ballot(BallotMatrix("kemeny", 3, entries), f, 2, 3, rng, 2)
    verdicts, mul_rounds, _ = _run_batch(f, [good, bad], "kemeny")
    assert verdicts[0].accepted
    assert not verdicts[1].accepted and verdicts[1].reason == REASON_DOMAIN
    assert mul_rounds == 1  # all kemeny products are simultaneous


def test_batch_edge_sizes(f31):
    # M = 1: nothing to share, trivially accepted; M = 2: one round of checks
    one = SharedBallot(1, "copeland", 1, np.zeros((3, 0), dtype=np.uint64))
    verdicts, mul_rounds, gates = _run_batch(f31, [one], "copeland")
    assert verdicts[0].accepted and mul_rounds == 0 and gates == 0
    two = legal_shared_ballot(f31, "copeland", (2, 1), 2, 2, 3, 400, 1)
    verdicts, mul_rounds, gates = _run_batch(f31, [two], "copeland")
    assert verdicts[0].accepted and mul_rounds == 1 and gates == 2


def test_soundness_exhaustive_m3_copeland(f31):
    """Every +/-1 antisymmetric zero-diagonal matrix violating condition 4 is
    rejected; every legal one is accepted (exhaustive over all 8 sign patterns)."""
    pairs = upper_pairs(3)
    rng = np.random.default_rng(16)
    for assignment in itertools.product((-1, 1), repeat=3):
        entries = np.zeros((3, 3), dtype=np.int64)
        for (a, b), v in zip(pairs, assignment):
            entries[a - 1, b - 1] = v
            entries[b - 1, a - 1] = -v
        ballot = share_ballot(BallotMatrix("copeland", 3, entries), PrimeField(31),
                              2, 3, rng, 1)
        verdicts, _, _ = _run_batch(PrimeField(31), [ballot], "copeland",
                                    seed=hash(assignment) % 1000)
        assert verdicts[0].accepted == legal_ballot_matrix("copeland", entries)


def _product_rows(field, ballots, rule):
    """batch_validate over the ballots at D = 3; for party 1, the D rows of
    every opened-product layer, as (D, width) arrays, and the counters that
    validation moved, ``open_log`` included."""
    def prog(ctx):
        layers, reconstruct = [], ctx._reconstruct

        def capture(rows, threshold, what):
            if what == "product shares":
                layers.append(np.stack(rows))
            return reconstruct(rows, threshold, what)

        ctx._reconstruct = capture
        before = ctx.summary()
        verdicts = batch_validate(ctx, Spool.from_bundles(
            [b.bundle_for(ctx.party_id) for b in ballots], rule, ballots[0].m, ctx.field.p),
            rule, ballots[0].m)
        after = ctx.summary()
        moved = {key: after[key] - before[key] for key in after}
        log = [k for purpose, k in ctx.counters.open_log if purpose == "validation_product"]
        return verdicts, layers, dict(moved, open_log=log)

    return run_parties(3, 2, field, prog, seed=21)[1]


def test_opened_product_polynomials_are_uniform_but_for_their_constants(f31):
    """Copeland and Maximin M=3, 120 legal ballots each at p = 31: the rows
    that the opened-product layers broadcast define degree-2 polynomials.
    The constants of the opened gates are what an opening of the products
    would reveal, 0 for every entry domain and F(Q)^2 (256 = 8 mod 31 for
    Copeland, 4 for Maximin) for the squares; their other coefficients are
    uniform over Z_31, for the sharings of zero are."""
    m, batch, c = 3, 120, 3
    rng = np.random.default_rng(20)
    vander = np.vander([1, 2, 3], 3, increasing=True)  # det 2: 2 V^-1 is integral
    inverse = np.rint(2 * np.linalg.inv(vander)).astype(np.int64) * pow(2, -1, 31) % 31
    assert (inverse @ vander % 31 == np.eye(3)).all()
    rest = []
    for rule, square in (("copeland", 256 % 31), ("maximin", 4)):
        ballots = [legal_shared_ballot(f31, rule, tuple(int(x) for x in rng.permutation(m) + 1),
                                       m, 2, 3, seed=900 + i, voter=i + 1)
                   for i in range(batch)]
        verdicts, layers, _ = _product_rows(f31, ballots, rule)
        assert all(v.accepted for v in verdicts) and len(layers) == c
        opened = [layer[:, :batch] for layer in layers[:-1]] + [layers[-1]]
        for rows in opened:
            coeffs = inverse @ rows.astype(np.int64) % 31
            constants = coeffs[0].reshape(-1, batch)
            assert not constants[0].any(), rule  # an entry domain
            if constants.shape[0] == 2:
                assert (constants[1] == square).all(), rule
            rest.append(coeffs[1:].ravel())
    counts = np.bincount(np.concatenate(rest), minlength=31)
    assert counts.sum() == 2 * 2 * batch * (c + 1)
    assert stats.chisquare(counts).pvalue > 1e-4


def test_validation_opens_its_products_in_its_layers():
    """B = 7 legal ballots at p = 2^31 - 1, for M = 2..6.  Copeland and
    Maximin take C = M(M-1)/2 layers of 2B gates and no round after the last
    (a deal round, the degree check and the layers); layer r < C opens B
    products and degree-reduces B, the last opens 2B, so validation takes
    B(C - 1) double sharings and B(C + 1) sharings of zero.  At M = 2 the
    one layer opens both gates of every ballot.  Kemeny opens its 3CB
    products in one layer, with no double sharing."""
    f = PrimeField(M31)
    batch = 7
    rng = np.random.default_rng(22)
    for rule, m in itertools.product(("copeland", "maximin", "kemeny"), range(2, 7)):
        c = m * (m - 1) // 2
        ballots = [legal_shared_ballot(
            f, rule, tuple(int(x) for x in (rng.integers(1, m + 1, m) if rule == "kemeny"
                                            else rng.permutation(m) + 1)),
            m, 2, 3, seed=950 + i, voter=i + 1) for i in range(batch)]
        verdicts, layers, moved = _product_rows(f, ballots, rule)
        assert all(v.accepted for v in verdicts), (rule, m)
        if rule == "kemeny":
            want = {"comm_rounds": 3, "mul_rounds": 1, "mul_gates": 3 * c * batch,
                    "double_sharings": 0, "zero_sharings": 3 * c * batch,
                    "open_log": [3 * c * batch]}
        else:
            want = {"comm_rounds": 2 + c, "mul_rounds": c, "mul_gates": 2 * batch * c,
                    "double_sharings": batch * (c - 1), "zero_sharings": batch * (c + 1),
                    "open_log": [batch] * (c - 1) + [2 * batch]}
        assert {key: moved[key] for key in want} == want, (rule, m)
        assert [layer.shape[1] for layer in layers] == [want["mul_gates"] // want["mul_rounds"]] \
            * want["mul_rounds"], (rule, m)


def test_reconstruct_rejected_recovers_matrix(f31):
    q = ranking_to_matrix("copeland", (3, 1, 2), 3)
    inflated = BallotMatrix("copeland", 3, 2 * q.entries)
    rng = np.random.default_rng(17)
    bad = share_ballot(inflated, PrimeField(31), 2, 3, rng, 9)
    lifted = SharedBallot(9, "copeland", 3, bad.bundles.copy())
    lifted.bundles[0, 0] += np.uint64(((1 << 64) - 32) // 31 * 31)  # same element

    for ballot in (bad, lifted):
        def prog(ctx):
            return reconstruct_rejected(ctx, Spool.from_bundles(
                [ballot.bundle_for(ctx.party_id)], "copeland", 3, ctx.field.p))[0]

        res = run_parties(3, 2, f31, prog)
        assert np.array_equal(res[1], inflated.entries)
        assert np.array_equal(res[2], inflated.entries)


def test_batch_kemeny_rows_are_per_ballot(f_mersenne31):
    """Each ballot's domain and pair-sum products are read back on its own
    row: a 50x-inflated ballot next to two honest ones is the only rejection,
    exactly as when every ballot is validated alone."""
    f = f_mersenne31
    rng = np.random.default_rng(16)
    honest = [legal_shared_ballot(f, "kemeny", (1, 2, 3), 3, 2, 3, 500 + i, i + 1)
              for i in range(2)]
    inflated = BallotMatrix("kemeny", 3, 50 * ranking_to_matrix("kemeny", (3, 2, 1), 3).entries)
    ballots = honest + [share_ballot(inflated, f, 2, 3, rng, 3)]
    verdicts, _, _ = _run_batch(f, ballots, "kemeny")
    alone = [_run_batch(f, [b], "kemeny")[0][0] for b in ballots]
    assert [v.record() for v in verdicts] == [v.record() for v in alone]
    assert [v.accepted for v in verdicts] == [True, True, False]
    assert verdicts[2].reason == REASON_DOMAIN


def test_batch_verdicts_are_positional(f_mersenne31):
    """Two bundles under one voter id keep their own verdicts: an inflated
    ballot is not reported accepted because a legal one shares its id."""
    f = f_mersenne31
    rng = np.random.default_rng(18)
    inflated = BallotMatrix("copeland", 3, 50 * ranking_to_matrix("copeland", (1, 2, 3), 3).entries)
    bad = share_ballot(inflated, f, 2, 3, rng, 6)
    cover = legal_shared_ballot(f, "copeland", (1, 2, 3), 3, 2, 3, 600, 6)
    verdicts, _, _ = _run_batch(f, [bad, cover], "copeland")
    assert [(v.voter_id, v.accepted, v.reason) for v in verdicts] == [
        (6, False, REASON_DOMAIN), (6, True, None)]


def test_batch_reduces_shares_at_or_above_p(f_mersenne31):
    """A share stored as value + k*p (up to 2**64 - 1) is the same field
    element: the ballot gets the verdict of its canonical form."""
    f = f_mersenne31
    rng = np.random.default_rng(19)
    for rule in ("copeland", "maximin", "kemeny"):
        order = (2, 1, 3) if rule != "kemeny" else (1, 1, 2)
        ballots = [legal_shared_ballot(f, rule, order, 3, 2, 3, 700 + i, i + 1)
                   for i in range(2)]
        bad = SharedBallot(3, rule, 3, ballots[0].bundles.copy())
        v = int(bad.bundles[1, 0])
        bad.bundles[1, 0] = v + (((1 << 64) - 1 - v) // f.p) * f.p
        inflated = share_ballot(BallotMatrix(rule, 3, 3 * ranking_to_matrix(rule, order, 3).entries),
                                f, 2, 3, rng, 4)
        verdicts, _, _ = _run_batch(f, ballots + [bad, inflated], rule)
        assert [v.accepted for v in verdicts] == [True, True, True, False], rule

