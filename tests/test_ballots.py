import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ordervote.ballots import (InvalidRanking, WrongRule,
                               decode_spool, encode_bundle, entry_pairs,
                               matrix_entry_values, off_diagonal_pairs, parse_order,
                               parse_ranks, ranking_to_matrix, share_ballot,
                               upper_pairs)
from ordervote.config import ElectionConfig
from ordervote.field import PrimeField
from ordervote.oracle import legal_ballot_matrix
from ordervote.session import make_shared_ballots
from ordervote.shamir import reconstruct_batch


def test_kemeny_matrix_matches_reference_example():
    # ranks (3, 2, 1, 3): Carol first, Bob second, Alice and David joint last
    q = ranking_to_matrix("kemeny", (3, 2, 1, 3), 4)
    expect = np.array([[0, 0, 0, 0],
                       [1, 0, 0, 1],
                       [1, 1, 0, 1],
                       [0, 0, 0, 0]])
    assert np.array_equal(q.entries, expect)


def test_copeland_column_sums_hand_example():
    q = ranking_to_matrix("copeland", (2, 1, 3), 3)
    assert q.entries.sum(axis=0).tolist() == [0, -2, 2]
    assert q.entry(1, 2) == -1 and q.entry(1, 3) == 1 and q.entry(2, 3) == 1


def test_single_candidate_matrix_is_zero():
    for rule in ("copeland", "maximin", "kemeny"):
        ranking = (1,)
        q = ranking_to_matrix(rule, ranking, 1)
        assert q.entries.shape == (1, 1) and q.entries[0, 0] == 0


def test_invalid_rankings_rejected():
    with pytest.raises(InvalidRanking):
        ranking_to_matrix("copeland", (1, 1, 3), 3)  # repeated candidate
    with pytest.raises(InvalidRanking):
        ranking_to_matrix("copeland", (1, 2), 3)  # wrong length
    with pytest.raises(InvalidRanking):
        ranking_to_matrix("kemeny", (1, 2, 5), 3)  # rank out of range
    with pytest.raises(WrongRule):
        ranking_to_matrix("borda", (1, 2, 3), 3)


def test_upper_triangle_determines_matrix():
    """A copeland ballot shares its upper triangle, which with the zero
    diagonal and antisymmetry determines the whole matrix."""
    f = PrimeField(31)
    q = ranking_to_matrix("copeland", (3, 1, 4, 2), 4)
    rebuilt = np.zeros((4, 4), dtype=np.int64)
    for (a, b), v in zip(entry_pairs("copeland", 4), matrix_entry_values(q, f).tolist()):
        v = v - f.p if v > f.p // 2 else v  # negatives are embedded mod p
        rebuilt[a - 1, b - 1] = v
        rebuilt[b - 1, a - 1] = -v  # condition 3
    assert np.array_equal(rebuilt, q.entries)


def test_entry_counts_per_rule():
    assert len(entry_pairs("copeland", 5)) == 10  # M(M-1)/2
    assert len(entry_pairs("maximin", 5)) == 10
    assert len(entry_pairs("kemeny", 5)) == 20  # M^2 - M
    assert upper_pairs(2) == [(1, 2)]
    assert off_diagonal_pairs(2) == [(1, 2), (2, 1)]


def test_share_ballot_round_trip_and_embedding():
    f = PrimeField(31)
    rng = np.random.default_rng(0)
    q = ranking_to_matrix("copeland", (2, 1, 3), 3)
    shared = share_ballot(q, f, 2, 3, rng, voter_id=1)
    assert shared.bundles.shape == (3, 3)
    # every entry reconstructs from any D' = 2 bundles
    for rows in itertools.combinations(range(3), 2):
        xs = [r + 1 for r in rows]
        got = reconstruct_batch(f, xs, shared.bundles[list(rows)])
        assert got.tolist() == [30, 1, 1]  # -1 embeds as p - 1


def test_share_counts_follow_rule():
    f = PrimeField(31)
    rng = np.random.default_rng(1)
    cop = share_ballot(ranking_to_matrix("copeland", (1, 2, 3), 3), f, 2, 3, rng, 1)
    kem = share_ballot(ranking_to_matrix("kemeny", (1, 2, 3), 3), f, 2, 3, rng, 1)
    assert cop.bundles.shape[1] == 3  # M(M-1)/2
    assert kem.bundles.shape[1] == 6  # M^2 - M


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.randoms(use_true_random=False))
def test_matrices_satisfy_legality_conditions(m, rnd):
    order = list(range(1, m + 1))
    rnd.shuffle(order)
    for rule in ("copeland", "maximin"):
        q = ranking_to_matrix(rule, tuple(order), m)
        assert legal_ballot_matrix(rule, q.entries)
    ranks = tuple(rnd.randint(1, m) for _ in range(m))
    q = ranking_to_matrix("kemeny", ranks, m)
    assert legal_ballot_matrix("kemeny", q.entries)


def test_copeland_column_sum_multiset():
    for m in range(1, 7):
        order = tuple(np.random.default_rng(m).permutation(m) + 1)
        q = ranking_to_matrix("copeland", order, m)
        sums = sorted(q.entries.sum(axis=0).tolist())
        assert sums == list(range(-m + 1, m, 2))
        q2 = ranking_to_matrix("maximin", order, m)
        assert sorted(q2.entries.sum(axis=0).tolist()) == list(range(m))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_distinct_sums_characterize_orderings_exhaustively(m):
    """A +/-1 antisymmetric zero-diagonal matrix has distinct column sums iff
    it is the ballot matrix of some ordering (both directions, exhaustively)."""
    pairs = upper_pairs(m)
    from_orders = set()
    for order in itertools.permutations(range(1, m + 1)):
        q = ranking_to_matrix("copeland", order, m)
        from_orders.add(tuple(q.entry(a, b) for a, b in pairs))
    for assignment in itertools.product((-1, 1), repeat=len(pairs)):
        q = np.zeros((m, m), dtype=np.int64)
        for (a, b), v in zip(pairs, assignment):
            q[a - 1, b - 1] = v
            q[b - 1, a - 1] = -v
        distinct = len(set(q.sum(axis=0).tolist())) == m
        assert distinct == (assignment in from_orders)


def test_bundle_wire_round_trip():
    f = PrimeField(31)
    rng = np.random.default_rng(2)
    q = ranking_to_matrix("maximin", (3, 1, 2), 3)
    shared = share_ballot(q, f, 2, 3, rng, voter_id=42)
    bundle = shared.bundle_for(2)
    payload = encode_bundle(bundle)
    assert payload.tolist() == [42, *bundle.values.tolist()]  # voter id, then C shares
    back = decode_spool([payload], "maximin", 3, f.p)
    assert back.ids.tolist() == [42] and back.rule == "maximin" and back.m == 3
    assert np.array_equal(back.shares[0], bundle.values) and not back.malformed[0]
    # a short bundle still decodes, as a malformed row; validation rejects it
    assert decode_spool([payload[:2]], "maximin", 3, f.p).malformed.tolist() == [True]


def test_parse_order_and_ranks():
    names = {"A": 1, "B": 2, "C": 3}
    assert parse_order("C, A, B", names) == (3, 1, 2)
    with pytest.raises(InvalidRanking):
        parse_order("A,A,B", names)
    with pytest.raises(InvalidRanking):
        parse_order("A,B,X", names)
    names4 = {"A": 1, "B": 2, "C": 3, "D": 4}
    assert parse_ranks("A=3,B=2,C=1,D=3", names4) == (3, 2, 1, 3)
    with pytest.raises(InvalidRanking):
        parse_ranks("A=1,B=2", names4)  # missing candidates
    with pytest.raises(InvalidRanking):
        parse_ranks("A=1,A=2,B=1,C=1", names4)
    with pytest.raises(InvalidRanking):
        parse_ranks("A=9,B=2,C=1,D=3", names4)  # rank out of range


def _batch_config(rule, m, talliers, prime):
    return ElectionConfig(rule=rule, candidates=tuple(f"C{i}" for i in range(1, m + 1)),
                          num_winners=1, talliers=talliers, prime=prime, seed=17,
                          expected_voters=40).validate()


def _random_rankings(rule, m, n, seed):
    rng = np.random.default_rng(seed)
    if rule == "kemeny":
        return [tuple(int(r) for r in rng.integers(1, m + 1, m)) for _ in range(n)]
    return [tuple(int(c) for c in rng.permutation(m) + 1) for _ in range(n)]


@pytest.mark.parametrize("prime", [65_519, (1 << 31) - 1])
@pytest.mark.parametrize("talliers", [3, 5])
@pytest.mark.parametrize("rule", ["copeland", "maximin", "kemeny"])
def test_batch_equals_the_per_voter_sharing(rule, talliers, prime):
    """``make_shared_ballots`` shares the whole batch in one pass, yet each
    ballot equals, array for array, voter i's own sharing under
    ``voter_rng(i)``; for M = 3 it is also checked against a plain
    evaluation of the polynomial whose coefficients voter i draws."""
    for m in range(1, 7):
        cfg = _batch_config(rule, m, talliers, prime)
        rankings = _random_rankings(rule, m, 40, seed=m)
        batch = make_shared_ballots(cfg, rankings)
        assert len(batch) == len(rankings)
        for voter_id, (ranking, got) in enumerate(zip(rankings, batch), start=1):
            alone = share_ballot(ranking_to_matrix(rule, ranking, m), cfg.field,
                                 cfg.threshold, cfg.talliers, cfg.voter_rng(voter_id),
                                 voter_id)
            assert (got.voter_id, got.rule, got.m) == (voter_id, rule, m)
            assert got.bundles.dtype == alone.bundles.dtype == np.uint64
            assert got.bundles.flags.c_contiguous
            assert np.array_equal(got.bundles, alone.bundles)
            if m != 3:
                continue
            values = matrix_entry_values(ranking_to_matrix(rule, ranking, m), cfg.field)
            coeffs = cfg.field.rand_vec(cfg.voter_rng(voter_id),
                                        (cfg.threshold - 1, values.size))
            for col, secret in enumerate(values.tolist()):
                at = [sum(int(c) * x ** (j + 1) for j, c in enumerate(coeffs[:, col]))
                      for x in range(1, talliers + 1)]
                assert got.bundles[:, col].tolist() == [(secret + a) % prime for a in at]


@pytest.mark.parametrize("rule, bad", [
    ("copeland", (1, 2)),  # ragged: one ranking too short
    ("maximin", (1, 2, 3, 4, 5)),  # ragged: one ranking too long
    ("copeland", (1, 1, 3, 4)),  # not a permutation
    ("maximin", (0, 1, 2, 3)),  # not a permutation
    ("kemeny", (1, 2)),  # ragged
    ("kemeny", (1, 2, 5, 1)),  # a rank outside 1..M
    ("kemeny", (0, 1, 1, 1)),
])
def test_a_batch_with_one_bad_ranking_raises_invalid_ranking(rule, bad):
    """One bad ranking among good ones raises InvalidRanking, with the
    message ``ranking_to_matrix`` gives it alone, and not a numpy error."""
    cfg = _batch_config(rule, 4, 3, 65_519)
    rankings = _random_rankings(rule, 4, 9, seed=1)
    rankings[5] = bad
    with pytest.raises(InvalidRanking) as batch_err:
        make_shared_ballots(cfg, rankings)
    with pytest.raises(InvalidRanking) as alone_err:
        ranking_to_matrix(rule, bad, 4)
    assert str(batch_err.value) == str(alone_err.value)


def test_an_empty_batch_shares_nothing():
    for rule in ("copeland", "maximin", "kemeny"):
        assert make_shared_ballots(_batch_config(rule, 4, 3, 65_519), []) == []
