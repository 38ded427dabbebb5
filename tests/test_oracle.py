import itertools

import numpy as np
import pytest

from ordervote.oracle import (PlainElection, kemeny_agreements_direct,
                              kemeny_counts, kemeny_score, plain_copeland,
                              plain_kemeny, plain_maximin, plain_primitive,
                              plain_winners, preference_counts)


def test_copeland_three_voter_example():
    e = PlainElection("copeland", 3, 1, ((1, 2, 3), (1, 3, 2), (2, 1, 3)), (1, 2))
    winners, scores = plain_copeland(e)
    assert scores == [4, 2, 0]  # 2*w with alpha = 1/2
    assert winners == [1]


def test_copeland_single_voter_unanimity():
    e = PlainElection("copeland", 4, 4, ((2, 4, 1, 3),), (1, 2))
    winners, scores = plain_copeland(e)
    # his top choice wins; scores are t*(M-1, M-2, ...) along his order
    assert winners == [2, 4, 1, 3]
    assert sorted(scores, reverse=True) == [6, 4, 2, 0]


def test_copeland_opposite_orders_tie_break():
    e = PlainElection("copeland", 2, 1, ((1, 2), (2, 1)), (1, 2))
    winners, scores = plain_copeland(e)
    assert scores == [1, 1]  # P(1,2) = 0, only the alpha term
    assert winners == [1]  # lowest index wins the tie


def test_maximin_three_voter_example():
    e = PlainElection("maximin", 3, 1, ((1, 2, 3), (1, 3, 2), (2, 1, 3)))
    winners, scores = plain_maximin(e)
    assert scores == [2, 1, 0]
    assert winners == [1]
    counts = preference_counts(e.rankings, 3)
    assert counts[0, 1] == 2 and counts[0, 2] == 3 and counts[1, 2] == 2


def test_maximin_unanimous_and_split():
    unanimous = PlainElection("maximin", 3, 1, ((2, 1, 3),) * 5)
    winners, scores = plain_maximin(unanimous)
    assert winners == [2] and scores[1] == 5  # w(top) = N
    split = PlainElection("maximin", 2, 1, ((1, 2), (1, 2), (2, 1)))
    winners, scores = plain_maximin(split)
    assert scores == [2, 1] and winners == [1]


def test_kemeny_single_voter_m2():
    e = PlainElection("kemeny", 2, 1, ((1, 2),))
    ranking, winners, score = plain_kemeny(e)
    assert ranking == (1, 2) and winners == [1] and score == 1


def test_kemeny_unanimous_score():
    n, m = 6, 4
    ranks = (1, 2, 3, 4)
    e = PlainElection("kemeny", m, m, (ranks,) * n)
    ranking, winners, score = plain_kemeny(e)
    assert ranking == ranks
    assert score == n * m * (m - 1) // 2  # every pair agreed by every voter
    assert winners == [1, 2, 3, 4]


def test_kemeny_exhaustive_matches_bruteforce():
    rng = np.random.default_rng(0)
    for trial in range(20):
        m = int(rng.integers(2, 5))
        ballots = tuple(tuple(int(r) for r in rng.integers(1, m + 1, m))
                        for _ in range(int(rng.integers(1, 8))))
        counts = kemeny_counts(ballots, m)
        best = max(itertools.permutations(range(1, m + 1)),
                   key=lambda ranks: kemeny_score(counts, ranks))
        best_score = kemeny_score(counts, best)
        got_ranking, _, got_score = plain_kemeny(PlainElection("kemeny", m, 1, ballots))
        assert got_score == best_score


def test_kemeny_double_entry_agreement():
    rng = np.random.default_rng(1)
    for trial in range(30):
        m = int(rng.integers(2, 5))
        ballots = tuple(tuple(int(r) for r in rng.integers(1, m + 1, m))
                        for _ in range(int(rng.integers(1, 10))))
        counts = kemeny_counts(ballots, m)
        for ranks in itertools.permutations(range(1, m + 1)):
            assert kemeny_score(counts, ranks) == kemeny_agreements_direct(ballots, ranks)


def test_plain_winners_dispatch():
    assert plain_winners(PlainElection("copeland", 2, 1, ((1, 2),), (1, 2))) == [1]
    assert plain_winners(PlainElection("maximin", 2, 1, ((2, 1),))) == [2]
    assert plain_winners(PlainElection("kemeny", 2, 2, ((1, 2),))) == [1, 2]


def test_primitive_oracles():
    assert plain_primitive("compare", [3, 5], 31) == 1
    assert plain_primitive("compare", [5, 3], 31) == 0
    assert plain_primitive("mul", [6, 6], 31) == 5
    for v in range(-10, 11):
        assert plain_primitive("is_positive", [v % 31], 31) == (1 if v > 0 else 0)
    with pytest.raises(ValueError):
        plain_primitive("nand", [1, 1], 31)


def test_half_threshold_via_doubled_lsb_at_p7():
    # LSB(2q mod 7) for q = 0..6 is (0,0,0,0,1,1,1); zero exactly when q < 3.5
    lsb = [plain_primitive("lsb", [2 * q % 7], 7) for q in range(7)]
    assert lsb == [0, 0, 0, 0, 1, 1, 1]
    for q in range(7):
        assert (lsb[q] == 0) == (q < 3.5)
