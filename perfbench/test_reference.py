"""Hand-worked elections for the benchmark's plaintext reference.

Run with ``python3 -m pytest perfbench/test_reference.py``.
"""

import numpy as np
import pytest

import reference as ref


entries = ref.ballot_entries


CYCLE = [(1, 2, 3), (2, 3, 1), (3, 1, 2)]


@pytest.mark.parametrize("rule", ["copeland", "maximin"])
def test_condorcet_cycle_goes_to_the_lowest_index(rule):
    # Each candidate beats one and loses to one, 2 votes to 1: every Copeland
    # score is 1 and every Maximin score is 1.
    assert ref.winners(rule, 3, 1, entries(rule, CYCLE)) == ([1], None)
    assert ref.winners(rule, 3, 3, entries(rule, CYCLE)) == ([1, 2, 3], None)


def test_condorcet_cycle_kemeny_takes_the_first_enumerated_ranking():
    # 1>2>3, 2>3>1 and 3>1>2 each agree with 5 pairwise preferences; the rank
    # vector (1, 2, 3) is enumerated first.
    ranks = [(1, 2, 3), (3, 1, 2), (2, 3, 1)]
    assert ref.winners("kemeny", 3, 1, entries("kemeny", ranks)) == ([1], (1, 2, 3))


COPELAND_TIE = [(4, 3, 2, 1), (1, 3, 4, 2), (2, 1, 3, 4), (2, 1, 4, 3)]


@pytest.mark.parametrize("alpha, expected", [((1, 2), [1, 2]), ((0, 1), [1, 2]),
                                             ((1, 1), [2, 1])])
def test_copeland_tie_credit(alpha, expected):
    # Candidate 1 beats 3 and 4 and loses to 2; candidate 2 beats 1 and ties
    # 3 and 4.  Under alpha = 1/2 both score 2 and the lower index leads;
    # alpha = 1 puts 2 ahead (3 against 2).
    got, _ = ref.winners("copeland", 4, 2, entries("copeland", COPELAND_TIE), alpha)
    assert got == expected


def test_maximin_tie():
    # P(1,2) = P(2,1) = 1 and both beat 3 twice: scores 1, 1, 0.
    ballots = entries("maximin", [(1, 2, 3), (2, 1, 3)])
    assert ref.winners("maximin", 3, 2, ballots) == ([1, 2], None)


def test_kemeny_tie_between_two_rankings():
    # 2>1>3 and 2>3>1 both agree with 5 preferences; rank vector (2, 1, 3)
    # precedes (3, 1, 2) in permutation order, whatever the ballot order.
    for ranks in ([(2, 1, 3), (3, 1, 2)], [(3, 1, 2), (2, 1, 3)]):
        assert ref.winners("kemeny", 3, 2, entries("kemeny", ranks)) == ([2, 1], (2, 1, 3))


def test_kemeny_counts_tied_ranks_as_no_preference():
    # Ranks (1, 1, 2): candidates 1 and 2 tie, both above 3.
    assert tuple(entries("kemeny", [(1, 1, 2)])[0]) == (0, 1, 0, 1, 0, 0)
    assert ref.expected_reason("kemeny", 3, (0, 1, 0, 1, 0, 0), True) is None


def test_sign_flip_legality_depends_on_adjacency():
    legal = tuple(entries("copeland", [(1, 2, 3)])[0])  # pairs (1,2) (1,3) (2,3)
    adjacent = (-legal[0], legal[1], legal[2])  # 2>1>3, another order
    distant = (legal[0], -legal[1], legal[2])  # 1>2, 2>3, 3>1: a cycle
    assert ref.expected_reason("copeland", 3, adjacent, True) is None
    assert ref.expected_reason("copeland", 3, distant, True) == ref.REASON_SUMS
    assert ref.expected_reason("copeland", 3, [2 * v for v in legal], True) == ref.REASON_DOMAIN
    assert ref.expected_reason("copeland", 3, legal, False) == ref.REASON_DEGREE


def test_maximin_and_kemeny_domain():
    assert ref.expected_reason("maximin", 3, (2, 0, 0), True) == ref.REASON_DOMAIN
    # P(1,2) = P(2,1) = 1: entries in {0,1} but the pair sum is 2.
    assert ref.expected_reason("kemeny", 3, (1, 0, 1, 0, 0, 0), True) == ref.REASON_DOMAIN
    # 1>2, 2>3, 3>1: the protocol's checks pass, no rank vector induces it.
    assert ref.expected_reason("kemeny", 3, (1, 0, 0, 1, 1, 0), True) == ref.REASON_CYCLE


def test_dealt_polynomials():
    p = 31
    line = [5 + 3 * x for x in (1, 2, 3)]  # 8, 11, 14
    parabola = [(5 + 3 * x + x * x) % p for x in (1, 2, 3)]
    zero = [0, 0, 0]
    degree, at_zero = ref.dealt_polynomials(np.array([line, parabola, zero]).T, p)
    assert degree.tolist() == [1, 2, -1]
    assert at_zero.tolist() == [5, 5, 0]


def test_expected_verdicts_reads_degree_from_the_shares():
    p = 31
    plain = entries("copeland", [(1, 2, 3)] * 2)  # entries 1, 1, 1
    shares = np.empty((3, 2, 3), dtype=np.int64)
    for d in (1, 2, 3):
        shares[d - 1, 0] = (1 + 4 * d) % p  # degree 1: legal at D' = 2
        shares[d - 1, 1] = (1 + 4 * d + d * d) % p  # degree 2
    assert ref.expected_verdicts("copeland", 3, plain, shares, p, 2) == [None, ref.REASON_DEGREE]
    with pytest.raises(ValueError):
        ref.expected_verdicts("copeland", 3, plain + 1, shares, p, 2)
