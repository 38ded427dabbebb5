"""Columnar spools: each tallier holds its ballots as one share matrix.

The pinned values below were read from the tally that kept a list of
per-voter bundles: the same seeds must give the same verdicts, winners,
Kemeny rankings, captured shares and phase counters; the talliers draw
from the config's seed (``seeded_talliers``).  The configs name no prime;
the shares, digests and counters were read again when such a config came
to take p = 65,519 and a mask batch its spares, and again when the talliers
came to extract their dealt sharings instead of summing them (the shares
and bytes moved, the Kemeny captures, which hold only aggregates, did not);
the verdicts, winners, rankings and rounds stayed the same.  The rounds,
messages and bytes, and so the phase digests, were read again when each
select came to open the next comparison in its own round; the verdicts,
winners, rankings and captures stayed the same.  They were read again, with
the captured scores, when the mask batch came to ride validation's rounds
and top-K's first opening the scores' last layer: the masks' draws now
interleave with validation's, and the verdicts, winners, rankings, proofs
and aggregates stayed the same.  The rounds, messages and bytes, the phase
digests and the captured scores were read again when validation's products
came to open from their product shares, masked by sharings of zero: the
talliers now deal those, and validation takes a round fewer; the verdicts,
winners, rankings, proofs and aggregates stayed the same.  The phase
digests, the captured scores and the Kemeny rounds were read again when
the roster round came to carry the mask batch's deal, so that no round
only deals and the talliers draw the masks' sharings before validation's,
when a tree level's products came to be laid out term by term, and when
Kemeny's argmax came to compare within groups wider than pairs
(``tally.KEMENY_GROUPS``): fewer select rounds for more comparisons, and
one offline round fewer; the verdicts, winners, rankings, proofs,
aggregates and the rounds of Copeland and Maximin stayed the same.  The
captured scores of Copeland and Maximin, at both primes, and the edge
captures were read again when the talliers came to deal their sharings in
evaluation form from full-range words (``PrimeField.draw``): the shares
they deal moved, and the verdicts, winners, rankings, proofs, aggregates,
Kemeny captures and phase digests stayed the same."""

import hashlib
import json

import numpy as np
import pytest

from ordervote.ballots import (BallotMatrix, SharedBallot, Spool, TallierBundle,
                               decode_spool, encode_bundle, ranking_to_matrix, share_ballot)
from ordervote.config import ElectionConfig
from ordervote.session import make_shared_ballots, run_local_election, run_local_validation
from ordervote.validation import REASON_MALFORMED

M31 = (1 << 31) - 1


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _cfg(rule, m, k, n, seed, **kw):
    return ElectionConfig(rule=rule, candidates=tuple(f"C{i}" for i in range(1, m + 1)),
                          num_winners=k, talliers=3, expected_voters=n, seed=seed,
                          **kw).validate()


def _rankings(rule, m, n, seed):
    rng = np.random.default_rng(seed)
    if rule == "kemeny":
        return [tuple(int(r) for r in rng.integers(1, m + 1, m)) for _ in range(n)]
    return [tuple(int(c) for c in rng.permutation(m) + 1) for _ in range(n)]


def _captures(outcome) -> dict:
    return {d: {label: values.tolist() for label, (_, values) in cap.items()}
            for d, cap in outcome.captures.items()}


# rule, M, K, N; winners, ranking; digests of the verdict records, every
# party's captured shares and every party's phase counters; T1's rounds per
# phase.  The configs name no prime, so each takes p = 65,519; each election
# is pinned at 2^31 - 1 too, which the ladder picks for large ones.
FOUR = [
    ("copeland", 6, 2, 200, [2, 5], None, "25d91f77f6bd1c82", "996adf2bfc9491ca",
     "5d482b3484e9c3ee", {"validate": 18, "offline": 0, "aggregate": 0, "score": 3,
                          "select": 19}),
    ("maximin", 6, 2, 200, [2, 5], None, "25d91f77f6bd1c82", "0e132b570f255721",
     "640f260200e06816", {"validate": 18, "offline": 0, "aggregate": 0, "score": 10,
                          "select": 19}),
    ("kemeny", 5, 2, 200, [1, 3], [1, 4, 2, 5, 3], "25d91f77f6bd1c82", "5073724b4cd8c005",
     "3640db4e55a5ad26", {"validate": 4, "offline": 2, "aggregate": 0, "select": 16}),
    ("kemeny", 6, 1, 100, [4], [6, 5, 2, 1, 3, 4], "cc467d2666746bbd", "19bb15727fb03c00",
     "06ce9d3f5853dce4", {"validate": 4, "offline": 2, "aggregate": 0, "select": 21}),
]
FOUR_AT_M31 = [
    ("copeland", 6, 2, 200, [2, 5], None, "25d91f77f6bd1c82", "be86df27dda04429",
     "a6953601eb07a130", {"validate": 18, "offline": 0, "aggregate": 0, "score": 4,
                          "select": 25}),
    ("maximin", 6, 2, 200, [2, 5], None, "25d91f77f6bd1c82", "3e13bacf71cfb703",
     "c5a587ee89101070", {"validate": 18, "offline": 0, "aggregate": 0, "score": 13,
                          "select": 25}),
    ("kemeny", 5, 2, 200, [1, 3], [1, 4, 2, 5, 3], "25d91f77f6bd1c82", "2851c951d141b86c",
     "5dabfd9883f3c2b5", {"validate": 4, "offline": 3, "aggregate": 0, "select": 20}),
    ("kemeny", 6, 1, 100, [4], [6, 5, 2, 1, 3, 4], "cc467d2666746bbd", "cf91e8d45a706453",
     "68f2c801542f5ae4", {"validate": 4, "offline": 3, "aggregate": 0, "select": 26}),
]


@pytest.mark.parametrize("rule,m,k,n,winners,ranking,verdicts,captures,phases,rounds,prime",
                         [(*row, None) for row in FOUR] + [(*row, M31) for row in FOUR_AT_M31],
                         ids=[f"{rule}-M{m}-K{k}-N{n}-p{prime}"
                              for rows, prime in ((FOUR, 65_519), (FOUR_AT_M31, M31))
                              for rule, m, k, n, *_ in rows])
def test_four_elections_match_the_pinned_tally(seeded_talliers, rule, m, k, n, winners,
                                               ranking, verdicts, captures, phases, rounds,
                                               prime):
    cfg = _cfg(rule, m, k, n, seed=5, **({} if prime is None else {"prime": prime}))
    assert cfg.prime == (prime or 65_519)
    outcome = run_local_election(cfg, make_shared_ballots(cfg, _rankings(rule, m, n, 5)),
                                 capture=True)
    assert outcome.result.winners == winners
    assert (list(outcome.result.kemeny_ranking) if ranking else None) == ranking
    assert _digest([v.record() for v in outcome.verdicts]) == verdicts
    assert _digest(_captures(outcome)) == captures
    assert _digest([r.counters["phases"] for r in outcome.per_party_results]) == phases
    assert {p: c["comm_rounds"] for p, c in outcome.result.counters["phases"].items()} == rounds


def _edge_spools():
    """Copeland M=4, 30 voters, as each tallier's own list of bundles.
    Voters 14, 20 and 26 cast an inflated ballot, one shared at too high a
    degree and one whose column sums collide.  T1 holds voter 5 twice and a
    share of voter 11 lifted by p; T2 lacks voter 7 and lists its voters in
    reverse; T3 holds a short bundle for voter 9."""
    cfg = _cfg("copeland", 4, 2, 30, seed=11, reconstruct_rejected=True)
    ballots = make_shared_ballots(cfg, _rankings("copeland", 4, 30, 12))
    legal = ranking_to_matrix("copeland", (2, 4, 1, 3), 4).entries
    cyclic = legal.copy()
    cyclic[0, 1], cyclic[1, 0] = -cyclic[0, 1], -cyclic[1, 0]  # C1 and C3 now tie
    for voter, entries, degree in ((14, 2 * legal, cfg.threshold),
                                   (20, legal, cfg.talliers), (26, cyclic, cfg.threshold)):
        ballots[voter - 1] = share_ballot(BallotMatrix("copeland", 4, entries), cfg.field,
                                          degree, cfg.talliers, cfg.voter_rng(voter), voter)
    spools = {d: [b.bundle_for(d) for b in ballots] for d in (1, 2, 3)}
    b = spools[3][8]
    spools[3][8] = TallierBundle(9, b.rule, b.m, b.values[:-1])
    b = spools[1][10]
    spools[1][10] = TallierBundle(11, b.rule, b.m, b.values + np.uint64(cfg.prime))
    spools[1].append(spools[1][4])
    del spools[2][6]
    spools[2].reverse()
    return cfg, spools


PINNED_EDGE = {"winners": [4, 2],
               "aggregate": [21279, 38401, 12504, 27137, 15353, 21994],
               "captures": "2c9f9a26b95e0520", "proofs": "b0f777d7b2790c6c",
               "phases": "870a559565e15c88"}


def test_edge_spools_match_the_pinned_tally(seeded_talliers):
    """A duplicate, a missing id, a short bundle, a share >= p and spools in
    different orders: the verdicts, winners, captured shares, proofs and
    phase counters of the per-bundle tally."""
    cfg, spools = _edge_spools()
    outcome = run_local_election(cfg, spools, capture=True)
    assert [v.voter_id for v in outcome.verdicts] == list(range(1, 31)) + [5]
    assert [(v.voter_id, v.reason) for v in outcome.verdicts if not v.accepted] == [
        (5, "DuplicateVoter"), (7, "Malformed"), (9, "Malformed"), (14, "EntryDomain"),
        (20, "ShareDegree"), (26, "ColumnSums"), (5, "DuplicateVoter")]
    assert outcome.result.winners == PINNED_EDGE["winners"]
    assert _captures(outcome)[1]["aggregate"] == PINNED_EDGE["aggregate"]
    assert _digest(_captures(outcome)) == PINNED_EDGE["captures"]
    assert sorted(outcome.rejected_proofs) == [14, 20, 26]
    assert _digest({v: p.tolist() for v, p in outcome.rejected_proofs.items()}) == \
        PINNED_EDGE["proofs"]
    assert _digest([r.counters["phases"] for r in outcome.per_party_results]) == \
        PINNED_EDGE["phases"]


def test_shared_ballots_are_split_without_per_ballot_bundles(monkeypatch):
    """``run_local_election`` and ``run_local_validation`` hand each tallier
    its spool from one pass over the shared ballots, never one
    ``bundle_for`` per ballot and tallier."""
    cfg = _cfg("maximin", 4, 1, 40, seed=3)
    ballots = make_shared_ballots(cfg, _rankings("maximin", 4, 40, 4))
    bad = ballots[7]
    ballots[7] = SharedBallot(bad.voter_id, bad.rule, bad.m, bad.bundles[:, :-1])
    expected = run_local_election(cfg, ballots)

    def refuse(self, party):
        raise AssertionError("bundle_for called")

    monkeypatch.setattr(SharedBallot, "bundle_for", refuse)
    outcome = run_local_election(cfg, ballots)
    verdicts, _ = run_local_validation(cfg, ballots)
    assert [v.reason for v in outcome.verdicts] == [None] * 7 + [REASON_MALFORMED] + [None] * 32
    assert verdicts == outcome.verdicts == expected.verdicts
    assert outcome.result.to_dict() == expected.result.to_dict()


def test_spool_rows():
    spool = Spool.from_bundles(
        [TallierBundle(7, "copeland", 3, np.array([1, 2, 3])),
         TallierBundle(4, "copeland", 3, np.array([M31 + 4, 5, 6])),
         TallierBundle(9, "maximin", 3, np.array([1, 1, 1])),
         TallierBundle(2, "copeland", 3, np.array([1, 2])),
         TallierBundle(4, "copeland", 3, np.array([8, 8, 8]))], "copeland", 3, M31)
    assert spool.ids.tolist() == [7, 4, 9, 2, 4]
    assert spool.shares.tolist() == [[1, 2, 3], [4, 5, 6], [0, 0, 0], [0, 0, 0], [8, 8, 8]]
    assert spool.malformed.tolist() == [False, False, True, True, False]
    assert spool.rows([2, 4, 5, 7]).tolist() == [3, 1, -1, 0]  # an id held twice: its first row
    empty = Spool.from_bundles([], "copeland", 3, M31)
    assert empty.shares.shape == (0, 3)
    assert empty.rows([3]).tolist() == [-1]


def test_live_payloads_become_a_spool_sorted_by_voter_id():
    """Submissions decode into one spool ordered by voter id; a payload of
    the wrong length is a malformed row."""
    rows = [encode_bundle(TallierBundle(v, "maximin", 3, np.array(values, dtype=np.uint64)))
            for v, values in ((3, [1, 2, 3]), (1, [4, 5, 6]), (2, [7, 8]))]
    spool = decode_spool(rows, "maximin", 3, M31)
    assert spool.ids.tolist() == [1, 2, 3]
    assert spool.shares.tolist() == [[4, 5, 6], [0, 0, 0], [1, 2, 3]]
    assert spool.malformed.tolist() == [False, True, False]
