"""Verdicts as columns: ``validation.Verdicts`` holds one voter id and one
reason code per ballot and builds a ``ValidationVerdict`` only when asked.
On a roster that holds every reason, each tallier's columns read as the
list of verdicts the public runners return, item by item and slice by
slice, and the audit lines they render are the ones pinned here."""

import json

import numpy as np
import pytest

from ordervote import validation
from ordervote.ballots import BallotMatrix, TallierBundle, ranking_to_matrix, share_ballot
from ordervote.config import ElectionConfig
from ordervote.session import (_run_local, run_local_election, run_local_validation,
                               tallier_program)
from ordervote.validation import (REASON_DEGREE, REASON_DOMAIN, REASON_DUPLICATE,
                                  REASON_MALFORMED, REASON_SUMS, ValidationVerdict, Verdicts)

# a ballot whose entries are all in the domain but whose column sums collide
# (Copeland, Maximin); Kemeny's check accepts this cycle, by contract
CYCLE = {"copeland": [[0, 1, -1], [-1, 0, 1], [1, -1, 0]],
         "maximin": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
         "kemeny": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]}


def _cfg(rule, seed=4):
    return ElectionConfig(rule=rule, candidates=("A", "B", "C"), num_winners=1, talliers=3,
                          expected_voters=50, seed=seed).validate()


def _every_reason(rule):
    """Each tallier's bundles of an M=3 session, and the verdicts it must
    reach.  Voters 1 and 2 are legal, 3 is shared at too high a degree, 4
    doubles a legal ballot, 5 casts a cycle, 6 reaches T2 one share short,
    7 never reaches T3, and T1 holds 8 twice."""
    cfg = _cfg(rule)
    legal = [(1, 2, 3), (3, 1, 2)] if rule != "kemeny" else [(1, 2, 3), (2, 2, 1)]
    q = ranking_to_matrix(rule, (2, 3, 1), 3)
    matrices = [ranking_to_matrix(rule, r, 3) for r in legal] + [
        q, BallotMatrix(rule, 3, 2 * q.entries), BallotMatrix(rule, 3, np.array(CYCLE[rule]))
    ] + [ranking_to_matrix(rule, legal[0], 3)] * 3
    ballots = [share_ballot(matrix, cfg.field, cfg.talliers if voter == 3 else cfg.threshold,
                            cfg.talliers, cfg.voter_rng(voter), voter)
               for voter, matrix in enumerate(matrices, start=1)]
    bundles = {d: [b.bundle_for(d) for b in ballots] for d in (1, 2, 3)}
    short = bundles[2][5]
    bundles[2][5] = TallierBundle(short.voter_id, rule, 3, short.values[:-1])
    del bundles[3][6]
    bundles[1].append(bundles[1][7])
    cycle = None if rule == "kemeny" else REASON_SUMS
    reasons = [None, None, REASON_DEGREE, REASON_DOMAIN, cycle, REASON_MALFORMED,
               REASON_MALFORMED, REASON_DUPLICATE, REASON_DUPLICATE]
    expected = [ValidationVerdict(v, why is None, why)
                for v, why in zip([1, 2, 3, 4, 5, 6, 7, 8, 8], reasons)]
    return cfg, bundles, expected


@pytest.mark.parametrize("rule", ["copeland", "maximin", "kemeny"])
def test_verdict_columns_read_as_the_list_of_verdicts(rule):
    cfg, bundles, expected = _every_reason(rule)
    runs = _run_local(cfg, lambda ctx: tallier_program(ctx, cfg, bundles[ctx.party_id]))
    for party, (_, verdicts, proofs) in runs.items():
        assert isinstance(verdicts, Verdicts), party
        assert (verdicts.ids.dtype, verdicts.codes.dtype) == (np.uint64, np.int8)
        assert len(verdicts) == len(expected) == 9
        assert list(verdicts) == verdicts.tolist() == expected, party
        assert [verdicts[i] for i in range(-9, 9)] == expected + expected
        for cut in (slice(2, 5), slice(None, None, -1), slice(1, None, 3), slice(9, 20)):
            assert isinstance(verdicts[cut], Verdicts)
            assert list(verdicts[cut]) == expected[cut], cut
        assert verdicts.records() == [v.record() for v in expected]
        assert repr(verdicts) == f"Verdicts({expected!r})"
        assert verdicts.count(expected[0]) == 1 and verdicts.index(expected[2]) == 2
        assert verdicts.first_split(runs[1][1]) is None
        assert proofs == {}

    outcome = run_local_election(cfg, bundles)
    assert outcome.verdicts == expected
    assert isinstance(outcome.verdicts, list)
    assert run_local_validation(cfg, bundles)[0] == expected
    audit = [json.dumps(v.record(), sort_keys=True) for v in outcome.verdicts]
    assert audit[2:5] == [
        '{"accepted": false, "reason": "ShareDegree", "voter_id": 3}',
        '{"accepted": false, "reason": "EntryDomain", "voter_id": 4}',
        '{"accepted": true, "voter_id": 5}' if rule == "kemeny"
        else '{"accepted": false, "reason": "ColumnSums", "voter_id": 5}']


@pytest.mark.parametrize("rule", ["copeland", "maximin", "kemeny"])
def test_proofs_open_only_the_ballots_validation_rejected(rule):
    """With ``reconstruct_rejected``, the proofs are the matrices of the
    ballots validation rejected, keyed by voter id; no accepted, malformed
    or duplicate ballot is opened."""
    cfg, bundles, expected = _every_reason(rule)
    outcome = run_local_election(cfg.with_overrides(reconstruct_rejected=True), bundles)
    assert outcome.verdicts == expected
    assert sorted(outcome.rejected_proofs) == ([3, 4] if rule == "kemeny" else [3, 4, 5])
    q = ranking_to_matrix(rule, (2, 3, 1), 3).entries
    upper = np.triu_indices(3, 1)
    assert np.array_equal(outcome.rejected_proofs[4][upper], 2 * q[upper])
    if rule != "kemeny":
        assert np.array_equal(outcome.rejected_proofs[5], CYCLE[rule])


def test_verdicts_that_split_between_talliers_are_a_protocol_bug(monkeypatch):
    """Tallier 2 rejects the cyclic ballot of voter 5 for its entry domain,
    not its column sums.  No tallier accepts it and the winners stay the
    same, but the in-process runner names the split verdict."""
    cfg, bundles, _ = _every_reason("copeland")
    validate = validation.batch_validate

    def split(ctx, *args):
        verdicts = validate(ctx, *args)
        if ctx.party_id != 2:
            return verdicts
        codes = verdicts.codes.copy()
        codes[codes == validation.REASONS.index(REASON_SUMS)] = \
            validation.REASONS.index(REASON_DOMAIN)
        return Verdicts(verdicts.ids, codes)

    monkeypatch.setattr(validation, "batch_validate", split)
    with pytest.raises(RuntimeError, match="disagree on the verdict of voter 5; protocol bug"):
        run_local_election(cfg, bundles)


def test_first_split_names_the_first_voter_that_differs():
    ids = np.array([4, 9, 2], dtype=np.uint64)
    verdicts = Verdicts(ids, [0, 3, 1])
    assert verdicts.first_split(Verdicts(ids, [0, 3, 1])) is None
    assert verdicts.first_split(Verdicts(ids, [0, 3, 2])) == 2
    assert verdicts.first_split(Verdicts(ids[:2], [0, 3])) == 2
    assert Verdicts(ids[:2], [0, 3]).first_split(verdicts) == 2
    assert verdicts.first_split(Verdicts([4, 7, 2], [0, 3, 1])) == 9
