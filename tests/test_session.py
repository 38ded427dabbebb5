import threading

import numpy as np
import pytest

from ordervote.ballots import (BallotMatrix, TallierBundle, ranking_to_matrix,
                               share_ballot)
from ordervote.config import ElectionConfig
from ordervote.oracle import PlainElection, plain_winners
from ordervote.session import (_run_threads, build_context, make_shared_ballots,
                               run_local_election, run_local_validation,
                               run_socket_tallier, tallier_program)
from ordervote.transport import InMemoryHub, SessionChannel
from ordervote.validation import REASON_DUPLICATE

M31 = (1 << 31) - 1


def _cfg(rule="copeland", m=3, k=1, d=3, seed=3, **kw):
    return ElectionConfig(rule=rule, candidates=tuple(f"C{i}" for i in range(1, m + 1)),
                          num_winners=k, talliers=d, expected_voters=50,
                          seed=seed, **kw).validate()


def _rankings(rule, m, n, seed):
    rng = np.random.default_rng(seed)
    if rule == "kemeny":
        return [tuple(int(r) for r in rng.integers(1, m + 1, m)) for _ in range(n)]
    return [tuple(int(c) for c in rng.permutation(m) + 1) for _ in range(n)]


def test_local_election_all_parties_agree():
    cfg = _cfg(rule="maximin", m=4, k=2, d=5)
    rankings = _rankings("maximin", 4, 9, seed=1)
    outcome = run_local_election(cfg, make_shared_ballots(cfg, rankings))
    assert len(outcome.per_party_results) == 5
    winners = outcome.result.winners
    for r in outcome.per_party_results:
        assert r.winners == winners
    oracle = plain_winners(PlainElection("maximin", 4, 2, tuple(rankings)))
    assert winners == oracle


def test_local_election_with_batching_matches_unbatched():
    cfg = _cfg(rule="copeland", m=3, k=3, d=3)
    rankings = _rankings("copeland", 3, 10, seed=2)
    ballots = make_shared_ballots(cfg, rankings)
    full = run_local_election(cfg, ballots)
    chunked = run_local_election(cfg, ballots, batch_size=3)
    assert full.result.winners == chunked.result.winners
    assert [v.record() for v in full.verdicts] == [v.record() for v in chunked.verdicts]


def test_validation_only_runner():
    cfg = _cfg(rule="kemeny", m=3, k=1)
    rankings = _rankings("kemeny", 3, 6, seed=3)
    verdicts = run_local_validation(cfg, make_shared_ballots(cfg, rankings))
    assert len(verdicts) == 6 and all(v.accepted for v in verdicts)


def test_rejected_ballots_excluded_from_tally():
    cfg = _cfg(rule="copeland", m=3, k=1, seed=8)
    rankings = _rankings("copeland", 3, 5, seed=4)
    ballots = make_shared_ballots(cfg, rankings)
    # voter 3 inflates: double every share (shares of 2Q still interpolate fine)
    bad = ballots[2]
    ballots[2] = type(bad)(bad.voter_id, bad.rule, bad.m,
                           (2 * bad.bundles) % np.uint64(cfg.prime))
    outcome = run_local_election(cfg, ballots)
    rejected = [v for v in outcome.verdicts if not v.accepted]
    assert [v.voter_id for v in rejected] == [3]
    oracle = plain_winners(PlainElection(
        "copeland", 3, 1, tuple(r for i, r in enumerate(rankings) if i != 2),
        cfg.alpha))
    assert outcome.result.winners == oracle


def test_duplicate_voter_ids_reject_every_copy():
    """A 50x-inflated ballot and a legal cover ballot under one voter id are
    both rejected, in either order; only the five honest ballots count, and
    neither copy is opened as a proof (it may be a replayed honest ballot)."""
    cfg = _cfg(rule="copeland", m=3, k=1, seed=10, open_scores=True,
               reconstruct_rejected=True)
    honest = [(2, 1, 3)] * 5
    ballots = make_shared_ballots(cfg, honest + [(1, 2, 3)])
    cover = ballots.pop()
    inflated = share_ballot(
        BallotMatrix("copeland", 3, 50 * ranking_to_matrix("copeland", (1, 2, 3), 3).entries),
        cfg.field, cfg.threshold, cfg.talliers, np.random.default_rng(1), cover.voter_id)
    for pair in ([inflated, cover], [cover, inflated]):
        outcome = run_local_election(cfg, ballots + pair)
        assert all(v.accepted for v in outcome.verdicts[:5])
        assert [v.record() for v in outcome.verdicts[5:]] == [
            {"voter_id": 6, "accepted": False, "reason": REASON_DUPLICATE}] * 2
        assert outcome.result.winners == [2]
        assert outcome.result.opened_scores == [2, 4, 0]
        assert outcome.rejected_proofs == {}


@pytest.mark.parametrize("rule", ["copeland", "maximin"])
def test_share_above_p_neither_aborts_nor_changes_the_tally(rule):
    """One share stored as its value plus a multiple of p, close to 2**64:
    every ballot is still accepted and the tally is the canonical one."""
    cfg = _cfg(rule=rule, m=3, k=1, seed=11, open_scores=True)
    rankings = _rankings(rule, 3, 6, seed=10)
    ballots = make_shared_ballots(cfg, rankings)
    expect = run_local_election(cfg, ballots).result.to_dict()
    p = cfg.prime
    for ceiling in ((1 << 64) - 2 * p - 1, (1 << 64) - 1):
        shifted = [type(b)(b.voter_id, b.rule, b.m, b.bundles.copy()) for b in ballots]
        v = int(shifted[0].bundles[1, 0])
        shifted[0].bundles[1, 0] = v + (ceiling - v) // p * p
        outcome = run_local_election(cfg, shifted)
        assert all(v.accepted for v in outcome.verdicts)
        assert outcome.result.to_dict() == expect


def test_short_bundle_is_rejected_as_malformed_at_every_tallier():
    """Voter 4's ballot is one entry short at every tallier: the tally goes
    on, voter 4 is rejected as Malformed without a proof, and the winners are
    the oracle's over the other ballots."""
    cfg = _cfg(rule="maximin", m=3, k=1, seed=12, reconstruct_rejected=True)
    rankings = _rankings("maximin", 3, 6, seed=11)
    ballots = make_shared_ballots(cfg, rankings)
    short = ballots[3]
    ballots[3] = type(short)(short.voter_id, short.rule, short.m, short.bundles[:, :-1])
    outcome = run_local_election(cfg, ballots)
    assert [v.reason for v in outcome.verdicts] == [None] * 3 + ["Malformed"] + [None] * 2
    assert outcome.rejected_proofs == {}
    rest = tuple(rankings[:3] + rankings[4:])
    assert outcome.result.winners == plain_winners(PlainElection("maximin", 3, 1, rest))


def test_short_bundle_at_one_tallier_is_rejected_by_all():
    """Only T1 holds a short bundle for voter 6; it sends p in the degree
    check, so all three talliers reject that ballot alike and agree."""
    cfg = _cfg(rule="copeland", m=4, k=2, seed=13)
    rankings = _rankings("copeland", 4, 8, seed=12)
    ballots = make_shared_ballots(cfg, rankings)
    hub = InMemoryHub(3, timeout=10.0)

    def body(d):
        bundles = [b.bundle_for(d) for b in ballots]
        if d == 1:
            bundles[5] = TallierBundle(6, "copeland", 4, bundles[5].values[:-1])
        ctx = build_context(cfg, d, SessionChannel(hub.transport(d), 1))
        return tallier_program(ctx, cfg, bundles)

    rest = tuple(rankings[:5] + rankings[6:])
    oracle = plain_winners(PlainElection("copeland", 4, 2, rest))
    for result, verdicts, _ in _run_threads(3, body).values():
        assert [v.reason for v in verdicts] == [None] * 5 + ["Malformed"] + [None] * 2
        assert result.winners == oracle


def test_reconstruct_rejected_flag_produces_proof():
    cfg = _cfg(rule="copeland", m=3, k=1, seed=9, reconstruct_rejected=True)
    rankings = _rankings("copeland", 3, 3, seed=5)
    ballots = make_shared_ballots(cfg, rankings)
    bad = ballots[0]
    ballots[0] = type(bad)(bad.voter_id, bad.rule, bad.m,
                           (2 * bad.bundles) % np.uint64(cfg.prime))
    outcome = run_local_election(cfg, ballots)
    assert 1 in outcome.rejected_proofs
    proof = outcome.rejected_proofs[1]
    assert sorted(np.unique(np.abs(proof)).tolist()) == [0, 2]  # a doubled ballot


def test_fixed_seeds_reproduce_results_exactly():
    cfg = _cfg(rule="copeland", m=3, k=2, seed=123)
    rankings = _rankings("copeland", 3, 7, seed=6)
    a = run_local_election(cfg, make_shared_ballots(cfg, rankings))
    b = run_local_election(cfg, make_shared_ballots(cfg, rankings))
    assert a.result.to_dict() == b.result.to_dict()


def test_capture_robustness_subsets():
    import itertools
    from ordervote.shamir import reconstruct_batch
    cfg = _cfg(rule="copeland", m=3, k=1, d=5, seed=21)
    rankings = _rankings("copeland", 3, 4, seed=7)
    outcome = run_local_election(cfg, make_shared_ballots(cfg, rankings),
                                 capture=True)
    field, threshold = cfg.field, cfg.threshold
    for label in ("aggregate", "scores"):
        rows = np.stack([outcome.captures[d][label][1] for d in range(1, 6)])
        ref = None
        for subset in itertools.combinations(range(5), threshold):
            got = reconstruct_batch(field, [i + 1 for i in subset],
                                    rows[list(subset)])
            ref = got if ref is None else ref
            assert np.array_equal(got, ref)


def _socket_cfg(rule, m, k, d, seed):
    import socket
    endpoints = []
    socks = []
    for _ in range(d):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        endpoints.append(("127.0.0.1", s.getsockname()[1]))
    for s in socks:
        s.close()
    return _cfg(rule=rule, m=m, k=k, d=d, seed=seed, backend="socket",
                endpoints=tuple(endpoints))


def test_socket_backend_matches_memory_backend():
    mem_cfg = _cfg(rule="copeland", m=3, k=2, d=3, seed=31)
    rankings = _rankings("copeland", 3, 5, seed=8)
    mem_outcome = run_local_election(mem_cfg, make_shared_ballots(mem_cfg, rankings))

    sock_cfg = _socket_cfg("copeland", 3, 2, 3, seed=31)
    ballots = make_shared_ballots(sock_cfg, rankings)
    results = _run_threads(3, lambda d: run_socket_tallier(
        sock_cfg, d, [b.bundle_for(d) for b in ballots])[0])
    assert results[1].to_dict() == mem_outcome.result.to_dict()
    assert results[2].winners == results[1].winners


def test_socket_live_ballot_submission():
    from ordervote.ballots import encode_bundle
    from ordervote.transport import submit_ballot_socket

    cfg = _socket_cfg("maximin", 3, 1, 3, seed=41)
    rankings = _rankings("maximin", 3, 4, seed=9)
    ballots = make_shared_ballots(cfg, rankings)
    acks = []

    def voter():  # submissions retry until each tallier listens
        for b in ballots:
            for d in (1, 2, 3):
                acks.append(submit_ballot_socket(cfg.endpoints[d - 1], 1,
                                                 encode_bundle(b.bundle_for(d))))

    vt = threading.Thread(target=voter)
    vt.start()
    results = _run_threads(3, lambda d: run_socket_tallier(
        cfg, d, bundles=None, expect_votes=4)[0])
    vt.join()
    assert acks == [True] * 12
    oracle = plain_winners(PlainElection("maximin", 3, 1, tuple(rankings)))
    assert results[1].winners == oracle
