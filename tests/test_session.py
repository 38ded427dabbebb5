import itertools
import threading

import numpy as np
import pytest

from ordervote import session, transport, validation
from ordervote.ballots import (BallotMatrix, Spool, TallierBundle, entry_pairs,
                               ranking_to_matrix, share_ballot)
from ordervote.config import PRIME_LADDER, ElectionConfig
from ordervote.engine import InconsistentOpen
from ordervote.oracle import PlainElection, plain_winners
from ordervote.session import (_run_local, _run_threads, build_context,
                               make_shared_ballots, run_local_election,
                               run_local_validation, run_socket_tallier,
                               tallier_program)
from ordervote.tally import lsb_extractions, phase_rounds
from ordervote.transport import (HEADER, InMemoryHub, InMemoryTransport, RoundTimeout,
                                 SessionChannel)
from ordervote.validation import REASON_DEGREE, REASON_DUPLICATE, REASON_MALFORMED

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


@pytest.mark.parametrize("rule, m, k, d", [("maximin", 4, 2, 4), ("copeland", 4, 1, 7)])
def test_even_and_wide_extractors_tally_the_oracle_winners(rule, m, k, d):
    """D = 4 extracts D - t = 3 sharings from every 4 deals, D = 7 extracts
    4 from 7: each tally, one ballot shared at too high a degree among
    them, elects the plaintext winners of the legal ballots."""
    cfg = _cfg(rule=rule, m=m, k=k, d=d, seed=d)
    rankings = _rankings(rule, m, 12, seed=d)
    ballots = make_shared_ballots(cfg, rankings)
    q = ranking_to_matrix(rule, rankings[0], m)
    ballots[0] = share_ballot(q, cfg.field, cfg.talliers, cfg.talliers, cfg.voter_rng(1), 1)
    outcome = run_local_election(cfg, ballots)
    assert [v.reason for v in outcome.verdicts] == [REASON_DEGREE] + [None] * 11
    assert outcome.result.winners == plain_winners(
        PlainElection(rule, m, k, tuple(rankings[1:])))


def _cap_for(monkeypatch, rule, m, batch):
    """Lower the frame cap to ``batch`` times C + z + 2w words, a bound on
    what validation's widest payload, the deal of the degree check's masks
    and of the first product layer's z sharings of zero and w double
    sharings, takes per ballot; returns it."""
    zeros, doubles = validation._first_layer(rule, m)
    words = len(entry_pairs(rule, m)) + zeros + 2 * doubles
    cap = HEADER.size + 8 * batch * words
    monkeypatch.setattr(transport, "MAX_FRAME", cap)
    return cap


def test_local_election_with_batching_matches_unbatched(monkeypatch):
    cfg = _cfg(rule="copeland", m=3, k=3, d=3)
    rankings = _rankings("copeland", 3, 10, seed=2)
    ballots = make_shared_ballots(cfg, rankings)
    full = run_local_election(cfg, ballots)
    _cap_for(monkeypatch, "copeland", 3, 3)
    chunked = run_local_election(cfg, ballots)
    assert full.result.winners == chunked.result.winners
    assert [v.record() for v in full.verdicts] == [v.record() for v in chunked.verdicts]


@pytest.mark.parametrize("rule", ["copeland", "maximin", "kemeny"])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_derived_batches_keep_every_validation_frame_under_the_cap(monkeypatch, rule, m):
    """With the cap lowered to five ballots' worth, 23 ballots (one shared at
    too high a degree) still validate in one batch, dealing once: the wide
    payloads cross as several frames, none of them above the cap, and the
    validate rounds, verdicts and winners are those at the real cap."""
    cfg = _cfg(rule=rule, m=m, k=1, seed=m)
    ballots = make_shared_ballots(cfg, _rankings(rule, m, 23, seed=m))
    q = ranking_to_matrix(rule, _rankings(rule, m, 1, seed=9)[0], m)
    ballots[11] = share_ballot(q, cfg.field, cfg.talliers, cfg.talliers,
                               cfg.voter_rng(12), 12)
    whole = run_local_election(cfg, ballots)
    assert [v.reason for v in whole.verdicts].count(REASON_DEGREE) == 1

    cap = _cap_for(monkeypatch, rule, m, 5)
    inside, frames = threading.local(), []
    validate, send = session.validate_bundles, InMemoryTransport.send

    def traced_validate(*args):
        inside.on = True
        try:
            return validate(*args)
        finally:
            inside.on = False

    def traced_send(self, to, msg):
        if getattr(inside, "on", False):
            frames.append(HEADER.size + 8 * len(msg.payload))
        send(self, to, msg)

    monkeypatch.setattr(session, "validate_bundles", traced_validate)
    monkeypatch.setattr(InMemoryTransport, "send", traced_send)
    batched = run_local_election(cfg, ballots)
    assert max(frames) <= cap
    validate_phase = batched.result.counters["phases"]["validate"]
    assert validate_phase["deal_rounds"] == 0  # its deal round carries a mask layer
    assert validate_phase["comm_rounds"] == \
        whole.result.counters["phases"]["validate"]["comm_rounds"]
    assert [v.record() for v in batched.verdicts] == [v.record() for v in whole.verdicts]
    assert batched.result.winners == whole.result.winners


def test_validation_only_runner():
    cfg = _cfg(rule="kemeny", m=3, k=1)
    rankings = _rankings("kemeny", 3, 6, seed=3)
    verdicts, _ = run_local_validation(cfg, make_shared_ballots(cfg, rankings))
    assert len(verdicts) == 6 and all(v.accepted for v in verdicts)


def test_validation_only_timeout_names_the_phase(monkeypatch):
    """T3 skips validation: the validation-only runner fails with a timeout
    that names the validate phase and T3, as a whole tally does."""
    cfg = _cfg(rule="copeland", m=3, k=1, seed=15)
    ballots = make_shared_ballots(cfg, _rankings("copeland", 3, 4, seed=14))
    validate = session.validate_bundles
    monkeypatch.setattr(session, "LOCAL_ROUND_TIMEOUT", 0.5)
    monkeypatch.setattr(session, "validate_bundles", lambda ctx, config, bundles: (
        [] if ctx.party_id == 3 else validate(ctx, config, bundles)))
    with pytest.raises(RuntimeError) as err:
        run_local_validation(cfg, ballots)
    cause = err.value.__cause__
    assert isinstance(cause, RoundTimeout)
    assert (cause.phase, cause.missing) == ("validate", [3])


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
    """Only T1 holds a short bundle for voter 6; its roster frame flags
    that voter, so all three talliers reject the ballot alike and agree."""
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


def test_malformed_row_at_one_tallier_at_m1_is_rejected_by_all(monkeypatch):
    """At M=1 a ballot shares no entry, so no validation round can carry
    T1's malformed row of voter 2; the roster does, and every tallier
    rejects that voter and elects candidate 1, where T1 used to fail in
    aggregation while its peers waited out the round timeout."""
    monkeypatch.setattr(session, "LOCAL_ROUND_TIMEOUT", 5.0)
    cfg = _cfg(rule="copeland", m=1, k=1, seed=15)
    ballots = make_shared_ballots(cfg, [(1,)] * 3)
    bundles = {d: [b.bundle_for(d) for b in ballots] for d in (1, 2, 3)}
    bundles[1][1] = TallierBundle(2, "copeland", 1, np.array([7], dtype=np.uint64))
    outcome = run_local_election(cfg, bundles)
    assert [v.reason for v in outcome.verdicts] == [None, "Malformed", None]
    assert [r.winners for r in outcome.per_party_results] == [[1]] * 3


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


def test_socket_tally_over_the_cap_validates_in_one_batch(monkeypatch):
    """A 12 KiB cap is above every frame of a Copeland M=3 tally except
    validation's at N=300: those payloads cross as several frames,
    validation spends no round on a deal alone, and the socket tally
    completes with the in-memory result."""
    monkeypatch.setattr(transport, "MAX_FRAME", 12 << 10)
    rankings = _rankings("copeland", 3, 300, seed=16)
    mem_cfg = _cfg(rule="copeland", m=3, k=1, d=3, seed=32)
    mem_outcome = run_local_election(mem_cfg, make_shared_ballots(mem_cfg, rankings))

    sock_cfg = _socket_cfg("copeland", 3, 1, 3, seed=32)
    ballots = make_shared_ballots(sock_cfg, rankings)
    results = _run_threads(3, lambda d: run_socket_tallier(
        sock_cfg, d, [b.bundle_for(d) for b in ballots])[0])
    assert results[1].to_dict() == mem_outcome.result.to_dict()
    assert results[1].counters["phases"]["validate"]["deal_rounds"] == 0


def test_socket_tally_opens_proofs_wider_than_a_frame(monkeypatch):
    """Under a 12 KiB cap, the proofs of 600 Copeland M=3 ballots shared at
    degree D are 1,800 words per tallier, wider than one frame: they cross
    as several, and the socket tally returns all 600 proofs and the
    in-memory result (it used to end in a TransportFailure)."""
    monkeypatch.setattr(transport, "MAX_FRAME", 12 << 10)
    rankings = _rankings("copeland", 3, 700, seed=18)

    def shared(cfg):
        ballots = make_shared_ballots(cfg, rankings)
        for i in range(600):
            q = ranking_to_matrix("copeland", rankings[i], 3)
            ballots[i] = share_ballot(q, cfg.field, cfg.talliers, cfg.talliers,
                                      cfg.voter_rng(i + 1), i + 1)
        return ballots

    mem_cfg = _cfg(rule="copeland", m=3, k=1, d=3, seed=35, reconstruct_rejected=True)
    mem_outcome = run_local_election(mem_cfg, shared(mem_cfg))
    assert [v.reason for v in mem_outcome.verdicts] == [REASON_DEGREE] * 600 + [None] * 100

    sock_cfg = _socket_cfg("copeland", 3, 1, 3, seed=35).with_overrides(
        reconstruct_rejected=True)
    ballots = shared(sock_cfg)
    results = _run_threads(3, lambda d: run_socket_tallier(
        sock_cfg, d, [b.bundle_for(d) for b in ballots]))
    result, _, proofs = results[1]
    assert result.to_dict() == mem_outcome.result.to_dict()
    assert len(proofs) == 600
    assert all(np.array_equal(proofs[v], mem_outcome.rejected_proofs[v]) for v in proofs)


def test_socket_roster_over_the_cap_goes_in_chunks(monkeypatch):
    """Under a 12 KiB cap, 2,000 voter ids do not fit one frame: each
    roster payload crosses as frames of 1,533 words, and a Copeland M=3
    socket tally completes with the in-memory result."""
    monkeypatch.setattr(transport, "MAX_FRAME", 12 << 10)
    rankings = _rankings("copeland", 3, 2000, seed=17)
    mem_cfg = _cfg(rule="copeland", m=3, k=1, d=3, seed=33)
    mem_outcome = run_local_election(mem_cfg, make_shared_ballots(mem_cfg, rankings))

    sock_cfg = _socket_cfg("copeland", 3, 1, 3, seed=33)
    ballots = make_shared_ballots(sock_cfg, rankings)
    results = _run_threads(3, lambda d: run_socket_tallier(
        sock_cfg, d, [b.bundle_for(d) for b in ballots])[0])
    assert results[1].to_dict() == mem_outcome.result.to_dict()
    assert mem_outcome.result.winners == plain_winners(
        PlainElection("copeland", 3, 1, tuple(rankings)))
    assert len(mem_outcome.verdicts) == 2000 and all(v.accepted for v in mem_outcome.verdicts)


def test_empty_roster_frame_names_its_sender():
    """A peer that sends no word at all in the roster round, not even the
    count of its malformed ids, is named in an InconsistentOpen at every
    tallier."""
    cfg = _cfg()
    hub = InMemoryHub(3, timeout=10.0)

    def body(d):
        ctx = build_context(cfg, d, SessionChannel(hub.transport(d), 1))
        if d == 2:
            ctx.channel.exchange_all(np.zeros(0, dtype=np.uint64))
            return
        with pytest.raises(InconsistentOpen, match="T2 sent an empty roster frame in round 0"):
            session._agree_roster(ctx, Spool.from_bundles([], cfg.rule, cfg.m, cfg.prime))

    _run_threads(3, body)


def test_malformed_ids_that_straddle_a_roster_chunk_reach_every_tallier(monkeypatch):
    """Under a cap of four words per frame, T2 sends its six voter ids,
    then its malformed ones, voters 2, 4 and 6, across its second and third
    frames, and then their count.  Over sockets every tallier derives the
    same roster in one round, with those voters Malformed and voter 5,
    which T3 lacks, too."""
    cfg = _socket_cfg("copeland", 3, 1, 3, seed=34)
    monkeypatch.setattr(transport, "MAX_FRAME", HEADER.size + 8 * 4)
    rows = [[1, 2, 3]] * 6
    spools = {1: Spool.build("copeland", 3, M31, range(1, 7), rows),
              2: Spool.build("copeland", 3, M31, range(1, 7),
                             [None if v % 2 == 0 else r for v, r in enumerate(rows, 1)]),
              3: Spool.build("copeland", 3, M31, [1, 2, 3, 4, 6], rows[:5])}

    def body(d):
        with session._socket_context(cfg, d) as ctx:
            roster, codes = session._agree_roster(ctx, spools[d])
            return (roster.tolist(), [validation.REASONS[c] for c in codes.tolist()],
                    ctx.channel.stats.rounds)

    expected = ([1, 2, 3, 4, 5, 6], [None, REASON_MALFORMED, None] + [REASON_MALFORMED] * 3, 1)
    assert list(_run_threads(3, body).values()) == [expected] * 3


def test_the_roster_fast_path_agrees_with_the_rule(monkeypatch):
    """Seeded random rosters of three talliers: lists with duplicates,
    missing ids, ids no other tallier holds, malformed ids and another
    order, and clean lists, every tallier's equal to T1's, ascending or
    not.  ``_roster`` gives what the general rule gives, ids and codes, and
    a clean roster never reaches the rule."""
    rule = session._roster_by_rule
    calls = []
    monkeypatch.setattr(session, "_roster_by_rule",
                        lambda held, flagged: calls.append(1) or rule(held, flagged))
    rng = np.random.default_rng(27)
    none = np.zeros(0, dtype=np.uint64)
    clean = 0
    for trial in range(300):
        n = int(rng.integers(0, 30))
        base = np.arange(1, n + 1, dtype=np.uint64)
        if trial % 2:
            base = rng.permutation(base)
        held, flagged = [base.copy() for _ in range(3)], [none] * 3
        touched = trial % 3 and n
        for d in range(3) if touched else ():
            ids = held[d]
            for edit in np.flatnonzero(rng.random(5) < 0.4):
                pick = ids[rng.integers(0, ids.size)] if ids.size else np.uint64(1)
                if edit == 0:  # a duplicate
                    ids = np.insert(ids, rng.integers(0, ids.size + 1), pick)
                elif edit == 1 and ids.size:  # a missing id
                    ids = np.delete(ids, rng.integers(0, ids.size))
                elif edit == 2:  # an id no one else holds
                    ids = np.append(ids, np.uint64(100 + d))
                elif edit == 3:  # a malformed id
                    flagged[d] = np.array([pick], dtype=np.uint64)
                else:  # another order
                    ids = rng.permutation(ids)
            held[d] = ids
        before = len(calls)
        got = session._roster(held, flagged)
        want = rule(held, flagged)
        assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
        if not touched:
            clean += 1
            assert len(calls) == before  # the fast path
    assert clean >= 100 and len(calls) >= 150  # both paths ran


def test_roster_word_claiming_unsent_malformed_ids_names_its_sender():
    """A peer whose final roster word, the count of its malformed ids,
    claims more than it sent is named in an InconsistentOpen at every other
    tallier."""
    cfg = _cfg()
    hub = InMemoryHub(3, timeout=10.0)

    def body(d):
        ctx = build_context(cfg, d, SessionChannel(hub.transport(d), 1))
        if d == 2:
            ctx.channel.exchange_all(np.array([1, 2, 3], dtype=np.uint64))
            return
        with pytest.raises(InconsistentOpen, match="T2 claims 3 malformed ids"):
            session._agree_roster(ctx, Spool.from_bundles([], cfg.rule, cfg.m, cfg.prime))

    _run_threads(3, body)


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


def test_tally_prepares_exactly_its_masks_before_validation():
    """For every rule, M <= 6 and K <= M, ``tallier_program`` starts its LSB
    masks in one batch before any extraction, as many as the tally extracts:
    the mask pool ends empty, so no mask is prepared online."""
    for rule in ("copeland", "maximin", "kemeny"):
        for m in range(1, 7):
            for k in range(1, m + 1):
                cfg = _cfg(rule=rule, m=m, k=k, seed=m)
                ballots = make_shared_ballots(cfg, _rankings(rule, m, 5, seed=k))

                def program(ctx):
                    batches = []
                    prepare = ctx.prepare_masks

                    def counted(n):
                        if n:
                            batches.append((n, ctx.counters.lsb_extractions))
                        prepare(n)

                    ctx.prepare_masks = counted
                    tallier_program(ctx, cfg, [b.bundle_for(ctx.party_id) for b in ballots])
                    return batches, ctx.counters.lsb_extractions, ctx._masks.shape[1]

                batches, extractions, left = _run_local(cfg, program)[1]
                assert batches == ([(extractions, 0)] if extractions else []), (rule, m, k)
                assert left == 0, (rule, m, k)


def test_pool_deals_ride_on_the_exchange_before_each_layer():
    """For every rule, M <= 6 and K <= M at p = 65,519 and p = 2^31 - 1, with
    one ballot shared at too high a degree: score and select spend no round
    on dealing pool sharings, and validation at most one; the mask batch's
    deal rides validation's, so the offline phase spends none.  Of the
    random sharings dealt, fewer than D - t are left over, a deal's surplus
    of extractor outputs, of the double sharings fewer than D - t beyond
    two per ballot that fails the degree check, and of the sharings of zero
    fewer than D - t beyond the first product layer's opened gates of each
    such ballot.  Each counter of the result is the sum of its phases'
    shares."""
    for prime, rule in itertools.product(PRIME_LADDER, ("copeland", "maximin", "kemeny")):
        for m in range(1, 7):
            for k in range(1, m + 1):
                cfg = _cfg(rule=rule, m=m, k=k, seed=m, prime=prime)
                outputs = cfg.talliers - cfg.threshold + 1  # D - t
                ballots = make_shared_ballots(cfg, _rankings(rule, m, 5, seed=k))
                q = ranking_to_matrix(rule, _rankings(rule, m, 1, seed=9)[0], m)
                ballots.append(share_ballot(q, cfg.field, cfg.talliers, cfg.talliers,
                                            cfg.voter_rng(6), 6))

                def program(ctx):
                    result, verdicts, _ = tallier_program(
                        ctx, cfg, [b.bundle_for(ctx.party_id) for b in ballots])
                    return (result.counters, [p.shape[1] for p in ctx._pools.values()],
                            sum(v.reason == REASON_DEGREE for v in verdicts))

                opened = validation._first_layer(rule, m)[0]
                for party, (counters, (rand_left, double_left, zero_left), rejected) in \
                        _run_local(cfg, program).items():
                    counters = dict(counters)
                    ledger = counters.pop("phases")
                    phases = {ph: ledger.get(ph, {}).get("deal_rounds", 0)
                              for ph in ("offline", "validate", "score", "select")}
                    case = (prime, rule, m, k, party, phases)
                    assert list(ledger) == ["validate", "offline", "aggregate"] + \
                        (["select"] if rule == "kemeny" else ["score", "select"]), case
                    assert phases["offline"] == phases["score"] == phases["select"] == 0, case
                    assert phases["validate"] <= 1, case
                    assert counters["deal_rounds"] == sum(phases.values()), case
                    assert counters == {key: sum(c[key] for c in ledger.values())
                                        for key in counters}, case
                    assert rejected == (m > 1), case
                    assert rand_left < outputs, case
                    assert double_left < 2 * rejected + outputs, case
                    assert zero_left < opened * rejected + outputs, case


@pytest.mark.parametrize("rule", ["copeland", "maximin", "kemeny"])
def test_a_batch_that_fails_the_degree_check_withdraws_its_zeros(rule):
    """Every ballot of an M=4 K=2 tally at p = 65,519 shared at too high a
    degree: validation declared the first product layer's sharings of zero
    and withdraws them, so none is taken and none stays declared.  The mask
    batch rides validation's three rounds from the roster on and finishes
    in the offline phase, and the winners are the oracle's for no ballots."""
    cfg = _cfg(rule=rule, m=4, k=2, seed=8)
    ballots = [share_ballot(ranking_to_matrix(rule, r, 4), cfg.field, cfg.talliers,
                            cfg.talliers, cfg.voter_rng(v), v)
               for v, r in enumerate(_rankings(rule, 4, 6, seed=8), start=1)]

    def program(ctx):
        result, verdicts, _ = tallier_program(
            ctx, cfg, [b.bundle_for(ctx.party_id) for b in ballots])
        return result, [v.reason for v in verdicts], dict(ctx._owed)

    for party, (result, reasons, owed) in _run_local(cfg, program).items():
        phases = result.counters["phases"]
        assert reasons == [REASON_DEGREE] * 6, party
        assert owed == {"rand": 0, "double": 0, "zero": 0}, party
        assert result.counters["zero_sharings"] == 0, party
        assert (phases["validate"]["comm_rounds"], phases["validate"]["mul_gates"]) == (3, 0)
        assert phases["validate"]["offline_rounds"] == 3, party
        assert phases["offline"]["comm_rounds"] == phases["offline"]["offline_rounds"] == \
            result.counters["offline_rounds"] - 3 > 0, party
        assert result.winners == plain_winners(PlainElection(rule, 4, 2, ())), party


@pytest.mark.parametrize("rule, m, k, n, rounds", [
    ("copeland", 6, 2, 200, {"validate": 18, "offline": 0, "aggregate": 0,
                             "score": 3, "select": 19}),
    ("maximin", 6, 2, 200, {"validate": 18, "offline": 0, "aggregate": 0,
                            "score": 10, "select": 19}),
    ("kemeny", 5, 2, 200, {"validate": 4, "offline": 2, "aggregate": 0, "select": 16}),
    ("kemeny", 6, 1, 100, {"validate": 4, "offline": 2, "aggregate": 0, "select": 21}),
])
def test_phase_ledger_reads_the_rounds_of_each_phase(rule, m, k, n, rounds):
    """Party 1's communication rounds per phase on legal ballots, D = 3, at
    the prime the config takes by default, 65,519.  The mask batch's 6
    layers ride validation's rounds from the roster round on, so only
    Kemeny's 4 validate rounds leave 2 to the offline phase, and no round
    only deals.  Top-K's first opening rides the scores' last layer, a
    round less in select, and Kemeny's argmax compares in groups
    (``KEMENY_GROUPS``)."""
    cfg = ElectionConfig(rule=rule, candidates=tuple(f"C{i}" for i in range(1, m + 1)),
                         num_winners=k, talliers=3, expected_voters=n, seed=5).validate()
    assert cfg.prime == 65_519
    outcome = run_local_election(cfg, make_shared_ballots(cfg, _rankings(rule, m, n, seed=5)))
    counters = outcome.result.counters
    assert {ph: c["comm_rounds"] for ph, c in counters["phases"].items()} == rounds
    assert counters["comm_rounds"] == sum(rounds.values())
    assert rounds == phase_rounds(rule, m, k, cfg.field.ell)
    assert [counters["phases"][ph]["deal_rounds"] for ph in ("offline", "validate")] == [0, 0]
    assert counters["offline_rounds"] == 6


def test_phase_ledger_meets_the_round_model():
    """For every rule, M <= 6, K <= M and D in {3, 5}, at p = 65,519 and
    p = 2^31 - 1, with and without open scores, party 1's rounds per phase
    on legal ballots are those of ``tally.phase_rounds``; for M = 1 nothing
    is compared.  Opened scores ride on the last winner's opening, so the
    model is the same with and without them; a Kemeny tally opens none."""
    for prime in PRIME_LADDER:
        for rule in ("copeland", "maximin", "kemeny"):
            for m in range(1, 7):
                for k in range(1, m + 1):
                    for d in (3, 5):
                        for open_scores in (False,) if rule == "kemeny" else (False, True):
                            cfg = _cfg(rule=rule, m=m, k=k, d=d, seed=m, prime=prime,
                                       open_scores=open_scores)
                            ballots = make_shared_ballots(cfg, _rankings(rule, m, 5, seed=k))
                            phases = run_local_election(cfg, ballots).result.counters["phases"]
                            ledger = {ph: c["comm_rounds"] for ph, c in phases.items()}
                            assert ledger == phase_rounds(rule, m, k, cfg.field.ell), \
                                (prime, rule, m, k, d, open_scores)


def test_mask_layers_ride_the_frames_of_every_round(monkeypatch):
    """For every rule, M <= 6 and K <= M at D = 3, every tallier sends
    exactly D - 1 frames in every round of the tally, so no mask layer costs
    a frame of its own, and the rounds are those of ``phase_rounds``, which
    count the mask batch only where it runs alone."""
    frames, send = {}, InMemoryTransport.send

    def counted(self, to, msg):
        key = (msg.sender, msg.round)
        frames[key] = frames.get(key, 0) + 1
        send(self, to, msg)

    monkeypatch.setattr(InMemoryTransport, "send", counted)
    for rule in ("copeland", "maximin", "kemeny"):
        for m in range(1, 7):
            for k in range(1, m + 1):
                cfg = _cfg(rule=rule, m=m, k=k, seed=m)
                frames.clear()
                counters = run_local_election(cfg, make_shared_ballots(
                    cfg, _rankings(rule, m, 5, seed=k))).result.counters
                case = (rule, m, k)
                assert counters["comm_rounds"] == sum(
                    phase_rounds(rule, m, k, cfg.field.ell).values()), case
                assert counters["messages"] == 2 * counters["comm_rounds"], case
                assert sorted(frames) == [(d, r) for d in (1, 2, 3)
                                          for r in range(counters["comm_rounds"])], case
                assert set(frames.values()) == {2}, case


@pytest.mark.parametrize("rule, m, k", [("copeland", 4, 2), ("maximin", 4, 1),
                                        ("kemeny", 4, 2)])
def test_a_short_validation_leaves_the_masks_to_the_offline_phase(rule, m, k):
    """Two elections whose validation ends before the mask batch does: one
    whose every ballot fails the degree check, so validation stops after
    the check, and one with an empty spool, whose validation takes only the
    roster round.  The batch rides those rounds from the roster on and
    finishes in rounds of its own, S = 4 + t = 6 layers at p = 65,519 in
    all, and the winners are the oracle's for no accepted ballot."""
    cfg = _cfg(rule=rule, m=m, k=k, seed=4)
    assert cfg.prime == 65_519
    rankings = _rankings(rule, m, 3, seed=4)
    broken = [share_ballot(ranking_to_matrix(rule, r, m), cfg.field, cfg.talliers,
                           cfg.talliers, cfg.voter_rng(v), v)
              for v, r in enumerate(rankings, 1)]
    expected = plain_winners(PlainElection(rule, m, k, ()))
    for ballots, rode in ((broken, 3), ([], 1)):
        def program(ctx):
            return (ctx, *tallier_program(ctx, cfg, [b.bundle_for(ctx.party_id)
                                                     for b in ballots]))

        ctx, result, verdicts, _ = _run_local(cfg, program)[1]
        phases = result.counters["phases"]
        assert [v.reason for v in verdicts] == [REASON_DEGREE] * len(ballots)
        assert result.winners == expected
        assert phases["validate"]["offline_rounds"] == rode
        assert phases["offline"]["comm_rounds"] == phases["offline"]["offline_rounds"] == 6 - rode
        assert result.counters["offline_rounds"] == 6
        assert result.counters["deal_rounds"] == 0
        assert ctx._masks.shape[1] == 0 and ctx._stream is None


def test_spare_masks_keep_the_offline_rounds_exact_at_16_bits(seeded_talliers):
    """Kemeny M=6 K=1 N=100 at p = 65,519 extracts 719 times, and about 0.05%
    of masks fail their checks.  On 20 seeds of the talliers, the tally takes
    the rounds of ``phase_rounds`` exactly and pays no round that only
    deals: the roster round carries the mask batch's deal, and validation's
    deal round a mask layer; none goes to a redraw."""
    model = phase_rounds("kemeny", 6, 1, 16)
    for seed in range(1, 21):
        cfg = _cfg(rule="kemeny", m=6, k=1, seed=seed)
        assert cfg.prime == 65_519
        counters = run_local_election(cfg, make_shared_ballots(
            cfg, _rankings("kemeny", 6, 100, seed=seed))).result.counters
        assert {ph: c["comm_rounds"] for ph, c in counters["phases"].items()} == model, seed
        assert counters["deal_rounds"] == 0, seed


def _stray_vote(cfg, ranking, voter_id, party):
    """Party ``party``'s share of a ballot no other tallier holds."""
    matrix = ranking_to_matrix(cfg.rule, ranking, cfg.m)
    return share_ballot(matrix, cfg.field, cfg.threshold, cfg.talliers,
                        cfg.voter_rng(voter_id), voter_id).bundle_for(party)


def test_stray_voter_id_at_one_tallier_leaves_every_audit_the_same():
    """T1 holds a stray voter 99 where T2 and T3 hold voter 3.  The talliers
    agree on one roster: voter 99, held by T1 alone, and voter 3, missing at
    T1, are both Malformed at every tallier.  All three write the same
    verdicts, and the winners are the oracle's over the other ballots."""
    cfg = _cfg(rule="copeland", m=4, k=2, seed=13)
    rankings = _rankings("copeland", 4, 8, seed=12)
    ballots = make_shared_ballots(cfg, rankings)
    hub = InMemoryHub(3, timeout=10.0)

    def body(d):
        bundles = [b.bundle_for(d) for b in ballots]
        if d == 1:
            bundles[2] = _stray_vote(cfg, rankings[0], 99, 1)
        ctx = build_context(cfg, d, SessionChannel(hub.transport(d), 1))
        return tallier_program(ctx, cfg, bundles)

    runs = _run_threads(3, body)
    audits = [[v.record() for v in verdicts] for _, verdicts, _ in runs.values()]
    assert audits[0] == audits[1] == audits[2]
    assert [(rec["voter_id"], rec.get("reason")) for rec in audits[0]] == \
        [(1, None), (2, None), (99, REASON_MALFORMED)] + [(v, None) for v in range(4, 9)] + \
        [(3, REASON_MALFORMED)]
    oracle = plain_winners(PlainElection("copeland", 4, 2, tuple(rankings[:2] + rankings[3:])))
    assert [result.winners for result, _, _ in runs.values()] == [oracle] * 3


def test_replayed_ballot_at_one_tallier_neither_aborts_nor_splits_the_verdicts():
    """Over sockets, voter 2's T1 bundle reaches T1 twice, the replay ahead
    of the honest ballots, so T1's first four ballots hold two copies of
    voter 2 and none of voter 4.  The talliers agree on one roster: voter 2
    is a DuplicateVoter and voter 4 Malformed at every tallier, and the
    winners are the oracle's over voters 1 and 3."""
    from ordervote.ballots import encode_bundle
    from ordervote.transport import submit_ballot_socket

    cfg = _socket_cfg("maximin", 3, 1, 3, seed=41)
    rankings = _rankings("maximin", 3, 4, seed=9)
    ballots = make_shared_ballots(cfg, rankings)
    frames = [(1, ballots[1])] + [(d, b) for b in ballots for d in (1, 2, 3)]
    acks = []

    def voter():  # submissions retry until each tallier listens
        for d, b in frames:
            acks.append(submit_ballot_socket(cfg.endpoints[d - 1], 1,
                                             encode_bundle(b.bundle_for(d))))

    vt = threading.Thread(target=voter)
    vt.start()
    runs = _run_threads(3, lambda d: run_socket_tallier(cfg, d, bundles=None, expect_votes=4))
    vt.join(timeout=30)
    assert not vt.is_alive() and acks == [True] * 13
    oracle = plain_winners(PlainElection("maximin", 3, 1, (rankings[0], rankings[2])))
    for result, verdicts, _ in runs.values():
        assert [(v.voter_id, v.reason) for v in verdicts] == [
            (1, None), (2, REASON_DUPLICATE), (2, REASON_DUPLICATE), (3, None),
            (4, REASON_MALFORMED)]
        assert result.winners == oracle


def test_rejected_ballot_proofs_open_in_one_round():
    """Copeland M=4, N=60 with 1, 5 or 20 ballots shared at too high a degree:
    with proofs on, validation takes one round more than without, whatever
    the count, and each of those ballots gets its proof."""
    cfg = ElectionConfig(rule="copeland", candidates=("C1", "C2", "C3", "C4"),
                         num_winners=1, talliers=3, expected_voters=60,
                         seed=18).validate()
    rankings = _rankings("copeland", 4, 60, seed=17)
    rounds = []
    for broken in (1, 5, 20):
        ballots = make_shared_ballots(cfg, rankings)
        for i in range(broken):
            q = ranking_to_matrix("copeland", rankings[i], 4)
            ballots[i] = share_ballot(q, cfg.field, cfg.talliers, cfg.talliers,
                                      cfg.voter_rng(i + 1), i + 1)
        plain = run_local_election(cfg, ballots)
        proved = run_local_election(cfg.with_overrides(reconstruct_rejected=True), ballots)
        assert sorted(proved.rejected_proofs) == list(range(1, broken + 1))
        rounds.append([outcome.result.counters["phases"]["validate"]["comm_rounds"]
                       for outcome in (plain, proved)])
    assert rounds == [[rounds[0][0], rounds[0][0] + 1]] * 3


def test_round_timeout_names_the_phase_and_the_missing_party():
    """T3 agrees the roster with its peers, its frame carrying the mask
    batch's deal as theirs does, and then leaves: T1 and T2 time out in
    validation's next round, and the error names the phase and T3."""
    cfg = _cfg(rule="copeland", m=3, k=1, seed=14)
    ballots = make_shared_ballots(cfg, _rankings("copeland", 3, 4, seed=13))
    hub = InMemoryHub(3, timeout=1.0)

    def body(d):
        ctx = build_context(cfg, d, SessionChannel(hub.transport(d), 1))
        if d == 3:
            ctx.prepare_masks(lsb_extractions(cfg.rule, cfg.m, cfg.num_winners))
            session._agree_roster(ctx, Spool.from_bundles(
                [b.bundle_for(d) for b in ballots], cfg.rule, cfg.m, cfg.prime))
            return None
        with pytest.raises(RoundTimeout) as err:
            tallier_program(ctx, cfg, [b.bundle_for(d) for b in ballots])
        return err.value

    errors = _run_threads(3, body)
    for d in (1, 2):
        assert (errors[d].phase, errors[d].missing) == ("validate", [3])
        assert "validate" in str(errors[d]) and "T3" in str(errors[d])
