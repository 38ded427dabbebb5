import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ordervote import cli
from ordervote.ballots import matrix_entry_values, ranking_to_matrix, share_ballot
from ordervote.cli import _random_rankings, main
from ordervote.config import ElectionConfig
from ordervote.engine import spare_masks
from ordervote.oracle import PlainElection, plain_winners
from ordervote.session import make_shared_ballots
from ordervote.shamir import reconstruct_batch
from ordervote.tally import phase_rounds

M31 = (1 << 31) - 1


def write_config(path, **overrides):
    data = {
        "rule": "copeland",
        "candidates": ["C1", "C2", "C3"],
        "num_winners": 1,
        "talliers": 3,
        "prime": M31,
        "alpha": {"s": 1, "t": 2},
        "expected_voters": 10,
        "seed": 42,
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


def demo_votes(session, keep_plain=True):
    extra = ["--keep-plain"] if keep_plain else []
    for order in ("C1,C2,C3", "C1,C3,C2", "C2,C1,C3"):
        assert main(["vote", "--session", str(session), "--order", order] + extra) == 0


def test_setup_vote_tally_demo_election(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    session = tmp_path / "sess"
    assert main(["setup", "--config", str(cfg), "--session", str(session)]) == 0
    demo_votes(session)
    assert main(["validate", "--session", str(session)]) == 0
    assert main(["tally", "--session", str(session), "--open-scores"]) == 0
    out = capsys.readouterr().out
    assert "winner 1: C1" in out
    assert "opened scores: [4, 2, 0]" in out
    assert "comparisons=2" in out  # K(M-(K+1)/2) = 1*(3-1)
    result = json.loads((session / "result.json").read_text())
    assert result["winners"] == [1]
    audit = [json.loads(line) for line in
             (session / "audit.jsonl").read_text().splitlines()]
    assert len(audit) == 3 and all(rec["accepted"] for rec in audit)


def test_maximin_demo_and_full_ranking(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", rule="maximin", num_winners=3)
    session = tmp_path / "sess"
    main(["setup", "--config", str(cfg), "--session", str(session)])
    demo_votes(session)
    assert main(["tally", "--session", str(session)]) == 0
    out = capsys.readouterr().out
    assert "winner 1: C1" in out and "winner 2: C2" in out and "winner 3: C3" in out
    result = json.loads((session / "result.json").read_text())
    assert result["winners"] == [1, 2, 3]  # K = M: full ranking
    assert result["counters"]["comparisons"] == 3 * 1 + 3  # M(M-2) + M(M-1)/2
    # one mask per comparison, prepared in one batch: a deal, the bits, two
    # product layers and the r < p check, whose last level opens it: 4 + 3
    offline = result["counters"]["offline_rounds"]
    assert offline == 7 < result["counters"]["comm_rounds"]
    assert f"offline_rounds={offline} " in out
    # pool sharings ride on the exchanges, none in a round of its own: the
    # roster round carries the mask batch's deal, and validation's deal
    # round a mask layer
    assert result["counters"]["deal_rounds"] == 0
    assert "deal_rounds=0 " in out


def test_setup_rejects_small_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", prime=31, expected_voters=20)
    assert main(["setup", "--config", str(cfg), "--session", str(tmp_path / "s")]) == 2
    assert "2N" in capsys.readouterr().err


def test_bad_config_ends_setup_and_bench_with_a_named_error(tmp_path, capsys):
    """A config that does not exist, is not JSON, lacks a field, holds a
    field not of its JSON type or fails validation ends setup and bench with
    exit code 2 and a ConfigError, or a subclass, that names the fault, not
    a traceback.  Kemeny with M = 7 is refused here, not at the tally."""
    cfg, missing = tmp_path / "cfg.json", tmp_path / "missing.json"
    good = json.loads(write_config(cfg).read_text())
    no_rule = {k: v for k, v in good.items() if k != "rule"}
    kemeny7 = dict(good, rule="kemeny", candidates=list("ABCDEFG"))
    field = "ConfigError: config field "
    for text, named in ((json.dumps(dict(good, talliers="x")), field + "'talliers'"),
                        (json.dumps(no_rule), field + "'rule' is missing"),
                        (json.dumps(dict(good, alpha={"s": 1})), field + "'alpha'"),
                        ("{not json", "ConfigError: config is not JSON"),
                        (json.dumps(dict(good, prime=4)), "ConfigError: p = 4 is not prime"),
                        (None, f"ConfigError: cannot read {missing}"),
                        (json.dumps(dict(good, candidates="ABC")), field + "'candidates'"),
                        (json.dumps(dict(good, open_scores="false")), field + "'open_scores'"),
                        (json.dumps(dict(good, talliers=3.9)), field + "'talliers'"),
                        (json.dumps(kemeny7), "TooManyCandidates: kemeny enumerates M! "
                                              "rankings; M = 7 exceeds the guard (6)")):
        if text is not None:
            cfg.write_text(text)
        for argv in (["setup", "--session", str(tmp_path / "s")], ["bench", "--reps", "1"]):
            assert main(argv + ["--config", str(cfg if text else missing)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(named), (argv[0], err)
        assert not (tmp_path / "s").exists()


def test_vote_rejects_malformed_order(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    session = tmp_path / "sess"
    main(["setup", "--config", str(cfg), "--session", str(session)])
    assert main(["vote", "--session", str(session), "--order", "C1,C1,C3"]) == 2
    assert "rejected" in capsys.readouterr().err


def test_vote_rejects_a_voter_id_below_1(tmp_path, capsys):
    """Voter ids cross the roster round as unsigned words, so a negative id
    is refused when cast, not when the talliers meet."""
    cfg = write_config(tmp_path / "cfg.json")
    session = tmp_path / "sess"
    main(["setup", "--config", str(cfg), "--session", str(session)])
    assert main(["vote", "--session", str(session), "--order", "C1,C2,C3",
                 "--voter-id", "-3"]) == 2
    assert "--voter-id must be at least 1" in capsys.readouterr().err
    assert not (session / "ballots" / "tallier_1.jsonl").exists()


def test_kemeny_ranks_paper_example(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", rule="kemeny",
                       candidates=["Alice", "Bob", "Carol", "David"],
                       num_winners=2)
    session = tmp_path / "sess"
    main(["setup", "--config", str(cfg), "--session", str(session)])
    assert main(["vote", "--session", str(session),
                 "--ranks", "Alice=3,Bob=2,Carol=1,David=3", "--keep-plain"]) == 0
    assert main(["tally", "--session", str(session)]) == 0
    out = capsys.readouterr().out
    assert "winner 1: Carol" in out and "winner 2: Bob" in out
    result = json.loads((session / "result.json").read_text())
    assert result["winners"] == [3, 2]
    assert result["kemeny_ranking"] == [3, 2, 1, 3] or \
        result["kemeny_ranking"][2] == 1  # Carol leads the winning ranking


def test_result_file_reproducible_byte_for_byte(tmp_path):
    """``vote`` and ``tally`` draw from the operating system, but the winners,
    verdicts and counters do not depend on the random values: two runs
    write the same result.json, at an explicit 2^31 - 1 and at the 65,519
    a config without a prime takes, each in the rounds of ``phase_rounds``
    (no mask batch fell short)."""
    for prime, ell in ((M31, 31), (None, 16)):
        blobs = []
        for run in range(2):
            cfg = write_config(tmp_path / f"cfg{ell}-{run}.json", prime=prime)
            session = tmp_path / f"sess{ell}-{run}"
            main(["setup", "--config", str(cfg), "--session", str(session)])
            demo_votes(session, keep_plain=False)
            main(["tally", "--session", str(session)])
            blobs.append((session / "result.json").read_bytes())
        assert blobs[0] == blobs[1]
        phases = json.loads(blobs[0])["counters"]["phases"]
        assert {ph: c["comm_rounds"] for ph, c in phases.items()} == \
            phase_rounds("copeland", 3, 1, ell)


def _spool_lines(session, party):
    return [json.loads(line) for line in
            (session / "ballots" / f"tallier_{party}.jsonl").read_text().splitlines()]


def _replayed(config, voter_id, values):
    """The orders whose sharing under ``config.voter_rng(voter_id)`` gives T1
    the shares ``values``: what whoever holds session.json learns from one
    spool line of a seeded voter."""
    found = []
    for order in itertools.permutations(range(1, config.m + 1)):
        shared = share_ballot(ranking_to_matrix(config.rule, order, config.m), config.field,
                              config.threshold, config.talliers,
                              config.voter_rng(voter_id), voter_id)
        if shared.bundle_for(1).values.tolist() == values:
            found.append(order)
    return found


def test_session_file_and_one_spool_give_no_ballot_away(tmp_path):
    """session.json holds the seed.  A seeded sharing is replayed from it and
    one tallier's shares (the check below finds a library ballot's order), but
    ``vote`` draws from the operating system, so no spool line of T1 gives
    its voter's order away.  The session is the README quick start's."""
    cfg = write_config(tmp_path / "cfg.json", candidates=["Alice", "Bob", "Carol"],
                       expected_voters=100, prime=None)
    session = tmp_path / "sess"
    assert main(["setup", "--config", str(cfg), "--session", str(session)]) == 0
    for order in ("Alice,Bob,Carol", "Alice,Carol,Bob", "Bob,Alice,Carol"):
        assert main(["vote", "--session", str(session), "--order", order]) == 0
    config = ElectionConfig.loads((session / "session.json").read_text())
    seeded = make_shared_ballots(config, [(2, 3, 1)])[0]
    assert _replayed(config, 1, seeded.bundle_for(1).values.tolist()) == [(2, 3, 1)]
    lines = _spool_lines(session, 1)
    assert len(lines) == 3
    assert [_replayed(config, rec["voter_id"], rec["values"]) for rec in lines] == [[]] * 3


def test_two_votes_of_one_order_under_one_voter_id_share_differently(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    session = tmp_path / "sess"
    assert main(["setup", "--config", str(cfg), "--session", str(session)]) == 0
    for _ in range(2):
        assert main(["vote", "--session", str(session), "--order", "C2,C1,C3",
                     "--voter-id", "7"]) == 0
    for party in (1, 2, 3):
        first, second = _spool_lines(session, party)
        assert first["voter_id"] == second["voter_id"] == 7
        assert first["values"] != second["values"]


def test_setup_pins_the_prime_and_vote_shares_at_it(tmp_path):
    """A config without a prime takes 65,519 at ``setup`` and session.json
    holds it; an explicit prime is kept.  ``vote`` shares at the pinned
    prime: any D' of a voter's shares give the ballot's entries mod it."""
    for prime, pinned in ((None, 65_519), (M31, M31), (65_521, 65_521)):
        cfg = write_config(tmp_path / f"cfg{pinned}.json", prime=prime)
        session = tmp_path / f"sess{pinned}"
        assert main(["setup", "--config", str(cfg), "--session", str(session)]) == 0
        config = ElectionConfig.loads((session / "session.json").read_text())
        assert config.prime == pinned
        assert main(["vote", "--session", str(session), "--order", "C2,C3,C1"]) == 0
        shares = np.array([_spool_lines(session, d)[0]["values"] for d in (1, 2, 3)],
                          dtype=np.uint64)
        assert (shares < pinned).all()
        entries = matrix_entry_values(ranking_to_matrix("copeland", (2, 3, 1), 3),
                                      config.field)
        for pair in ((1, 2), (1, 3), (2, 3)):
            got = reconstruct_batch(config.field, pair, shares[[d - 1 for d in pair]])
            assert got.tolist() == entries.tolist()


def _kemeny6_session(tmp_path):
    """A Kemeny M=6 session of 10 expected voters: it takes p = 65,519, which
    holds N*M(M-1) = 30N below p for N < 2,184 accepted ballots."""
    names = [f"C{i}" for i in range(1, 7)]
    cfg = write_config(tmp_path / "cfg.json", rule="kemeny", candidates=names,
                       expected_voters=10, prime=None)
    session = tmp_path / "sess"
    assert main(["setup", "--config", str(cfg), "--session", str(session)]) == 0
    return session


def test_vote_past_the_pinned_prime_is_refused(tmp_path, capsys):
    """With 2,182 ballots spooled, ``vote`` casts the 2,183rd; the 2,184th,
    which the session's prime could not tally, is refused with
    FieldTooSmall and exit code 2 before it reaches a spool, and the message
    says that a new session must name a larger prime or more voters."""
    session = _kemeny6_session(tmp_path)
    ranks = ",".join(f"C{i}={i}" for i in range(1, 7))
    assert main(["vote", "--session", str(session), "--ranks", ranks]) == 0
    for d in (1, 2, 3):
        line = _spool_lines(session, d)[0]
        (session / "ballots" / f"tallier_{d}.jsonl").write_text("".join(
            json.dumps(dict(line, voter_id=v)) + "\n" for v in range(1, 2183)))
    assert main(["vote", "--session", str(session), "--ranks", ranks]) == 0
    assert _spool_lines(session, 1)[-1]["voter_id"] == 2183
    capsys.readouterr()
    assert main(["vote", "--session", str(session), "--ranks", ranks]) == 2
    err = capsys.readouterr().err
    assert err.startswith("FieldTooSmall: p = 65519 must exceed N*M(M-1)")
    assert "N = 2184" in err and "set up one whose config names a larger 'prime'" in err
    assert "'expected_voters'" in err
    assert [len(_spool_lines(session, d)) for d in (1, 2, 3)] == [2183] * 3


def test_vote_into_a_long_spool_does_not_read_it(tmp_path, capsys, monkeypatch):
    """``vote`` takes the next voter id and the spooled count from
    ``ballots/next.json``, not from T1's spool: with 2,181 Kemeny M=6 lines
    written behind its back, one vote reads the spool once; after that,
    votes never call ``_read_spool``.  The automatic id stays above a
    ``--voter-id``, and the FieldTooSmall refusal fires at the same count as
    when the spool is read (2,184 ballots at p = 65,519)."""
    session = _kemeny6_session(tmp_path)
    assert json.loads((session / "ballots" / "next.json").read_text())["next_voter_id"] == 1
    ranks = ",".join(f"C{i}={i}" for i in range(1, 7))
    assert main(["vote", "--session", str(session), "--ranks", ranks]) == 0
    for d in (1, 2, 3):
        line = _spool_lines(session, d)[0]
        (session / "ballots" / f"tallier_{d}.jsonl").write_text("".join(
            json.dumps(dict(line, voter_id=v)) + "\n" for v in range(1, 2182)))
    assert main(["vote", "--session", str(session), "--ranks", ranks]) == 0  # reads it
    assert _spool_lines(session, 1)[-1]["voter_id"] == 2182

    def no_read(*args):
        raise AssertionError("vote read the spool")

    monkeypatch.setattr(cli, "_read_spool", no_read)
    assert main(["vote", "--session", str(session), "--ranks", ranks,
                 "--voter-id", "5000"]) == 0
    capsys.readouterr()
    assert main(["vote", "--session", str(session), "--ranks", ranks]) == 2
    assert capsys.readouterr().err.startswith("FieldTooSmall: p = 65519 must exceed N*M(M-1)")
    assert [rec["voter_id"] for rec in _spool_lines(session, 1)[-2:]] == [2182, 5000]
    assert json.loads((session / "ballots" / "next.json").read_text())["next_voter_id"] == 5001
    assert [len(_spool_lines(session, d)) for d in (1, 2, 3)] == [2183] * 3


def test_vote_after_a_voter_id_takes_the_next_one(tmp_path, monkeypatch):
    """Without reading the spool, the automatic id follows the largest id cast
    so far, a ``--voter-id`` too."""
    cfg = write_config(tmp_path / "cfg.json")
    session = tmp_path / "sess"
    assert main(["setup", "--config", str(cfg), "--session", str(session)]) == 0
    monkeypatch.setattr(cli, "_read_spool", None)  # a call would fail
    for extra in ([], ["--voter-id", "9"], [], ["--voter-id", "4"], []):
        assert main(["vote", "--session", str(session), "--order", "C1,C2,C3", *extra]) == 0
    assert [rec["voter_id"] for rec in _spool_lines(session, 1)] == [1, 9, 10, 4, 11]


def test_tally_beyond_the_pinned_prime_names_the_remedies(tmp_path, capsys):
    """Spools written past ``vote``'s check, with 2,184 legal Kemeny M=6
    ballots at p = 65,519: the tally ends in FieldTooSmall once validation
    has counted the accepted ballots, exit code 2, with a message that names
    the config's 'prime' and 'expected_voters'."""
    session = _kemeny6_session(tmp_path)
    config = ElectionConfig.loads((session / "session.json").read_text())
    assert config.prime == 65_519
    rng = np.random.default_rng(3)
    ballots = make_shared_ballots(config, [tuple(int(r) for r in rng.integers(1, 7, 6))
                                           for _ in range(2184)])
    for d in (1, 2, 3):
        (session / "ballots" / f"tallier_{d}.jsonl").write_text("".join(
            json.dumps({"voter_id": b.voter_id, "rule": "kemeny", "m": 6,
                        "values": b.bundle_for(d).values.tolist()}) + "\n"
            for b in ballots))
    capsys.readouterr()
    assert main(["tally", "--session", str(session)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("FieldTooSmall: p = 65519 must exceed N*M(M-1)")
    assert "N = 2184" in err and "'prime'" in err and "'expected_voters'" in err


def test_oracle_side_by_side(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    session = tmp_path / "sess"
    main(["setup", "--config", str(cfg), "--session", str(session)])
    demo_votes(session)
    main(["tally", "--session", str(session)])
    capsys.readouterr()
    assert main(["oracle", "--session", str(session)]) == 0
    out = capsys.readouterr().out
    assert "oracle winners: [1]" in out
    assert "scores (t*w): [4, 2, 0]" in out


def test_spools_in_different_orders_pair_by_voter_id(tmp_path, capsys):
    """T2's spool holds voters 2 and 3 in the other order, as two ``vote``
    commands run at once can leave it.  In-process ``validate`` and ``tally``
    pair the talliers' spools by voter id: all four ballots are accepted
    and the winner is the oracle's, which needs voters 2 and 3."""
    cfg = write_config(tmp_path / "cfg.json")
    session = tmp_path / "sess"
    assert main(["setup", "--config", str(cfg), "--session", str(session)]) == 0
    for order in ("C1,C2,C3", "C2,C3,C1", "C2,C1,C3", "C3,C2,C1"):
        assert main(["vote", "--session", str(session), "--order", order,
                     "--keep-plain"]) == 0
    spool = session / "ballots" / "tallier_2.jsonl"
    lines = spool.read_text().splitlines()
    spool.write_text("\n".join([lines[0], lines[2], lines[1], lines[3]]) + "\n")
    capsys.readouterr()

    assert main(["validate", "--session", str(session)]) == 0
    assert "validated 4 ballots: 4 accepted, 0 rejected" in capsys.readouterr().out
    assert main(["tally", "--session", str(session)]) == 0
    assert "winner 1: C2 (C2)" in capsys.readouterr().out
    audit = [json.loads(line) for line in
             (session / "audit.jsonl").read_text().splitlines()]
    assert [(rec["voter_id"], rec["accepted"]) for rec in audit] == \
        [(1, True), (2, True), (3, True), (4, True)]
    assert main(["oracle", "--session", str(session)]) == 0
    assert "oracle winners: [2]" in capsys.readouterr().out


def test_bad_spool_values_are_malformed_and_bad_lines_are_named(tmp_path, capsys):
    """T1's spool line of voter 4 holds -1 and that of voter 5 holds 1.5:
    each is a malformed row, so every tallier rejects the ballot as
    ``Malformed`` and the tally goes on (a -1 used to end it with an
    OverflowError, and a 1.5 was truncated to 1).  A line that is not JSON,
    or has no integer voter_id >= 1, ends the command with a BadSpool error
    that names the spool file and line."""
    cfg = write_config(tmp_path / "cfg.json")
    session = tmp_path / "sess"
    assert main(["setup", "--config", str(cfg), "--session", str(session)]) == 0
    demo_votes(session)
    for order in ("C3,C2,C1", "C3,C1,C2"):
        assert main(["vote", "--session", str(session), "--order", order]) == 0
    spool = session / "ballots" / "tallier_1.jsonl"
    lines = spool.read_text().splitlines()
    for i, values in ((3, [-1, 0, 1]), (4, [1.5, 0, 1])):
        rec = json.loads(lines[i])
        lines[i] = json.dumps(dict(rec, values=values))
    spool.write_text("\n".join(lines) + "\n")
    capsys.readouterr()

    assert main(["tally", "--session", str(session)]) == 0
    assert "winner 1: C1 (C1)" in capsys.readouterr().out
    audit = [json.loads(line) for line in (session / "audit.jsonl").read_text().splitlines()]
    assert [rec.get("reason") for rec in audit] == [None, None, None, "Malformed", "Malformed"]

    for bad in ("{not json", '{"rule": "copeland", "m": 3, "values": [1, 1, 1]}',
                '{"voter_id": 0, "rule": "copeland", "m": 3, "values": [1, 1, 1]}',
                '{"voter_id": true, "rule": "copeland", "m": 3, "values": [1, 1, 1]}'):
        spool.write_text("\n".join(lines + [bad]) + "\n")
        assert main(["tally", "--session", str(session)]) == 2
        assert capsys.readouterr().err.startswith(f"BadSpool: {spool}:6: ")


def test_oracle_from_ballot_file(tmp_path, capsys):
    ballots = tmp_path / "ballots.json"
    ballots.write_text(json.dumps({
        "rule": "maximin", "num_candidates": 3, "num_winners": 1,
        "rankings": [[1, 2, 3], [1, 3, 2], [2, 1, 3]]}))
    assert main(["oracle", "--ballots", str(ballots)]) == 0
    out = capsys.readouterr().out
    assert "scores: [2, 1, 0]" in out and "oracle winners: [1]" in out


def test_bench_smoke(tmp_path, capsys):
    """One tally of 20 random ballots, twice: a row per phase and a total row
    whose counters are the sums of the phases', printed and written alike.
    Each row holds T1's seconds blocked waiting for its peers, its processor
    seconds and the modelled latency of processor time plus rounds x L for
    L of 1 and 20 ms."""
    cfg = write_config(tmp_path / "cfg.json", candidates=["A", "B", "C"],
                       expected_voters=20)
    out_file = tmp_path / "bench.json"
    assert main(["bench", "--config", str(cfg), "--voters", "20", "--reps", "2",
                 "--out", str(out_file)]) == 0
    report = json.loads(out_file.read_text())
    assert (report["voters"], len(report["seconds"])) == (20, 2)
    assert report["share_s"] > 0  # the voter side, in processor seconds
    rows = {row.pop("phase"): row for row in report["rows"]}
    assert list(rows) == ["validate", "offline", "aggregate", "score", "select", "total"]
    assert rows["validate"]["mul_rounds"] == 3  # M(M-1)/2 for M = 3
    assert rows["validate"]["mul_gates"] == 2 * 20 * 3
    # at p = 2^31 - 1 the mask batch has 4 + 3 layers: 6 ride validation's
    # rounds from the roster round on and the last runs alone, but all its
    # work is the offline phase's: 220 gates a mask, spares included
    assert rows["validate"]["offline_rounds"] == 6
    assert rows["offline"]["comm_rounds"] == rows["offline"]["offline_rounds"] == 1
    assert rows["offline"]["mul_gates"] == 220 * (8 + spare_masks(M31, 31, 8))
    total = rows.pop("total")
    assert total.pop("seconds_median") > 0
    assert {k: sum(r[k] for r in rows.values()) for k in total} == total
    assert rows["validate"]["cpu_s"] > 0
    assert all(row["wait_s"] >= 0 for row in rows.values()) and rows["select"]["wait_s"] > 0
    for row in rows.values():
        assert row["at_1ms_s"] == pytest.approx(row["cpu_s"] + 0.001 * row["comm_rounds"])
        assert row["at_20ms_s"] == pytest.approx(row["cpu_s"] + 0.020 * row["comm_rounds"])
    out = capsys.readouterr().out.splitlines()
    assert f"share_s={report['share_s']:.3f} " in out[0]
    assert out[1].split()[-5:] == ["wait", "cpu", "at_1ms", "at_20ms", "seconds"]
    assert [line.split()[0] for line in out[2:]] == [*rows, "total"]
    assert out[-1].split()[1:4] == [str(total[k]) for k in
                                    ("comm_rounds", "offline_rounds", "deal_rounds")]


def test_setup_seed_override(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", seed=1)
    session = tmp_path / "sess"
    assert main(["setup", "--config", str(cfg), "--session", str(session),
                 "--seed", "777"]) == 0
    stored = json.loads((session / "session.json").read_text())
    assert stored["seed"] == 777


def test_console_entry_point_runs():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ordervote.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "setup" in proc.stdout and "tally" in proc.stdout


def _run_socket_talliers(*argv):
    """Run ``main(argv + --party d)`` for d = 1..3 as threads; returns the exit codes."""
    import threading
    codes = {}

    def party(d):
        codes[d] = main([*argv, "--party", str(d)])

    threads = [threading.Thread(target=party, args=(d,)) for d in (1, 2, 3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return codes


@pytest.mark.parametrize("backend", ["memory", "socket"])
def test_reconstruct_rejected_flag_prints_proof(tmp_path, capsys, backend):
    sockets = {"backend": "socket", "endpoints": _free_endpoints(3)} \
        if backend == "socket" else {}
    cfg = write_config(tmp_path / "cfg.json", **sockets)
    session = tmp_path / "sess"
    main(["setup", "--config", str(cfg), "--session", str(session)])
    demo_votes(session, keep_plain=False)
    # corrupt voter 2's spool entries on every tallier: an inflated 2Q ballot
    for d in (1, 2, 3):
        spool = session / "ballots" / f"tallier_{d}.jsonl"
        lines = []
        for line in spool.read_text().splitlines():
            rec = json.loads(line)
            if rec["voter_id"] == 2:
                rec["values"] = [2 * v % M31 for v in rec["values"]]
            lines.append(json.dumps(rec))
        spool.write_text("\n".join(lines) + "\n")
    argv = ["tally", "--session", str(session), "--reconstruct-rejected"]
    if backend == "socket":
        assert _run_socket_talliers(*argv) == {1: 0, 2: 0, 3: 0}
    else:
        assert main(argv) == 0
    out = capsys.readouterr().out
    assert "reconstructed rejected ballot of voter 2" in out
    audit = [json.loads(line) for line in
             (session / "audit.jsonl").read_text().splitlines()]
    assert [rec["accepted"] for rec in audit] == [True, False, True]
    assert audit[1]["reason"] == "EntryDomain"


@pytest.mark.parametrize("backend", ["memory", "socket"])
def test_validate_prints_its_ledger(tmp_path, capsys, backend):
    """``validate`` prints its phase's counters as ``tally`` prints its own:
    for Copeland M=3 and 3 ballots, the roster round, a deal round, the
    degree check and M(M-1)/2 = 3 layers of 2B gates, which open their
    products themselves.  With voter 2's T1 share altered, its ballot is
    rejected as ``ShareDegree`` and leaves the layers; ``validate`` opens no
    proof of it even when the session sets ``reconstruct_rejected``, so the
    ledger is the same with the flag as without it."""
    def ledger(name, alter=False, reconstruct=False):
        sockets = {"backend": "socket", "endpoints": _free_endpoints(3)} \
            if backend == "socket" else {}
        cfg = write_config(tmp_path / f"{name}.json", reconstruct_rejected=reconstruct,
                           **sockets)
        session = tmp_path / name
        main(["setup", "--config", str(cfg), "--session", str(session)])
        demo_votes(session, keep_plain=False)
        if alter:
            spool = session / "ballots" / "tallier_1.jsonl"
            recs = [json.loads(line) for line in spool.read_text().splitlines()]
            recs[1]["values"][0] = (recs[1]["values"][0] + 1) % M31
            spool.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
        capsys.readouterr()
        argv = ["validate", "--session", str(session)]
        if backend == "socket":
            assert _run_socket_talliers(*argv) == {1: 0, 2: 0, 3: 0}
        else:
            assert main(argv) == 0
        out = capsys.readouterr().out
        assert ("voter 2: rejected (ShareDegree)" in out) == alter
        lines = [line for line in out.splitlines() if line.startswith("counters: ")]
        assert len(lines) == (3 if backend == "socket" else 1) and len(set(lines)) == 1
        return lines[0]

    rounds = "comm_rounds=6 offline_rounds=0 deal_rounds=1 comparisons=0 lsb_extractions=0"
    assert ledger("legal").startswith(f"counters: mul_gates=18 mul_rounds=3 {rounds} opens=")
    without = ledger("altered", alter=True)
    assert without.startswith(f"counters: mul_gates=12 mul_rounds=3 {rounds} opens=")
    assert ledger("altered-proofs", alter=True, reconstruct=True) == without


@pytest.mark.parametrize("command", ["validate", "tally"])
@pytest.mark.parametrize("backend, party", [("memory", 1), ("memory", 0), ("socket", 4),
                                            ("socket", -1), ("socket", 0)])
def test_a_party_the_session_cannot_run_is_refused(tmp_path, capsys, command, backend, party):
    """``--party d`` runs tallier d alone over TCP, so ``validate`` and
    ``tally`` refuse it with exit code 2 and a message, before reading a
    spool, when the session has no socket endpoints or d is not in 1..D;
    ``--party 0`` does not fall back to running every tallier in process."""
    sockets = {"backend": "socket", "endpoints": _free_endpoints(3)} \
        if backend == "socket" else {}
    cfg = write_config(tmp_path / "cfg.json", **sockets)
    session = tmp_path / "sess"
    main(["setup", "--config", str(cfg), "--session", str(session)])
    demo_votes(session, keep_plain=False)
    capsys.readouterr()
    assert main([command, "--session", str(session), "--party", str(party)]) == 2
    assert capsys.readouterr().err.strip() == ("config has no socket endpoints"
                                               if backend == "memory"
                                               else "--party must name a tallier in 1..3")
    assert not (session / "audit.jsonl").exists()


def _free_endpoints(n):
    import socket
    socks, endpoints = [], []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        endpoints.append(["127.0.0.1", s.getsockname()[1]])
    for s in socks:
        s.close()
    return endpoints


def test_distributed_socket_tally_via_cli(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", backend="socket",
                       endpoints=_free_endpoints(3))
    session = tmp_path / "sess"
    assert main(["setup", "--config", str(cfg), "--session", str(session)]) == 0
    demo_votes(session, keep_plain=False)
    assert _run_socket_talliers("tally", "--session", str(session)) == {1: 0, 2: 0, 3: 0}
    result = json.loads((session / "result.json").read_text())
    assert result["winners"] == [1]


def test_live_socket_votes_via_cli(tmp_path):
    import threading
    cfg = write_config(tmp_path / "cfg.json", backend="socket",
                       endpoints=_free_endpoints(3))
    session = tmp_path / "sess"
    assert main(["setup", "--config", str(cfg), "--session", str(session)]) == 0
    codes = {}

    def party(d):
        codes[d] = main(["tally", "--session", str(session), "--party", str(d),
                         "--expect-votes", "3"])

    threads = [threading.Thread(target=party, args=(d,)) for d in (1, 2, 3)]
    for t in threads:
        t.start()
    for i, order in enumerate(("C1,C2,C3", "C1,C3,C2", "C2,C1,C3"), 1):
        assert main(["vote", "--session", str(session), "--order", order,
                     "--voter-id", str(i), "--transport", "socket"]) == 0
    for t in threads:
        t.join()
    assert codes == {1: 0, 2: 0, 3: 0}
    result = json.loads((session / "result.json").read_text())
    assert result["winners"] == [1]


def test_bench_without_a_prime_takes_one_for_its_voters(tmp_path):
    """A bench config that names no prime takes the ladder's prime for the
    ``--voters`` it tallies, not for its expected voters: Kemeny M=6 with 10
    expected voters takes 65,519 for 30 voters, and 2^31 - 1 for 2,184, which
    65,519 could not tally.  The winners are the oracle's; a named prime is
    kept."""
    names = [f"C{i}" for i in range(1, 7)]
    cfg = write_config(tmp_path / "cfg.json", rule="kemeny", candidates=names,
                       expected_voters=10, prime=None)
    out_file = tmp_path / "bench.json"
    for voters, prime in ((30, 65_519), (2184, M31)):
        assert main(["bench", "--config", str(cfg), "--voters", str(voters), "--reps", "1",
                     "--out", str(out_file)]) == 0
        report = json.loads(out_file.read_text())
        assert (report["prime"], report["voters"]) == (prime, voters)
        config = ElectionConfig.loads(cfg.read_text(), expected_voters=voters)
        rankings = _random_rankings(config, voters, np.random.default_rng(config.seed))
        assert report["winners"] == plain_winners(PlainElection("kemeny", 6, 1,
                                                                tuple(rankings)))
    named = write_config(tmp_path / "named.json", rule="kemeny", candidates=names,
                         expected_voters=10, prime=65_521)
    assert main(["bench", "--config", str(named), "--voters", "30", "--reps", "1",
                 "--out", str(out_file)]) == 0
    assert json.loads(out_file.read_text())["prime"] == 65_521
