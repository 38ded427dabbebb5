import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ordervote.cli import main

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
    # one mask per comparison, prepared in one batch: bits, then the r < p check
    offline = result["counters"]["offline_rounds"]
    assert 9 <= offline < result["counters"]["comm_rounds"]
    assert f"offline_rounds={offline} " in out
    # pool sharings ride on the exchanges: a round of their own only for the
    # offline masks and for validation
    assert result["counters"]["deal_rounds"] == 2
    assert "deal_rounds=2 " in out


def test_setup_rejects_small_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", prime=31, expected_voters=20)
    assert main(["setup", "--config", str(cfg), "--session", str(tmp_path / "s")]) == 2
    assert "2N" in capsys.readouterr().err


def test_bad_config_ends_setup_and_bench_with_a_named_error(tmp_path, capsys):
    """A config that does not exist, is not JSON, lacks a field, holds a
    field not of its JSON type or fails validation ends setup and bench with
    exit code 2 and a ConfigError that names the fault, not a traceback."""
    cfg, missing = tmp_path / "cfg.json", tmp_path / "missing.json"
    good = json.loads(write_config(cfg).read_text())
    no_rule = {k: v for k, v in good.items() if k != "rule"}
    for text, named in ((json.dumps(dict(good, talliers="x")), "field 'talliers'"),
                        (json.dumps(no_rule), "field 'rule' is missing"),
                        (json.dumps(dict(good, alpha={"s": 1})), "field 'alpha'"),
                        ("{not json", "not JSON"),
                        (json.dumps(dict(good, prime=4)), "p = 4 is not prime"),
                        (None, f"cannot read {missing}"),
                        (json.dumps(dict(good, candidates="ABC")), "field 'candidates'"),
                        (json.dumps(dict(good, open_scores="false")), "field 'open_scores'"),
                        (json.dumps(dict(good, talliers=3.9)), "field 'talliers'")):
        if text is not None:
            cfg.write_text(text)
        for argv in (["setup", "--session", str(tmp_path / "s")], ["bench", "--reps", "1"]):
            assert main(argv + ["--config", str(cfg if text else missing)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("ConfigError: ") and named in err, (argv[0], err)


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
    blobs = []
    for run in range(2):
        cfg = write_config(tmp_path / f"cfg{run}.json")
        session = tmp_path / f"sess{run}"
        main(["setup", "--config", str(cfg), "--session", str(session)])
        demo_votes(session, keep_plain=False)
        main(["tally", "--session", str(session)])
        blobs.append((session / "result.json").read_bytes())
    assert blobs[0] == blobs[1]


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
    rows = {row.pop("phase"): row for row in report["rows"]}
    assert list(rows) == ["offline", "validate", "aggregate", "score", "select", "total"]
    assert rows["validate"]["mul_rounds"] == 3  # M(M-1)/2 for M = 3
    assert rows["validate"]["mul_gates"] == 2 * 20 * 3
    assert rows["offline"]["comm_rounds"] == rows["total"]["offline_rounds"] > 0
    total = rows.pop("total")
    assert total.pop("seconds_median") > 0
    assert {k: sum(r[k] for r in rows.values()) for k in total} == total
    assert rows["validate"]["cpu_s"] > 0
    assert all(row["wait_s"] >= 0 for row in rows.values()) and rows["select"]["wait_s"] > 0
    for row in rows.values():
        assert row["at_1ms_s"] == pytest.approx(row["cpu_s"] + 0.001 * row["comm_rounds"])
        assert row["at_20ms_s"] == pytest.approx(row["cpu_s"] + 0.020 * row["comm_rounds"])
    out = capsys.readouterr().out.splitlines()
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
    degree check, M(M-1)/2 = 3 layers of 2B gates and their opening."""
    sockets = {"backend": "socket", "endpoints": _free_endpoints(3)} \
        if backend == "socket" else {}
    cfg = write_config(tmp_path / "cfg.json", **sockets)
    session = tmp_path / "sess"
    main(["setup", "--config", str(cfg), "--session", str(session)])
    demo_votes(session, keep_plain=False)
    argv = ["validate", "--session", str(session)]
    if backend == "socket":
        assert _run_socket_talliers(*argv) == {1: 0, 2: 0, 3: 0}
    else:
        assert main(argv) == 0
    out = capsys.readouterr().out
    line = ("counters: mul_gates=18 mul_rounds=3 comm_rounds=7 offline_rounds=0 "
            "deal_rounds=1 comparisons=0 lsb_extractions=0 opens=")
    assert out.count(line) == (3 if backend == "socket" else 1)


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
