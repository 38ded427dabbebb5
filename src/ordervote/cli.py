"""Operator command line: setup, vote, validate, tally, bench, oracle.

A session lives in a directory: ``session.json`` holds the validated
parameters, ``ballots/tallier_<d>.jsonl`` spools each tallier's received
share bundles (one JSON line per voter), ``audit.jsonl`` streams validation
verdicts, and ``result.json`` records the final tally deterministically
(fixed seeds reproduce it byte for byte).

Talliers run either as threads of one process (the default, in-memory
transport) or as separate processes joining over TCP: start one
``tally --party d`` per tallier with a socket-backend config.  Voters can
likewise submit over TCP with ``vote --transport socket`` while talliers
collect with ``tally --party d --expect-votes V``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import oracle as oracle_mod
from .ballots import (InvalidRanking, SharedBallot, TallierBundle, encode_bundle,
                      parse_order, parse_ranks, ranking_to_matrix, share_ballot)
from .config import ConfigError, ElectionConfig
from .session import (bench_comparison, bench_tally, bench_validation,
                      run_local_election, run_local_validation,
                      run_socket_tallier, run_socket_validation)
from .transport import TransportFailure, submit_ballot_socket

SESSION_FILE = "session.json"


def _session_dir(path: str) -> Path:
    d = Path(path)
    if not (d / SESSION_FILE).exists():
        raise SystemExit(f"no {SESSION_FILE} under {d}; run setup first")
    return d


def _load_config(session: Path) -> ElectionConfig:
    return ElectionConfig.loads((session / SESSION_FILE).read_text()).validate()


def _spool_path(session: Path, party: int) -> Path:
    return session / "ballots" / f"tallier_{party}.jsonl"


def _read_spool(session: Path, party: int) -> list[TallierBundle]:
    path = _spool_path(session, party)
    bundles = []
    if path.exists():
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            bundles.append(TallierBundle(
                voter_id=rec["voter_id"], rule=rec["rule"], m=rec["m"],
                values=np.array(rec["values"], dtype=np.uint64)))
    return bundles


def cmd_setup(args) -> int:
    try:
        config = ElectionConfig.loads(Path(args.config).read_text())
        if args.seed is not None:
            config = config.with_overrides(seed=args.seed)
        config = config.validate()
    except ConfigError as err:
        print(f"setup rejected: {err}", file=sys.stderr)
        return 2
    session = Path(args.session)
    session.mkdir(parents=True, exist_ok=True)
    (session / "ballots").mkdir(exist_ok=True)
    (session / SESSION_FILE).write_text(config.dumps())
    print(f"session ready under {session}")
    print(f"rule={config.rule} M={config.m} K={config.num_winners} "
          f"D={config.talliers} D'={config.threshold} p={config.prime}")
    return 0


def _next_voter_id(session: Path) -> int:
    existing = _read_spool(session, 1)
    return max((b.voter_id for b in existing), default=0) + 1


def cmd_vote(args) -> int:
    session = _session_dir(args.session)
    config = _load_config(session)
    names = config.name_to_index()
    try:
        if config.rule == "kemeny":
            if not args.ranks:
                raise InvalidRanking("kemeny ballots need --ranks name=rank,...")
            ranking = parse_ranks(args.ranks, names)
        else:
            if not args.order:
                raise InvalidRanking(f"{config.rule} ballots need --order name,name,...")
            ranking = parse_order(args.order, names)
    except InvalidRanking as err:
        print(f"ballot rejected: {err}", file=sys.stderr)
        return 2
    voter_id = args.voter_id or _next_voter_id(session)
    matrix = ranking_to_matrix(config.rule, ranking, config.m)
    shared = share_ballot(matrix, config.field, config.threshold, config.talliers,
                          config.voter_rng(voter_id), voter_id)

    if args.transport == "socket":
        if config.backend != "socket":
            print("config has no socket endpoints", file=sys.stderr)
            return 2
        for d, endpoint in enumerate(config.resolved_endpoints(), start=1):
            payload = encode_bundle(shared.bundle_for(d))
            try:
                submit_ballot_socket(tuple(endpoint), 1, payload)
            except (TransportFailure, OSError) as err:
                print(f"T{d}: submission failed ({err})", file=sys.stderr)
                return 3
            print(f"T{d}: acknowledged ballot of voter {voter_id}")
    else:
        for d in range(1, config.talliers + 1):
            bundle = shared.bundle_for(d)
            path = _spool_path(session, d)
            path.parent.mkdir(exist_ok=True)
            with path.open("a") as fh:
                fh.write(json.dumps({
                    "voter_id": voter_id, "rule": bundle.rule, "m": bundle.m,
                    "values": [int(v) for v in bundle.values]}) + "\n")
            print(f"T{d}: accepted ballot of voter {voter_id} "
                  f"({len(bundle.values)} shared entries)")
    if args.keep_plain:
        key = "ranks" if config.rule == "kemeny" else "order"
        with (session / "plain.jsonl").open("a") as fh:
            fh.write(json.dumps({"voter_id": voter_id, key: list(ranking)}) + "\n")
    return 0


def _write_audit(session: Path, verdicts) -> None:
    with (session / "audit.jsonl").open("w") as fh:
        for v in verdicts:
            fh.write(json.dumps(v.record(), sort_keys=True) + "\n")


def _spooled_shared_ballots(session: Path, config: ElectionConfig):
    """Re-assemble SharedBallot objects from all tallier spools (local mode)."""
    per_party = [_read_spool(session, d) for d in range(1, config.talliers + 1)]
    count = len(per_party[0])
    if any(len(lst) != count for lst in per_party):
        raise SystemExit("tallier spools disagree on ballot count")
    ballots = []
    for i in range(count):
        rows = [per_party[d][i].values for d in range(config.talliers)]
        b0 = per_party[0][i]
        ballots.append(SharedBallot(b0.voter_id, b0.rule, b0.m, np.stack(rows)))
    return ballots


def cmd_validate(args) -> int:
    session = _session_dir(args.session)
    config = _load_config(session)
    if args.party:
        bundles = _read_spool(session, args.party)
        verdicts = run_socket_validation(config, args.party, bundles, args.batch)
    else:
        ballots = _spooled_shared_ballots(session, config)
        verdicts = run_local_validation(config, ballots, args.batch)
    _write_audit(session, verdicts)
    accepted = sum(v.accepted for v in verdicts)
    print(f"validated {len(verdicts)} ballots: {accepted} accepted, "
          f"{len(verdicts) - accepted} rejected")
    for v in verdicts:
        if not v.accepted:
            print(f"  voter {v.voter_id}: rejected ({v.reason})")
    return 0


def cmd_tally(args) -> int:
    session = _session_dir(args.session)
    config = _load_config(session)
    if args.open_scores:
        config = config.with_overrides(open_scores=True)
    if args.reconstruct_rejected:
        config = config.with_overrides(reconstruct_rejected=True)
    if args.local and args.local != config.talliers:
        print(f"--local {args.local} does not match configured D={config.talliers}",
              file=sys.stderr)
        return 2

    if args.party:
        bundles = None if args.expect_votes else _read_spool(session, args.party)
        result, verdicts = run_socket_tallier(config, args.party, bundles,
                                              args.expect_votes,
                                              batch_size=args.batch)
        proofs = {}
    else:
        ballots = _spooled_shared_ballots(session, config)
        outcome = run_local_election(config, ballots, batch_size=args.batch)
        result, verdicts, proofs = outcome.result, outcome.verdicts, outcome.rejected_proofs

    if args.party in (None, 1):  # in socket mode T1 owns the session artifacts
        _write_audit(session, verdicts)
        out_path = Path(args.out) if args.out else session / "result.json"
        out_path.write_text(json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
    for rank, (idx, name) in enumerate(zip(result.winners, result.winner_names), 1):
        print(f"winner {rank}: {name} (C{idx})")
    if result.kemeny_ranking is not None:
        print(f"winning ranking (ranks per candidate): {list(result.kemeny_ranking)}")
    if result.opened_scores is not None:
        print(f"opened scores: {result.opened_scores}")
    c = result.counters
    print(f"counters: mul_gates={c['mul_gates']} mul_rounds={c['mul_rounds']} "
          f"comm_rounds={c['comm_rounds']} comparisons={c['comparisons']} "
          f"lsb_extractions={c['lsb_extractions']} opens={c['opens']}")
    for voter_id, matrix in proofs.items():
        print(f"reconstructed rejected ballot of voter {voter_id}: "
              f"{matrix.tolist()}")
    return 0


def cmd_bench(args) -> int:
    config = ElectionConfig.loads(Path(args.config).read_text())
    if args.seed is not None:
        config = config.with_overrides(seed=args.seed)
    config = config.validate()
    rng = np.random.default_rng(config.seed)
    rows = [bench_validation(config, args.batch, args.reps, rng)]
    if args.voters:
        rows.append(bench_tally(config, args.voters, rng))
    rows.append(bench_comparison(config, max(args.reps, 3)))
    header = (f"{'phase':10s} {'M':>3s} {'D':>3s} {'B/N':>6s} "
              f"{'seconds':>10s} {'mul_gates':>10s} {'rounds':>7s}")
    print(header)
    for row in rows:
        size = row.get("batch", row.get("voters", 1))
        secs = row.get("seconds", row.get("seconds_median", 0.0))
        print(f"{row['phase']:10s} {row.get('candidates', '-'):>3} "
              f"{row['talliers']:>3} {size:>6} {secs:>10.3f} "
              f"{row.get('mul_gates', 0):>10} {row.get('comm_rounds', 0):>7}")
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return 0


def _plain_rankings(args, config: ElectionConfig | None):
    if args.ballots:
        data = json.loads(Path(args.ballots).read_text())
        return [tuple(r) for r in data["rankings"]], data.get("rule"), \
            data.get("num_candidates"), data.get("num_winners"), \
            tuple(data.get("alpha", (1, 2)))
    session = _session_dir(args.session)
    config = config or _load_config(session)
    plain = session / "plain.jsonl"
    if not plain.exists():
        raise SystemExit("no plain.jsonl in session; cast votes with --keep-plain")
    rankings = []
    for line in plain.read_text().splitlines():
        rec = json.loads(line)
        rankings.append(tuple(rec.get("order") or rec.get("ranks")))
    return rankings, config.rule, config.m, config.num_winners, config.alpha


def cmd_oracle(args) -> int:
    config = None
    if args.session:
        config = _load_config(_session_dir(args.session))
    rankings, rule, m, k, alpha = _plain_rankings(args, config)
    rule = args.rule or rule
    k = args.winners or k
    election = oracle_mod.PlainElection(rule, m, k, tuple(rankings), alpha)
    if rule == "copeland":
        winners, scores = oracle_mod.plain_copeland(election)
        print(f"scores (t*w): {scores}")
    elif rule == "maximin":
        winners, scores = oracle_mod.plain_maximin(election)
        print(f"scores: {scores}")
    else:
        ranking, winners, score = oracle_mod.plain_kemeny(election)
        print(f"best ranking {list(ranking)} with score {score}")
    print(f"oracle winners: {winners}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordervote",
        description="secure multiparty tallying for order-based voting rules")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setup", help="validate a config and create a session")
    p.add_argument("--config", required=True)
    p.add_argument("--session", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's master seed")
    p.set_defaults(fn=cmd_setup)

    p = sub.add_parser("vote", help="cast one ballot into a session")
    p.add_argument("--session", required=True)
    p.add_argument("--order", help="candidates most-to-least preferred, comma separated")
    p.add_argument("--ranks", help="kemeny ranks as name=rank pairs, comma separated")
    p.add_argument("--voter-id", type=int, default=None)
    p.add_argument("--keep-plain", action="store_true",
                   help="also record the plaintext ranking for oracle runs")
    p.add_argument("--transport", choices=("spool", "socket"), default="spool")
    p.set_defaults(fn=cmd_vote)

    p = sub.add_parser("validate", help="run ballot validation and write the audit log")
    p.add_argument("--session", required=True)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--party", type=int, default=None,
                   help="run as a single tallier process over sockets")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("tally", help="validate, aggregate and publish the winners")
    p.add_argument("--session", required=True)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--local", type=int, default=None,
                   help="run all D talliers as threads (default mode)")
    p.add_argument("--party", type=int, default=None,
                   help="run as a single tallier process over sockets")
    p.add_argument("--expect-votes", type=int, default=None,
                   help="socket mode: collect this many live submissions")
    p.add_argument("--open-scores", action="store_true")
    p.add_argument("--reconstruct-rejected", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_tally)

    p = sub.add_parser("bench", help="timings plus gate/round counters")
    p.add_argument("--config", required=True)
    p.add_argument("--batch", type=int, default=500)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--voters", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("oracle", help="plaintext reference tally for comparison")
    p.add_argument("--session", default=None)
    p.add_argument("--ballots", default=None,
                   help="JSON file with rule/num_candidates/num_winners/rankings")
    p.add_argument("--rule", default=None)
    p.add_argument("--winners", type=int, default=None)
    p.set_defaults(fn=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
