"""Operator command line: setup, vote, validate, tally, bench, oracle.

A session lives in a directory: ``session.json`` holds the validated
parameters, ``ballots/tallier_<d>.jsonl`` spools each tallier's received
share bundles (one JSON line per voter), ``ballots/next.json`` keeps the
next voter id and the spooled count, so that a vote costs the same however
long the spool is, ``audit.jsonl`` streams validation verdicts, and
``result.json`` records the final tally.  ``vote`` and the
talliers draw their randomness from the operating system, since the
config's seed is no secret; the verdicts, winners and counters do not
depend on it, so ``result.json`` reproduces byte for byte.  ``vote``
refuses a ballot that the session's prime could not tally.

Talliers run either as threads of one process (the default, in-memory
transport) or as separate processes joining over TCP: start one
``tally --party d`` per tallier with a socket-backend config.  Voters can
likewise submit over TCP with ``vote --transport socket`` while talliers
collect with ``tally --party d --expect-votes V``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import oracle as oracle_mod
from .ballots import (InvalidRanking, Spool, encode_bundle, parse_order, parse_ranks,
                      ranking_to_matrix, share_ballot)
from .config import ConfigError, ElectionConfig, check_field_bounds, fresh_rng
from .session import (SESSION, make_shared_ballots, run_local_election,
                      run_local_validation, run_socket_tallier)
from .transport import TransportFailure, submit_ballot_socket

SESSION_FILE = "session.json"
NEXT_FILE = "ballots/next.json"  # beside the spools: the next voter id and the count


def _session_dir(path: str) -> Path:
    d = Path(path)
    if not (d / SESSION_FILE).exists():
        raise SystemExit(f"no {SESSION_FILE} under {d}; run setup first")
    return d


def _load_config(path: Path, **overrides) -> ElectionConfig:
    """The validated config at ``path``, with each override that is not None
    for its field (``ElectionConfig.loads``)."""
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read {path} ({err.strerror})") from None
    return ElectionConfig.loads(text, **{key: value for key, value in overrides.items()
                                         if value is not None}).validate()


def _spool_path(session: Path, party: int) -> Path:
    return session / "ballots" / f"tallier_{party}.jsonl"


def _spool_stamp(session: Path) -> list[int] | None:
    """T1's spool size and modification time, None while it does not exist."""
    try:
        st = _spool_path(session, 1).stat()
    except FileNotFoundError:
        return None
    return [st.st_size, st.st_mtime_ns]


def _write_next(session: Path, voter_id: int, spooled: int) -> None:
    """Record ``NEXT_FILE``: the next automatic voter id and T1's spooled
    count, stamped with T1's spool as it stands."""
    path = session / NEXT_FILE
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps({"next_voter_id": voter_id, "spooled": spooled,
                               "spool": _spool_stamp(session)}) + "\n")
    tmp.replace(path)


def _next_vote(session: Path, config: ElectionConfig) -> tuple[int, int]:
    """The next automatic voter id and T1's spooled count, read from
    ``NEXT_FILE`` when its stamp matches T1's spool; otherwise (an older
    session, or a spool written by other means) from the spool itself."""
    try:
        rec = json.loads((session / NEXT_FILE).read_text())
        if rec["spool"] == _spool_stamp(session):
            return int(rec["next_voter_id"]), int(rec["spooled"])
    except (OSError, ValueError, KeyError, TypeError):
        pass
    spooled = _read_spool(session, config, 1)
    return int(spooled.ids.max(initial=0)) + 1, len(spooled)


class BadSpool(Exception):
    """A spool line that names no voter; the message gives its path and line."""


def _is_word(value) -> bool:
    return type(value) is int and 0 <= value < 1 << 64  # bool is no int here


def _read_spool(session: Path, config: ElectionConfig, party: int) -> Spool:
    """Tallier ``party``'s spool, in file order.  A line whose rule or M is
    not the session's, or whose ``values`` are not C integers in [0, 2**64),
    is a malformed row, which every tallier rejects as ``Malformed``.  A
    line that is not a JSON object with an integer ``voter_id`` in
    [1, 2**64) raises ``BadSpool``."""
    path = _spool_path(session, party)
    ids, rows = [], []
    lines = path.read_text().splitlines() if path.exists() else []
    for number, line in enumerate(lines, start=1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as err:
            raise BadSpool(f"{path}:{number}: not JSON ({err.msg})") from None
        voter_id = rec.get("voter_id") if isinstance(rec, dict) else None
        if not _is_word(voter_id) or voter_id < 1:
            raise BadSpool(f"{path}:{number}: no integer voter_id in [1, 2**64)")
        values = rec.get("values")
        fits = (rec.get("rule"), rec.get("m")) == (config.rule, config.m) \
            and isinstance(values, list) and all(_is_word(v) for v in values)
        ids.append(voter_id)
        rows.append(values if fits else None)
    return Spool.build(config.rule, config.m, config.prime, ids, rows)


def cmd_setup(args) -> int:
    config = _load_config(Path(args.config), seed=args.seed)
    session = Path(args.session)
    session.mkdir(parents=True, exist_ok=True)
    (session / "ballots").mkdir(exist_ok=True)
    (session / SESSION_FILE).write_text(config.dumps())
    _write_next(session, *_next_vote(session, config))
    print(f"session ready under {session}")
    print(f"rule={config.rule} M={config.m} K={config.num_winners} "
          f"D={config.talliers} D'={config.threshold} p={config.prime}")
    return 0


def cmd_vote(args) -> int:
    session = _session_dir(args.session)
    config = _load_config(session / SESSION_FILE)
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
    if args.voter_id is not None and args.voter_id < 1:  # ids travel as uint64
        print("ballot rejected: --voter-id must be at least 1", file=sys.stderr)
        return 2
    next_id, spooled = _next_vote(session, config)
    voter_id = args.voter_id or next_id
    # any spooled ballot may be accepted, so one the prime cannot tally is refused
    check_field_bounds(config.prime, config.rule, config.m, spooled + 1, config.alpha)
    matrix = ranking_to_matrix(config.rule, ranking, config.m)
    shared = share_ballot(matrix, config.field, config.threshold, config.talliers,
                          fresh_rng(), voter_id)

    if args.transport == "socket":
        if config.backend != "socket":
            print("config has no socket endpoints", file=sys.stderr)
            return 2
        for d, endpoint in enumerate(config.resolved_endpoints(), start=1):
            payload = encode_bundle(shared.bundle_for(d))
            try:
                submit_ballot_socket(tuple(endpoint), SESSION, payload)
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
        _write_next(session, max(next_id, voter_id + 1), spooled + 1)
    if args.keep_plain:
        key = "ranks" if config.rule == "kemeny" else "order"
        with (session / "plain.jsonl").open("a") as fh:
            fh.write(json.dumps({"voter_id": voter_id, key: list(ranking)}) + "\n")
    return 0


def _write_audit(session: Path, verdicts) -> None:
    with (session / "audit.jsonl").open("w") as fh:
        for v in verdicts:
            fh.write(json.dumps(v.record(), sort_keys=True) + "\n")


def _spools(session: Path, config: ElectionConfig) -> dict[int, Spool]:
    """Every tallier's spool (in-process mode); the talliers pair them by
    voter id, so the spools may list the voters in any order."""
    return {d: _read_spool(session, config, d) for d in range(1, config.talliers + 1)}


def _refuse_party(config: ElectionConfig, party: int | None,
                  expect_votes: int | None = None) -> bool:
    """Say on stderr why ``--party`` or ``--expect-votes`` cannot run, and
    return True, when one cannot: a single tallier meets its peers over TCP,
    so the config needs socket endpoints and the party a number in 1..D;
    only such a tallier collects live submissions, at least one of them."""
    if party is not None and config.backend != "socket":
        message = "config has no socket endpoints"
    elif party is not None and not 1 <= party <= config.talliers:
        message = f"--party must name a tallier in 1..{config.talliers}"
    elif expect_votes is not None and party is None:
        message = "--expect-votes needs --party"
    elif expect_votes is not None and expect_votes < 1:
        message = "--expect-votes must be at least 1"
    else:
        return False
    print(message, file=sys.stderr)
    return True


def cmd_validate(args) -> int:
    session = _session_dir(args.session)
    config = _load_config(session / SESSION_FILE)
    if _refuse_party(config, args.party):
        return 2
    if args.party is not None:
        result, verdicts, _ = run_socket_tallier(
            config, args.party, _read_spool(session, config, args.party), validate_only=True)
        counters = result.counters["phases"]["validate"]
    else:
        verdicts, counters = run_local_validation(config, _spools(session, config))
    if args.party in (None, 1):  # in socket mode T1 owns the session artifacts
        _write_audit(session, verdicts)
    accepted = sum(v.accepted for v in verdicts)
    print(f"validated {len(verdicts)} ballots: {accepted} accepted, "
          f"{len(verdicts) - accepted} rejected")
    for v in verdicts:
        if not v.accepted:
            print(f"  voter {v.voter_id}: rejected ({v.reason})")
    _print_counters(counters)
    return 0


def _print_counters(c: dict) -> None:
    print(f"counters: mul_gates={c['mul_gates']} mul_rounds={c['mul_rounds']} "
          f"comm_rounds={c['comm_rounds']} offline_rounds={c['offline_rounds']} "
          f"deal_rounds={c['deal_rounds']} "
          f"comparisons={c['comparisons']} "
          f"lsb_extractions={c['lsb_extractions']} opens={c['opens']}")


def cmd_tally(args) -> int:
    session = _session_dir(args.session)
    config = _load_config(session / SESSION_FILE)
    if args.open_scores:
        config = config.with_overrides(open_scores=True)
    if args.reconstruct_rejected:
        config = config.with_overrides(reconstruct_rejected=True)
    if _refuse_party(config, args.party, args.expect_votes):
        return 2

    if args.party is not None:
        bundles = None if args.expect_votes is not None \
            else _read_spool(session, config, args.party)
        result, verdicts, proofs = run_socket_tallier(config, args.party, bundles,
                                                      args.expect_votes)
    else:
        outcome = run_local_election(config, _spools(session, config))
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
    _print_counters(result.counters)
    for voter_id, matrix in proofs.items():
        print(f"reconstructed rejected ballot of voter {voter_id}: "
              f"{matrix.tolist()}")
    return 0


def _random_rankings(config: ElectionConfig, count: int,
                     rng: np.random.Generator) -> list[tuple[int, ...]]:
    if config.rule == "kemeny":
        return [tuple(int(r) for r in rng.integers(1, config.m + 1, config.m))
                for _ in range(count)]
    return [tuple(int(c) for c in rng.permutation(config.m) + 1)
            for _ in range(count)]


BENCH_COLUMNS = (("rounds", "comm_rounds"), ("offline", "offline_rounds"),
                 ("deals", "deal_rounds"), ("mul_rounds", "mul_rounds"),
                 ("gates", "mul_gates"), ("compares", "comparisons"),
                 ("messages", "messages"), ("bytes", "bytes_sent"))
LATENCIES_MS = (1, 20)  # modelled one-way delay per communication round


def cmd_bench(args) -> int:
    """Share ``--voters`` random legal ballots, timing the voter side in
    processor seconds (``share_s``), and tally them ``--reps`` times in
    process; print party 1's counters per phase and in total (they repeat
    exactly), the median wall seconds party 1 was blocked waiting for its peers and
    the median processor seconds of its thread per phase, a modelled
    latency of those processor seconds plus rounds x L for each L of
    ``LATENCIES_MS``, and the median wall time of the whole tally.  The total
    row's waiting, processor and modelled seconds are the sums of the
    phases'."""
    # a config that names no prime takes one that holds the voters tallied
    config = _load_config(Path(args.config), seed=args.seed, expected_voters=args.voters)
    if args.reps < 1:
        print("--reps must be at least 1", file=sys.stderr)
        return 2
    voters = config.expected_voters
    rankings = _random_rankings(config, voters, np.random.default_rng(config.seed))
    start = time.process_time()
    ballots = make_shared_ballots(config, rankings)
    share_s = time.process_time() - start
    seconds, wait, cpu = [], [], []
    for _ in range(args.reps):
        start = time.perf_counter()
        outcome = run_local_election(config, ballots)
        seconds.append(time.perf_counter() - start)
        wait.append(outcome.phase_wait)
        cpu.append(outcome.phase_cpu)
    counters = dict(outcome.result.counters)
    rows = [dict(phase=name, wait_s=statistics.median(rep[name] for rep in wait),
                 cpu_s=statistics.median(rep[name] for rep in cpu), **c)
            for name, c in counters.pop("phases").items()]
    for row in rows:
        row.update({f"at_{ms}ms_s": row["cpu_s"] + row["comm_rounds"] * ms / 1000
                    for ms in LATENCIES_MS})
    timed = ["wait_s", "cpu_s", *(f"at_{ms}ms_s" for ms in LATENCIES_MS)]
    rows.append(dict(phase="total", seconds_median=statistics.median(seconds), **counters,
                     **{key: sum(row[key] for row in rows) for key in timed}))

    print(f"{config.rule} M={config.m} K={config.num_winners} D={config.talliers} "
          f"p={config.prime} N={voters}, {args.reps} runs, counters, waiting and "
          f"processor time of T1; the voters shared in share_s={share_s:.3f} "
          "processor seconds")
    print(f"{'phase':10s}" + "".join(f" {title:>9s}" for title, _ in BENCH_COLUMNS)
          + "".join(f" {key[:-2]:>9s}" for key in timed) + f" {'seconds':>9s}")
    for row in rows:
        secs = f"{row['seconds_median']:.3f}" if "seconds_median" in row else "-"
        print(f"{row['phase']:10s}" + "".join(f" {row[key]:>9}" for _, key in BENCH_COLUMNS)
              + "".join(f" {row[key]:>9.3f}" for key in timed) + f" {secs:>9s}")
    if args.out:
        report = {"rule": config.rule, "candidates": config.m,
                  "num_winners": config.num_winners, "talliers": config.talliers,
                  "prime": config.prime, "voters": voters, "seed": config.seed,
                  "seconds": seconds, "share_s": share_s,
                  "winners": outcome.result.winners, "rows": rows}
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def _plain_rankings(args, config: ElectionConfig | None):
    if args.ballots:
        data = json.loads(Path(args.ballots).read_text())
        return [tuple(r) for r in data["rankings"]], data.get("rule"), \
            data.get("num_candidates"), data.get("num_winners"), \
            tuple(data.get("alpha", (1, 2)))
    session = _session_dir(args.session)
    config = config or _load_config(session / SESSION_FILE)
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
        config = _load_config(_session_dir(args.session) / SESSION_FILE)
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
    p.add_argument("--party", type=int, default=None,
                   help="run as a single tallier process over sockets")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("tally", help="validate, aggregate and publish the winners")
    p.add_argument("--session", required=True)
    p.add_argument("--party", type=int, default=None,
                   help="run as a single tallier process over sockets")
    p.add_argument("--expect-votes", type=int, default=None,
                   help="socket mode: collect this many live submissions")
    p.add_argument("--open-scores", action="store_true")
    p.add_argument("--reconstruct-rejected", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_tally)

    p = sub.add_parser("bench", help="per-phase counters, processor and modelled "
                       "seconds, and the median tally time")
    p.add_argument("--config", required=True)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--voters", type=int, default=None,
                   help="random ballots to tally (default: the config's expected voters)")
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
    try:
        return args.fn(args)
    except (BadSpool, ConfigError, RuntimeError) as err:
        # an in-process tally raises a tallier's error as a RuntimeError's cause,
        # such as the FieldTooSmall of more accepted ballots than p holds
        named = err.__cause__ if isinstance(err, RuntimeError) else err
        if not isinstance(named, (BadSpool, ConfigError)):
            raise
        print(f"{type(named).__name__}: {named}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
