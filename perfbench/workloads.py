"""The benchmark's workloads: inputs, voter-side set-up and election runners.

Every workload is closed-loop with one client: an election starts only when
the previous one has returned.  The D = 3 talliers run as threads of this
process.  The protocol is data-oblivious, so a workload fixes what its cost
depends on (rule, M, K, N, the per-round delay and the transport); the
ballots are random and a fixed share of them is illegal, for correctness
coverage.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass

import numpy as np

import reference
from ordervote import ballots as ballots_mod
from ordervote import session
from ordervote.config import ElectionConfig
from ordervote.engine import PartyContext
from ordervote.transport import InMemoryHub, InMemoryTransport, SessionChannel

TALLIERS = 3
ROUND_TIMEOUT = 60.0
LOOPBACK = "127.0.0.1"
# Of every ILLEGAL_BLOCK voters, the last ones cast an inflated ballot (every
# entry doubled), a ballot with one flipped entry and a ballot shared at too
# high a degree.  Kemeny elections carry only the last kind: batch validation
# misreads the products of the other two (see CHANGES.md, FOUND).
ILLEGAL_BLOCK = 50
ILLEGAL_KINDS = {"copeland": ("inflate", "flip", "degree"),
                 "maximin": ("inflate", "flip", "degree"),
                 "kemeny": ("degree",)}


@dataclass(frozen=True)
class ElectionSpec:
    rule: str
    m: int
    k: int
    n: int
    repeat: int = 1  # tallies of the same ballots per round


@dataclass(frozen=True)
class Workload:
    name: str
    transport: str  # "memory", "clocked" or "socket"
    elections: tuple[ElectionSpec, ...]
    delay_s: float = 0.0
    # Rounds that begin with a fresh set-up (None: every round); the rest
    # re-tally the last set-up's ballots.
    setup_rounds: int | None = None


WORKLOADS = {w.name: w for w in (
    # Rounds dominate: every round pays L, and winner selection holds most of
    # them (about 4.8k rounds for Kemeny M=5).  Validation is one small batch.
    Workload("rounds-latency", "clocked",
             (ElectionSpec("copeland", 6, 2, 200, repeat=2),
              ElectionSpec("maximin", 6, 2, 200, repeat=2), ElectionSpec("kemeny", 5, 2, 200)),
             delay_s=0.001),
    # CPU-bound: the Copeland election spends its time in validation (~1M
    # gates in 10 rounds), pool refills, degree checks and aggregation, and
    # its set-up in voter-side sharing.  Select adds ~7 comparisons.
    Workload("bulk-validate", "memory",
             (ElectionSpec("copeland", 5, 2, 50_000, repeat=2),
              ElectionSpec("maximin", 5, 2, 5_000, repeat=4),
              ElectionSpec("kemeny", 4, 2, 5_000, repeat=4)),
             setup_rounds=2),
    # The only path that encodes frames and crosses the kernel: large
    # broadcasts in validation beside the tiny frames of selection.
    Workload("tcp-loopback", "socket",
             (ElectionSpec("maximin", 5, 1, 5_000, repeat=2),
              ElectionSpec("copeland", 5, 1, 5_000, repeat=2),
              ElectionSpec("kemeny", 4, 1, 5_000, repeat=2)),
             setup_rounds=3),
)}


@dataclass
class Inputs:
    """What the voters of one election mean to cast, made from the seed."""

    spec: ElectionSpec
    seed: int
    rankings: np.ndarray  # (n, m) orders, or rank vectors for Kemeny
    entries: np.ndarray  # (n, C) plaintext entries each voter deals
    kinds: list  # per voter: None or one of ILLEGAL_KINDS[rule]


def make_inputs(spec: ElectionSpec, seed: int, index: int) -> Inputs:
    rng = np.random.default_rng([seed, index])
    if spec.rule == "kemeny":
        rankings = rng.integers(1, spec.m + 1, (spec.n, spec.m))
    else:
        rankings = np.argsort(rng.random((spec.n, spec.m)), axis=1) + 1
    entries = reference.ballot_entries(spec.rule, rankings)
    flip_at = rng.integers(0, entries.shape[1], spec.n)
    illegal = ILLEGAL_KINDS[spec.rule]
    kinds = []
    for voter in range(spec.n):
        slot = voter % ILLEGAL_BLOCK - (ILLEGAL_BLOCK - len(illegal))
        kind = illegal[slot] if slot >= 0 else None
        if kind == "inflate":
            entries[voter] *= 2
        elif kind == "flip":
            j = flip_at[voter]
            entries[voter, j] = 1 - entries[voter, j] if spec.rule == "maximin" \
                else -entries[voter, j]
        kinds.append(kind)
    return Inputs(spec, seed, rankings, entries, kinds)


def election_config(inputs: Inputs) -> ElectionConfig:
    spec = inputs.spec
    return ElectionConfig(
        rule=spec.rule, candidates=tuple(f"C{i}" for i in range(1, spec.m + 1)),
        num_winners=spec.k, talliers=TALLIERS, expected_voters=spec.n,
        seed=inputs.seed)


def share_all(config: ElectionConfig, inputs: Inputs) -> list:
    """Voter side: the honest voters share through ``make_shared_ballots``;
    the others deal their altered matrices through ``share_ballot``."""
    honest = [i for i, kind in enumerate(inputs.kinds) if kind is None]
    rankings = [tuple(int(v) for v in inputs.rankings[i]) for i in honest]
    shared = dict(zip(honest, session.make_shared_ballots(config, rankings)))
    # make_shared_ballots numbers its voters 1..len(rankings); the other
    # voters follow, so every id is distinct.
    voter_id = len(honest)
    for i, kind in enumerate(inputs.kinds):
        if kind is None:
            continue
        voter_id += 1
        matrix = np.array(reference.full_matrix(config.rule, config.m, inputs.entries[i]))
        threshold = config.talliers if kind == "degree" else config.threshold
        shared[i] = ballots_mod.share_ballot(
            ballots_mod.BallotMatrix(config.rule, config.m, matrix), config.field,
            threshold, config.talliers, config.voter_rng(voter_id), voter_id)
    return [shared[i] for i in range(len(inputs.kinds))]


@dataclass
class Expected:
    verdicts: list  # per ballot: None (accepted) or the rejection reason
    winners: list
    ranking: tuple | None
    illegal: int


def expected_outcome(config: ElectionConfig, inputs: Inputs, shared: list) -> Expected:
    shares = np.stack([b.bundles for b in shared], axis=1)  # (D, n, C)
    verdicts = reference.expected_verdicts(config.rule, config.m, inputs.entries,
                                           shares, config.prime, config.threshold)
    legal = np.array([v is None for v in verdicts])
    winners, ranking = reference.winners(config.rule, config.m, config.num_winners,
                                         inputs.entries[legal], config.alpha)
    return Expected(verdicts, winners, ranking, int((~legal).sum()))


def check(expected: Expected, shared: list, results: list, verdict_lists: list) -> list[str]:
    """Every difference between an election's outputs and the reference."""
    problems = []
    ids = [b.voter_id for b in shared]
    for party, verdicts in enumerate(verdict_lists, start=1):
        got = [(v.voter_id, None if v.accepted else v.reason) for v in verdicts]
        if got != list(zip(ids, expected.verdicts)):
            bad = sum(g != e for g, e in zip(got, zip(ids, expected.verdicts)))
            problems.append(f"T{party}: {bad} verdicts differ from the reference")
    for party, result in enumerate(results, start=1):
        if result.winners != expected.winners:
            problems.append(f"T{party}: winners {result.winners} != {expected.winners}")
        if expected.ranking is not None and result.kemeny_ranking != expected.ranking:
            problems.append(f"T{party}: ranking {result.kemeny_ranking} != {expected.ranking}")
    return problems


# -- election runners --------------------------------------------------------------
# Each returns (seconds, per-party TallyResults, per-party verdict lists, party
# 1's counters with the election's wall time added as ``wall_s``).  The
# seconds run from handing the shared ballots to the talliers until every
# tallier has returned its winners, counted in processor time, not wall
# time: the three talliers share two cores and one interpreter lock with
# each other and with the host's other tenants, and the time they wait for
# those measures the host, not the program.  The wall time is kept for
# reference only; over TCP it moved by up to a half within one run.

class ClockedTransport(InMemoryTransport):
    """In-memory transport on a virtual clock with a one-way delay per round.

    Each tallier's clock advances by the processor time of its own thread and,
    when it takes a round's messages, jumps to L = ``delay_s`` after the
    latest of them left, if that is later.  A party's messages of one round
    leave together, at its clock when it sends the first of them.  The
    largest clock when every tallier has returned is the election's latency
    with one core per tallier and links of one-way delay L; nothing sleeps.
    ``departures`` is shared by the parties of one election."""

    def __init__(self, party_id: int, parties: int, hub: InMemoryHub, delay_s: float,
                 departures: dict):
        super().__init__(party_id, parties, ROUND_TIMEOUT, hub)
        self.delay_s = delay_s
        self.departures = departures
        self.clock = 0.0
        self.mark = 0.0  # thread processor time at the last tick

    def start(self) -> None:
        """On the tallier's thread, as its program starts."""
        self.mark = time.thread_time()

    def tick(self) -> float:
        now = time.thread_time()
        self.clock += now - self.mark
        self.mark = now
        return self.clock

    def send(self, to: int, msg) -> None:
        self.departures.setdefault((msg.sender, msg.session, msg.round), self.tick())
        super().send(to, msg)

    def await_round(self, session: int, round_no: int, senders: set[int]) -> dict:
        got = super().await_round(session, round_no, senders)
        arrival = max(self.departures[(s, session, round_no)] for s in senders) + self.delay_s
        self.clock = max(self.tick(), arrival)
        return got


def _run_parties(parties: int, program) -> dict:
    """Run ``program(party_id)`` on one thread per party; raise the first error."""
    results, errors = {}, {}

    def body(party: int) -> None:
        try:
            results[party] = program(party)
        except BaseException as err:  # re-raised below, after every join
            errors[party] = err

    threads = [threading.Thread(target=body, args=(d,), name=f"tallier-{d}")
               for d in range(1, parties + 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        party, err = sorted(errors.items())[0]
        raise RuntimeError(f"tallier {party} failed: {err!r}") from err
    return results


def _process_timed(call):
    """(processor seconds of every thread of the process, kernel included;
    wall seconds; the call's result)."""
    wall, cpu = time.perf_counter(), time.process_time()
    out = call()
    return time.process_time() - cpu, time.perf_counter() - wall, out


def run_memory(config: ElectionConfig, shared: list, workload: Workload):
    cpu, wall, outcome = _process_timed(lambda: session.run_local_election(config, shared))
    return (cpu, outcome.per_party_results, [outcome.verdicts],
            dict(outcome.result.counters, wall_s=wall))


def run_clocked(config: ElectionConfig, shared: list, workload: Workload):
    hub = InMemoryHub(config.talliers, timeout=ROUND_TIMEOUT)
    departures: dict = {}
    hub.endpoints = {d: ClockedTransport(d, config.talliers, hub, workload.delay_s, departures)
                     for d in range(1, config.talliers + 1)}
    bundles = {d: [b.bundle_for(d) for b in shared] for d in hub.endpoints}

    def program(party: int):
        transport = hub.transport(party)
        transport.start()
        channel = SessionChannel(transport, 1)
        ctx: PartyContext = session.build_context(config, party, channel)
        out = session.tallier_program(ctx, config, bundles[party])
        transport.tick()
        return out

    wall = time.perf_counter()
    out = _run_parties(config.talliers, program)
    wall = time.perf_counter() - wall
    results = [out[d][0] for d in sorted(out)]
    latency = max(t.clock for t in hub.endpoints.values())
    return (latency, results, [out[d][1] for d in sorted(out)],
            dict(results[0].counters, wall_s=wall))


def free_ports(count: int) -> list[int]:
    holders = []
    try:
        for _ in range(count):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            holders.append(s)
            s.bind((LOOPBACK, 0))
        return [s.getsockname()[1] for s in holders]
    finally:
        for s in holders:
            s.close()


def _release_listeners(ports: list[int], before: set) -> None:
    """``SocketTransport.close`` leaves its accept thread blocked in accept()
    on the listening socket; one connection per port lets each thread see
    the stop flag and exit.  Then wait for every thread the election started."""
    for port in ports:
        try:
            socket.create_connection((LOOPBACK, port), timeout=1.0).close()
        except OSError:
            pass  # nothing listens: the listener is already gone
    deadline = time.monotonic() + 10.0
    while True:
        alive = [t for t in threading.enumerate() if t not in before and t.is_alive()]
        if not alive:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"{len(alive)} transport threads outlived the election")
        alive[0].join(0.1)


def run_socket(config: ElectionConfig, shared: list, workload: Workload):
    ports = free_ports(config.talliers)
    config = config.with_overrides(
        backend="socket", endpoints=tuple((LOOPBACK, port) for port in ports)).validate()
    bundles = {d: [b.bundle_for(d) for b in shared] for d in range(1, config.talliers + 1)}
    before = set(threading.enumerate())
    try:
        cpu, wall, out = _process_timed(lambda: _run_parties(
            config.talliers, lambda d: session.run_socket_tallier(config, d, bundles[d])))
    finally:
        _release_listeners(ports, before)
    results = [out[d][0] for d in sorted(out)]
    return (cpu, results, [out[d][1] for d in sorted(out)],
            dict(results[0].counters, wall_s=wall))


RUNNERS = {"memory": run_memory, "clocked": run_clocked, "socket": run_socket}
