"""Election orchestration: the tallier program and backend runners.

``tallier_program`` is the SPMD pipeline every tallier executes over its own
context: validate the shared ballots (``validate_bundles``), aggregate the
accepted ones, compute scores, and open winner identities.  Every in-process
runner starts its talliers through one ``_run_threads``: ``run_local_election``
runs all D talliers as threads of one process over the in-memory hub (the
desk-scale mode), and ``run_local_validation`` and the benchmarks reuse it.
``run_socket_tallier`` and ``run_socket_validation`` run a single party that
meets its peers over TCP.  With fixed seeds both backends produce identical
results.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Iterator, TypeVar

import numpy as np

from . import validation
from .ballots import (SharedBallot, TallierBundle, decode_bundle,
                      ranking_to_matrix, share_ballot)
from .config import ElectionConfig
from .engine import PartyContext
from .tally import (TallyResult, aggregate, copeland_scores, kemeny_winners,
                    maximin_scores, top_k)
from .transport import (InMemoryHub, SessionChannel, SocketTransport)

T = TypeVar("T")

LOCAL_ROUND_TIMEOUT = 120.0  # generous; a deadlock should fail, not hang


@dataclass
class ElectionOutcome:
    result: TallyResult
    verdicts: list[validation.ValidationVerdict]
    per_party_results: list[TallyResult] = dataclass_field(default_factory=list)
    captures: dict[int, dict] = dataclass_field(default_factory=dict)
    rejected_proofs: dict[int, np.ndarray] = dataclass_field(default_factory=dict)


def make_shared_ballots(config: ElectionConfig, rankings) -> list[SharedBallot]:
    """Voter-side: build and share one ballot per ranking, seeded per voter."""
    ballots = []
    for voter_id, ranking in enumerate(rankings, start=1):
        matrix = ranking_to_matrix(config.rule, ranking, config.m)
        ballots.append(share_ballot(matrix, config.field, config.threshold,
                                    config.talliers, config.voter_rng(voter_id),
                                    voter_id))
    return ballots


def build_context(config: ElectionConfig, party_id: int, channel: SessionChannel,
                  capture: bool = False) -> PartyContext:
    ctx = PartyContext(party_id, config.talliers, config.threshold,
                       config.field, channel, config.party_rng(party_id))
    if capture:
        ctx.capture_store = {}
    return ctx


def _run_threads(parties: int, body: Callable[[int], T]) -> dict[int, T]:
    """Run ``body(d)`` for d = 1..parties, one thread each, and join them all;
    returns party -> result.  The lowest failing party's error is re-raised,
    chained as the cause."""
    results: dict[int, T] = {}
    errors: dict[int, BaseException] = {}

    def runner(party_id: int) -> None:
        try:
            results[party_id] = body(party_id)
        except BaseException as err:  # surfaced after join
            errors[party_id] = err

    threads = [threading.Thread(target=runner, args=(d,), name=f"tallier-{d}")
               for d in range(1, parties + 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        party, err = min(errors.items())
        raise RuntimeError(f"tallier {party} failed: {err!r}") from err
    return results


def _run_local(config: ElectionConfig, program: Callable[[PartyContext], T],
               session_id: int = 1, capture: bool = False) -> dict[int, T]:
    """Run ``program(ctx)`` for every tallier over a fresh in-memory hub."""
    hub = InMemoryHub(config.talliers, timeout=LOCAL_ROUND_TIMEOUT)
    return _run_threads(config.talliers, lambda d: program(build_context(
        config, d, SessionChannel(hub.transport(d), session_id), capture)))


@contextmanager
def _socket_context(config: ElectionConfig, party_id: int,
                    session_id: int) -> Iterator[PartyContext]:
    """This party's context over TCP; the transport closes on exit."""
    endpoints = {d + 1: tuple(e) for d, e in enumerate(config.resolved_endpoints())}
    transport = SocketTransport(party_id, endpoints)
    try:
        yield build_context(config, party_id, SessionChannel(transport, session_id))
    finally:
        transport.close()


def validate_bundles(ctx: PartyContext, config: ElectionConfig,
                     bundles: list[TallierBundle],
                     batch_size: int | None = None) -> list[validation.ValidationVerdict]:
    """Validate ``bundles`` in batches of ``batch_size`` (default: one batch);
    returns one verdict per bundle, by position.

    Every copy of a voter id that occurs more than once is rejected as
    ``DuplicateVoter`` without being validated, so no copy can carry an
    illegal ballot in and the verdicts do not depend on arrival order."""
    copies = Counter(b.voter_id for b in bundles)
    unique = [b for b in bundles if copies[b.voter_id] == 1]
    step = batch_size or len(unique) or 1
    checked: list[validation.ValidationVerdict] = []
    for start in range(0, len(unique), step):
        checked.extend(validation.batch_validate(ctx, unique[start:start + step],
                                                 config.rule, config.m))
    verdicts = iter(checked)
    duplicate = validation.REASON_DUPLICATE
    return [next(verdicts) if copies[b.voter_id] == 1 else
            validation.ValidationVerdict(b.voter_id, False, duplicate) for b in bundles]


def tallier_program(ctx: PartyContext, config: ElectionConfig,
                    bundles: list[TallierBundle],
                    batch_size: int | None = None) -> tuple[TallyResult, list, dict]:
    """The full pipeline one tallier runs; returns (result, verdicts, proofs)."""
    rule, m = config.rule, config.m
    verdicts = validate_bundles(ctx, config, bundles, batch_size)
    accepted = [b for b, v in zip(bundles, verdicts) if v.accepted]

    # A duplicate is rejected for its id, not its content: it may be a replayed
    # honest ballot.  A malformed bundle has no sharing to open.  Neither is
    # opened as a proof.
    proofs: dict[int, np.ndarray] = {}
    if config.reconstruct_rejected:
        for b, v in zip(bundles, verdicts):
            if not v.accepted and v.reason not in (validation.REASON_DUPLICATE,
                                                   validation.REASON_MALFORMED):
                proofs[b.voter_id] = validation.reconstruct_rejected(ctx, b)

    agg = aggregate(ctx, accepted, rule, m)
    ctx.capture("aggregate", agg.entries)

    kemeny_ranking = None
    opened_scores = None
    if rule == "kemeny":
        winners, kemeny_ranking = kemeny_winners(ctx, agg, config.num_winners)
    else:
        scores = copeland_scores(ctx, agg, config.alpha) if rule == "copeland" \
            else maximin_scores(ctx, agg)
        ctx.capture("scores", scores)
        winners = top_k(ctx, scores, config.num_winners)
        if config.open_scores:
            opened_scores = [int(v) for v in ctx.open(scores, "final_output")]

    result = TallyResult(
        rule=rule,
        winners=winners,
        winner_names=[config.candidates[w - 1] for w in winners],
        kemeny_ranking=kemeny_ranking,
        opened_scores=opened_scores,
        counters=ctx.summary(),
    )
    return result, verdicts, proofs


def run_local_election(config: ElectionConfig, ballots: list[SharedBallot],
                       batch_size: int | None = None, capture: bool = False,
                       session_id: int = 1) -> ElectionOutcome:
    """Run all D talliers as threads over the in-memory transport."""
    def program(ctx: PartyContext):
        bundles = [b.bundle_for(ctx.party_id) for b in ballots]
        return (ctx, *tallier_program(ctx, config, bundles, batch_size))

    runs = _run_local(config, program, session_id, capture)
    per_party = [runs[d][1] for d in range(1, config.talliers + 1)]
    first = per_party[0]
    for other in per_party[1:]:
        if other.winners != first.winners:
            raise RuntimeError("talliers disagree on the winners; protocol bug")
    captures = {d: run[0].capture_store for d, run in runs.items()} if capture else {}
    _, _, verdicts, proofs = runs[1]
    return ElectionOutcome(result=first, verdicts=verdicts, per_party_results=per_party,
                           captures=captures, rejected_proofs=proofs)


def run_socket_tallier(config: ElectionConfig, party_id: int,
                       bundles: list[TallierBundle] | None = None,
                       expect_votes: int | None = None,
                       session_id: int = 1,
                       batch_size: int | None = None) -> tuple[TallyResult, list]:
    """Run one tallier over TCP.  Ballots come either from the caller (spooled
    submissions) or live off the wire when ``expect_votes`` is given."""
    with _socket_context(config, party_id, session_id) as ctx:
        if bundles is None:
            if expect_votes is None:
                raise ValueError("need either spooled bundles or expect_votes")
            messages = ctx.channel.transport.collect_ballots(session_id, expect_votes)
            bundles = sorted((decode_bundle(m.payload, config.rule, config.m)
                              for m in messages),
                             key=lambda b: b.voter_id)
        result, verdicts, _ = tallier_program(ctx, config, bundles, batch_size)
        return result, verdicts


def run_local_validation(config: ElectionConfig, ballots: list[SharedBallot],
                         batch_size: int | None = None,
                         session_id: int = 1) -> list[validation.ValidationVerdict]:
    """Validation phase only (threads over the in-memory hub); returns verdicts."""
    return _run_local(config, lambda ctx: validate_bundles(
        ctx, config, [b.bundle_for(ctx.party_id) for b in ballots], batch_size),
        session_id)[1]


def run_socket_validation(config: ElectionConfig, party_id: int,
                          bundles: list[TallierBundle],
                          batch_size: int | None = None,
                          session_id: int = 1) -> list[validation.ValidationVerdict]:
    """Validation phase only, one party over TCP."""
    with _socket_context(config, party_id, session_id) as ctx:
        return validate_bundles(ctx, config, bundles, batch_size)


# -- benchmarking -----------------------------------------------------------------

def _random_rankings(config: ElectionConfig, count: int,
                     rng: np.random.Generator) -> list[tuple[int, ...]]:
    if config.rule == "kemeny":
        return [tuple(int(r) for r in rng.integers(1, config.m + 1, config.m))
                for _ in range(count)]
    return [tuple(int(c) for c in rng.permutation(config.m) + 1)
            for _ in range(count)]


def bench_validation(config: ElectionConfig, batch: int, repetitions: int,
                     rng: np.random.Generator) -> dict:
    """Time batch validation of ``batch`` random legal ballots."""
    ballots = make_shared_ballots(config, _random_rankings(config, batch, rng))

    def program(ctx: PartyContext) -> tuple[float, dict]:
        bundles = [b.bundle_for(ctx.party_id) for b in ballots]
        t0 = time.perf_counter()
        validate_bundles(ctx, config, bundles)
        return time.perf_counter() - t0, ctx.summary()

    runs = [_run_local(config, program)[1] for _ in range(repetitions)]
    samples = sorted(elapsed for elapsed, _ in runs)
    counters = runs[-1][1]
    return {
        "phase": "validate",
        "rule": config.rule,
        "candidates": config.m,
        "talliers": config.talliers,
        "batch": batch,
        "seconds_min": samples[0],
        "seconds_median": samples[len(samples) // 2],
        "mul_gates": counters.get("mul_gates", 0),
        "mul_rounds": counters.get("mul_rounds", 0),
        "comm_rounds": counters.get("comm_rounds", 0),
    }


def bench_tally(config: ElectionConfig, voters: int,
                rng: np.random.Generator) -> dict:
    """Time one full pipeline (validate + aggregate + winners) for N voters."""
    ballots = make_shared_ballots(config, _random_rankings(config, voters, rng))
    t0 = time.perf_counter()
    outcome = run_local_election(config, ballots)
    elapsed = time.perf_counter() - t0
    row = {
        "phase": "tally",
        "rule": config.rule,
        "candidates": config.m,
        "talliers": config.talliers,
        "voters": voters,
        "seconds": elapsed,
        "winners": outcome.result.winners,
    }
    row.update({k: v for k, v in outcome.result.counters.items()
                if k in ("mul_gates", "mul_rounds", "comm_rounds", "comparisons",
                         "lsb_extractions")})
    return row


def bench_comparison(config: ElectionConfig, repetitions: int) -> dict:
    """Microbenchmark one secure comparison (median over repetitions)."""
    def program(ctx: PartyContext) -> float:
        a = ctx.constant(3)
        b = ctx.constant(5)
        ctx.pregenerate(doubles=2048, rand=2048)
        t0 = time.perf_counter()
        ctx.open(ctx.compare(a, b), "final_output")
        return time.perf_counter() - t0

    samples = sorted(_run_local(config, program)[1] for _ in range(repetitions))
    return {
        "phase": "compare",
        "talliers": config.talliers,
        "seconds_median": samples[len(samples) // 2],
        "repetitions": repetitions,
    }
