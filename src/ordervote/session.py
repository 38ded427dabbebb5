"""Election orchestration: the tallier program and backend runners.

``tallier_program`` is the SPMD pipeline every tallier executes over its own
context and its own ``ballots.Spool`` (voter ids and one share matrix):
start preparing every LSB mask the tally will use, in one batch that rides
the rounds that follow (``PartyContext.prepare_masks``), agree with the
other talliers on one roster of voter ids and validate it in one batch
(``validate_bundles``; the transport splits a payload wider than a frame),
run what the mask batch has left, aggregate the accepted ballots, compute
scores, and open winners, recording what each phase costs in the result's
counters.  The roster's verdicts stay columns (``validation.Verdicts``: a
voter id and a reason code per roster entry) beside the spool row each
validated entry came from, so the accepted rows and the proof rows are
picked by array operations.  With ``validate_only`` the program stops
after the validate phase.  Two runners start it: ``run_local_election``
runs all D talliers as threads of one process over the in-memory hub (the
desk-scale mode), checks that every tallier reached the same verdicts and
winners, and returns T1's verdicts as a list of ``ValidationVerdict``,
built once; ``run_socket_tallier`` runs a single party that meets its peers
over TCP and returns its list.  Both pass ``validate_only`` through, and
``run_local_validation`` is the local runner with it set.  With fixed
seeds both backends produce identical results.  The
talliers draw their randomness from the operating system (``build_context``),
since the config's seed is no secret; no verdict, winner or counter depends
on it.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from . import validation
# share_ballot, the one-ballot case, stays importable beside make_shared_ballots
from .ballots import (SharedBallot, Spool, TallierBundle, decode_spool,  # noqa: F401
                      share_ballot, share_rankings)
from .config import ElectionConfig, check_field_bounds, fresh_rng
from .engine import InconsistentOpen, PartyContext
from .tally import (TallyResult, aggregate, copeland_scores, kemeny_winners,
                    lsb_extractions, maximin_scores, select_ahead, top_k)
from .transport import InMemoryHub, RoundTimeout, SessionChannel, SocketTransport

T = TypeVar("T")

LOCAL_ROUND_TIMEOUT = 120.0  # generous; a deadlock should fail, not hang
SESSION = 1  # the session id of every frame and ballot submission


@dataclass
class ElectionOutcome:
    result: TallyResult
    verdicts: list[validation.ValidationVerdict]
    per_party_results: list[TallyResult] = dataclass_field(default_factory=list)
    captures: dict[int, dict] = dataclass_field(default_factory=dict)
    rejected_proofs: dict[int, np.ndarray] = dataclass_field(default_factory=dict)
    phase_cpu: dict[str, float] = dataclass_field(default_factory=dict)  # T1's, per phase
    phase_wait: dict[str, float] = dataclass_field(default_factory=dict)  # T1's, per phase


def make_shared_ballots(config: ElectionConfig, rankings) -> list[SharedBallot]:
    """Voter-side: build and share the ballots of all rankings in one pass
    (``ballots.share_rankings``); voter i, numbered from 1, draws from stream
    i of ``config.voter_key``, the whole batch's draws computed at once, and
    its sharing equals ``share_ballot``'s under ``config.voter_rng(i)``, so
    each sharing replays by itself."""
    return share_rankings(config.rule, rankings, config.m, config.field, config.threshold,
                          config.talliers, config.voter_key)


def build_context(config: ElectionConfig, party_id: int,
                  channel: SessionChannel) -> PartyContext:
    """Tallier ``party_id``'s context, drawing from the operating system."""
    return PartyContext(party_id, config.talliers, config.threshold,
                        config.field, channel, fresh_rng())


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


def _run_local(config: ElectionConfig,
               program: Callable[[PartyContext], T]) -> dict[int, T]:
    """Run ``program(ctx)`` for every tallier over a fresh in-memory hub."""
    hub = InMemoryHub(config.talliers, timeout=LOCAL_ROUND_TIMEOUT)
    return _run_threads(config.talliers, lambda d: program(build_context(
        config, d, SessionChannel(hub.transport(d), SESSION))))


@contextmanager
def _socket_context(config: ElectionConfig, party_id: int) -> Iterator[PartyContext]:
    """This party's context over TCP; the transport closes on exit."""
    endpoints = {d + 1: tuple(e) for d, e in enumerate(config.resolved_endpoints())}
    transport = SocketTransport(party_id, endpoints)
    try:
        yield build_context(config, party_id, SessionChannel(transport, SESSION))
    finally:
        transport.close()


def _copy_numbers(ids: np.ndarray) -> np.ndarray:
    """For each position of ``ids``, how many earlier positions hold the same id."""
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    runs = np.diff(np.r_[starts, ids.size])
    out = np.empty(ids.size, dtype=np.uint64)
    out[order] = np.arange(ids.size) - np.repeat(starts, runs)
    return out


def _exchange_ids(ctx: PartyContext, spool: Spool) -> list[list[np.ndarray]]:
    """Every tallier's voter ids and malformed ids, in party order, in one
    round, which carries the mask batch's deal (``PartyContext.broadcast``).
    Each sends its spool's ids, then its malformed rows' ids, then how many
    malformed ids end the list; an empty list, or a count that claims
    unsent ids, names its sender (InconsistentOpen)."""
    bad = spool.ids[spool.malformed]
    got = ctx.broadcast(np.concatenate([spool.ids, bad, [np.uint64(bad.size)]]))
    out = []
    for d, payload in enumerate(got, 1):
        if payload.size == 0:
            raise InconsistentOpen(f"T{d} sent an empty roster frame in round "
                                   f"{ctx.channel.stats.rounds - 1}")
        listed, flagged = payload[:-1], int(payload[-1])
        if flagged > listed.size:
            raise InconsistentOpen(f"T{d} claims {flagged} malformed ids but sent {listed.size}")
        out.append(np.split(listed, [listed.size - flagged]))
    return out


def _agree_roster(ctx: PartyContext, spool: Spool) -> tuple[np.ndarray, np.ndarray]:
    """The roster every tallier derives, agreed in one round
    (``_exchange_ids``), and per entry the reason code
    (``validation.REASONS``) it is rejected with unvalidated, 0 if it is
    validated.  It lists T1's ids, in its order, then each further
    tallier's copies beyond those listed: an id appears as often as its
    holder of the most copies holds it, and talliers that hold the same list
    get that list back.  Every copy of an id some tallier holds twice is a
    ``DuplicateVoter``; otherwise an id some tallier flags as malformed or
    lacks is ``Malformed``."""
    return _roster(*zip(*_exchange_ids(ctx, spool)))


def _roster(held: Sequence[np.ndarray], flagged: Sequence[np.ndarray]
            ) -> tuple[np.ndarray, np.ndarray]:
    """``_agree_roster``'s roster and codes from every tallier's ids and
    malformed ids, in party order.  When every tallier holds T1's list, no
    id is flagged and T1's ids have no repeat, the rule gives T1's list
    with zero codes; an ``array_equal`` per tallier and one sort of T1's
    ids show that without the general rule's sorts over every tallier's
    ids (``_roster_by_rule``)."""
    first = held[0]
    if not any(f.size for f in flagged) and all(np.array_equal(first, h) for h in held[1:]):
        ranked = np.sort(first)
        if not bool(np.any(ranked[1:] == ranked[:-1])):
            return first.copy(), np.zeros(first.size, dtype=np.int8)
    return _roster_by_rule(held, flagged)


def _roster_by_rule(held: Sequence[np.ndarray], flagged: Sequence[np.ndarray]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """``_roster`` for any lists, by the rule ``_agree_roster`` states."""
    ids = np.concatenate(held)
    copies = np.concatenate([_copy_numbers(h) for h in held])
    order = np.lexsort((copies, ids))  # stable: each (id, copy) pair's first holder leads
    ids_by, copies_by = ids[order], copies[order]
    first = np.ones(ids.size, dtype=bool)
    first[1:] = (ids_by[1:] != ids_by[:-1]) | (copies_by[1:] != copies_by[:-1])
    roster = ids[np.sort(order[first])]
    everywhere = np.logical_and.reduce([np.isin(roster, h) for h in held])
    codes = np.zeros(roster.size, dtype=np.int8)
    codes[~everywhere | np.isin(roster, np.concatenate(flagged))] = validation.CODE_MALFORMED
    codes[np.isin(roster, ids[copies > 0])] = validation.CODE_DUPLICATE
    return roster, codes


def validate_bundles(ctx: PartyContext, config: ElectionConfig,
                     spool: Spool) -> tuple[validation.Verdicts, np.ndarray]:
    """Validate the roster the talliers agree on (``_agree_roster``) in one
    batch.  Returns the roster's verdicts, one voter id and one reason code
    per entry in roster order, and per entry the spool row it was validated
    from, -1 where it was not.  A ``DuplicateVoter`` or ``Malformed`` entry
    is rejected unvalidated, so no copy can carry an illegal ballot in and
    the verdicts do not depend on arrival order; only ids every tallier
    holds once and well-formed are validated, from this tallier's rows of
    them."""
    roster, codes = _agree_roster(ctx, spool)
    validated = codes == 0
    ids = roster[validated]
    whole = np.array_equal(ids, spool.ids)  # the spool's own rows, in order
    rows = np.full(roster.size, -1, dtype=np.intp)
    rows[validated] = np.arange(len(spool)) if whole else spool.rows(ids)
    checked = validation.batch_validate(ctx, spool if whole else spool[rows[validated]],
                                        config.rule, config.m)
    codes[validated] = checked.codes
    return validation.Verdicts(roster, codes), rows


@contextmanager
def _phase(ctx: PartyContext, phases: dict[str, dict], name: str) -> Iterator[None]:
    """Record in ``phases[name]`` how far the phase moves each ``summary()``
    counter of this party, less the mask batches' work (``mask_work``),
    which ``tallier_program`` books to the offline phase; in
    ``ctx.counters.phase_cpu[name]`` the processor time of this party's
    thread and in ``phase_wait[name]`` the wall time it spent blocked in
    ``await_round``.  A round timeout in the phase is re-raised naming it."""
    before, masks = ctx.summary(), ctx.mask_work()
    cpu, wait = time.thread_time(), ctx.channel.stats.wait_s
    try:
        yield
    except RoundTimeout as err:
        raise RoundTimeout(err.round_no, err.missing, name) from err
    after, masks_after = ctx.summary(), ctx.mask_work()
    phases[name] = {k: v - before[k] - masks_after.get(k, 0) + masks.get(k, 0)
                    for k, v in after.items()}
    ctx.counters.phase_cpu[name] = time.thread_time() - cpu
    ctx.counters.phase_wait[name] = ctx.channel.stats.wait_s - wait


def _as_spool(config: ElectionConfig, bundles: Spool | list[TallierBundle]) -> Spool:
    """A tallier's ballots as a spool; a list of bundles is converted here, once."""
    if isinstance(bundles, Spool):
        return bundles
    return Spool.from_bundles(bundles, config.rule, config.m, config.prime)


def tallier_program(ctx: PartyContext, config: ElectionConfig,
                    bundles: Spool | list[TallierBundle], validate_only: bool = False
                    ) -> tuple[TallyResult, validation.Verdicts, dict]:
    """The full pipeline one tallier runs; returns (result, verdicts, proofs).
    With ``validate_only`` it stops after the validate phase: it prepares no
    masks, opens no proofs and elects no one, so the result has no winners.
    The masks do not depend on the ballots, so the whole tally's are started
    first, in one batch that takes no round of its own: its deal rides
    validation's deal round and its layers the rounds after it, and the
    offline phase runs only what is left.  The result's
    ``counters["phases"]`` holds each phase's share of the counters, in
    order: validate, offline, aggregate, score (copeland and maximin) and
    select.  Rounds, messages and bytes go to the phase that spends them;
    the work of a round, gates, layers, openings and sharings, to the
    stream that does it, so the offline phase holds the mask batch's."""
    rule, m = config.rule, config.m
    spool = _as_spool(config, bundles)
    phases: dict[str, dict] = {}
    if not validate_only:
        ctx.prepare_masks(lsb_extractions(rule, m, config.num_winners))

    # A duplicate is rejected for its id, not its content: it may be a replayed
    # honest ballot.  A malformed bundle has no sharing to open.  Neither is
    # opened as a proof.  Any other verdict names a voter whose bundle every
    # tallier holds exactly once, and every tallier reaches the same verdicts.
    proofs: dict[int, np.ndarray] = {}
    with _phase(ctx, phases, "validate"):
        verdicts, rows = validate_bundles(ctx, config, spool)
        if config.reconstruct_rejected and not validate_only:
            proven = (verdicts.codes != 0) & (rows >= 0)  # validated and rejected
            proofs = dict(zip(verdicts.ids[proven].tolist(), validation.reconstruct_rejected(
                ctx, spool[rows[proven]])))
    if validate_only:
        return TallyResult(rule, [], counters=dict(ctx.summary(), phases=phases)), verdicts, proofs
    with _phase(ctx, phases, "offline"):
        ctx.finish_masks()

    # the accepted count is public once validation ends: refuse too many before any work
    accepted = rows[verdicts.codes == 0]
    check_field_bounds(config.prime, rule, m, accepted.size, config.alpha)
    with _phase(ctx, phases, "aggregate"):
        agg = aggregate(ctx, spool[accepted], rule, m)
        ctx.capture("aggregate", agg.entries)

    kemeny_ranking = None
    opened_scores = None
    if rule == "kemeny":
        with _phase(ctx, phases, "select"):
            winners, kemeny_ranking = kemeny_winners(ctx, agg, config.num_winners)
    else:
        with _phase(ctx, phases, "score"):
            # top-K's first level takes its masks now: the scores' last layer opens its c
            mask, ride = select_ahead(ctx, m)
            scores, opened = copeland_scores(ctx, agg, config.alpha, ride) \
                if rule == "copeland" else maximin_scores(ctx, agg, ride)
            ctx.capture("scores", scores)
        with _phase(ctx, phases, "select"):
            if config.open_scores:
                winners, opened_scores = top_k(ctx, scores, config.num_winners,
                                               return_scores=True, first=(mask, opened))
            else:
                winners = top_k(ctx, scores, config.num_winners, first=(mask, opened))

    for key, value in ctx.mask_work().items():  # the batch's work, wherever it rode
        phases["offline"][key] += value
    result = TallyResult(
        rule=rule,
        winners=winners,
        winner_names=[config.candidates[w - 1] for w in winners],
        kemeny_ranking=kemeny_ranking,
        opened_scores=opened_scores,
        counters=dict(ctx.summary(), phases=phases),
    )
    return result, verdicts, proofs


Ballots = list[SharedBallot] | dict[int, Spool | list[TallierBundle]]


def _spools_of(config: ElectionConfig, ballots: Ballots) -> dict[int, Spool | list[TallierBundle]]:
    """Every tallier's ballots: each tallier's own spool when ``ballots``
    maps each tallier to one, else its shares of the shared ballots, split
    for all talliers at once (``Spool.from_ballots``).  Spools need not list
    the voters in the same order; the roster pairs them by voter id."""
    if isinstance(ballots, dict):
        return ballots
    return Spool.from_ballots(ballots, config.rule, config.m, config.prime, config.talliers)


def run_local_election(config: ElectionConfig, ballots: Ballots, capture: bool = False,
                       validate_only: bool = False) -> ElectionOutcome:
    """Run all D talliers as threads over the in-memory transport, through
    validation alone with ``validate_only`` (``tallier_program``)."""
    spools = _spools_of(config, ballots)

    def program(ctx: PartyContext):
        if capture:
            ctx.capture_store = {}
        return (ctx, *tallier_program(ctx, config, spools[ctx.party_id], validate_only))

    runs = _run_local(config, program)
    per_party = [runs[d][1] for d in range(1, config.talliers + 1)]
    first = per_party[0]
    _, _, verdicts, proofs = runs[1]
    for d in range(2, config.talliers + 1):
        voter = verdicts.first_split(runs[d][2])
        if voter is not None:
            raise RuntimeError(f"talliers disagree on the verdict of voter {voter}; "
                               "protocol bug")
        if per_party[d - 1].winners != first.winners:
            raise RuntimeError("talliers disagree on the winners; protocol bug")
    captures = {d: run[0].capture_store for d, run in runs.items()} if capture else {}
    return ElectionOutcome(result=first, verdicts=verdicts.tolist(), per_party_results=per_party,
                           captures=captures, rejected_proofs=proofs,
                           phase_cpu=runs[1][0].counters.phase_cpu,
                           phase_wait=runs[1][0].counters.phase_wait)


def run_socket_tallier(config: ElectionConfig, party_id: int,
                       bundles: Spool | list[TallierBundle] | None = None,
                       expect_votes: int | None = None,
                       validate_only: bool = False) -> tuple[TallyResult, list, dict]:
    """Run one tallier over TCP, through validation alone with
    ``validate_only`` (``tallier_program``); returns (result, verdicts as a
    list of ``ValidationVerdict``, proofs).  Ballots come either from the
    caller (spooled submissions) or live off the wire when ``expect_votes``
    is given."""
    with _socket_context(config, party_id) as ctx:
        if bundles is None:
            if expect_votes is None:
                raise ValueError("need either spooled bundles or expect_votes")
            messages = ctx.channel.transport.collect_ballots(SESSION, expect_votes)
            bundles = decode_spool([msg.payload for msg in messages], config.rule,
                                   config.m, config.prime)
        result, verdicts, proofs = tallier_program(ctx, config, bundles, validate_only)
        return result, verdicts.tolist(), proofs


def run_local_validation(config: ElectionConfig, ballots: Ballots) -> tuple[list, dict]:
    """Validation phase only (``run_local_election`` with ``validate_only``);
    returns T1's (verdicts as a list of ``ValidationVerdict``, validate
    counters)."""
    outcome = run_local_election(config, ballots, validate_only=True)
    return outcome.verdicts, outcome.result.counters["phases"]["validate"]
