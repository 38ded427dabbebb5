"""Spans around the public calls into each layer, for the traced run.

``Tracer.install`` replaces each wrapped callable at the name its callers
look it up by: ``session`` imports the tally functions by name and
``engine`` imports ``reconstruct_batch`` the same way, so those are wrapped
in the importing module.  ``uninstall`` puts the originals back; an
untraced run never installs.  Spans (name, party, start, end, parent) stay
in memory until ``write``.  Party 0 is the voter side (the main thread);
a tallier thread takes its party from ``session.build_context``.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict

from ordervote import ballots, engine, session, validation
from ordervote.transport import InMemoryTransport, PartyTransport, SocketTransport


def _ctx_counters(ctx) -> dict:
    return dict(ctx.summary(), bytes_sent=ctx.channel.transport.bytes_sent)


# (owner, attribute, span name, count the ctx counters across the call?)
TARGETS = [
    (session, "make_shared_ballots", "ballots.share", False),
    (session, "share_ballot", "ballots.share", False),
    (ballots, "share_ballot", "ballots.share", False),
    (session, "tallier_program", "session.program", True),
    (validation, "batch_validate", "validation.validate", True),
    (session, "aggregate", "tally.aggregate", False),
    (session, "copeland_scores", "tally.score", True),
    (session, "maximin_scores", "tally.score", True),
    (session, "top_k", "tally.select", True),
    (session, "kemeny_winners", "tally.select", True),
    (engine.PartyContext, "mul", "engine.mul", False),
    (engine.PartyContext, "shared_lsb", "engine.shared_lsb", False),
    (engine.PartyContext, "open", "engine.open", False),
    (engine.PartyContext, "open_share_matrix", "engine.open", False),
    (engine.PartyContext, "rand_shares", "engine.pool", False),
    (engine.PartyContext, "double_shares", "engine.pool", False),
    (ballots, "share_batch", "shamir.share_batch", False),
    (engine, "share_batch", "shamir.share_batch", False),
    (engine, "reconstruct_batch", "shamir.reconstruct_batch", False),
    (validation, "reconstruct_batch", "shamir.reconstruct_batch", False),
    (engine, "degree_at_most", "shamir.degree_at_most", False),
    (validation, "degree_at_most", "shamir.degree_at_most", False),
    (InMemoryTransport, "send", "transport.send", False),
    (SocketTransport, "send", "transport.send", False),
    (PartyTransport, "await_round", "transport.wait", False),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, party, start, end, parent)
        self.counts: dict[tuple[str, int], Counter] = defaultdict(Counter)
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple] = []
        self.origin = time.perf_counter()

    def _party(self) -> int:
        return getattr(self._local, "party", 0)

    def _wrap(self, name: str, fn, count_ctx: bool):
        tracer = self
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            before = _ctx_counters(args[0]) if count_ctx else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                party = tracer._party()
                tracer.spans.append((span_id, name, party, start, end, parent))
            if count_ctx:
                after = _ctx_counters(args[0])
                tally = tracer.counts[(name, party)]
                tally.update({k: after[k] - before[k] for k in after})
                if name == "validation.validate":
                    tally["rejected"] += sum(not v.accepted for v in result)
            return result
        return wrapper

    def _build_context(self, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(config, party_id, *args, **kwargs):
            local.party = party_id
            return fn(config, party_id, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        plan = [(o, a, self._wrap(n, getattr(o, a), c)) for o, a, n, c in TARGETS]
        plan.append((session, "build_context", self._build_context(session.build_context)))
        for owner, attr, wrapper in plan:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------------

    def self_times(self) -> dict[tuple[str, int], float]:
        """Span duration minus the part its child spans cover, summed per
        (name, party)."""
        covered: dict[int, float] = defaultdict(float)
        for _, _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[tuple[str, int], float] = defaultdict(float)
        for span_id, name, party, start, end, _ in self.spans:
            out[(name, party)] += end - start - covered[span_id]
        return out

    def totals(self, name: str, party: int, top_level_only: bool = False) -> tuple[float, int]:
        """Summed duration and number of spans of one name and party."""
        spans = [s for s in self.spans if s[1] == name and s[2] == party
                 and (s[5] < 0 or not top_level_only)]
        return sum(s[4] - s[3] for s in spans), len(spans)

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("id,name,party,start_s,end_s,parent\n")
            for span_id, name, party, start, end, parent in self.spans:
                out.write(f"{span_id},{name},{party},{start - self.origin:.9f},"
                          f"{end - self.origin:.9f},{parent}\n")
