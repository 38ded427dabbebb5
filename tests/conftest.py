"""Shared helpers: run SPMD party programs over the in-memory transport."""

import numpy as np
import pytest

from ordervote import session
from ordervote.engine import PartyContext, Shares
from ordervote.field import PrimeField
from ordervote.session import _run_threads
from ordervote.shamir import share_batch
from ordervote.transport import InMemoryHub, SessionChannel

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def record_rounds(transport, into):
    """Append each frame that ``transport.await_round`` hands out to ``into``
    as (session, round, sender, receiver, kind, payload bytes)."""
    await_round = transport.await_round

    def recording(session, round_no, senders):
        got = await_round(session, round_no, senders)
        into.extend((m.session, m.round, m.sender, transport.party_id, int(m.kind),
                     m.payload.tobytes()) for m in got.values())
        return got

    transport.await_round = recording


def run_parties(parties, threshold, field, program, seed=7, timeout=30.0,
                session=1, record_for=()):
    """Run ``program(ctx)`` on every party in its own thread; returns a dict
    party_id -> return value.  The lowest failing party's exception
    propagates to the caller as raised."""
    hub = InMemoryHub(parties, timeout=timeout)
    records = {d: [] for d in record_for}

    def body(d):
        transport = hub.transport(d)
        if d in records:
            record_rounds(transport, records[d])
        channel = SessionChannel(transport, session)
        rng = np.random.default_rng(np.random.SeedSequence([seed, d]))
        return program(PartyContext(d, parties, threshold, field, channel, rng))

    try:
        out = _run_threads(parties, body)
    except RuntimeError as err:
        raise err.__cause__ from None
    return (out, records) if record_for else out


@pytest.fixture
def seeded_talliers(monkeypatch):
    """Talliers that draw from ``config.party_rng`` instead of the operating
    system, for tests that pin shares or the masks a seed draws."""
    def build_context(config, party_id, channel):
        return PartyContext(party_id, config.talliers, config.threshold, config.field,
                            channel, config.party_rng(party_id))

    monkeypatch.setattr(session, "build_context", build_context)


def deal(field, values, threshold, parties, seed=99):
    """Share a vector of secrets; returns the (D, k) share matrix."""
    rng = np.random.default_rng(seed)
    return share_batch(field, np.asarray(values, dtype=np.uint64),
                       threshold, parties, rng)


def dealt_shares(field, matrix, threshold, party_id):
    return Shares(field, threshold, matrix[party_id - 1].copy())


def _through(points, x, p):
    """The polynomial of degree < len(points) through the (x_i, y_i)
    ``points``, evaluated at x in Python integers."""
    total = 0
    for i, (xi, yi) in enumerate(points):
        num = den = 1
        for j, (xj, _) in enumerate(points):
            if j != i:
                num, den = num * (x - xj), den * (xi - xj)
        total += yi * num * pow(den, -1, p)
    return total % p


def on_one_polynomial(shares, secret, threshold, p):
    """Do the shares at 1..D lie, with (0, secret), on one polynomial of
    degree <= threshold - 1?  Checked in Python integers."""
    shares = [int(v) for v in shares]
    points = [(0, int(secret)), *((x, shares[x - 1]) for x in range(1, threshold))]
    return all(v < p for v in shares) and all(
        shares[x - 1] == _through(points, x, p) for x in range(threshold, len(shares) + 1))


@pytest.fixture(scope="session")
def f31():
    return PrimeField(31)


@pytest.fixture(scope="session")
def f7():
    return PrimeField(7)


@pytest.fixture(scope="session")
def f_mersenne31():
    return PrimeField((1 << 31) - 1)
