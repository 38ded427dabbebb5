"""Shared helpers: run SPMD party programs over the in-memory transport."""

import numpy as np
import pytest

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
            transport.recorder = records[d]
        channel = SessionChannel(transport, session)
        rng = np.random.default_rng(np.random.SeedSequence([seed, d]))
        return program(PartyContext(d, parties, threshold, field, channel, rng))

    try:
        out = _run_threads(parties, body)
    except RuntimeError as err:
        raise err.__cause__ from None
    return (out, records) if record_for else out


def deal(field, values, threshold, parties, seed=99):
    """Share a vector of secrets; returns the (D, k) share matrix."""
    rng = np.random.default_rng(seed)
    return share_batch(field, np.asarray(values, dtype=np.uint64),
                       threshold, parties, rng)


def dealt_shares(field, matrix, threshold, party_id):
    return Shares(field, threshold, matrix[party_id - 1].copy())


@pytest.fixture(scope="session")
def f31():
    return PrimeField(31)


@pytest.fixture(scope="session")
def f7():
    return PrimeField(7)


@pytest.fixture(scope="session")
def f_mersenne31():
    return PrimeField((1 << 31) - 1)
