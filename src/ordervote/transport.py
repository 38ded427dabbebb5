"""Round-synchronous message delivery among tallier parties.

Parties run the same protocol program, so message flow is fully determined by
(session, round, sender).  A mailbox per party stores incoming messages under
that key; ``await_round`` blocks until every expected sender has delivered,
which realizes the layer-by-layer synchrony the arithmetic-circuit evaluation
needs.  Two backends share the mailbox machinery:

* in-memory -- parties are threads of one process; sends are direct mailbox
  deliveries.  Default timeout: unbounded.
* sockets   -- each party runs a TCP listener; peers and voters connect and
  write length-prefixed frames.  Default timeout: 30 s per round.

Frame layout (all little-endian): 4-byte frame length, then session (8B),
round (4B), sender (2B), kind (1B), payload count (4B), payload (count x 8B
field elements).  Ballot submissions are frames of kind BALLOT sent by voters
and acknowledged with a frame of kind ACK; transport authentication (signing,
encryption) is a deliberate no-op stub, see ``SecurityStub``.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

HEADER = struct.Struct("<QIHBI")  # session, round, sender, kind, count
LEN_PREFIX = struct.Struct("<I")

DEFAULT_SOCKET_TIMEOUT = 30.0


class TransportFailure(Exception):
    pass


class RoundTimeout(TransportFailure):
    def __init__(self, round_no: int, missing: list[int]):
        self.missing = missing
        names = ", ".join(f"T{m}" for m in missing)
        super().__init__(f"round {round_no} timed out waiting for {names}")


class DuplicateMessage(TransportFailure):
    pass


class MessageKind(IntEnum):
    POINTWISE = 0
    BROADCAST = 1
    BALLOT = 2
    ACK = 3


@dataclass
class ProtocolMessage:
    session: int
    round: int
    sender: int
    kind: MessageKind
    payload: np.ndarray  # uint64 field elements, each < p

    def encode(self) -> bytes:
        body = np.ascontiguousarray(self.payload, dtype="<u8").tobytes()
        head = HEADER.pack(self.session, self.round, self.sender,
                           int(self.kind), len(self.payload))
        return LEN_PREFIX.pack(len(head) + len(body)) + head + body

    @staticmethod
    def decode(frame: bytes) -> "ProtocolMessage":
        session, rnd, sender, kind, count = HEADER.unpack_from(frame, 0)
        payload = np.frombuffer(frame, dtype="<u8", count=count,
                                offset=HEADER.size).astype(np.uint64)
        if len(payload) != count:
            raise TransportFailure("payload length does not match declared count")
        return ProtocolMessage(session, rnd, sender, MessageKind(kind), payload)


class SecurityStub:
    """Extension point for per-message signing/encryption.

    The protocol treats transport authentication as standard PKI machinery;
    deployments can subclass and wrap/unwrap frames.  The default passes
    frames through unchanged.
    """

    def protect(self, frame: bytes) -> bytes:
        return frame

    def unprotect(self, frame: bytes) -> bytes:
        return frame


class Mailbox:
    """Thread-safe store of incoming messages keyed by (session, round, sender)."""

    def __init__(self, owner: int):
        self.owner = owner
        self._cond = threading.Condition()
        self._messages: dict[tuple[int, int, int], ProtocolMessage] = {}
        self._ballots: dict[int, list[ProtocolMessage]] = {}
        self._poison: Exception | None = None

    def deliver(self, msg: ProtocolMessage) -> None:
        with self._cond:
            if msg.kind == MessageKind.BALLOT:
                self._ballots.setdefault(msg.session, []).append(msg)
                self._cond.notify_all()
                return
            key = (msg.session, msg.round, msg.sender)
            if key in self._messages:
                err = DuplicateMessage(
                    f"T{self.owner} got a second message from T{msg.sender} "
                    f"for session {msg.session} round {msg.round}")
                self._poison = err
                self._cond.notify_all()
                raise err
            self._messages[key] = msg
            self._cond.notify_all()

    def poison(self, err: Exception) -> None:
        with self._cond:
            self._poison = err
            self._cond.notify_all()

    def await_round(self, session: int, round_no: int, senders: set[int],
                    timeout: float | None) -> dict[int, ProtocolMessage]:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._poison is not None:
                    raise self._poison
                got = {s: self._messages[(session, round_no, s)]
                       for s in senders if (session, round_no, s) in self._messages}
                if len(got) == len(senders):
                    for s in senders:
                        del self._messages[(session, round_no, s)]
                    return got
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        missing = sorted(senders - set(got))
                        raise RoundTimeout(round_no, missing)
                self._cond.wait(remaining)

    def collect_ballots(self, session: int, count: int,
                        timeout: float | None) -> list[ProtocolMessage]:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                have = self._ballots.get(session, [])
                if len(have) >= count:
                    return list(have[:count])
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TransportFailure(
                            f"T{self.owner} collected {len(have)}/{count} ballots before timeout")
                self._cond.wait(remaining)


class PartyTransport:
    """One party's endpoint: send/broadcast to peers, await rounds, take ballots."""

    def __init__(self, party_id: int, parties: int, timeout: float | None):
        self.party_id = party_id
        self.parties = parties
        self.timeout = timeout
        self.mailbox = Mailbox(party_id)
        self.messages_sent = 0
        self.bytes_sent = 0
        self.recorder: list | None = None  # optional transcript capture on receive

    def peers(self) -> list[int]:
        return [d for d in range(1, self.parties + 1) if d != self.party_id]

    def _record(self, msg: ProtocolMessage) -> None:
        if self.recorder is not None:
            self.recorder.append((msg.session, msg.round, msg.sender, self.party_id,
                                  int(msg.kind), msg.payload.tobytes()))

    def send(self, to: int, msg: ProtocolMessage) -> None:
        raise NotImplementedError

    def broadcast(self, msg: ProtocolMessage) -> None:
        """A broadcast is parties-1 pointwise sends with identical payloads."""
        for d in self.peers():
            self.send(d, msg)

    def await_round(self, session: int, round_no: int,
                    senders: set[int]) -> dict[int, ProtocolMessage]:
        got = self.mailbox.await_round(session, round_no, senders, self.timeout)
        for m in got.values():
            self._record(m)
        return got

    def collect_ballots(self, session: int, count: int) -> list[ProtocolMessage]:
        return self.mailbox.collect_ballots(session, count, self.timeout)

    def close(self) -> None:
        pass


class InMemoryHub:
    """Shared post office for parties running as threads of one process."""

    def __init__(self, parties: int, timeout: float | None = None):
        self.parties = parties
        self.endpoints = {d: InMemoryTransport(d, parties, timeout, self)
                          for d in range(1, parties + 1)}

    def transport(self, party_id: int) -> "InMemoryTransport":
        return self.endpoints[party_id]

    def deliver(self, to: int, msg: ProtocolMessage) -> None:
        self.endpoints[to].mailbox.deliver(msg)

    def submit_ballot(self, to: int, session: int, payload: np.ndarray) -> bool:
        """Voter-side submission; the returned flag is the receipt acknowledgment."""
        msg = ProtocolMessage(session, 0, 0, MessageKind.BALLOT,
                              np.asarray(payload, dtype=np.uint64))
        self.endpoints[to].mailbox.deliver(msg)
        return True


class InMemoryTransport(PartyTransport):
    def __init__(self, party_id: int, parties: int, timeout: float | None, hub: InMemoryHub):
        super().__init__(party_id, parties, timeout)
        self._hub = hub

    def send(self, to: int, msg: ProtocolMessage) -> None:
        self.messages_sent += 1
        self.bytes_sent += HEADER.size + 8 * len(msg.payload)
        payload = np.asarray(msg.payload, dtype=np.uint64)
        payload.setflags(write=False)
        self._hub.deliver(to, ProtocolMessage(msg.session, msg.round, msg.sender,
                                              msg.kind, payload))


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def _dial(endpoint: tuple[str, int], timeout: float) -> socket.socket:
    """Connect to a listener that may not be up yet, retrying until ``timeout``
    runs out.  Selection rounds send small frames; TCP_NODELAY keeps them from
    waiting on the peer's delayed acknowledgements."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            sock = socket.create_connection(endpoint, timeout=5.0)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)
            continue
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock


def read_frame(sock: socket.socket) -> bytes | None:
    head = _recv_exact(sock, LEN_PREFIX.size)
    if head is None:
        return None
    (length,) = LEN_PREFIX.unpack(head)
    return _recv_exact(sock, length)


class SocketTransport(PartyTransport):
    """TCP backend: one listener per party, lazy outgoing connections, a reader
    thread per accepted connection feeding the shared mailbox."""

    def __init__(self, party_id: int, endpoints: dict[int, tuple[str, int]],
                 timeout: float | None = DEFAULT_SOCKET_TIMEOUT,
                 security: SecurityStub | None = None):
        super().__init__(party_id, len(endpoints), timeout)
        self.endpoints = endpoints
        self.security = security or SecurityStub()
        self._out: dict[int, socket.socket] = {}
        self._out_lock = threading.Lock()
        self._stop = threading.Event()
        host, port = endpoints[party_id]
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.bound_port = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # ACK frames
            threading.Thread(target=self._reader, args=(conn,), daemon=True).start()

    def _reader(self, conn: socket.socket) -> None:
        try:
            while True:
                frame = read_frame(conn)
                if frame is None:
                    return
                msg = ProtocolMessage.decode(self.security.unprotect(frame))
                if msg.kind == MessageKind.BALLOT:
                    self.mailbox.deliver(msg)
                    ack = ProtocolMessage(msg.session, 0, self.party_id,
                                          MessageKind.ACK, np.zeros(0, dtype=np.uint64))
                    conn.sendall(self.security.protect(ack.encode()))
                    continue
                try:
                    self.mailbox.deliver(msg)
                except DuplicateMessage:
                    return  # mailbox is poisoned; the awaiting party surfaces it
        except (OSError, TransportFailure) as err:
            self.mailbox.poison(TransportFailure(f"connection lost: {err}"))
        finally:
            conn.close()

    def _connect(self, to: int) -> socket.socket:
        host, port = self.endpoints[to]
        try:
            return _dial((host, port), self.timeout or DEFAULT_SOCKET_TIMEOUT)
        except OSError:
            raise TransportFailure(f"T{self.party_id} cannot reach T{to} at {host}:{port}")

    def send(self, to: int, msg: ProtocolMessage) -> None:
        frame = self.security.protect(msg.encode())
        with self._out_lock:
            sock = self._out.get(to)
            if sock is None:
                sock = self._connect(to)
                self._out[to] = sock
            try:
                sock.sendall(frame)
            except OSError as err:
                raise TransportFailure(f"send to T{to} failed: {err}")
        self.messages_sent += 1
        self.bytes_sent += len(frame)

    def close(self) -> None:
        self._stop.set()
        try:  # shutdown wakes the accept() blocked on another thread
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._accept_thread.join(timeout=5.0)
        with self._out_lock:
            for sock in self._out.values():
                try:
                    sock.close()
                except OSError:
                    pass
            self._out.clear()


def submit_ballot_socket(endpoint: tuple[str, int], session: int, payload: np.ndarray,
                         timeout: float = DEFAULT_SOCKET_TIMEOUT,
                         security: SecurityStub | None = None) -> bool:
    """Voter-side one-shot submission over TCP; waits for the tallier's ACK.
    A tallier that is not listening yet is retried until ``timeout``."""
    security = security or SecurityStub()
    msg = ProtocolMessage(session, 0, 0, MessageKind.BALLOT,
                          np.asarray(payload, dtype=np.uint64))
    with _dial(endpoint, timeout) as sock:
        sock.sendall(security.protect(msg.encode()))
        sock.settimeout(timeout)
        frame = read_frame(sock)
        if frame is None:
            raise TransportFailure("tallier closed the connection before acknowledging")
        ack = ProtocolMessage.decode(security.unprotect(frame))
        return ack.kind == MessageKind.ACK


@dataclass
class ChannelStats:
    rounds: int = 0
    messages: int = 0


class SessionChannel:
    """A party's view of one protocol session: lockstep round operations.

    Every party executes the same sequence of channel operations, so the
    implicit round numbering stays aligned without negotiation.  Each
    operation is one communication round (one barrier).
    """

    def __init__(self, transport: PartyTransport, session: int):
        self.transport = transport
        self.session = session
        self.party_id = transport.party_id
        self.parties = transport.parties
        self.stats = ChannelStats()

    def _next_round(self) -> int:
        r = self.stats.rounds
        self.stats.rounds += 1
        return r

    def _msg(self, round_no: int, payload: np.ndarray,
             kind: MessageKind = MessageKind.POINTWISE) -> ProtocolMessage:
        return ProtocolMessage(self.session, round_no, self.party_id, kind,
                               np.asarray(payload, dtype=np.uint64))

    def exchange_all(self, payload: np.ndarray) -> dict[int, np.ndarray]:
        """Everyone broadcasts; returns payloads from all parties including self."""
        r = self._next_round()
        self.transport.broadcast(self._msg(r, payload, MessageKind.BROADCAST))
        self.stats.messages += self.parties - 1
        got = self.transport.await_round(self.session, r, set(self.transport.peers()))
        out = {d: m.payload for d, m in got.items()}
        out[self.party_id] = np.asarray(payload, dtype=np.uint64)
        return out

    def gather(self, root: int, payload: np.ndarray) -> dict[int, np.ndarray] | None:
        """Everyone sends to root; only root returns the collected payloads."""
        r = self._next_round()
        if self.party_id == root:
            got = self.transport.await_round(self.session, r,
                                             set(self.transport.peers()))
            out = {d: m.payload for d, m in got.items()}
            out[root] = np.asarray(payload, dtype=np.uint64)
            return out
        self.transport.send(root, self._msg(r, payload))
        self.stats.messages += 1
        return None

    def publish(self, root: int, payload: np.ndarray | None) -> np.ndarray:
        """Root broadcasts a public value; everyone returns it."""
        r = self._next_round()
        if self.party_id == root:
            assert payload is not None
            self.transport.broadcast(self._msg(r, payload, MessageKind.BROADCAST))
            self.stats.messages += self.parties - 1
            return np.asarray(payload, dtype=np.uint64)
        got = self.transport.await_round(self.session, r, {root})
        return got[root].payload

    def scatter(self, payloads: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Personalized all-to-all; returns what the peers sent this party."""
        r = self._next_round()
        for d in self.transport.peers():
            self.transport.send(d, self._msg(r, payloads[d]))
            self.stats.messages += 1
        got = self.transport.await_round(self.session, r, set(self.transport.peers()))
        return {d: m.payload for d, m in got.items()}
