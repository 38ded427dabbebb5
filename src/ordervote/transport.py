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
field elements).  A frame longer than ``MAX_FRAME`` bytes is refused before
anything is allocated for it, and no other layer knows the cap: a round's
payload from one tallier to another crosses as MORE frames of the most words a
frame holds, then a POINTWISE frame with the rest (or all of it), which the
mailbox joins.  BALLOT carries a voter's submission and ACK acknowledges it.

Each accepted connection is bound to the sender of its first tallier frame;
a later frame from another sender, or a frame that does not parse, poisons
the mailbox with a ``TransportFailure`` that names the bound sender.  A
connection that has sent only ballots, or nothing that parses, is closed
without poisoning, so a voter cannot abort the tally.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from dataclasses import dataclass
from enum import IntEnum
from typing import BinaryIO

import numpy as np

HEADER = struct.Struct("<QIHBI")  # session, round, sender, kind, count
LEN_PREFIX = struct.Struct("<I")
MAX_FRAME = 256 << 20  # bytes after the length prefix; wider payloads cross as several frames

DEFAULT_SOCKET_TIMEOUT = 30.0


class TransportFailure(Exception):
    pass


class RoundTimeout(TransportFailure):
    def __init__(self, round_no: int, missing: list[int], phase: str | None = None):
        self.round_no = round_no
        self.missing = missing
        self.phase = phase
        names = ", ".join(f"T{m}" for m in missing)
        where = f"{phase} round {round_no}" if phase else f"round {round_no}"
        super().__init__(f"{where} timed out waiting for {names}")


class DuplicateMessage(TransportFailure):
    pass


class MessageKind(IntEnum):
    POINTWISE = 0
    MORE = 1  # a part of a payload; the POINTWISE frame of its key ends it
    BALLOT = 2
    ACK = 3


_KINDS = frozenset(MessageKind)


@dataclass
class ProtocolMessage:
    session: int
    round: int
    sender: int
    kind: MessageKind
    payload: np.ndarray  # uint64 field elements, each < p

    def frame_parts(self) -> tuple[bytes, memoryview]:
        """The frame as its length prefix and header, then a view of the
        payload's bytes (no copy when the payload is contiguous uint64)."""
        body = memoryview(np.ascontiguousarray(self.payload, dtype="<u8")).cast("B")
        head = HEADER.pack(self.session, self.round, self.sender,
                           int(self.kind), len(self.payload))
        return LEN_PREFIX.pack(len(head) + len(body)) + head, body

    def encode(self) -> bytes:
        return b"".join(self.frame_parts())

    @staticmethod
    def decode(frame: bytes) -> "ProtocolMessage":
        if len(frame) < HEADER.size:
            raise TransportFailure(f"frame of {len(frame)} bytes has no full header")
        session, rnd, sender, kind, count = HEADER.unpack_from(frame, 0)
        if kind not in _KINDS:
            raise TransportFailure(f"unknown message kind {kind}")
        if len(frame) != HEADER.size + 8 * count:
            raise TransportFailure("payload length does not match declared count")
        payload = np.frombuffer(frame, dtype="<u8", count=count, offset=HEADER.size)
        return ProtocolMessage(session, rnd, sender, MessageKind(kind), payload)


class Mailbox:
    """Thread-safe store of incoming messages keyed by (session, round, sender).

    Rounds are awaited in order, so it remembers per (session, sender) the
    last round ``await_round`` handed out: a frame for that round or an
    earlier one is a second message for its key, whether or not the first
    is still stored, and poisons the mailbox (``DuplicateMessage``)."""

    def __init__(self, owner: int):
        self.owner = owner
        self._cond = threading.Condition()
        self._messages: dict[tuple[int, int, int], ProtocolMessage] = {}
        self._parts: dict[tuple[int, int, int], list[np.ndarray]] = {}  # MORE frames
        self._ballots: dict[int, list[ProtocolMessage]] = {}
        self._poison: Exception | None = None
        # the keys ``await_round`` still misses; its waiter is woken only once
        # they are all in, not by each message of the round
        self._missing: set[tuple[int, int, int]] = set()
        self._handed: dict[tuple[int, int], int] = {}  # (session, sender) -> last round out

    def deliver(self, msg: ProtocolMessage) -> None:
        with self._cond:
            if msg.kind == MessageKind.BALLOT:
                self._ballots.setdefault(msg.session, []).append(msg)
                self._cond.notify_all()
                return
            key = (msg.session, msg.round, msg.sender)
            if key in self._messages or \
                    msg.round <= self._handed.get((msg.session, msg.sender), -1):
                err = DuplicateMessage(
                    f"T{self.owner} got a second message from T{msg.sender} "
                    f"for session {msg.session} round {msg.round}")
                self._poison = err
                self._cond.notify_all()
                raise err
            if msg.kind == MessageKind.MORE:
                self._parts.setdefault(key, []).append(msg.payload)
                return
            if key in self._parts:
                msg.payload = np.concatenate(self._parts.pop(key) + [msg.payload])
            self._messages[key] = msg
            if key in self._missing:
                self._missing.discard(key)
                if not self._missing:
                    self._cond.notify_all()

    def poison(self, err: Exception) -> None:
        with self._cond:
            self._poison = err
            self._cond.notify_all()

    def await_round(self, session: int, round_no: int, senders: set[int],
                    timeout: float | None) -> dict[int, ProtocolMessage]:
        deadline = None if timeout is None else time.monotonic() + timeout
        keys = [(session, round_no, s) for s in senders]
        with self._cond:
            self._missing = {k for k in keys if k not in self._messages}
            try:
                while True:
                    if self._poison is not None:
                        raise self._poison
                    if not self._missing:
                        for s in senders:
                            self._handed[session, s] = max(round_no,
                                                           self._handed.get((session, s), -1))
                        return {k[2]: self._messages.pop(k) for k in keys}
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise RoundTimeout(round_no, sorted(k[2] for k in self._missing))
                    self._cond.wait(remaining)
            finally:
                self._missing = set()

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
    """One party's endpoint: send to peers, await rounds, take ballots."""

    def __init__(self, party_id: int, parties: int, timeout: float | None):
        self.party_id = party_id
        self.parties = parties
        self.timeout = timeout
        self.mailbox = Mailbox(party_id)
        self.bytes_sent = 0  # whole frames, length prefix included, on either backend

    def peers(self) -> list[int]:
        return [d for d in range(1, self.parties + 1) if d != self.party_id]

    def send(self, to: int, msg: ProtocolMessage) -> None:
        raise NotImplementedError

    def await_round(self, session: int, round_no: int,
                    senders: set[int]) -> dict[int, ProtocolMessage]:
        return self.mailbox.await_round(session, round_no, senders, self.timeout)

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


class InMemoryTransport(PartyTransport):
    def __init__(self, party_id: int, parties: int, timeout: float | None, hub: InMemoryHub):
        super().__init__(party_id, parties, timeout)
        self._hub = hub

    def send(self, to: int, msg: ProtocolMessage) -> None:
        self.bytes_sent += LEN_PREFIX.size + HEADER.size + 8 * len(msg.payload)
        payload = np.asarray(msg.payload, dtype=np.uint64)
        payload.setflags(write=False)
        self._hub.deliver(to, ProtocolMessage(msg.session, msg.round, msg.sender,
                                              msg.kind, payload))


def _read_exact(stream: BinaryIO, n: int) -> bytearray | None:
    """Read exactly n bytes into one preallocated buffer; None on EOF."""
    buf = bytearray(n)
    return buf if stream.readinto(buf) == n else None


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


def send_frame(sock: socket.socket, msg: ProtocolMessage) -> int:
    """Write one frame without joining header and payload into a new buffer;
    returns the bytes written."""
    head, body = msg.frame_parts()
    sent = sock.sendmsg([head, body])
    if sent < len(head):
        sock.sendall(head[sent:])
        sent = len(head)
    if sent < len(head) + len(body):
        sock.sendall(body[sent - len(head):])
    return len(head) + len(body)


def read_frame(stream: BinaryIO) -> bytearray | None:
    """The next frame after its length prefix from a buffered stream such as
    ``sock.makefile("rb")``, or None on EOF.  The buffer takes a small frame
    in one receive call, not one for the prefix and one for the rest."""
    head = _read_exact(stream, LEN_PREFIX.size)
    if head is None:
        return None
    (length,) = LEN_PREFIX.unpack(head)
    if length > MAX_FRAME:
        raise TransportFailure(f"frame of {length} bytes exceeds the {MAX_FRAME}-byte cap")
    return _read_exact(stream, length)


class SocketTransport(PartyTransport):
    """TCP backend: one listener per party, lazy outgoing connections, a reader
    thread per accepted connection feeding the shared mailbox."""

    def __init__(self, party_id: int, endpoints: dict[int, tuple[str, int]],
                 timeout: float | None = DEFAULT_SOCKET_TIMEOUT):
        super().__init__(party_id, len(endpoints), timeout)
        self.endpoints = endpoints
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
        bound = None  # the sender of this connection's first tallier frame
        stream = conn.makefile("rb")
        try:
            while True:
                frame = read_frame(stream)
                if frame is None:
                    return
                msg = ProtocolMessage.decode(frame)
                if msg.kind == MessageKind.BALLOT:
                    if not msg.payload.size:
                        raise TransportFailure("ballot without a voter id")
                    self.mailbox.deliver(msg)
                    ack = ProtocolMessage(msg.session, 0, self.party_id,
                                          MessageKind.ACK, np.zeros(0, dtype=np.uint64))
                    send_frame(conn, ack)
                    continue
                if bound is None:
                    bound = msg.sender
                elif msg.sender != bound:
                    raise TransportFailure(f"a frame claims sender T{msg.sender}")
                try:
                    self.mailbox.deliver(msg)
                except DuplicateMessage:
                    return  # mailbox is poisoned; the awaiting party surfaces it
        except (OSError, TransportFailure) as err:
            if bound is not None:  # a voter's connection just closes
                self.mailbox.poison(TransportFailure(f"connection of T{bound} failed: {err}"))
        finally:
            stream.close()  # conn.close() alone leaves the descriptor to the stream
            conn.close()

    def _connect(self, to: int) -> socket.socket:
        host, port = self.endpoints[to]
        try:
            return _dial((host, port), self.timeout or DEFAULT_SOCKET_TIMEOUT)
        except OSError:
            raise TransportFailure(f"T{self.party_id} cannot reach T{to} at {host}:{port}")

    def send(self, to: int, msg: ProtocolMessage) -> None:
        with self._out_lock:
            sock = self._out.get(to)
            if sock is None:
                sock = self._connect(to)
                self._out[to] = sock
            try:
                self.bytes_sent += send_frame(sock, msg)
            except OSError as err:
                raise TransportFailure(f"send to T{to} failed: {err}")

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
                         timeout: float = DEFAULT_SOCKET_TIMEOUT) -> bool:
    """Voter-side one-shot submission over TCP; waits for the tallier's ACK.
    A tallier that is not listening yet is retried until ``timeout``."""
    msg = ProtocolMessage(session, 0, 0, MessageKind.BALLOT,
                          np.asarray(payload, dtype=np.uint64))
    with _dial(endpoint, timeout) as sock:
        send_frame(sock, msg)
        sock.settimeout(timeout)
        with sock.makefile("rb") as stream:
            frame = read_frame(stream)
        if frame is None:
            raise TransportFailure("tallier closed the connection before acknowledging")
        ack = ProtocolMessage.decode(frame)
        return ack.kind == MessageKind.ACK


@dataclass
class ChannelStats:
    rounds: int = 0
    messages: int = 0
    wait_s: float = 0.0  # wall seconds blocked in ``await_round``


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
        self.stats = ChannelStats()

    def _round(self, sends: dict[int, np.ndarray],
               senders: set[int]) -> dict[int, np.ndarray]:
        """One communication round: number it, send each payload to its party,
        count the messages, and wait for the payloads of ``senders``."""
        r = self.stats.rounds
        self.stats.rounds += 1
        width = (MAX_FRAME - HEADER.size) // 8
        for to, payload in sends.items():
            last = max(len(payload) - 1, 0) // width * width  # the last frame's first word
            for start in range(0, last + 1, width):
                self.transport.send(to, ProtocolMessage(
                    self.session, r, self.party_id,
                    MessageKind.MORE if start < last else MessageKind.POINTWISE,
                    payload[start:start + width] if last else payload))
        self.stats.messages += len(sends)
        if not senders:
            return {}
        start = time.perf_counter()
        got = self.transport.await_round(self.session, r, senders)
        self.stats.wait_s += time.perf_counter() - start
        return {d: m.payload for d, m in got.items()}

    def exchange_all(self, payload: np.ndarray) -> dict[int, np.ndarray]:
        """Everyone broadcasts; returns payloads from all parties including self."""
        payload = np.asarray(payload, dtype=np.uint64)
        peers = self.transport.peers()
        out = self._round({d: payload for d in peers}, set(peers))
        out[self.party_id] = payload
        return out

    def scatter(self, payloads: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Personalized all-to-all; returns what the peers sent this party."""
        peers = self.transport.peers()
        return self._round({d: np.asarray(payloads[d], dtype=np.uint64) for d in peers},
                           set(peers))
