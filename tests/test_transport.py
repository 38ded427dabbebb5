import threading
import time

import numpy as np
import pytest

from ordervote.transport import (HEADER, LEN_PREFIX, MAX_FRAME, DuplicateMessage,
                                 InMemoryHub, MessageKind, ProtocolMessage,
                                 RoundTimeout, SessionChannel, SocketTransport,
                                 TransportFailure, read_frame, submit_ballot_socket)


def _free_endpoints(n):
    import socket
    socks, endpoints = [], []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        endpoints.append(("127.0.0.1", s.getsockname()[1]))
    for s in socks:
        s.close()
    return endpoints


def _socket_mesh(n, timeout=10.0):
    endpoints = dict(enumerate(_free_endpoints(n), start=1))
    return {d: SocketTransport(d, endpoints, timeout=timeout) for d in endpoints}


def test_frame_round_trip():
    payload = np.array([0, 1, (1 << 31) - 2], dtype=np.uint64)
    msg = ProtocolMessage(7, 3, 2, MessageKind.POINTWISE, payload)
    frame = msg.encode()
    # 4B length prefix + 19B header + 3*8B payload
    assert len(frame) == 4 + 19 + 24
    decoded = ProtocolMessage.decode(frame[4:])
    assert decoded.session == 7 and decoded.round == 3 and decoded.sender == 2
    assert decoded.kind == MessageKind.POINTWISE
    assert np.array_equal(decoded.payload, payload)


def test_decode_rejects_malformed_frames():
    good = ProtocolMessage(1, 2, 3, MessageKind.POINTWISE,
                           np.arange(3, dtype=np.uint64)).encode()[4:]
    unknown_kind = HEADER.pack(1, 2, 3, 9, 3) + good[HEADER.size:]
    count_too_large = HEADER.pack(1, 2, 3, 0, 4) + good[HEADER.size:]
    for frame in (good[:HEADER.size - 1], unknown_kind, count_too_large, good + b"\0"):
        with pytest.raises(TransportFailure):
            ProtocolMessage.decode(frame)


def test_read_frame_refuses_a_frame_above_the_cap():
    import socket
    reader, writer = socket.socketpair()
    with reader:
        writer.sendall(LEN_PREFIX.pack(MAX_FRAME + 1))
        writer.close()  # a reader that tried to fill the frame would see EOF
        with pytest.raises(TransportFailure, match="cap"):
            read_frame(reader)


@pytest.mark.parametrize("second", ["other-sender", "garbage"])
def test_bound_connection_that_misbehaves_poisons_the_mailbox(second):
    """A connection is bound to the sender of its first tallier frame; a frame
    from another sender, or one that does not parse, fails the awaiting party
    at once with an error naming the bound sender (not a round timeout)."""
    import socket
    endpoints = dict(enumerate(_free_endpoints(3), start=1))
    node = SocketTransport(1, endpoints, timeout=3.0)
    frames = [ProtocolMessage(1, 0, 2, MessageKind.POINTWISE,
                              np.zeros(1, dtype=np.uint64)).encode()]
    frames.append(ProtocolMessage(1, 0, 3, MessageKind.POINTWISE,
                                  np.zeros(1, dtype=np.uint64)).encode()
                  if second == "other-sender" else LEN_PREFIX.pack(3) + b"xyz")
    try:
        with socket.create_connection(endpoints[1]) as sock:
            sock.sendall(b"".join(frames))
            with pytest.raises(TransportFailure) as err:
                node.await_round(1, 1, {2})
        assert not isinstance(err.value, RoundTimeout)
        assert "T2" in str(err.value)
    finally:
        node.close()


def test_voter_garbage_neither_poisons_nor_blocks_a_good_ballot():
    """A voter's unparsable frame, or a ballot without a voter id, closes that
    connection unacknowledged; the mailbox stays usable for the next ballot."""
    import socket
    endpoint = _free_endpoints(1)[0]
    node = SocketTransport(1, {1: endpoint}, timeout=5.0)
    empty_ballot = ProtocolMessage(5, 0, 0, MessageKind.BALLOT, np.zeros(0, dtype=np.uint64))
    try:
        for garbage in (LEN_PREFIX.pack(3) + b"xyz", empty_ballot.encode()):
            with socket.create_connection(endpoint) as sock:
                sock.sendall(garbage)
                sock.settimeout(5.0)
                assert sock.recv(1) == b""  # closed, no ACK
        assert submit_ballot_socket(endpoint, 5, np.array([3], dtype=np.uint64), timeout=5.0)
        assert node.collect_ballots(5, count=1)[0].payload.tolist() == [3]
        assert node.mailbox._poison is None
    finally:
        node.close()


def test_inmemory_broadcast_same_round():
    hub = InMemoryHub(3)
    channels = {d: SessionChannel(hub.transport(d), 1) for d in (1, 2, 3)}
    results = {}

    def run(d):
        results[d] = channels[d].exchange_all(np.array([d], dtype=np.uint64))

    threads = [threading.Thread(target=run, args=(d,)) for d in (1, 2, 3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for d in (1, 2, 3):
        assert sorted(results[d]) == [1, 2, 3]
        assert all(results[d][s][0] == s for s in (1, 2, 3))
        assert channels[d].stats.rounds == 1


def test_missing_message_names_absent_party():
    hub = InMemoryHub(3, timeout=0.2)
    t1 = hub.transport(1)
    # T2 delivers for round 0, T3 never does
    hub.deliver(1, ProtocolMessage(1, 0, 2, MessageKind.POINTWISE,
                                   np.array([5], dtype=np.uint64)))
    with pytest.raises(RoundTimeout) as err:
        t1.await_round(1, 0, {2, 3})
    assert "T3" in str(err.value)
    assert err.value.missing == [3]


def test_duplicate_message_rejected():
    hub = InMemoryHub(2)
    msg = ProtocolMessage(1, 0, 2, MessageKind.POINTWISE, np.array([5], dtype=np.uint64))
    hub.deliver(1, msg)
    with pytest.raises(DuplicateMessage):
        hub.deliver(1, msg)


def test_session_isolation():
    hub = InMemoryHub(2)
    a1 = SessionChannel(hub.transport(1), session=10)
    a2 = SessionChannel(hub.transport(2), session=10)
    b1 = SessionChannel(hub.transport(1), session=20)
    b2 = SessionChannel(hub.transport(2), session=20)
    results = {}

    def run(name, chan, value):
        results[name] = chan.exchange_all(np.array([value], dtype=np.uint64))

    threads = [threading.Thread(target=run, args=args) for args in
               [("a1", a1, 100), ("a2", a2, 200), ("b1", b1, 300), ("b2", b2, 400)]]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results["a1"][2][0] == 200 and results["b1"][2][0] == 400
    assert results["a2"][1][0] == 100 and results["b2"][1][0] == 300


def test_socket_echo_large_payload():
    nodes = _socket_mesh(2, timeout=30.0)
    try:
        payload = np.random.default_rng(0).integers(
            0, (1 << 31) - 1, size=1_000_000, dtype=np.uint64)
        out = {}

        def party1():
            ch = SessionChannel(nodes[1], 1)
            got = ch.gather(1, np.zeros(0, dtype=np.uint64))
            out["got"] = got[2]
            ch.publish(1, got[2])  # echo back

        def party2():
            ch = SessionChannel(nodes[2], 1)
            ch.gather(1, payload)
            out["echo"] = ch.publish(1, None)

        threads = [threading.Thread(target=party1), threading.Thread(target=party2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert np.array_equal(out["got"], payload)
        assert np.array_equal(out["echo"], payload)  # bit-exact round trip
    finally:
        for n in nodes.values():
            n.close()


def test_read_frame_reassembles_multi_megabyte_frame_over_loopback():
    """A 4 MB frame written in 64 KB pieces over 127.0.0.1 arrives whole and
    bit-exact; a connection that closes mid-frame reads as None."""
    import socket
    payload = np.random.default_rng(1).integers(0, (1 << 31) - 1, size=500_000,
                                                dtype=np.uint64)
    frame = ProtocolMessage(1, 2, 3, MessageKind.POINTWISE, payload).encode()
    listener = socket.create_server(("127.0.0.1", 0))
    sender = socket.create_connection(listener.getsockname())
    receiver, _ = listener.accept()
    listener.close()

    def write():
        for start in range(0, len(frame), 1 << 16):
            sender.sendall(frame[start:start + (1 << 16)])
        sender.sendall(frame[:1000])  # the start of a frame that never ends
        sender.close()

    writer = threading.Thread(target=write)
    writer.start()
    try:
        got = read_frame(receiver)
        assert len(got) == len(frame) - 4 > 4_000_000
        msg = ProtocolMessage.decode(got)
        assert (msg.session, msg.round, msg.sender) == (1, 2, 3)
        assert np.array_equal(msg.payload, payload)
        assert read_frame(receiver) is None
    finally:
        writer.join()
        receiver.close()


def test_socket_ballot_submission_with_ack():
    nodes = _socket_mesh(3)
    try:
        endpoint = nodes[2].endpoints[2]
        payload = np.array([9, 8, 7], dtype=np.uint64)
        assert submit_ballot_socket(endpoint, session=4, payload=payload)
        got = nodes[2].collect_ballots(4, count=1)
        assert np.array_equal(got[0].payload, payload)
        assert got[0].kind == MessageKind.BALLOT
    finally:
        for n in nodes.values():
            n.close()


def test_socket_unreachable_peer_fails():
    endpoints = {1: ("127.0.0.1", 1), 2: ("127.0.0.1", 2)}  # nothing listens there
    node = SocketTransport(1, {1: _free_endpoints(1)[0], 2: endpoints[2]}, timeout=0.3)
    try:
        with pytest.raises(TransportFailure):
            node.send(2, ProtocolMessage(1, 0, 1, MessageKind.POINTWISE,
                                         np.zeros(1, dtype=np.uint64)))
    finally:
        node.close()


def test_transcript_determinism():
    def run_once():
        hub = InMemoryHub(3)
        transcripts = {d: [] for d in (1, 2, 3)}
        for d in (1, 2, 3):
            hub.transport(d).recorder = transcripts[d]
        channels = {d: SessionChannel(hub.transport(d), 1) for d in (1, 2, 3)}

        def run(d):
            rng = np.random.default_rng(d)
            for _ in range(5):
                channels[d].exchange_all(rng.integers(0, 100, 4, dtype=np.uint64))

        threads = [threading.Thread(target=run, args=(d,)) for d in (1, 2, 3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return {d: sorted(transcripts[d]) for d in transcripts}

    assert run_once() == run_once()


def test_socket_connections_set_tcp_nodelay():
    import socket
    nodes = _socket_mesh(2)
    try:
        nodes[1].send(2, ProtocolMessage(1, 0, 1, MessageKind.POINTWISE,
                                         np.zeros(1, dtype=np.uint64)))
        got = nodes[2].await_round(1, 0, {1})
        assert got[1].payload.tolist() == [0]
        assert nodes[1]._out[2].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    finally:
        for n in nodes.values():
            n.close()


def test_socket_close_releases_port_and_accept_thread():
    endpoint = _free_endpoints(1)[0]
    for _ in range(3):  # each transport must bind the port the last one freed
        node = SocketTransport(1, {1: endpoint}, timeout=1.0)
        node.close()
        assert not node._accept_thread.is_alive()


def test_ballot_submission_waits_for_a_late_listener():
    """A voter may dial before the tallier listens; the refused connection is
    retried instead of losing the ballot."""
    endpoint = _free_endpoints(1)[0]
    out = {}
    voter = threading.Thread(target=lambda: out.setdefault(
        "ack", submit_ballot_socket(endpoint, 5, np.array([3], dtype=np.uint64), timeout=10.0)))
    voter.start()
    time.sleep(0.3)
    node = SocketTransport(1, {1: endpoint}, timeout=10.0)
    try:
        voter.join(timeout=10.0)
        assert not voter.is_alive() and out["ack"]
        assert node.collect_ballots(5, count=1)[0].payload.tolist() == [3]
    finally:
        node.close()
