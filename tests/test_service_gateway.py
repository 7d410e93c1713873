"""Tests for the live NDJSON gateway (``repro serve``).

Every test spins a real :class:`ServiceGateway` on a unix socket inside
``tmp_path`` and talks the wire protocol to it — the same bytes a remote
client would send.  The satellite concern rides here too: acceptance
diagnostics must round-trip to the originating client through the gateway
path exactly as they do through the simulator's reconnect path.
"""

import asyncio
import json
import socket
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NonNegativeOutputs, TwoTierSystem
from repro.core.tentative import TentativeStatus
from repro.replication import SystemSpec
from repro.service import GatewayConfig, ServiceGateway
from repro.service.gateway import _Connection
from repro.service.protocol import MAX_LINE_BYTES, encode_line
from repro.txn.ops import IncrementOp


class Client:
    """A minimal NDJSON client: one connection, frame in / frame out."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, path):
        reader, writer = await asyncio.open_unix_connection(path)
        client = cls(reader, writer)
        client.welcome = await client.recv()
        return client

    async def send(self, **frame):
        self.writer.write(json.dumps(frame).encode() + b"\n")
        await self.writer.drain()

    async def recv(self):
        line = await self.reader.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    async def txn(self, ops, acceptance=None, request_id=None, label=""):
        frame = {"type": "txn", "ops": ops, "label": label}
        if acceptance is not None:
            frame["acceptance"] = acceptance
        if request_id is not None:
            frame["id"] = request_id
        await self.send(**frame)
        return await self.recv()

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


def with_gateway(config=None):
    """Decorator-free harness: run ``scenario(gateway, path)`` to completion."""
    def runner(scenario, tmp_path):
        async def main():
            path = str(tmp_path / "gw.sock")
            gateway = ServiceGateway(config or GatewayConfig(
                db_size=50, initial_value=100
            ))
            await gateway.start(unix_path=path)
            server = asyncio.create_task(gateway.run())
            try:
                return await scenario(gateway, path)
            finally:
                gateway.request_stop()
                await server

        return asyncio.run(main())
    return runner


def talk(path, payload):
    """Blocking client: send ``payload``, half-close, read to the end.

    A blocking socket, because a unix socket hands over what was queued
    before it reports the reset that a server closing on unread input
    causes; an asyncio reader can lose the queued frames to the reset.
    """
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(path)
    try:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
    except OSError:
        pass  # the server has already answered and left
    received = b""
    try:
        while chunk := sock.recv(1 << 16):
            received += chunk
    except ConnectionError:
        pass
    sock.close()
    return [json.loads(line) for line in received.splitlines()]


class TestTransactions:
    def test_accepted_increment_commits_at_base(self, tmp_path):
        async def scenario(gateway, path):
            client = await Client.connect(path)
            reply = await client.txn([["inc", 0, 7]], request_id=1)
            await client.close()
            return gateway, reply

        gateway, reply = with_gateway()(scenario, tmp_path)
        assert reply["type"] == "result"
        assert reply["id"] == 1
        assert reply["status"] == "accepted"
        assert reply["latency_ms"] >= 0
        assert gateway.system.nodes[0].store.value(0) == 107

    def test_notice_travelled_base_to_mobile(self, tmp_path):
        """Satellite: the reply's acknowledgement comes from the real
        tentative-notice message, not a shortcut — ``noticed`` proves the
        base → mobile delivery happened before the reply was written."""
        async def scenario(gateway, path):
            client = await Client.connect(path)
            reply = await client.txn([["inc", 3, 1]])
            await client.close()
            return reply

        reply = with_gateway()(scenario, tmp_path)
        assert reply["noticed"] is True

    def test_rejection_diagnostic_round_trips_to_the_client(self, tmp_path):
        """Satellite: acceptance.py diagnostics reach the originating
        mobile through the gateway path."""
        async def scenario(gateway, path):
            client = await Client.connect(path)
            # 100 - 150 goes negative: NonNegativeOutputs must reject and
            # explain itself all the way back over the socket
            reply = await client.txn([["inc", 2, -150]],
                                     acceptance="non-negative")
            await client.close()
            return gateway, reply

        gateway, reply = with_gateway()(scenario, tmp_path)
        assert reply["status"] == "rejected"
        assert reply["noticed"] is True
        assert "diagnostic" in reply and reply["diagnostic"]
        # the base state is untouched by the rejected transaction
        assert gateway.system.nodes[0].store.value(2) == 100
        assert gateway.rejected == 1

    def test_scope_violation_is_an_error_reply(self, tmp_path):
        async def scenario(gateway, path):
            client = await Client.connect(path)
            reply = await client.txn([["inc", 9999, 1]], request_id=5)
            await client.close()
            return reply

        reply = with_gateway()(scenario, tmp_path)
        assert reply["type"] == "error"
        assert reply["id"] == 5

    def test_malformed_frames_get_protocol_errors(self, tmp_path):
        async def scenario(gateway, path):
            client = await Client.connect(path)
            replies = []
            await client.send(type="txn", ops=[["frob", 1, 2]])
            replies.append(await client.recv())
            await client.send(type="txn", ops=[["inc", 1]])  # bad arity
            replies.append(await client.recv())
            await client.send(type="nonsense")
            replies.append(await client.recv())
            self_line = b"this is not json\n"
            client.writer.write(self_line)
            await client.writer.drain()
            replies.append(await client.recv())
            await client.close()
            return replies

        replies = with_gateway()(scenario, tmp_path)
        assert all(reply["type"] == "error" for reply in replies)

    def test_ping_and_stats(self, tmp_path):
        async def scenario(gateway, path):
            client = await Client.connect(path)
            await client.txn([["inc", 0, 1]])
            await client.send(type="ping", id="p1")
            pong = await client.recv()
            await client.send(type="stats")
            stats = await client.recv()
            await client.close()
            return pong, stats

        pong, stats = with_gateway()(scenario, tmp_path)
        assert pong == {"type": "pong", "id": "p1"}
        assert stats["type"] == "stats"
        assert stats["served"] == 1
        assert stats["accepted"] == 1
        assert stats["latency_ms"]["count"] == 1

    def test_welcome_frame_describes_the_service(self, tmp_path):
        async def scenario(gateway, path):
            client = await Client.connect(path)
            await client.close()
            return client.welcome

        welcome = with_gateway()(scenario, tmp_path)
        assert welcome["type"] == "welcome"
        assert welcome["protocol"] == 1
        assert welcome["db_size"] == 50
        assert welcome["mobile"] in (1, 2, 3, 4)


class TestConcurrency:
    def test_many_connections_sum_correctly(self, tmp_path):
        """Concurrent clients on shared objects: the drained store sum
        must equal the initial mass plus every accepted delta."""
        async def scenario(gateway, path):
            async def one_client(k):
                client = await Client.connect(path)
                total = 0
                for i in range(10):
                    reply = await client.txn([["inc", (k + i) % 50, 1]])
                    if reply.get("status") == "accepted":
                        total += 1
                await client.close()
                return total

            totals = await asyncio.gather(*(one_client(k) for k in range(8)))
            drain_client = await Client.connect(path)
            await drain_client.send(type="drain")
            drained = await drain_client.recv()
            await drain_client.close()
            return sum(totals), drained

        accepted, drained = with_gateway()(scenario, tmp_path)
        assert accepted == 80
        assert drained["type"] == "drained"
        assert drained["store_sum"] == 50 * 100 + accepted
        assert drained["base_divergence"] == 0
        assert drained["wal_quiescent"] is True
        assert drained["inflight"] == 0

    def test_backpressure_cap_of_one_still_serves_all(self, tmp_path):
        config = GatewayConfig(db_size=50, initial_value=0, max_inflight=1)

        async def scenario(gateway, path):
            async def one_client():
                client = await Client.connect(path)
                statuses = [
                    (await client.txn([["inc", 0, 1]]))["status"]
                    for _ in range(5)
                ]
                await client.close()
                return statuses

            results = await asyncio.gather(*(one_client() for _ in range(4)))
            return gateway, results

        gateway, results = with_gateway(config)(scenario, tmp_path)
        assert all(s == "accepted" for batch in results for s in batch)
        assert gateway.system.nodes[0].store.value(0) == 20

    def test_client_that_stops_reading_stalls_only_itself(self, tmp_path):
        """A flood that never reads its replies stops its own connection's
        reader once its reply buffer is full; the global slots it took are
        freed as its transactions finish, so everyone else is served."""
        pad = "x" * 4000  # echoed in every reply: buffers fill in ~500 frames

        async def scenario(gateway, path):
            slow = await Client.connect(path)
            sent = 0
            while sent < 20_000:
                for _ in range(100):
                    slow.writer.write(json.dumps({
                        "type": "txn", "id": [sent, pad], "ops": [["inc", 0, 1]],
                    }).encode() + b"\n")
                    sent += 1
                try:
                    await asyncio.wait_for(slow.writer.drain(), 0.25)
                except asyncio.TimeoutError:
                    break  # the server stopped reading this connection
            other = await Client.connect(path)
            reply = await asyncio.wait_for(other.txn([["inc", 1, 1]]), 1.0)
            await other.send(type="stats")
            stats = await other.recv()
            await other.close()
            # the slow client finally reads: nothing it sent went unanswered
            answered = set()
            for _ in range(sent):
                answer = await asyncio.wait_for(slow.recv(), 5.0)
                assert answer["type"] == "result"
                answered.add(answer["id"][0])
            await slow.close()
            return sent, answered, reply, stats

        sent, answered, reply, stats = with_gateway()(scenario, tmp_path)
        assert sent < 20_000, "the flood never felt backpressure"
        assert reply["status"] == "accepted"
        assert stats["inflight"] <= 16  # the cap is 256
        assert answered == set(range(sent))

    def test_unwritable_reply_is_counted_and_contained(
        self, tmp_path, monkeypatch
    ):
        """A reply is queued inside the engine's dispatch and written when
        its batch ends: a write that raises must cost one error, not the
        engine, the connection's reader or the slot."""
        transport_class = asyncio.selector_events._SelectorSocketTransport
        real_write = transport_class.write
        failures = []

        def write(self, data):
            if b'"type":"result"' in data and not failures:
                failures.append(data)
                raise OSError("transport fell over")
            return real_write(self, data)

        monkeypatch.setattr(transport_class, "write", write)

        async def scenario(gateway, path):
            unlucky = await Client.connect(path)
            await unlucky.send(type="txn", ops=[["inc", 0, 1]])
            other = await Client.connect(path)
            reply = await asyncio.wait_for(other.txn([["inc", 0, 1]]), 1.0)
            await unlucky.close()
            await other.close()
            return gateway, reply

        gateway, reply = with_gateway()(scenario, tmp_path)
        assert len(failures) == 1
        assert reply["status"] == "accepted"
        assert gateway.errors == 1
        assert gateway.served == 2  # both transactions committed
        assert gateway._inflight == 0
        assert gateway.system.nodes[0].store.value(0) == 102

    def test_connect_and_leave_is_a_disconnect_not_an_exception(self, tmp_path):
        """A readiness probe connects and closes before the welcome is
        flushed; that is a visit, not an unhandled exception."""
        async def scenario(gateway, path):
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            for _ in range(5):
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                probe.connect(path)
                probe.close()
            for _ in range(200):
                if gateway.connections_total == 5 and not gateway._connections:
                    break
                await asyncio.sleep(0.005)
            return gateway, unhandled

        gateway, unhandled = with_gateway()(scenario, tmp_path)
        assert gateway.connections_total == 5
        assert gateway._inflight == 0 and not gateway._connections
        assert unhandled == []

    def test_oversized_frame_gets_an_error_reply_then_a_close(self, tmp_path):
        """A frame past ``MAX_LINE_BYTES`` used to end in a bare connection
        reset: no reply, ``errors`` still 0.  A blocking socket, because a
        unix socket hands over what was queued before it reports the reset
        that closing on the unread tail of the frame causes."""
        payload = (
            b'{"type":"txn","id":"before","ops":[["inc",0,1]]}\n'
            b'{"type":"ping","pad":"' + b"x" * (2 * MAX_LINE_BYTES) + b'"}\n'
        )

        async def scenario(gateway, path):
            frames = await asyncio.get_running_loop().run_in_executor(
                None, talk, path, payload
            )
            other = await Client.connect(path)
            await other.send(type="ping", id=1)
            pong = await asyncio.wait_for(other.recv(), 1.0)
            await other.close()
            return gateway, frames, pong

        gateway, frames, pong = with_gateway()(scenario, tmp_path)
        assert [f["type"] for f in frames] == ["welcome", "result", "error"]
        assert frames[1]["id"] == "before"  # answered, not dropped
        assert frames[2]["why"] == f"frame exceeds {MAX_LINE_BYTES} bytes"
        assert gateway.errors == 1
        assert gateway.served == 1 and gateway._inflight == 0
        assert pong == {"type": "pong", "id": 1}  # and the server lives on

    def test_half_written_frame_is_a_protocol_error(self, tmp_path):
        """EOF before the newline: the fragment is answered as malformed,
        nothing of it is executed, and the connection ends cleanly."""
        async def scenario(gateway, path):
            client = await Client.connect(path)
            client.writer.write(b'{"type":"txn","id":7,"ops":[["inc",0,')
            client.writer.write_eof()
            reply = await asyncio.wait_for(client.recv(), 1.0)
            rest = await asyncio.wait_for(client.reader.read(), 1.0)
            await client.close()
            return gateway, reply, rest

        gateway, reply, rest = with_gateway()(scenario, tmp_path)
        assert reply["type"] == "error" and "JSON" in reply["why"]
        assert rest == b""  # the server closed its side too
        assert gateway.errors == 1
        assert gateway.served == 0 and gateway._inflight == 0
        assert gateway.system.nodes[0].store.peek(0) == 100

    def test_disconnect_with_a_transaction_in_flight(self, tmp_path):
        """The peer leaves before its reply exists: the transaction still
        commits and is counted, its slot comes back, nothing is raised."""
        config = GatewayConfig(
            db_size=50, initial_value=100, message_delay=0.02, max_inflight=1
        )

        async def scenario(gateway, path):
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            leaver = await Client.connect(path)
            await leaver.send(type="txn", ops=[["inc", 0, 5]])
            for _ in range(200):
                if gateway._inflight:
                    break
                await asyncio.sleep(0.001)
            in_flight = gateway._inflight
            await leaver.close()
            # the only slot is the leaver's: the next commit needs it back
            other = await Client.connect(path)
            reply = await asyncio.wait_for(other.txn([["inc", 0, 1]]), 2.0)
            await other.close()
            for _ in range(200):
                if not gateway._connections:
                    break
                await asyncio.sleep(0.005)
            return gateway, in_flight, reply, unhandled

        gateway, in_flight, reply, unhandled = with_gateway(config)(
            scenario, tmp_path
        )
        assert in_flight == 1
        assert reply["status"] == "accepted"
        assert gateway.served == 2 and gateway.errors == 0
        assert gateway._inflight == 0 and not gateway._stalled
        assert not gateway._connections
        assert gateway.system.nodes[0].store.value(0) == 106
        assert unhandled == []

    def test_events_per_served_transaction(self, tmp_path):
        """Count gate, svc_uniform's shape on the default system (1 base,
        4 mobiles): a served commit is 7 engine events — its own spawn,
        its wake when the notice lands, and one delivery per message —
        because a replica refresh that cannot wait spawns nothing (12 with
        a handler process per refresh) and the notice is an event, not a
        sleep (8 with one).  Machine-independent."""
        runs = []

        async def scenario(gateway, path):
            real_run = gateway.system._run

            def counted(origin, ops, label, record):
                runs.append(record.seq)
                return real_run(origin, ops, label, record)

            gateway.system._run = counted
            clients = [await Client.connect(path) for _ in range(2)]
            before = gateway.engine.events_scheduled
            for i in range(200):
                await clients[i % 2].send(
                    type="txn", id=i, acceptance="always",
                    ops=[["inc", i % 50, 1], ["inc", (i + 7) % 50, 2]],
                )
            replies = [await clients[i % 2].recv() for i in range(200)]
            events = gateway.engine.events_scheduled - before
            for client in clients:
                await client.close()
            return gateway, replies, events, await gateway.drain()

        gateway, replies, events, drained = with_gateway()(scenario, tmp_path)
        assert all(reply["noticed"] is True for reply in replies)
        assert gateway.served == 200
        assert events / gateway.served <= 7
        # everything served went through the one pipeline driver, once each
        # (an action takes no time here, so no base attempt ever deadlocks)
        assert sorted(runs) == sorted(reply["seq"] for reply in replies)
        assert gateway.system.metrics.restarts == 0
        assert drained["store_sum"] == 50 * 100 + 200 * 3
        assert drained["base_divergence"] == 0
        assert drained["wal_quiescent"] is True
        snapshots = [node.store.snapshot() for node in gateway.system.nodes]
        assert len(snapshots) == 5
        assert all(snapshot == snapshots[0] for snapshot in snapshots)

    def test_drain_refuses_new_transactions(self, tmp_path):
        async def scenario(gateway, path):
            client = await Client.connect(path)
            await client.send(type="drain")
            await client.recv()
            reply = await client.txn([["inc", 0, 1]])
            await client.close()
            return reply

        reply = with_gateway()(scenario, tmp_path)
        assert reply["type"] == "error"
        assert "draining" in reply["why"]


def _frame_bytes(**frame):
    return encode_line(frame)


_FRAMES = st.one_of(
    st.builds(
        lambda oid, delta, criterion: ("txn", oid, delta, criterion),
        st.integers(0, 4), st.integers(-150, 60),
        st.sampled_from(["always", "non-negative"]),
    ),
    st.just(("ping",)),
    st.just(("unknown",)),
    st.sampled_from([
        b"this is not json\n", b"[1,2]\n", b"{}\n", b"\n",
        b'{"type":"txn","ops":[["frob",1,2]]}\n',
        b'{"type":"txn","ops":[["inc",1]],"acceptance":"never"}\n',
    ]).map(lambda raw: ("malformed", raw)),
)


def _encode(index, frame):
    if frame[0] == "txn":
        _, oid, delta, criterion = frame
        return _frame_bytes(type="txn", id=index, acceptance=criterion,
                            ops=[["inc", oid, delta]])
    if frame[0] == "malformed":
        return frame[1]
    return _frame_bytes(type=frame[0] if frame[0] == "ping" else "nonsense",
                        id=index)


def _serve_chunks(chunks):
    """Replies (minus the measured latency) and counters for one connection
    that writes ``chunks`` one by one, letting the server read in between."""
    async def scenario(gateway, path):
        reader, writer = await asyncio.open_unix_connection(path)
        for chunk in chunks:
            writer.write(chunk)
            await writer.drain()
            for _ in range(3):  # the server's read, pump and write
                await asyncio.sleep(0)
        writer.write_eof()
        lines = (await asyncio.wait_for(reader.read(), 5.0)).splitlines()
        writer.close()
        replies = [json.loads(line) for line in lines]
        for reply in replies:
            reply.pop("latency_ms", None)
        return replies, (gateway.served, gateway.accepted, gateway.rejected,
                         gateway.errors, gateway._inflight)

    with tempfile.TemporaryDirectory() as tmp:
        return with_gateway()(scenario, Path(tmp))


class TestTransport:
    """The buffered protocol: where a read ends is not where a frame ends."""

    @settings(max_examples=40, deadline=None)
    @given(frames=st.lists(_FRAMES, min_size=1, max_size=12),
           cuts=st.lists(st.integers(0, 2000), max_size=8),
           newline_at_end=st.booleans())
    def test_chopped_stream_is_answered_like_one_frame_per_write(
        self, frames, cuts, newline_at_end
    ):
        """Mixed frames cut at arbitrary byte boundaries get the replies,
        in the order, that one frame per write gets.  Order is per kind —
        immediate replies (pong, error) among themselves and results among
        themselves: a pong queued behind a transaction of the same read
        overtakes its result, as it did in the stream reader's loop."""
        encoded = [_encode(i, frame) for i, frame in enumerate(frames)]
        if not newline_at_end:
            encoded[-1] = encoded[-1][:-1]  # EOF ends the last frame
        stream = b"".join(encoded)
        size = len(stream)
        bounds = sorted({0, size, *(cut % (size + 1) for cut in cuts)})
        chopped = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
        assert b"".join(chopped) == stream

        def by_kind(replies):
            assert replies[0]["type"] == "welcome"
            results = [r for r in replies[1:] if r["type"] == "result"]
            return results, [r for r in replies[1:] if r["type"] != "result"]

        whole, whole_counts = _serve_chunks(encoded)
        cut, cut_counts = _serve_chunks(chopped)
        assert by_kind(cut) == by_kind(whole)
        assert cut_counts == whole_counts
        assert len(whole) == 1 + sum(1 for raw in encoded if raw)  # all of them
        assert whole_counts[-1] == 0

    def test_frames_longer_than_the_buffer_up_to_the_limit(self, tmp_path):
        """A 200 KB frame outgrows the 64 KiB buffer and is served; one of
        exactly ``MAX_LINE_BYTES`` is served; one byte more is counted,
        answered and the connection closed — and the buffer is back to its
        first size once the long frame is handled."""
        shell = len(_frame_bytes(type="ping", id="")) - 1  # sans newline

        def ping_of(size):
            return _frame_bytes(type="ping", id="x" * (size - shell))

        big, limit, over = (ping_of(200_000), ping_of(MAX_LINE_BYTES),
                            ping_of(MAX_LINE_BYTES + 1))
        assert len(limit) - 1 == MAX_LINE_BYTES

        async def scenario(gateway, path):
            run = asyncio.get_running_loop().run_in_executor
            served = await run(None, talk, path, big + _frame_bytes(
                type="txn", id=1, ops=[["inc", 0, 1]]) + limit)
            refused = await run(None, talk, path, _frame_bytes(
                type="txn", id=2, ops=[["inc", 0, 1]]) + over)
            return gateway, served, refused

        gateway, served, refused = with_gateway()(scenario, tmp_path)
        assert [f["type"] for f in served] == [
            "welcome", "pong", "result", "pong"
        ]
        assert len(served[1]["id"]) + shell == 200_000
        assert len(served[3]["id"]) + shell == MAX_LINE_BYTES
        assert [f["type"] for f in refused] == ["welcome", "result", "error"]
        assert refused[2]["why"] == f"frame exceeds {MAX_LINE_BYTES} bytes"
        assert gateway.errors == 1 and gateway.served == 2
        assert gateway._inflight == 0 and not gateway._connections

    def test_cap_of_one_with_fifty_frames_in_one_write(self, tmp_path):
        """Held-back frames are parsed into the dispatch that freed the
        slot: all answered, in order, never two in flight, and the pump is
        never re-entered (dispatch depth stays 1)."""
        config = GatewayConfig(db_size=50, initial_value=0, max_inflight=1)

        class Tap:
            def __init__(self, gateway):
                self.gateway = gateway
                self.depth = self.max_depth = self.max_inflight = 0

            def dispatch(self, callback, args):
                self.depth += 1
                self.max_depth = max(self.max_depth, self.depth)
                try:
                    callback(*args)
                finally:
                    self.depth -= 1
                self.max_inflight = max(
                    self.max_inflight, self.gateway._inflight
                )

        async def scenario(gateway, path):
            tap = gateway.engine.profiler = Tap(gateway)
            client = await Client.connect(path)
            other = await Client.connect(path)
            client.writer.write(b"".join(
                _frame_bytes(type="txn", id=i, ops=[["inc", 0, 1]])
                for i in range(50)
            ))
            await other.send(type="txn", id="other", ops=[["inc", 1, 1]])
            replies = [await asyncio.wait_for(client.recv(), 5.0)
                       for _ in range(50)]
            theirs = await asyncio.wait_for(other.recv(), 5.0)
            await client.close()
            await other.close()
            return gateway, tap, replies, theirs

        gateway, tap, replies, theirs = with_gateway(config)(
            scenario, tmp_path
        )
        assert [reply["id"] for reply in replies] == list(range(50))
        assert all(reply["status"] == "accepted" for reply in replies)
        assert theirs["id"] == "other" and theirs["status"] == "accepted"
        assert tap.max_inflight == 1 and tap.max_depth == 1
        assert gateway._inflight == 0 and not gateway._stalled
        assert gateway.system.nodes[0].store.value(0) == 50

    def test_every_read_lands_in_the_same_buffer(self):
        """No allocation per read: 1000 reads, whole frames, halves and
        several at once, all through the one ``bytearray``."""
        class Sink:
            written = b""

            def write(self, data):
                Sink.written += data

            def is_closing(self):
                return False

        gateway = ServiceGateway(GatewayConfig(db_size=10))
        connection = _Connection(gateway)
        connection.connection_made(Sink())
        buffer = connection.buffer
        stream = b"".join(_frame_bytes(type="ping", id=i) for i in range(1500))
        sizes = [7, 40, 3, 61]
        sent = 0
        for read in range(1000):
            view = connection.get_buffer(-1)
            assert view.obj is buffer and len(view) > 0
            chunk = stream[sent:sent + sizes[read % 4]]
            view[:len(chunk)] = chunk
            del view
            connection.buffer_updated(len(chunk))
            sent += len(chunk)
        assert connection.buffer is buffer and len(buffer) == 1 << 16
        pongs = [json.loads(line) for line in Sink.written.splitlines()[1:]]
        assert [pong["id"] for pong in pongs] == list(
            range(stream.count(b"\n", 0, sent))
        )
        assert gateway.reads == 1000

    def test_replies_per_write(self, tmp_path):
        """Count gate (machine-independent): one frame per read is exactly
        one write per read; the ladder's closed loop, 2 x 16 pipelined, is
        one write per read of sixteen (15.97 measured; 4 is the gate)."""
        async def closed_loop(path, total):
            client = await Client.connect(path)
            sent = 0

            def burst(count):
                nonlocal sent
                client.writer.write(b"".join(
                    _frame_bytes(type="txn", id=sent + i,
                                 ops=[["inc", (sent + i) % 50, 1]])
                    for i in range(count)
                ))
                sent += count

            burst(16)
            for _ in range(total):
                assert (await client.recv())["status"] == "accepted"
                if sent < total:
                    burst(1)
            await client.close()

        async def scenario(gateway, path):
            client = await Client.connect(path)
            reads, writes = gateway.reads, gateway.writes
            for i in range(50):
                await client.txn([["inc", 0, 1]], request_id=i)
            one_by_one = gateway.reads - reads, gateway.writes - writes
            await client.send(type="stats")
            stats = await client.recv()
            await client.close()
            served, writes = gateway.served, gateway.writes
            await asyncio.gather(closed_loop(path, 400), closed_loop(path, 400))
            return (one_by_one, stats, gateway.served - served,
                    gateway.writes - writes, await gateway.drain())

        one_by_one, stats, served, writes, drained = with_gateway()(
            scenario, tmp_path
        )
        assert one_by_one == (50, 50)
        assert stats["io"] == {"reads": 51, "writes": 51}  # welcome, stats
        assert served == 800
        assert served / writes >= 4, f"{served / writes:.2f} replies per write"
        assert drained["io"]["reads"] >= drained["io"]["writes"] - 3
        assert drained["store_sum"] == 50 * 100 + 850


class TestSimPathParity:
    """The same diagnostics round-trip through the simulator's reconnect
    exchange — the gateway is a second door into one mechanism."""

    def test_rejection_diagnostic_round_trips_in_sim_mode(self):
        system = TwoTierSystem(
            SystemSpec(num_nodes=2, db_size=20, initial_value=100),
            num_base=1,
        )
        mobile = system.mobile(1)
        system.disconnect_mobile(1)
        mobile.submit_tentative([IncrementOp(0, -150)], NonNegativeOutputs())
        system.run()
        system.reconnect_mobile(1)
        system.run()
        assert len(mobile.rejected_transactions) == 1
        record = mobile.rejected_transactions[0]
        assert record.diagnostic
        assert mobile.notices == [
            (record.seq, TentativeStatus.REJECTED, record.diagnostic)
        ]


class TestNoticeWait:
    """The reply waits on the notice itself, not on a clock: the mobile
    resolves an engine event when the notice for a ``seq`` lands, however
    late, so there is no deadline to miss and nothing to sweep up."""

    def test_notice_later_than_one_delay_is_still_noticed(self):
        gateway = ServiceGateway(GatewayConfig(db_size=50, message_delay=0.005))
        mobile = gateway.system.mobiles[gateway._mobile_ids[0]]

        def late_notice():
            # 6x the nominal delay: a single sleep of one delay missed this
            yield gateway.engine.timeout(0.03)
            mobile.record_notice(7, TentativeStatus.ACCEPTED, "")

        def wait():
            return (yield mobile.notice_event(7))

        async def main():
            settled = []
            gateway.engine.process(late_notice(), name="late-notice")
            gateway.engine.process(wait(), name="wait").add_callback(
                lambda proc: settled.append(proc.value)
            )
            await gateway.engine.run_async()
            [value] = settled
            return value

        assert asyncio.run(main()) == (7, TentativeStatus.ACCEPTED, "")
        assert mobile.notices == []
        assert mobile._notice_events == {}
        # the wait's state lives on the mobile; the gateway keeps none
        assert not [name for name in vars(gateway) if "notice" in name]

    def test_noticed_true_end_to_end_with_nonzero_delay(self, tmp_path):
        config = GatewayConfig(
            db_size=50, initial_value=100, message_delay=0.01
        )

        async def scenario(gateway, path):
            client = await Client.connect(path)
            reply = await client.txn([["inc", 1, 2]])
            await client.close()
            return gateway, reply

        gateway, reply = with_gateway(config)(scenario, tmp_path)
        assert reply["status"] == "accepted"
        assert reply["noticed"] is True
        # nothing left behind on the mobile's notice list
        assert all(
            mobile.notices == []
            for mobile in gateway.system.mobiles.values()
        )


class TestConfigValidation:
    def test_rejects_zero_mobiles(self):
        with pytest.raises(ValueError):
            ServiceGateway(GatewayConfig(mobiles=0))

    def test_rejects_nonpositive_inflight_cap(self):
        with pytest.raises(ValueError):
            ServiceGateway(GatewayConfig(max_inflight=0))
