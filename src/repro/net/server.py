"""Asyncio shard server speaking the memcached-style text protocol.

One :class:`ShardServer` wraps one
:class:`~repro.cluster.backend.BackendCacheServer` and serves it over a
TCP socket. Each connection is an asyncio ``Protocol`` (DESIGN.md §15):

* ``data_received`` decodes the read incrementally
  (:class:`~repro.net.proto.RequestDecoder`), runs the commands in
  arrival order against the backend and **writes all their replies at
  once** — the server-side half of pipelining (the batch-depth
  distribution is recorded per write);
* **backpressure**: commands run in chunks of ``inflight_limit``; once
  the send buffer passes its high-water mark, ``pause_writing`` stops
  reading the socket, so TCP backpressure reaches the client, and the
  held-back commands run on ``resume_writing``;
* injected shard failures (:class:`~repro.errors.ShardFailure`) become
  ``SERVER_ERROR <code> …`` frames, so fault schedules exercise the
  wire path end to end and the client reconstructs the exact exception
  type for its retry/breaker layer.

Shutdown is a **graceful drain**: :meth:`ShardServer.stop` closes the
listener (no new connections), runs every request already received and
half-closes each connection once its replies are written, so
acknowledged work is never dropped on the floor.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.cluster.backend import BackendCacheServer
from repro.errors import ShardFailure
from repro.policies.base import MISSING as _MISSING
from repro.net import proto
from repro.net.proto import (
    BadCommand,
    DeleteCommand,
    GetCommand,
    QuitCommand,
    Reply,
    RequestDecoder,
    SetCommand,
    TouchCommand,
    Value,
    VersionCommand,
)

__all__ = ["ShardServer", "ShardServerStats", "SERVER_VERSION"]

SERVER_VERSION = "repro-net/1"


@dataclass
class ShardServerStats:
    """Wire-level counters for one shard server (feeds ``net.*`` telemetry)."""

    connections: int = 0
    active_connections: int = 0
    requests: int = 0
    batches: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    protocol_errors: int = 0
    fault_errors: int = 0
    #: response-coalescing depth distribution: {depth: drains at that depth}
    batch_depths: dict[int, int] = field(default_factory=dict)


class _Connection(asyncio.Protocol):
    """One client connection: decode a read, run it inline, write once."""

    def __init__(self, server: "ShardServer") -> None:
        self.server = server
        self.decoder = RequestDecoder(max_value_bytes=server.max_value_bytes)
        #: decoded commands held back while the client is not reading
        self.backlog: list = []
        self.paused = False
        self.stopping = False
        self.closing = False
        self.lost = asyncio.get_running_loop().create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.server.stats.connections += 1
        self.server.stats.active_connections += 1
        self.server._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.closing = True
        self.server.stats.active_connections -= 1
        self.server._connections.discard(self)
        self.lost.set_result(None)

    def data_received(self, data: bytes) -> None:
        if self.closing or self.stopping:
            return  # after stop(): read and dropped, see _serve
        self.server.stats.bytes_in += len(data)
        self.backlog += self.decoder.feed(data)
        self._serve()

    def pause_writing(self) -> None:
        # The client is not reading: stop reading it too, so TCP
        # backpressure reaches it instead of replies piling up here.
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        if not self.stopping:
            self.transport.resume_reading()
        self._serve()

    def stop(self) -> None:
        """Take no more requests; half-close once the backlog has run."""
        self.stopping = True
        self.transport.pause_reading()
        self._serve()

    def _serve(self) -> None:
        """Run the backlog in order, ``inflight_limit`` commands per write.

        Checking for backpressure between chunks bounds the replies
        buffered here by the high-water mark plus one chunk's worth.
        """
        stats = self.server.stats
        limit = self.server.inflight_limit
        while self.backlog and not self.paused and not self.closing:
            batch, self.backlog = self.backlog[:limit], self.backlog[limit:]
            out = []
            for depth, cmd in enumerate(batch, 1):
                reply = self._execute(cmd)
                if reply is not None:
                    out.append(reply)
                if isinstance(cmd, QuitCommand) or (
                    isinstance(cmd, BadCommand) and cmd.fatal
                ):
                    self.closing = True
                    self.backlog = []
                    break
            stats.requests += depth
            stats.batches += 1
            stats.batch_depths[depth] = stats.batch_depths.get(depth, 0) + 1
            if out:
                payload = b"".join(out)
                stats.bytes_out += len(payload)
                self.transport.write(payload)
        if self.closing:
            self.transport.close()  # graceful: buffered replies still go out
        elif self.stopping and not self.backlog:
            # Half-close, then read and drop input until the client
            # closes: unread requests would turn a close into a reset
            # that discards replies still in the kernel's send buffer.
            self.transport.write_eof()
            self.transport.resume_reading()

    def _execute(self, cmd) -> bytes | None:
        backend = self.server.backend
        stats = self.server.stats
        try:
            if isinstance(cmd, GetCommand):
                if len(cmd.keys) == 1:
                    # Mirror the in-process plane exactly: a single-key
                    # get is `server.get`, a batch is `server.get_many`.
                    key = cmd.keys[0]
                    value = backend.get(key)
                    found = {} if value is _MISSING else {key: value}
                else:
                    found = backend.get_many(list(cmd.keys))
                values = []
                for key in cmd.keys:
                    if key in found:
                        flags, payload = proto.dump_value(found[key])
                        cas = 0 if cmd.cas else None
                        values.append(Value(key, flags, payload, cas))
                return Reply("END", values=tuple(values)).encode()
            if isinstance(cmd, SetCommand):
                backend.set(cmd.key, proto.load_value(cmd.flags, cmd.data))
                return None if cmd.noreply else Reply("STORED").encode()
            if isinstance(cmd, DeleteCommand):
                existed = backend.delete(cmd.key)
                if cmd.noreply:
                    return None
                return Reply("DELETED" if existed else "NOT_FOUND").encode()
            if isinstance(cmd, TouchCommand):
                # The backend has no per-entry TTL; touch degrades to a
                # counter-neutral membership probe so the verb exists on
                # the wire without perturbing decision equivalence.
                present = cmd.key in backend
                if cmd.noreply:
                    return None
                return Reply("TOUCHED" if present else "NOT_FOUND").encode()
            if isinstance(cmd, VersionCommand):
                return Reply("VERSION", SERVER_VERSION).encode()
            if isinstance(cmd, QuitCommand):
                return None
            if isinstance(cmd, BadCommand):
                stats.protocol_errors += 1
                return Reply(cmd.kind, cmd.message).encode()
        except ShardFailure as exc:
            stats.fault_errors += 1
            return proto.encode_failure(exc).encode()
        stats.protocol_errors += 1
        return Reply("ERROR").encode()


class ShardServer:
    """Serve one backend shard on a TCP port (ephemeral by default).

    ``inflight_limit`` is the most commands a connection runs between
    two backpressure checks (and so the most replies one write carries).
    """

    def __init__(
        self,
        backend: BackendCacheServer,
        host: str = "127.0.0.1",
        port: int = 0,
        inflight_limit: int = 256,
        max_value_bytes: int = proto.MAX_VALUE_BYTES,
    ) -> None:
        self.backend = backend
        self.host = host
        self.port = port
        self.inflight_limit = inflight_limit
        self.max_value_bytes = max_value_bytes
        self.stats = ShardServerStats()
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()

    @property
    def server_id(self) -> str:
        return self.backend.server_id

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    async def start(self) -> "ShardServer":
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def abort_connections(self) -> None:
        """Hard-drop every live connection (simulates an instance crash).

        Clients observe a ``ConnectionError`` mid-flight — the network
        analogue of a killed shard — and reconnect lazily on next use.
        """
        for conn in list(self._connections):
            conn.transport.abort()

    async def stop(self, drain: bool = True, timeout: float = 5.0) -> None:
        """Stop serving; with ``drain`` (default) finish inflight work first.

        Draining runs every request already received, half-closes each
        connection and waits up to ``timeout`` seconds for its client to
        close; connections still open then are aborted.
        """
        if self._server is not None:
            self._server.close()
        lost = [conn.lost for conn in self._connections]
        if drain and lost:
            for conn in list(self._connections):
                conn.stop()
            await asyncio.wait(lost, timeout=timeout)
        self.abort_connections()
        if lost:
            await asyncio.wait(lost)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
