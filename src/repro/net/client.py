"""Pipelined asyncio front-end transport for the shard servers.

Three layers (DESIGN.md §15):

* :class:`Connection` — one persistent socket (an asyncio
  ``Protocol``) with **request pipelining**: the requests issued in one
  event-loop turn leave in one write, and a FIFO of futures matches
  responses back to requests in order. Head-of-line semantics match
  memcached: responses come back in request order. One timer per
  connection enforces every request's deadline.
* :class:`ShardEndpoint` — a **connection pool** per shard; each
  request picks the pooled connection with the fewest inflight
  requests, reconnecting lazily (and counting reconnects) after a drop.
  Timeouts and socket errors map onto the *existing* failure taxonomy —
  :class:`~repro.errors.ShardTimeoutError` /
  :class:`~repro.errors.ShardDownError` — so the unchanged
  ``RetryPolicy``/``CircuitBreaker`` layer retries and trips exactly as
  it does on the in-process plane; ``SERVER_ERROR`` frames reconstruct
  the injected exception type via :func:`repro.net.proto.decode_failure`.
* :class:`NetClientStats` — wire counters (bytes, timeouts, reconnects,
  pipelined batch depths) that surface as ``net.*`` telemetry.

A ``get_many`` is **one wire round-trip per shard**: the caller groups
keys by ring owner and sends one multi-key ``get`` per group.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable

from repro.errors import (
    ProtocolError,
    ShardDownError,
    ShardTimeoutError,
)
from repro.net import proto
from repro.net.proto import (
    DeleteCommand,
    GetCommand,
    Reply,
    ResponseDecoder,
    SetCommand,
    TouchCommand,
)
from repro.policies.base import MISSING

__all__ = ["Connection", "NetClientStats", "ShardEndpoint"]

@dataclass
class NetClientStats:
    """Client-side wire counters (feeds ``net.*`` telemetry)."""

    connections: int = 0
    reconnects: int = 0
    requests: int = 0
    batches: int = 0
    timeouts: int = 0
    errors: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    #: write-coalescing depth distribution: {depth: flushes at that depth}
    batch_depths: dict[int, int] = field(default_factory=dict)

    def note_batch(self, depth: int) -> None:
        self.batches += 1
        self.batch_depths[depth] = self.batch_depths.get(depth, 0) + 1


class Connection(asyncio.Protocol):
    """One pipelined persistent connection to a shard server.

    One ``call_at`` timer, armed at the earliest pending deadline,
    enforces every request's deadline. Replies are FIFO, so a timed-out
    request strands everything behind it: the connection fails them all
    with :class:`~repro.errors.ShardTimeoutError` and retires, and the
    pool reconnects on the next request.
    """

    def __init__(self, name: str, stats: NetClientStats) -> None:
        self.name = name
        self.stats = stats
        self.decoder = ResponseDecoder()
        self.dead = False
        self._loop = asyncio.get_running_loop()
        self._fifo: deque[tuple[asyncio.Future, float]] = deque()
        self._out: list[bytes] = []
        self._timer: asyncio.TimerHandle | None = None
        self._lost = self._loop.create_future()

    @property
    def inflight(self) -> int:
        return len(self._fifo)

    def request(self, payload: bytes, deadline: float) -> "asyncio.Future[Reply]":
        """Pipeline one encoded request, sent with the rest of this loop
        turn's; the future fails at ``deadline`` (loop time)."""
        if self.dead:
            raise ShardDownError("connection is closed")
        future = self._loop.create_future()
        self._fifo.append((future, deadline))
        if self._timer is None or deadline < self._timer.when():
            if self._timer is not None:
                self._timer.cancel()
            self._timer = self._loop.call_at(deadline, self._on_timer)
        self.stats.requests += 1
        self.stats.bytes_out += len(payload)
        if not self._out:
            self._loop.call_soon(self._flush)
        self._out.append(payload)
        return future

    def _flush(self) -> None:
        out, self._out = self._out, []
        if not self.dead:
            self.stats.note_batch(len(out))
            self.transport.write(b"".join(out))

    def _on_timer(self) -> None:
        self._timer = None
        if not self._fifo:
            return
        earliest = min(deadline for _, deadline in self._fifo)
        if earliest > self._loop.time():
            self._timer = self._loop.call_at(earliest, self._on_timer)
            return
        self.stats.timeouts += sum(not f.done() for f, _ in self._fifo)
        self._fail_all(ShardTimeoutError(f"{self.name} did not answer in time"))

    # ---------------------------------------------------- protocol callbacks

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.stats.connections += 1

    def data_received(self, data: bytes) -> None:
        if self.dead:
            return
        self.stats.bytes_in += len(data)
        fifo = self._fifo
        for reply in self.decoder.feed(data):
            if not fifo:
                # Unsolicited frame: the stream is unsyncable.
                self._fail_all(ProtocolError("unsolicited response"))
                return
            future = fifo.popleft()[0]
            if not future.done():
                future.set_result(reply)
        if self.decoder.broken:
            self._fail_all(ProtocolError("response stream unparsable"))

    def connection_lost(self, exc: Exception | None) -> None:
        reason = "server closed the connection" if exc is None else f"connection lost: {exc}"
        self._fail_all(ShardDownError(reason))
        self._lost.set_result(None)

    def _fail_all(self, exc: Exception) -> None:
        """Retire the connection: fail every pending request with ``exc``."""
        self.dead = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._out.clear()
        fifo, self._fifo = self._fifo, deque()
        for future, _ in fifo:
            if not future.done():
                future.set_exception(exc)
        self.transport.abort()

    async def close(self) -> None:
        self._fail_all(ShardDownError("connection closed"))
        await self._lost


class ShardEndpoint:
    """Connection pool + request API for one shard server.

    The async surface mirrors the
    :class:`~repro.cluster.backend.BackendCacheServer` client surface
    (``get``/``get_many``/``set``/``delete``), returning/raising exactly
    what the in-process plane would — including ``MISSING`` on a miss
    and :class:`~repro.errors.ShardFailure` subclasses on faults — so a
    proxy over this endpoint is a drop-in shard object.
    """

    def __init__(
        self,
        server_id: str,
        host: str,
        port: int,
        pool_size: int = 1,
        timeout: float = 5.0,
        stats: NetClientStats | None = None,
    ) -> None:
        self.server_id = server_id
        self.host = host
        self.port = port
        self.pool_size = max(1, pool_size)
        self.timeout = timeout
        self.stats = stats if stats is not None else NetClientStats()
        self._pool: list[Connection | None] = [None] * self.pool_size
        self._connect_lock: asyncio.Lock | None = None

    # ------------------------------------------------------------ transport

    async def _connection(self) -> Connection:
        """Open a connection in the first empty or dead pool slot.

        Establishment is serialized behind a lock so a burst of
        concurrent requests against an empty (or just-dropped) pool
        shares the slot's one socket instead of racing opens — the whole
        point of pipelining is many requests per connection.
        """
        if self._connect_lock is None:
            self._connect_lock = asyncio.Lock()
        async with self._connect_lock:
            best = self._pick()  # someone else may have connected meanwhile
            if best is not None:
                return best
            for slot, conn in enumerate(self._pool):
                if conn is None or conn.dead:
                    if conn is not None and conn.dead:
                        self.stats.reconnects += 1
                    loop = asyncio.get_running_loop()
                    try:
                        _, opened = await loop.create_connection(
                            lambda: Connection(self.server_id, self.stats),
                            self.host,
                            self.port,
                        )
                    except OSError as exc:
                        raise ShardDownError(
                            f"connect to {self.host}:{self.port} failed: {exc}"
                        ) from exc
                    self._pool[slot] = opened
                    return opened
        raise ShardDownError("connection pool exhausted")  # pragma: no cover

    def _pick(self) -> Connection | None:
        """The live pooled connection with the fewest inflight requests.

        ``None`` when a slot is empty/dead — the pool prefers opening
        (under the lock) up to ``pool_size`` sockets before stacking.
        """
        best: Connection | None = None
        for conn in self._pool:
            if conn is None or conn.dead:
                return None
            if best is None or conn.inflight < best.inflight:
                best = conn
        return best

    async def request(self, command: Any) -> Reply:
        """One pipelined round-trip, with timeout/error → failure mapping.

        The deadline starts here, so a connect (or a wait for another
        request's connect) spends the same budget as the reply.
        """
        deadline = asyncio.get_running_loop().time() + self.timeout
        conn = self._pick()
        if conn is None:
            try:
                conn = await asyncio.wait_for(self._connection(), self.timeout)
            except asyncio.TimeoutError:
                self.stats.timeouts += 1
                raise ShardTimeoutError(
                    f"{self.server_id}: connect did not finish within {self.timeout}s"
                ) from None
        reply = await conn.request(command.encode(), deadline)
        if reply.kind == "SERVER_ERROR":
            self.stats.errors += 1
            raise proto.decode_failure(reply)
        if reply.is_error:
            self.stats.errors += 1
            raise ProtocolError(f"{self.server_id}: {reply.kind} {reply.message}")
        return reply

    # -------------------------------------------------------- shard surface

    async def get(self, key: Hashable) -> Any:
        reply = await self.request(GetCommand((str(key),)))
        if not reply.values:
            return MISSING
        value = reply.values[0]
        return proto.load_value(value.flags, value.data)

    async def get_many(self, keys: Iterable[Hashable]) -> dict[Hashable, Any]:
        keys = list(keys)
        if not keys:
            return {}
        reply = await self.request(GetCommand(tuple(str(k) for k in keys)))
        by_wire_key = {
            v.key: proto.load_value(v.flags, v.data) for v in reply.values
        }
        return {k: by_wire_key[str(k)] for k in keys if str(k) in by_wire_key}

    async def set(self, key: Hashable, value: Any, size: int | None = None) -> None:
        flags, payload = proto.dump_value(value)
        await self.request(SetCommand(str(key), flags, 0, payload))

    async def delete(self, key: Hashable) -> bool:
        reply = await self.request(DeleteCommand(str(key)))
        return reply.kind == "DELETED"

    async def touch(self, key: Hashable, exptime: int = 0) -> bool:
        reply = await self.request(TouchCommand(str(key), exptime))
        return reply.kind == "TOUCHED"

    async def close(self) -> None:
        pool, self._pool = self._pool, [None] * self.pool_size
        for conn in pool:
            if conn is not None:
                await conn.close()
