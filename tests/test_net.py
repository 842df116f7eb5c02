"""Integration tests of the socket data plane (:mod:`repro.net`).

Everything here runs real asyncio servers on ephemeral localhost ports
(via :class:`~repro.net.plane.NetworkPlane`'s loop thread), but at tiny
scales so the whole file stays in tier-1 time. The heavyweight
multi-process harness is exercised by the perf gate and the verify.sh
net-smoke stage, not here.
"""

from __future__ import annotations

import asyncio
import gc
import logging
import socket

import pytest

from repro.cluster.backend import BackendCacheServer
from repro.cluster.client import FrontEndClient
from repro.cluster.cluster import CacheCluster
from repro.cluster.faults import FaultInjector
from repro.cluster.retry import BreakerState
from repro.cluster.storage import PersistentStore
from repro.errors import ProtocolError, ShardDownError, ShardTimeoutError
from repro.net.client import ShardEndpoint
from repro.net.harness import decision_equivalence
from repro.net.plane import NetworkPlane
from repro.net.proto import ResponseDecoder, Value
from repro.net.server import ShardServer
from repro.policies.base import MISSING
from repro.policies.registry import make_policy


def make_cluster(num_servers: int = 2, faults: bool = False) -> CacheCluster:
    return CacheCluster(
        num_servers=num_servers,
        capacity_bytes=1 << 20,
        value_size=1,
        virtual_nodes=64,
        storage=PersistentStore(lambda key: ("v", key)),
        faults=FaultInjector() if faults else None,
    )


@pytest.fixture
def plane():
    cluster = make_cluster(faults=True)
    plane = NetworkPlane(cluster).start()
    yield plane
    plane.close()


# -------------------------------------------------------------- shard proxy


def test_proxy_set_get_delete_roundtrip(plane):
    shard = plane.server(plane.server_ids[0])
    assert shard.get("k") is MISSING
    shard.set("k", ("tuple", 42))
    assert shard.get("k") == ("tuple", 42)
    assert shard.delete("k") is True
    assert shard.delete("k") is False
    assert shard.get("k") is MISSING


def test_get_many_is_one_wire_round_trip(plane):
    shard = plane.server(plane.server_ids[0])
    for i in range(8):
        shard.set(f"k{i}", i)
    before = plane.client_stats.requests
    got = shard.get_many([f"k{i}" for i in range(8)] + ["absent"])
    assert plane.client_stats.requests == before + 1
    assert got == {f"k{i}": i for i in range(8)}


def test_routing_matches_the_ring(plane):
    # server_for on the plane must route exactly like the wrapped cluster.
    for key in (f"usertable:{i}" for i in range(64)):
        assert (
            plane.server_for(key).server_id
            == plane.cluster.ring.server_for(key)
        )


# ------------------------------------------------------------ fault surface


def test_injected_faults_cross_the_wire(plane):
    sid = plane.server_ids[0]
    shard = plane.server(sid)
    shard.set("k", 1)
    plane.cluster.kill_server(sid)
    with pytest.raises(ShardDownError):
        shard.get("k")
    plane.cluster.revive_server(sid, cold=True)
    assert shard.get("k") is MISSING  # cold revival flushed the copy


def test_breaker_opens_on_wire_faults(plane):
    client = FrontEndClient(plane, make_policy("cot", 16))
    keys = [f"usertable:{i}" for i in range(32)]
    for key in keys:
        client.get(key)
    victim = plane.server_ids[0]
    plane.cluster.kill_server(victim)
    for key in keys * 4:
        client.get(key)  # storage fallback; breaker absorbs the failures
    assert client.guard.breaker(victim).state is BreakerState.OPEN


def test_drop_connections_forces_reconnect(plane):
    sid = plane.server_ids[0]
    shard = plane.server(sid)
    shard.set("k", 1)
    before = plane.client_stats.reconnects
    plane.drop_connections(sid)
    # The dropped socket surfaces as ShardDownError at most once; the
    # pool then reconnects lazily and the shard is reachable again.
    for _attempt in range(3):
        try:
            assert shard.get("k") == 1
            break
        except ShardDownError:
            continue
    else:
        pytest.fail("shard never became reachable after the drop")
    assert plane.client_stats.reconnects > before


def test_removed_shard_tears_down_its_server(plane):
    sid = plane.server_ids[-1]
    assert sid in plane.server_stats()
    plane.cluster.remove_server(sid)
    assert sid not in plane.server_stats()


def test_oversized_value_is_a_protocol_error(plane):
    shard = plane.server(plane.server_ids[0])
    with pytest.raises(ProtocolError):
        shard.set("big", b"x" * (2 << 20))
    # The connection survives the rejected set (recoverable damage).
    shard.set("small", b"ok")
    assert shard.get("small") == b"ok"


# --------------------------------------------------- deadlines and shutdown

#: slack for event-loop scheduling on a busy host, in seconds
TOLERANCE = 0.05


def test_timed_out_requests_retire_their_connection():
    async def main():
        loop = asyncio.get_running_loop()
        accepted = []

        class Stalling(asyncio.Protocol):
            """Never answers in time on the first connection; once every
            request there has expired, sends replies that a kept
            connection would hand to the next requests. Answers every
            get at once on later connections."""

            def connection_made(self, transport):
                self.transport = transport
                accepted.append(transport)
                if len(accepted) == 1:
                    loop.call_later(0.2, self.send_late)

            def send_late(self):
                if not self.transport.is_closing():
                    self.transport.write(b"VALUE k 0 4\r\nlate\r\nEND\r\n" * 16)

            def data_received(self, data):
                if self.transport is not accepted[0]:
                    fresh = b"VALUE k 0 5\r\nfresh\r\nEND\r\n"
                    self.transport.write(fresh * data.count(b"get "))

        server = await loop.create_server(Stalling, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        endpoint = ShardEndpoint("silent", "127.0.0.1", port, timeout=0.05)

        async def timed_get(delay):
            await asyncio.sleep(delay)
            issued = loop.time()
            with pytest.raises(ShardTimeoutError):
                await endpoint.get("k")
            return loop.time() - issued

        waits = await asyncio.gather(*(timed_get(0.01 * i) for i in range(5)))
        assert all(wait <= 0.05 + TOLERANCE for wait in waits), waits
        assert endpoint.stats.timeouts == 5
        # The next call opens a fresh connection, and the late replies on
        # the retired one never resolve its future.
        assert await endpoint.get("k") == b"fresh"
        await asyncio.sleep(0.25)
        assert await endpoint.get("k") == b"fresh"
        assert len(accepted) == 2
        assert endpoint.stats.reconnects == 1
        await endpoint.close()
        server.close()
        await server.wait_closed()

    asyncio.run(main())


def test_connection_timer_honours_an_earlier_deadline_queued_later():
    async def main():
        loop = asyncio.get_running_loop()
        server = await loop.create_server(asyncio.Protocol, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        endpoint = ShardEndpoint("silent", "127.0.0.1", port)
        conn = await endpoint._connection()
        issued = loop.time()
        late = conn.request(b"get a\r\n", issued + 5.0)
        early = conn.request(b"get b\r\n", issued + 0.05)
        for future in (early, late):
            with pytest.raises(ShardTimeoutError):
                await future
        assert loop.time() - issued <= 0.05 + TOLERANCE
        assert conn.dead
        await endpoint.close()
        server.close()
        await server.wait_closed()

    asyncio.run(main())


def test_connect_runs_under_the_request_deadline(monkeypatch):
    async def main():
        loop = asyncio.get_running_loop()

        async def stalled_connect(*args, **kwargs):
            await asyncio.sleep(30)

        monkeypatch.setattr(loop, "create_connection", stalled_connect)
        endpoint = ShardEndpoint("stalled", "127.0.0.1", 9, timeout=0.05)
        issued = loop.time()
        with pytest.raises(ShardTimeoutError):
            await endpoint.get("k")
        assert loop.time() - issued <= 0.05 + TOLERANCE
        assert endpoint.stats.timeouts == 1

    asyncio.run(main())


def test_server_backpressure_bounds_its_buffer_and_stop_drains():
    requests, limit, distinct = 20_000, 64, 1_000
    keys = [f"{i:04d}" + "k" * 196 for i in range(distinct)]
    values = [b"%04d" % i + b"v" * 1020 for i in range(distinct)]

    async def main():
        loop = asyncio.get_running_loop()
        backend = BackendCacheServer(
            "cache-0", capacity_bytes=1 << 40, default_value_size=1
        )
        for key, value in zip(keys, values):
            backend.set(key, value)
        server = await ShardServer(backend, inflight_limit=limit).start()
        with socket.create_connection((server.host, server.port)) as sock:
            # Small kernel buffers, so replies back up into the server's
            # transport within a few hundred requests on any host.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
            sock.setblocking(False)
            while not server._connections:
                await asyncio.sleep(0.001)
            (conn,) = server._connections
            transport = conn.transport
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 16
            )
            peak = 0
            write = transport.write

            def traced_write(data):
                nonlocal peak
                write(data)
                peak = max(peak, transport.get_write_buffer_size())

            transport.write = traced_write
            stream = b"".join(
                b"get %s\r\n" % keys[i % distinct].encode() for i in range(requests)
            )
            sender = asyncio.ensure_future(loop.sock_sendall(sock, stream))
            # The client reads nothing: wait for the server to stall.
            ran = -1
            while server.stats.requests != ran:
                ran = server.stats.requests
                await asyncio.sleep(0.2)
            # Paused, the server stopped reading too: TCP backpressure holds
            # the rest of the stream back in the client.
            received = ran + len(conn.backlog)
            assert conn.paused and 0 < ran <= received < requests
            _, high = transport.get_write_buffer_limits()
            reply_bytes = len(Value(keys[0], 0, values[0]).encode() + b"END\r\n")
            assert peak <= high + limit * reply_bytes, (peak, high)

            stopping = asyncio.ensure_future(server.stop(drain=True, timeout=30.0))
            decoder = ResponseDecoder()
            replies = []
            while data := await loop.sock_recv(sock, 1 << 16):
                replies += decoder.feed(data)
            sender.cancel()
            await asyncio.gather(sender, return_exceptions=True)
        await stopping
        assert len(replies) == received == server.stats.requests
        for index, reply in enumerate(replies):
            (value,) = reply.values
            assert value.key == keys[index % distinct]
            assert value.data == values[index % distinct]

    asyncio.run(asyncio.wait_for(main(), timeout=60.0))


def test_stopping_a_server_under_a_live_client_logs_no_error(caplog):
    async def main():
        backend = BackendCacheServer(
            "cache-0", capacity_bytes=1 << 20, default_value_size=1
        )
        server = await ShardServer(backend).start()
        endpoint = ShardEndpoint(server.server_id, server.host, server.port)
        await endpoint.set("k", 1)  # the connection stays open
        await server.stop()
        await endpoint.close()

    with caplog.at_level(logging.ERROR, logger="asyncio"):
        asyncio.run(main())
        gc.collect()  # unretrieved task exceptions are logged on collection
    errors = [r for r in caplog.records if r.name == "asyncio"]
    assert not errors, [r.getMessage() for r in errors]


# ------------------------------------------------------- two-plane contract


def test_decision_equivalence_small_stream():
    equal, in_process, networked = decision_equivalence(
        accesses=1_500, key_space=400, cache_lines=64
    )
    assert equal, {"in_process": in_process, "networked": networked}


def test_telemetry_counts_real_traffic(plane):
    shard = plane.server(plane.server_ids[0])
    for i in range(16):
        shard.set(f"k{i}", i)
        shard.get(f"k{i}")
    net = plane.telemetry()
    assert net["requests"] >= 32
    assert net["server_requests"] >= 32
    assert net["connections"] >= 1
    assert net["bytes_in"] > 0 and net["bytes_out"] > 0
    assert sum(net["batch_depths"].values()) > 0


# ---------------------------------------------------------- engine plumbing


def test_runner_network_axis_is_decision_identical():
    from repro.engine import telemetry as T
    from repro.engine.runners import ClusterRunner
    from repro.engine.spec import (
        NetworkSpec,
        PolicySpec,
        Scale,
        ScenarioSpec,
        TopologySpec,
        WorkloadSpec,
    )

    def spec(enabled: bool) -> ScenarioSpec:
        return ScenarioSpec(
            scale=Scale(
                "tiny", key_space=300, accesses=800,
                num_clients=1, num_servers=2, seed=11,
            ),
            workload=WorkloadSpec(dist="zipf-0.9"),
            policy=PolicySpec(name="cot", cache_lines=32),
            topology=TopologySpec(
                num_servers=2, num_clients=1,
                network=NetworkSpec(enabled=enabled),
            ),
        )

    runner = ClusterRunner()
    off = runner.run(spec(False))
    on = runner.run(spec(True))
    for name in (T.HITS, T.MISSES, T.ACCESSES):
        assert off.telemetry.counter(name) == on.telemetry.counter(name)
    # net.* telemetry exists exactly when the axis is on.
    assert not [n for n in off.telemetry.counters if n.startswith("net.")]
    on_net = {n for n in on.telemetry.counters if n.startswith("net.")}
    assert T.NET_REQUESTS in on_net and T.NET_CONNECTIONS in on_net
    assert on.telemetry.histogram(T.NET_BATCH_DEPTH).count > 0


def test_network_specs_are_not_process_parallelizable():
    from repro.engine.parallel import cluster_spec_parallelizable
    from repro.engine.spec import (
        NetworkSpec,
        PolicySpec,
        Scale,
        ScenarioSpec,
        TopologySpec,
        WorkloadSpec,
    )

    def spec(enabled: bool) -> ScenarioSpec:
        return ScenarioSpec(
            scale=Scale("tiny", key_space=100, accesses=100),
            workload=WorkloadSpec(dist="uniform"),
            policy=PolicySpec(name="cot", cache_lines=16),
            topology=TopologySpec(network=NetworkSpec(enabled=enabled)),
        )

    assert cluster_spec_parallelizable(spec(False))
    assert not cluster_spec_parallelizable(spec(True))
