"""The three benchmark workloads, each driven one round at a time.

A *round* builds the system from scratch, drives a fixed number of
requests through it and tears it down. Its inputs are a pure function of
the round's base seed, so two rounds with one seed make identical
decisions (the determinism check compares their counts).

* ``skew-read`` and ``uniform-write`` run in process: the engine's
  :class:`~repro.engine.runners.ClusterRunner` builds the cluster and
  drives 20 front ends one after another (a closed loop: each request
  completes before the next is issued). The benchmark hands the runner
  its own front ends (``client_factory``) and operation sources
  (``mixer_factory``); the front ends time and check every request.
* ``wire-pipelined`` runs two socket shard servers and the pipelined
  client on one asyncio loop, 32 requests outstanding, replaying the
  shard traffic that a cacheless front end would send for
  ``skew-read``'s request stream.

Known defect (``src``, left for a later change): stopping a
:class:`~repro.net.server.ShardServer` can log an unretrieved
``CancelledError`` from ``ShardServer._on_connect``. The benchmark leaves
the asyncio logger alone, so the traceback stays visible on stderr, and
does not count it as a failed request.
"""

from __future__ import annotations

import asyncio
import gc
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.cluster.backend import BackendCacheServer
from repro.cluster.client import FrontEndClient
from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.loadmonitor import load_imbalance
from repro.cluster.storage import PersistentStore
from repro.engine.runners import ClusterRunner
from repro.engine.spec import (
    PolicySpec,
    Scale,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    make_generator,
)
from repro.net.client import NetClientStats, ShardEndpoint
from repro.net.server import ShardServer
from repro.policies.base import MISSING
from repro.workloads.mixer import OperationMixer
from repro.workloads.request import OpType
from repro.workloads.seeding import spawn_seed
from repro.workloads.ycsb import CoreWorkload, YcsbOperationSource

from reference import SAMPLE_EVERY
from reference import sample as sample_reference
from tracing import SpanRecorder

_now = time.perf_counter_ns

KEY_SPACE = 100_000
FRONT_ENDS = 20
SHARDS = 8
#: the in-process cluster's ring points per shard (CacheCluster's default)
VIRTUAL_NODES = 8192
POLICY = PolicySpec("cot", cache_lines=64, tracker_lines=256)
SKEW_DIST = "zipf-0.99"
SKEW_READ_FRACTION = 0.9

#: the paper's shard sizing: 4 GB shards of 750 KB values (~5.6k values each)
PAPER_SHARD_BYTES = 4 * 1024**3
PAPER_VALUE_BYTES = 750 * 1024

WIRE_SHARDS = 2
WIRE_OUTSTANDING = 32
#: completed wire requests per throughput block
WIRE_BLOCK = 2_000

#: requests per round; the in-process rounds split them evenly over the
#: front ends, and each front end's share is one throughput block.
#: uniform-write's local hits are ~0.06% of reads, so its rounds are large
#: enough that a run's hit_rate counts a few hundred hits. Every block size
#: is a multiple of ``reference.SAMPLE_EVERY``
ROUND_REQUESTS = {
    "skew-read": 100_000,
    "uniform-write": 180_000,
    "wire-pipelined": 25_000,
}
WORKLOADS = tuple(ROUND_REQUESTS)


def initial_value(key: Hashable) -> Any:
    """What storage holds for a key nobody has written."""
    return ("initial", key)


def round_seed(seed: int, index: int) -> int:
    """Base seed of round ``index`` of a run with ``seed``."""
    return spawn_seed(seed, index)


@dataclass
class Round:
    """Everything one round measured."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    #: requests per second of each block
    blocks: list[float] = field(default_factory=list)
    #: latency of each request (by issue order) in nanoseconds, and
    #: whether it was a read
    latency_ns: array | None = None
    reads: bytearray | None = None
    requests: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: counts that are a pure function of the seed
    exact: dict[str, int] = field(default_factory=dict)
    #: other per-layer counts (timing-dependent on the wire)
    counts: dict[str, float] = field(default_factory=dict)
    #: requests per block, and the reference-unit times taken in each
    #: block (``reference.py``; empty in traced rounds)
    quota: int = 1
    block_samples: list[list[int]] = field(default_factory=list)


class Drive:
    """Per-round harness state: timings, block marks and the output check.

    The check is paper-mode freshness (no cross-front-end invalidation):
    a read returns the committed value, or — only when the key was in
    the reader's own front-end cache — the value that front end last
    observed.
    """

    def __init__(self, quota: int, requests: int, sample: bool = True) -> None:
        assert quota % SAMPLE_EVERY == 0
        self.quota = quota
        self.requests = 0
        self.next_mark = quota
        self.setup_end = 0
        self.marks: list[int] = []
        #: reference-unit times (every ``SAMPLE_EVERY`` requests) and the
        #: time they took away from the requests, excluded from the marks
        self.next_sample = SAMPLE_EVERY if sample else 0
        self.samples: list[int] = []
        self.paused = 0
        self.latency_ns = array("q", bytes(8 * requests))
        self.reads = bytearray(requests)
        self.written: dict[Hashable, Any] = {}
        self.failed = 0
        self.stale = 0
        self.errors: list[str] = []

    def committed(self, key: Hashable) -> Any:
        value = self.written.get(key, MISSING)
        return initial_value(key) if value is MISSING else value

    def tick(self) -> None:
        self.requests += 1
        if self.requests == self.next_mark:
            self.marks.append(_now() - self.paused)
            self.next_mark += self.quota
        if self.requests == self.next_sample:
            self.next_sample += SAMPLE_EVERY
            started = _now()
            self.samples.append(sample_reference())
            self.paused += _now() - started

    def fail(self, what: str) -> None:
        """Count a failed request; the first few are kept for the report."""
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def note_stale(self, what: str) -> None:
        self.stale += 1
        self.fail(what)

    def finish(self, result: Round) -> None:
        """Move block throughputs, latencies and failures into ``result``."""
        edges = [self.setup_end, *self.marks]
        result.blocks = [
            self.quota / ((b - a) * 1e-9) for a, b in zip(edges, edges[1:]) if b > a
        ]
        per_block = self.quota // SAMPLE_EVERY
        result.block_samples = [
            self.samples[i : i + per_block] for i in range(0, len(self.samples), per_block)
        ]
        result.quota = self.quota
        result.latency_ns = self.latency_ns
        result.reads = self.reads
        result.requests = self.requests
        result.failed = self.failed
        result.errors = self.errors


class CheckedFrontEnd(FrontEndClient):
    """A front end that times and checks every request it executes."""

    def __init__(
        self,
        cluster: Any,
        policy: Any,
        client_id: str,
        drive: Drive,
        recorder: SpanRecorder | None,
    ) -> None:
        super().__init__(cluster, policy, client_id=client_id)
        self.drive = drive
        self.recorder = recorder
        self.last_seen: dict[Hashable, Any] = {}

    def execute(self, request: Any) -> Any:
        rec = self.recorder
        if rec is None:
            return self._checked(request)
        rec.begin_request()
        frame = rec.push("harness")
        try:
            return self._checked(request)
        finally:
            rec.pop(frame)
            rec.request = None

    def _checked(self, request: Any) -> Any:
        drive = self.drive
        key = request.key
        index = drive.requests
        read = request.op is OpType.GET
        drive.reads[index] = read
        local = read and key in self.policy
        started = _now()
        try:
            value = super().execute(request)
        except Exception as exc:  # counted as a failed request; the run goes on
            drive.latency_ns[index] = _now() - started
            drive.fail(f"{type(exc).__name__}: {exc}")
            drive.tick()
            return None
        drive.latency_ns[index] = _now() - started
        if not read:
            drive.written[key] = request.value
            self.last_seen.pop(key, None)
        elif value == drive.committed(key) or (
            local and value == self.last_seen.get(key, MISSING)
        ):
            self.last_seen[key] = value
        else:
            drive.note_stale(
                f"stale read: {self.client_id} read {value!r} for {key!r}, "
                f"committed {drive.committed(key)!r}"
            )
        drive.tick()
        return value


class ClientFactory:
    """``ScenarioSpec.client_factory``: checked CoT front ends."""

    def __init__(self, drive: Drive, recorder: SpanRecorder | None) -> None:
        self.drive = drive
        self.recorder = recorder

    def __call__(self, cluster: Any, index: int) -> CheckedFrontEnd:
        return CheckedFrontEnd(
            cluster, POLICY.build(index), f"front-{index}", self.drive, self.recorder
        )


class MixerFactory:
    """``WorkloadSpec.mixer_factory``: one seeded operation source per front
    end. The first call marks the end of set-up: the runner has built the
    cluster and every front end and starts driving."""

    def __init__(self, workload: str, base_seed: int, drive: Drive | None) -> None:
        self.workload = workload
        self.base_seed = base_seed
        self.drive = drive

    def __call__(self, index: int) -> Any:
        if index == 0 and self.drive is not None:
            self.drive.setup_end = _now()
        seed = spawn_seed(self.base_seed, index)
        if self.workload == "uniform-write":
            return YcsbOperationSource(
                CoreWorkload(
                    "a", record_count=KEY_SPACE,
                    request_distribution="uniform", seed=seed,
                )
            )
        return OperationMixer(
            make_generator(SKEW_DIST, KEY_SPACE, seed),
            read_fraction=SKEW_READ_FRACTION,
            seed=spawn_seed(seed, 1),
        )


def _spec(workload: str, base_seed: int, drive: Drive, rec: SpanRecorder | None) -> ScenarioSpec:
    # skew-read's shards hold every key (the engine's default sizing)
    sizing = (
        {"capacity_bytes": PAPER_SHARD_BYTES, "value_size": PAPER_VALUE_BYTES}
        if workload == "uniform-write" else {}
    )
    topology = TopologySpec(
        num_servers=SHARDS, num_clients=FRONT_ENDS,
        storage=PersistentStore(initial_value), **sizing,
    )
    return ScenarioSpec(
        scale=Scale("bench", key_space=KEY_SPACE, accesses=ROUND_REQUESTS[workload],
                    num_clients=FRONT_ENDS, num_servers=SHARDS, seed=base_seed),
        workload=WorkloadSpec(mixer_factory=MixerFactory(workload, base_seed, drive)),
        policy=POLICY,
        topology=topology,
        client_factory=ClientFactory(drive, rec),
    )


def inprocess_round(workload: str, base_seed: int, rec: SpanRecorder | None = None) -> Round:
    """One round of ``skew-read`` or ``uniform-write``."""
    requests = ROUND_REQUESTS[workload]
    drive = Drive(requests // FRONT_ENDS, requests, sample=rec is None)
    result = Round()
    spec = _spec(workload, base_seed, drive, rec)
    start = _now()
    run = ClusterRunner().run(spec)
    result.wall_s = (_now() - start) * 1e-9
    result.setup_s = (drive.setup_end - start) * 1e-9
    drive.finish(result)

    cluster = run.cluster
    front_ends = run.front_ends
    shard_stats = [cluster.server(sid).stats for sid in cluster.server_ids]
    guard_stats = [fe.guard.stats for fe in front_ends]
    policy_stats = [fe.policy.stats for fe in front_ends]
    storage = cluster.storage.stats
    result.exact = {
        "requests": drive.requests,
        "reads": sum(s.hits + s.misses for s in policy_stats),
        "local_hits": sum(s.hits for s in policy_stats),
        "storage.reads": storage.reads,
        "storage.writes": storage.writes,
        "backend.gets": sum(s.gets for s in shard_stats),
        "backend.get_hits": sum(s.get_hits for s in shard_stats),
        "backend.sets": sum(s.sets for s in shard_stats),
        "backend.deletes": sum(s.deletes for s in shard_stats),
        "backend.evictions": sum(s.evictions for s in shard_stats),
        "retry.operations": sum(s.operations for s in guard_stats),
        "retry.attempts": sum(s.attempts for s in guard_stats),
        "retry.failures": sum(s.failures for s in guard_stats),
    }
    for sid, gets in cluster.loads().items():
        result.exact[f"shard_gets.{sid}"] = gets
    return result


# --------------------------------------------------------------------------
# wire-pipelined


def skew_read_stream(base_seed: int, requests: int) -> list[Any]:
    """``skew-read``'s request stream for a round of ``requests``: the same
    operation sources, each front end's share in turn."""
    factory = MixerFactory("skew-read", base_seed, None)
    quota = requests // FRONT_ENDS
    stream: list[Any] = []
    for index in range(FRONT_ENDS):
        stream.extend(factory(index).next_requests(quota))
    return stream


def wire_round(base_seed: int, rec: SpanRecorder | None = None) -> Round:
    """One round of ``wire-pipelined`` on a fresh event loop."""
    result = Round()
    start = _now()
    drive = asyncio.run(_wire_main(base_seed, rec, result))
    result.wall_s = (_now() - start) * 1e-9
    result.setup_s = (drive.setup_end - start) * 1e-9
    drive.finish(result)
    return result


async def _wire_main(base_seed: int, rec: SpanRecorder | None, result: Round) -> Drive:
    requests = ROUND_REQUESTS["wire-pipelined"]
    drive = Drive(WIRE_BLOCK, requests, sample=rec is None)
    backends = [
        BackendCacheServer(f"cache-{i}", capacity_bytes=1 << 40, default_value_size=1)
        for i in range(WIRE_SHARDS)
    ]
    servers = [await ShardServer(backend).start() for backend in backends]
    ring = ConsistentHashRing(
        [backend.server_id for backend in backends], virtual_nodes=VIRTUAL_NODES
    )
    net_stats = NetClientStats()
    endpoints = {
        server.server_id: ShardEndpoint(
            server.server_id, server.host, server.port, pool_size=1, stats=net_stats
        )
        for server in servers
    }
    stream = skew_read_stream(base_seed, requests)
    #: every value this run stored per key; a hit must return one of them
    stored: dict[Hashable, set[Any]] = {}
    counts = {"reads": 0, "writes": 0, "misses": 0}
    pending = iter(enumerate(stream))

    def issue(rid: int | None, call: Any, *args: Any) -> Any:
        # Tag the call (and the awaitable it returns) with its request id;
        # clear the tag before yielding so other tasks' spans do not
        # inherit it.
        if rid is None:
            return call(*args)
        rec.request = rid
        try:
            return call(*args)
        finally:
            rec.request = None

    async def worker() -> None:
        for index, request in pending:
            key = request.key
            rid = None if rec is None else rec.begin_request()
            started = _now()
            try:
                endpoint = endpoints[issue(rid, ring.server_for, key)]
                if request.op is OpType.GET:
                    counts["reads"] += 1
                    drive.reads[index] = 1
                    value = await issue(rid, endpoint.get, key)
                    # A read's latency is its get round trip: with ~40% of
                    # reads missing, a median over get-plus-backfill times
                    # would sit in the gap between one and two round trips.
                    drive.latency_ns[index] = _now() - started
                    if value is MISSING:
                        counts["misses"] += 1
                        value = drive.committed(key)
                        stored.setdefault(key, set()).add(value)
                        await issue(rid, endpoint.set, key, value)
                    elif value not in stored.get(key, ()):
                        drive.note_stale(f"wire read {value!r} for {key!r}: never stored")
                else:
                    counts["writes"] += 1
                    drive.written[key] = request.value
                    await issue(rid, endpoint.delete, key)
                    drive.latency_ns[index] = _now() - started
            except Exception as exc:  # counted as a failed request; the run goes on
                drive.latency_ns[index] = _now() - started
                drive.fail(f"{type(exc).__name__}: {exc}")
            drive.tick()

    try:
        drive.setup_end = _now()
        await asyncio.gather(*(worker() for _ in range(WIRE_OUTSTANDING)))
    finally:
        for endpoint in endpoints.values():
            await endpoint.close()
        for server in servers:
            await server.stop()

    shard_stats = [backend.stats for backend in backends]
    result.exact = {
        "requests": drive.requests,
        "reads": counts["reads"],
        "writes": counts["writes"],
        "backend.gets": sum(s.gets for s in shard_stats),
        "backend.deletes": sum(s.deletes for s in shard_stats),
    }
    for backend in backends:
        result.exact[f"shard_gets.{backend.server_id}"] = backend.stats.gets
    server_requests = sum(server.stats.requests for server in servers)
    server_batches = sum(server.stats.batches for server in servers)
    result.counts = {
        "misses": counts["misses"],
        "backend.get_hits": sum(s.get_hits for s in shard_stats),
        "backend.sets": sum(s.sets for s in shard_stats),
        "backend.evictions": sum(s.evictions for s in shard_stats),
        "net.client.requests": net_stats.requests,
        "net.client.batches": net_stats.batches,
        "net.client.timeouts": net_stats.timeouts,
        "net.client.errors": net_stats.errors,
        "net.client.reconnects": net_stats.reconnects,
        "net.client.bytes": net_stats.bytes_in + net_stats.bytes_out,
        "net.server.requests": server_requests,
        "net.server.batches": server_batches,
        "net.server.protocol_errors": sum(s.stats.protocol_errors for s in servers),
    }
    return drive


def run_round(workload: str, base_seed: int, rec: SpanRecorder | None = None) -> Round:
    """One round of ``workload``; collects garbage afterwards so rounds do
    not carry each other's cyclic garbage."""
    if workload == "wire-pipelined":
        result = wire_round(base_seed, rec)
    else:
        result = inprocess_round(workload, base_seed, rec)
    gc.collect()
    return result


def pooled(rounds: list[Round]) -> dict[str, float]:
    """Sum of every count over ``rounds``."""
    totals: dict[str, float] = {}
    for r in rounds:
        for source in (r.exact, r.counts):
            for name, value in source.items():
                totals[name] = totals.get(name, 0) + value
    return totals


def shard_imbalance(totals: dict[str, float]) -> float:
    """The paper's load imbalance: max/min lifetime shard gets."""
    return load_imbalance(
        {k: int(v) for k, v in totals.items() if k.startswith("shard_gets.")}
    )
