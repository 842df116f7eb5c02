"""Per-layer span recorder for the traced benchmark run.

The traced run wraps the public entry points of each layer (the
:func:`seams` table) for the duration of a :func:`patched` block. Every
wrapped call records a span: layer name, start, end, parent span and
request id.
Self time (a span's duration minus the part its child spans cover) is
summed per layer over every call; full span records are kept only for a
deterministic sample of requests and written out at the end.

Coroutine methods (the socket client) are wrapped step by step: each
time the event loop resumes the coroutine, the resumption is one span,
so their self time is on-CPU time and overlapping waits are counted
separately as ``await_ns``.

Untraced runs never enter :func:`patched`, so they execute the
program's own code with no wrapper in the path.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

#: one request in this many keeps its full span tree
SAMPLE_EVERY = 997

_now = time.perf_counter_ns


class SpanRecorder:
    """Span stack plus per-layer self-time, call and await counters."""

    def __init__(self, sample_every: int = SAMPLE_EVERY) -> None:
        self.sample_every = sample_every
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.await_ns: dict[str, int] = defaultdict(int)
        #: request id the harness is issuing (``None`` between requests)
        self.request: int | None = None
        #: sampled span records: (name, start_ns, end_ns, span, parent, request)
        self.spans: list[tuple[str, int, int, int, int | None, int | None]] = []
        self._stack: list[list[Any]] = []
        self._next_id = 0
        self._issued = 0

    def begin_request(self) -> int:
        """Tag the spans opened from now on with a fresh request id."""
        self.request = self._issued
        self._issued += 1
        return self.request

    def push(self, layer: str, request: int | None = None) -> list[Any]:
        """Open a span; returns the frame :meth:`pop` closes."""
        stack = self._stack
        if request is None:
            request = self.request
            if request is None and stack:
                request = stack[-1][3]
        self._next_id += 1
        parent = stack[-1][4] if stack else None
        # [layer, start, child_ns, request, span_id, parent_id]
        frame = [layer, 0, 0, request, self._next_id, parent]
        stack.append(frame)
        frame[1] = _now()
        return frame

    def pop(self, frame: list[Any]) -> None:
        """Close the innermost span (``frame``) and charge its self time."""
        end = _now()
        stack = self._stack
        stack.pop()
        layer, start, child, request, span_id, parent = frame
        duration = end - start
        self.self_ns[layer] += duration - child
        self.calls[layer] += 1
        if stack:
            stack[-1][2] += duration
        if request is not None and request % self.sample_every == 0:
            self.spans.append((layer, start, end, span_id, parent, request))

    def write_spans(self, path: str) -> int:
        """Write the sampled spans as JSON lines; returns how many."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, span, parent, request in self.spans:
                out.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "span": span, "parent": parent, "request": request,
                }) + "\n")
        return len(self.spans)


def _timed(fn: Callable[..., Any], layer: str, rec: SpanRecorder) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = rec.push(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.pop(frame)

    return wrapper


class _Stepped:
    """Awaitable that times each resumption of a wrapped coroutine."""

    __slots__ = ("coro", "layer", "rec", "request")

    def __init__(self, coro: Any, layer: str, rec: SpanRecorder) -> None:
        self.coro = coro
        self.layer = layer
        self.rec = rec
        self.request = rec.request

    def __await__(self) -> Iterator[Any]:
        coro, layer, rec = self.coro, self.layer, self.rec
        started = _now()
        value: Any = None
        error: BaseException | None = None
        try:
            while True:
                frame = rec.push(layer, self.request)
                try:
                    if error is None:
                        signal = coro.send(value)
                    else:
                        signal = coro.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    rec.pop(frame)
                try:
                    value, error = (yield signal), None
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # delivered into the coroutine
                    value, error = None, exc
        finally:
            rec.await_ns[layer] += _now() - started


def _stepped(fn: Callable[..., Any], layer: str, rec: SpanRecorder) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> _Stepped:
        return _Stepped(fn(*args, **kwargs), layer, rec)

    return wrapper


def seams() -> list[tuple[str, type, str]]:
    """``(layer, class, method)`` for every timed entry point.

    Layers are named by module. Only public methods are wrapped, so a
    layer's self time includes whatever private helpers it calls that do
    not cross into another layer (e.g. the front end's miss loader runs
    inside ``CoTCache.get_or_admit`` and is charged to ``core.cache``
    apart from the ring, guard, monitor, shard and storage calls it
    makes). ``ConsistentHashRing.add_server`` is the ring build, so that
    part of set-up is charged to the ring rather than to the runner.
    """
    from repro.cluster.backend import BackendCacheServer
    from repro.cluster.client import FrontEndClient
    from repro.cluster.hashring import ConsistentHashRing
    from repro.cluster.loadmonitor import LoadMonitor
    from repro.cluster.retry import ClusterGuard
    from repro.cluster.storage import PersistentStore
    from repro.core.cache import CoTCache
    from repro.engine.runners import ClusterRunner
    from repro.net import proto
    from repro.net.client import ShardEndpoint
    from repro.workloads.base import KeyGenerator
    from repro.workloads.mixer import OperationMixer
    from repro.workloads.ycsb import YcsbOperationSource
    from repro.workloads.zipfian import ZipfianGenerator

    table = [
        ("engine.runners", ClusterRunner, ("run",)),
        ("workloads", OperationMixer, ("next_requests",)),
        ("workloads", YcsbOperationSource, ("next_requests",)),
        ("workloads", KeyGenerator, ("keys_array",)),
        ("workloads", ZipfianGenerator, ("keys_array",)),
        ("cluster.client", FrontEndClient, ("execute", "get", "get_many", "set", "delete")),
        ("core.cache", CoTCache, ("get_or_admit", "record_update")),
        ("cluster.hashring", ConsistentHashRing, ("server_for", "add_server")),
        ("cluster.retry", ClusterGuard, ("call",)),
        ("cluster.loadmonitor", LoadMonitor, ("record_lookup",)),
        ("cluster.backend", BackendCacheServer, ("get", "get_many", "set", "delete")),
        ("cluster.storage", PersistentStore, ("get", "set", "delete")),
        ("net.client", ShardEndpoint, ("get", "set", "delete")),
        ("net.proto", proto.RequestDecoder, ("feed",)),
        ("net.proto", proto.ResponseDecoder, ("feed",)),
        ("net.proto", proto.GetCommand, ("encode",)),
        ("net.proto", proto.SetCommand, ("encode",)),
        ("net.proto", proto.DeleteCommand, ("encode",)),
        ("net.proto", proto.Reply, ("encode",)),
        ("net.proto", proto.Value, ("encode",)),
    ]
    return [(layer, cls, method) for layer, cls, methods in table for method in methods]


#: every layer the ledger reports, in request-path order
LAYERS = (
    "workloads",
    "engine.runners",
    "cluster.client",
    "core.cache",
    "cluster.hashring",
    "cluster.retry",
    "cluster.loadmonitor",
    "cluster.backend",
    "cluster.storage",
    "net.client",
    "net.proto",
)


@contextlib.contextmanager
def patched(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every seam for the duration of the block, then restore."""
    saved: list[tuple[type, str, Any]] = []
    try:
        for layer, cls, method in seams():
            original = cls.__dict__[method]
            wrap = _stepped if inspect.iscoroutinefunction(original) else _timed
            saved.append((cls, method, original))
            setattr(cls, method, wrap(original, layer, rec))
        yield rec
    finally:
        for cls, method, original in reversed(saved):
            setattr(cls, method, original)
