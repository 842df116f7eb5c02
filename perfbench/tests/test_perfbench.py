"""Tests of the benchmark's own code (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import itertools
import json
import re
from pathlib import Path

import pytest

import reference
import run
import scenarios
import tracing
from repro.cluster.cluster import CacheCluster
from repro.cluster.storage import PersistentStore
from repro.workloads.request import OpType, Request

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# ------------------------------------------------------------ self time


def test_self_time_of_nested_spans(monkeypatch):
    """A[0,100] > B[10,60] > C[20,30];  A > D[70,90];  E[100,110] a second
    root: each span's self time is its duration minus its children's."""
    clock = iter([0, 10, 20, 30, 60, 70, 90, 100, 100, 110])
    monkeypatch.setattr(tracing, "_now", lambda: next(clock))
    rec = tracing.SpanRecorder(sample_every=1)
    rec.begin_request()
    a = rec.push("A")
    b = rec.push("B")
    rec.pop(rec.push("C"))
    rec.pop(b)
    rec.pop(rec.push("D"))
    rec.pop(a)
    rec.pop(rec.push("E"))
    assert dict(rec.self_ns) == {"A": 30, "B": 40, "C": 10, "D": 20, "E": 10}
    assert sum(rec.self_ns.values()) == 100 + 10  # the roots' durations
    assert dict(rec.calls) == {"A": 1, "B": 1, "C": 1, "D": 1, "E": 1}
    parent = {name: parent for name, _, _, _, parent, _ in rec.spans}
    span = {name: span for name, _, _, span, _, _ in rec.spans}
    assert parent["C"] == span["B"] and parent["B"] == parent["D"] == span["A"]
    assert parent["A"] is None and parent["E"] is None


def test_same_layer_nested_in_itself_is_not_counted_twice(monkeypatch):
    clock = iter([0, 10, 30, 40])
    monkeypatch.setattr(tracing, "_now", lambda: next(clock))
    rec = tracing.SpanRecorder()
    outer = rec.push("workloads")
    rec.pop(rec.push("workloads"))
    rec.pop(outer)
    assert rec.self_ns["workloads"] == 40 and rec.calls["workloads"] == 2


def test_only_sampled_requests_keep_spans():
    rec = tracing.SpanRecorder(sample_every=2)
    for _ in range(4):
        rec.begin_request()
        rec.pop(rec.push("X"))
    assert [r[-1] for r in rec.spans] == [0, 2]
    assert rec.calls["X"] == 4


def test_patched_restores_every_seam():
    before = [cls.__dict__[m] for _, cls, m in tracing.seams()]
    with tracing.patched(tracing.SpanRecorder()):
        during = [cls.__dict__[m] for _, cls, m in tracing.seams()]
    after = [cls.__dict__[m] for _, cls, m in tracing.seams()]
    assert all(x is not y for x, y in zip(before, during))
    assert after == before


def test_stepped_coroutine_times_each_resumption():
    import asyncio

    rec = tracing.SpanRecorder()

    async def inner(x):
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        return x + 1

    wrapped = tracing._stepped(inner, "net.client", rec)
    assert asyncio.run(_await(wrapped(41))) == 42
    assert rec.calls["net.client"] == 3  # start + two resumptions
    assert rec.await_ns["net.client"] >= rec.self_ns["net.client"] > 0


async def _await(awaitable):
    return await awaitable


# ------------------------------------------------------------ freshness


@pytest.fixture
def front_ends():
    cluster = CacheCluster(num_servers=2, virtual_nodes=16, capacity_bytes=1 << 30,
                           value_size=1, storage=PersistentStore(scenarios.initial_value))
    drive = scenarios.Drive(quota=1_000, requests=1_000)
    factory = scenarios.ClientFactory(drive, None)
    return drive, factory(cluster, 0), factory(cluster, 1), cluster


def _get(fe, key):
    return fe.execute(Request(OpType.GET, key))


def _set(fe, key, value):
    fe.execute(Request(OpType.SET, key, value))


def test_fresh_reads_pass(front_ends):
    drive, a, b, _ = front_ends
    assert _get(a, "k") == scenarios.initial_value("k")
    _set(b, "k", "v1")
    assert _get(b, "k") == "v1"
    assert drive.stale == 0 and drive.failed == 0


def test_paper_mode_allows_own_last_observed_local_hit(front_ends):
    drive, a, b, _ = front_ends
    _get(a, "k")
    assert "k" in a.policy  # admitted: the cache is not full
    _set(b, "k", "v1")  # paper mode: a's copy is not invalidated
    assert _get(a, "k") == scenarios.initial_value("k")
    assert drive.stale == 0


def test_injected_stale_value_is_rejected(front_ends):
    drive, a, _, cluster = front_ends
    cluster.storage.set("k", "bogus")  # behind the benchmark's back
    assert _get(a, "k") == "bogus"
    assert drive.stale == 1 and drive.failed == 1
    assert "stale read" in drive.errors[0]


def test_local_hit_other_than_last_observed_is_rejected(front_ends):
    drive, a, b, _ = front_ends
    _get(a, "k")
    _set(b, "k", "v1")
    a.last_seen["k"] = "something else"  # a never saw what it caches
    _get(a, "k")
    assert drive.stale == 1


def test_request_exceptions_count_as_failures(front_ends):
    drive, a, _, cluster = front_ends

    def broken(key):
        raise RuntimeError("boom")

    cluster.storage.get = broken
    assert _get(a, "k") is None
    assert drive.failed == 1 and drive.stale == 0
    assert drive.requests == 1


# ------------------------------------------------------- reference speed


def test_timings_scale_by_the_speed_within_each_block():
    ref = reference.REFERENCE_NS
    r = scenarios.Round(
        blocks=[1000.0, 2000.0], quota=2, block_samples=[[ref] * 3, [2 * ref]],
        latency_ns=[10, 20, 30, 40], reads=bytearray(4),
    )
    speeds, blocks, latency_ns = run.at_reference_speed(r)
    assert speeds == [1.0, 0.5]
    assert blocks == [1000.0, 4000.0]  # half the speed: twice the rate
    assert latency_ns == [10, 20, 15, 20]


def test_reference_samples_are_taken_outside_the_blocks(monkeypatch):
    clock = [0]
    monkeypatch.setattr(scenarios, "_now", lambda: clock[0])

    def slow_sample():
        clock[0] += 1_000
        return 1_000

    monkeypatch.setattr(scenarios, "sample_reference", slow_sample)
    drive = scenarios.Drive(quota=500, requests=1_000)
    for _ in range(1_000):
        drive.tick()
        clock[0] += 1
    r = scenarios.Round()
    drive.finish(r)
    assert r.block_samples == [[1_000, 1_000], [1_000, 1_000]]
    assert r.blocks == pytest.approx([500 / 499e-9, 500 / 500e-9])  # samples left out


# ---------------------------------------------------------- metric names


def _declared():
    e2e = [(name, unit) for name, unit, _ in run.END_TO_END]
    return e2e, list(run._per_layer_names())


def test_every_metric_name_and_unit_is_well_formed():
    e2e, layers = _declared()
    names = [n for n, _ in e2e + layers]
    assert len(names) == len(set(names))
    for name, unit in e2e + layers:
        assert NAME.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    e2e, layers = _declared()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == e2e
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers
    assert [w["name"] for w in spec["workloads"]] == list(scenarios.WORKLOADS)
    better = {name: b for name, _, b in run.END_TO_END}
    assert all(m["better"] == better[m["name"]] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    for item in itertools.chain(spec["end_to_end"], spec["per_layer"], spec["workloads"]):
        assert NAME.fullmatch(item["name"])


# ------------------------------------------------------- traced == untraced


def test_traced_round_makes_the_untraced_decisions(monkeypatch):
    # 250 requests per front end: one reference sample per block
    monkeypatch.setitem(scenarios.ROUND_REQUESTS, "skew-read", 5_000)
    plain = scenarios.run_round("skew-read", 7)
    rec = tracing.SpanRecorder()
    with tracing.patched(rec):
        traced = scenarios.run_round("skew-read", 7, rec)
    assert traced.exact == plain.exact
    assert plain.failed == traced.failed == 0
    assert rec.calls["cluster.client"] >= 5_000
    assert sum(rec.self_ns.values()) <= traced.wall_s * 1e9
