"""The repository benchmark: one command, three workloads, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload skew-read --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload skew-read --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --selfcheck

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` measures one untraced round and then two traced rounds of
the same seed and reports the per-layer ledger (self time per layer, the
``harness`` remainder and the tracing overhead). The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A human-readable report, the host
fingerprint and the per-round figures come before it and are also
written to ``perfbench/out/``, together with the sampled spans of traced
runs.

A run repeats rounds (see ``scenarios.py``) until ``--seconds`` have
passed, and at least ``MIN_ROUNDS`` of them. Round ``r`` uses base seed
``round_seed(seed, r % CYCLE)``, so every seed runs at least twice on
identical inputs: the seed-determined metrics (``hit_rate``,
``backend_imbalance``, ``storage_reads_per_req``) are pooled over the
first ``CYCLE`` rounds, and every later round must repeat its
predecessor's counts exactly.

Timings are reported at a fixed reference speed (``reference.py``): the
host's speed jumps between states up to ~1.7x apart, so a round times a
fixed pure-Python reference unit every ``SAMPLE_EVERY`` requests and
scales each request block's timings by the speed measured within it.
The first round only warms the process up and is not timed.
Throughput is the median over every other round's scaled block rates.
A timed round and the previous timed round of its seed form a pair with
identical requests; each latency percentile is the median over pairs of
the percentile of each request's lower scaled latency in the pair, which
drops the host's short stalls (they rarely hit one request twice). Set-up
time is the median over rounds scaled by the run's median speed. The report prints the measured (unscaled)
figures of each round and the run's speed; the per-layer ledger of
``--trace 1`` is not scaled, and its rounds take no samples.

``--selfcheck`` runs every workload twice in fresh processes on the
given seed and on ``HELD_OUT_SEED`` (never used to tune anything here),
untraced and traced, and checks that every seed-determined figure
repeats exactly across processes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: distinct round seeds per run; every seed runs at least twice
CYCLE = 3
#: a warm-up round, then every seed at least twice and three timed pairs
MIN_ROUNDS = 2 * CYCLE + 1
#: traced rounds per ``--trace 1`` run (same seed as the untraced one)
TRACED_ROUNDS = 2
#: the held-out seed of ``--selfcheck``
HELD_OUT_SEED = 90_210

#: name, unit, better — the end-to-end metrics of ``--trace 0``
END_TO_END = (
    ("throughput_rps", "1/s", "higher"),
    ("get_p50_us", "us", "lower"),
    ("get_p99_us", "us", "lower"),
    ("set_p50_us", "us", "lower"),
    ("set_p99_us", "us", "lower"),
    ("hit_rate", "ratio", "higher"),
    ("backend_imbalance", "ratio", "lower"),
    ("storage_reads_per_req", "1/req", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: seed-determined end-to-end metrics (compared exactly by --selfcheck)
SEED_DETERMINED = {
    "skew-read": ("hit_rate", "backend_imbalance", "storage_reads_per_req"),
    "uniform-write": ("hit_rate", "backend_imbalance", "storage_reads_per_req"),
    # on the wire, hits race with deletes; only the routing is exact
    "wire-pipelined": ("backend_imbalance",),
}


#: on the wire only these layers' call counts are a pure function of the
#: seed (a read's set-on-miss races with concurrent deletes); elsewhere all are
EXACT_CALLS = {"wire-pipelined": ("workloads", "cluster.hashring")}


def exact_layer_metrics(workload: str) -> list[str]:
    """Per-layer metrics that must repeat exactly for one seed."""
    if workload == "wire-pipelined":
        return ["cluster.hashring.calls"]
    return [name for name, unit in _per_layer_names() if unit == "count"]


def _per_layer_names() -> tuple[tuple[str, str], ...]:
    from tracing import LAYERS

    names = [(f"{layer}.self_s", "s") for layer in (*LAYERS, "harness")]
    names += [
        ("core.cache.calls", "count"),
        ("core.cache.hit_ratio", "ratio"),
        ("cluster.hashring.calls", "count"),
        ("cluster.retry.calls", "count"),
        ("cluster.retry.attempts_per_call", "ratio"),
        ("cluster.retry.failures", "count"),
        ("cluster.loadmonitor.calls", "count"),
        ("cluster.backend.calls", "count"),
        ("cluster.backend.hit_ratio", "ratio"),
        ("cluster.backend.evictions", "count"),
        ("cluster.backend.max_share", "ratio"),
        ("cluster.storage.reads", "count"),
        ("cluster.storage.writes", "count"),
        ("net.client.await_s", "s"),
        ("net.client.depth", "req/flush"),
        ("net.client.timeouts", "count"),
        ("net.client.errors", "count"),
        ("net.client.reconnects", "count"),
        ("net.server.depth", "req/flush"),
        ("net.server.protocol_errors", "count"),
        ("net.bytes_per_req", "B/req"),
        ("trace.overhead", "ratio"),
        ("trace.wall_s", "s"),
    ]
    return tuple(names)


def host_fingerprint(workload: str) -> dict[str, object]:
    """Where a result was measured."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "plane": "socket" if workload == "wire-pipelined" else "in-process",
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _determinism_errors(rounds: list, cycle: int) -> list[str]:
    """Rounds that repeat a seed must repeat its exact counts."""
    errors = []
    for index in range(cycle, len(rounds)):
        earlier = rounds[index - cycle]
        if rounds[index].exact != earlier.exact:
            errors.append(
                f"round {index} repeats round {index - cycle}'s seed but "
                f"its counts differ: {rounds[index].exact} != {earlier.exact}"
            )
    return errors


def seed_metrics(workload: str, totals: dict[str, float]) -> dict[str, float]:
    """``hit_rate``, ``backend_imbalance`` and ``storage_reads_per_req``."""
    from scenarios import shard_imbalance

    if workload == "wire-pipelined":
        # no front-end cache on this plane: the shard is the cache a read
        # can hit, and a shard miss is the read a front end sends to storage
        hit_rate = 1.0 - _ratio(totals["misses"], totals["reads"])
        storage_reads = totals["misses"]
    else:
        hit_rate = _ratio(totals["local_hits"], totals["reads"])
        storage_reads = totals["storage.reads"]
    return {
        "hit_rate": hit_rate,
        "backend_imbalance": shard_imbalance(totals),
        "storage_reads_per_req": _ratio(storage_reads, totals["requests"]),
    }


def percentile(sorted_values: list[int], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return float("nan")
    return float(sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1])


LATENCIES = ("get_p50_us", "get_p99_us", "set_p50_us", "set_p99_us")


def round_latencies(latency_ns, reads) -> dict[str, float]:
    """Get and set latency percentiles of one round, in microseconds."""
    out = {}
    for name, is_read in (("get", 1), ("set", 0)):
        samples = sorted(v for v, rd in zip(latency_ns, reads) if rd == is_read)
        out[f"{name}_p50_us"] = percentile(samples, 0.50) / 1e3
        out[f"{name}_p99_us"] = percentile(samples, 0.99) / 1e3
    return out


def at_reference_speed(r) -> tuple[list[float], list[float], list[float]]:
    """Round ``r``'s host speed, block throughputs and request latencies,
    each block's timings scaled by the speed measured within it."""
    from reference import speed

    speeds = [speed(samples) for samples in r.block_samples]
    blocks = [rate / s for rate, s in zip(r.blocks, speeds)]
    last = len(speeds) - 1
    latency_ns = [
        ns * speeds[min(i // r.quota, last)] for i, ns in enumerate(r.latency_ns)
    ]
    return speeds, blocks, latency_ns


def measure_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """Untraced rounds until ``seconds`` have passed (at least ``MIN_ROUNDS``),
    timings at the reference speed."""
    from scenarios import pooled, round_seed, run_round

    rounds = []
    speeds: list[float] = []
    blocks: list[float] = []
    latencies: dict[str, list[float]] = {name: [] for name in LATENCIES}
    #: scaled latencies of the last timed round of each seed
    previous: dict[int, list[float]] = {}
    started = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - started < seconds:
        index = len(rounds) % CYCLE
        r = run_round(workload, round_seed(seed, index))
        rounds.append(r)
        if len(rounds) == 1:
            continue  # warm-up: checked and counted, not timed
        round_speeds, round_blocks, latency_ns = at_reference_speed(r)
        speeds += round_speeds
        blocks += round_blocks
        earlier = previous.get(index)
        previous[index] = latency_ns
        if earlier is not None:
            pair = list(map(min, earlier, latency_ns))
            for name, value in round_latencies(pair, r.reads).items():
                latencies[name].append(value)
        r.latency_ns = None  # memory stays flat per round
    # set-up precedes the round's blocks: scale it by the run's speed
    run_speed = _median(speeds)
    metrics = {
        "throughput_rps": _median(blocks),
        **{name: _median(values) for name, values in latencies.items()},
        **seed_metrics(workload, pooled(rounds[:CYCLE])),
        "setup_s": _median([r.setup_s for r in rounds[1:]]) * run_speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {
        "rounds": rounds,
        "metrics": metrics,
        "speed": run_speed,
        "check_errors": _determinism_errors(rounds, CYCLE),
    }


def measure_layers(workload: str, seed: int) -> dict:
    """One untraced round, then ``TRACED_ROUNDS`` traced rounds, one seed."""
    from reference import speed
    from scenarios import pooled, round_seed, run_round
    from tracing import LAYERS, SpanRecorder, patched

    base = round_seed(seed, 0)
    untraced = run_round(workload, base)
    rec = SpanRecorder()
    traced, calls = [], []
    exact = EXACT_CALLS.get(workload, LAYERS)
    with patched(rec):
        for _ in range(TRACED_ROUNDS):
            before = dict(rec.calls)
            traced.append(run_round(workload, base, rec))
            calls.append({k: rec.calls[k] - before.get(k, 0) for k in exact})
    errors = [
        f"traced round {i} counts differ from the untraced round: "
        f"{r.exact} != {untraced.exact}"
        for i, r in enumerate(traced)
        if r.exact != untraced.exact
    ]
    errors += [
        f"traced round {i} made other calls than round 0: {c} != {calls[0]}"
        for i, c in enumerate(calls)
        if c != calls[0]
    ]

    wall_ns = sum(r.wall_s for r in traced) * 1e9
    self_s = {layer: rec.self_ns.get(layer, 0) * 1e-9 for layer in LAYERS}
    self_s["harness"] = wall_ns * 1e-9 - sum(self_s.values())
    if self_s["harness"] < 0:
        errors.append(f"layer self times exceed the traced wall time: {self_s}")
    t = pooled(traced)
    shard_gets = [v for k, v in t.items() if k.startswith("shard_gets.")]
    metrics = {f"{layer}.self_s": value for layer, value in self_s.items()}
    metrics.update({
        "core.cache.calls": rec.calls.get("core.cache", 0),
        "core.cache.hit_ratio": _ratio(t.get("local_hits", 0), t.get("reads", 0)),
        "cluster.hashring.calls": rec.calls.get("cluster.hashring", 0),
        "cluster.retry.calls": rec.calls.get("cluster.retry", 0),
        "cluster.retry.attempts_per_call": _ratio(
            t.get("retry.attempts", 0), t.get("retry.operations", 0)
        ),
        "cluster.retry.failures": t.get("retry.failures", 0),
        "cluster.loadmonitor.calls": rec.calls.get("cluster.loadmonitor", 0),
        "cluster.backend.calls": rec.calls.get("cluster.backend", 0),
        "cluster.backend.hit_ratio": _ratio(
            t.get("backend.get_hits", 0), t.get("backend.gets", 0)
        ),
        "cluster.backend.evictions": t.get("backend.evictions", 0),
        "cluster.backend.max_share": _ratio(max(shard_gets, default=0), sum(shard_gets)),
        "cluster.storage.reads": t.get("storage.reads", 0),
        "cluster.storage.writes": t.get("storage.writes", 0),
        "net.client.await_s": rec.await_ns.get("net.client", 0) * 1e-9,
        "net.client.depth": _ratio(
            t.get("net.client.requests", 0), t.get("net.client.batches", 0)
        ),
        "net.client.timeouts": t.get("net.client.timeouts", 0),
        "net.client.errors": t.get("net.client.errors", 0),
        "net.client.reconnects": t.get("net.client.reconnects", 0),
        "net.server.depth": _ratio(
            t.get("net.server.requests", 0), t.get("net.server.batches", 0)
        ),
        "net.server.protocol_errors": t.get("net.server.protocol_errors", 0),
        "net.bytes_per_req": _ratio(t.get("net.client.bytes", 0), t.get("requests", 0)),
        "trace.overhead": _ratio(
            _median([b for r in traced for b in r.blocks]), _median(untraced.blocks)
        ),
        "trace.wall_s": wall_ns * 1e-9,
    })
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload}-seed{seed}.jsonl"
    sampled = rec.write_spans(str(span_file))
    return {
        "rounds": [untraced, *traced],
        "metrics": metrics,
        "check_errors": errors,
        "span_file": f"{span_file.relative_to(ROOT)} ({sampled} spans)",
        "speed": speed([t for b in untraced.block_samples for t in b]),
    }


def _report(workload: str, seed: int, trace: int, measured: dict) -> list[str]:
    lines = [f"workload {workload}  seed {seed}  trace {trace}"]
    lines.append("host " + json.dumps(host_fingerprint(workload)))
    lines.append(f"host speed {measured['speed']:.4f} (reference.py)")
    for i, r in enumerate(measured["rounds"]):
        lines.append(
            f"  round {i}: {r.requests} requests in {r.wall_s:.3f} s, "
            f"set-up {r.setup_s:.4f} s, median block "
            f"{_median(r.blocks):.0f} req/s, failed {r.failed}"
        )
    metrics = measured["metrics"]
    if trace:
        wall = metrics["trace.wall_s"]
        lines.append(f"  {'layer':<22}{'self_s':>10}{'share':>8}")
        for name, value in metrics.items():
            if name.endswith(".self_s"):
                lines.append(
                    f"  {name[:-7]:<22}{value:>10.4f}{_ratio(value, wall):>8.1%}"
                )
        lines.append(f"  trace.overhead {metrics['trace.overhead']:.3f}")
        lines.append(f"  spans written to {measured['span_file']}")
    else:
        for name, value in metrics.items():
            lines.append(f"  {name:<24}{value:.6g}")
    attempted = sum(r.requests for r in measured["rounds"])
    failed = sum(r.failed for r in measured["rounds"])
    lines.append(f"  failed_ratio {_ratio(failed, attempted):.6g} ({failed}/{attempted})")
    for r in measured["rounds"]:
        lines.extend(f"  error: {e}" for e in r.errors)
    lines.extend(f"  check failed: {e}" for e in measured["check_errors"])
    return lines


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        measured = measure_layers(workload, seed)
        units = dict(_per_layer_names())
    else:
        measured = measure_end_to_end(workload, seed, seconds)
        units = {name: unit for name, unit, _ in END_TO_END}
    rounds = measured["rounds"]
    attempted = sum(r.requests for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {
        "correct": failed == 0 and not measured["check_errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(measured["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    report = _report(workload, seed, trace, measured)
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=workload, seed=seed, trace=trace,
                  host=host_fingerprint(workload), report=report)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print("\n".join(report), flush=True)
    return result


def selfcheck(seed: int) -> int:
    """Fresh-process repeat runs on ``seed`` and ``HELD_OUT_SEED``."""
    from scenarios import WORKLOADS

    problems = 0
    for workload in WORKLOADS:
        for s in (seed, HELD_OUT_SEED):
            for trace in (0, 1):
                outputs = []
                for _ in range(2):
                    proc = subprocess.run(
                        [sys.executable, str(Path(__file__)), "--workload", workload,
                         "--seed", str(s), "--seconds", "0", "--trace", str(trace)],
                        capture_output=True, text=True, cwd=ROOT, timeout=600,
                    )
                    if proc.returncode != 0:
                        print(proc.stdout + proc.stderr, file=sys.stderr)
                        return 1
                    outputs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
                a, b = outputs
                if trace:
                    names = exact_layer_metrics(workload)
                else:
                    names = list(SEED_DETERMINED[workload])
                diff = [
                    n for n in names
                    if a["metrics"][n]["value"] != b["metrics"][n]["value"]
                ]
                ok = a["correct"] and b["correct"] and not a["failed"] and not b["failed"]
                status = "ok" if ok and not diff else "FAILED"
                problems += status != "ok"
                shown = {n: a["metrics"][n]["value"] for n in names[:3]}
                print(f"{workload:<15} seed {s:<6} trace {trace}: {status} "
                      f"{shown}{'  differs: ' + ', '.join(diff) if diff else ''}",
                      flush=True)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"benchmark: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from scenarios import WORKLOADS

    if args.selfcheck:
        return selfcheck(args.seed)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
