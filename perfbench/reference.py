"""Host speed, measured with a fixed pure-Python reference unit.

The benchmark runs on shared hosts whose speed is not constant: it jumps
between states up to ~1.7x apart that last from a fraction of a second
to minutes (other tenants, turbo frequency), and every timing of the
program moves with it. So a round times this unit after every
``SAMPLE_EVERY`` requests, between requests (a pause of ~80 us), and
reports each request block's timings at a fixed *reference speed*:

    speed = REFERENCE_NS / (median time of the unit within the block)
    reported time = measured time * speed
    reported rate = measured rate / speed

On a host that runs the unit in ``REFERENCE_NS`` the reported figures
are the measured ones. The unit does the kind of work the program's
request path does (dict lookups on string keys, method calls, attribute
updates on small objects, integer arithmetic) on tables built once, so
its own time does not depend on the allocator's state. It never imports
the program, and it must not change: a change would rescale every
reported timing.
"""

from __future__ import annotations

import random
import statistics
import time

_now = time.perf_counter_ns

#: median time of one :func:`sample` within benchmark rounds on the host
#: the benchmark was written on (2-vCPU Xeon VM, CPython 3.11)
REFERENCE_NS = 42_000
#: requests between two samples of the unit (divides every block size)
SAMPLE_EVERY = 250


class _Entry:
    __slots__ = ("key", "hits")

    def __init__(self, key: str) -> None:
        self.key = key
        self.hits = 0

    def touch(self, weight: int) -> int:
        self.hits = (self.hits + weight) & 0xFFFF
        return self.hits


_rng = random.Random(20_210_301)
#: a heavy-tailed key stream and its table, fixed once
_KEYS = tuple(f"user{int(_rng.paretovariate(1.0)) % 5000}" for _ in range(160))
_TABLE = {key: _Entry(key) for key in _KEYS}


def reference_unit() -> int:
    """One unit of reference work (~40 us); returns a checksum."""
    table = _TABLE
    total = 0
    for index, key in enumerate(_KEYS):
        total = (total + table[key].touch(index)) & 0xFFFF
    return total


def sample() -> int:
    """Time of one :func:`reference_unit`, in nanoseconds. A first, untimed
    unit brings its tables back into the CPU caches, so the time does not
    depend on how much of them the program's requests evicted."""
    reference_unit()
    start = _now()
    reference_unit()
    return _now() - start


def speed(samples: list[int]) -> float:
    """Host speed relative to the reference host (above 1: faster)."""
    return REFERENCE_NS / statistics.median(samples)
