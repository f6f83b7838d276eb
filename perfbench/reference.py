"""Reference seconds: wall time measured against the host's own speed.

The host's speed drifts by a fifth and more from minute to minute, far past
the benchmark's bounds. So after each timed unit the run times a fixed
piece of pure-Python work, the reference slice (no pcar code), for
``REF_SHARE`` of the unit's time, and reports the unit's time in reference
seconds: its wall time divided by the time of ``REF_SECOND_SLICES`` slices,
taking the mean of the median slice times just before and just after the
unit. A reference second is about one second on the machine the benchmark
was written on (2-vCPU Xeon VM, CPython 3.11.7).
"""

from __future__ import annotations

import gc
import statistics
import time

REF_SHARE = 0.05
REF_SECOND_SLICES = 150


def reference_slice() -> int:
    """Integer arithmetic, then a dict of tuple keys built and its values
    sorted."""
    total = 0
    for i in range(50_000):
        total += i * i % 7
    table = {}
    for i in range(12_000):
        table[(i * 7919) % 10007, i & 15] = i * 0.5
    return total + len(sorted(table.values()))


def time_reference(spent: float, clock=time.perf_counter, work=reference_slice) -> float:
    """Run reference slices for ``REF_SHARE`` of ``spent`` seconds, at least
    one, with the collector off (so the slices do not pay for the
    program's heap), and return the median slice time."""
    end = clock() + REF_SHARE * spent
    samples = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        while not samples or clock() < end:
            t0 = clock()
            work()
            samples.append(clock() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(samples)


def ref_seconds(seconds: float, slice_s: float) -> float:
    """Wall seconds in reference seconds, given the slice time measured
    beside them."""
    return seconds / (slice_s * REF_SECOND_SLICES)
