"""Host speed, from a fixed reference loop, to scale op times by.

On a shared host the CPU time of the same Python code drifts by 25% and more
over minutes, as the clock rate and the load on sibling hardware threads
change.  The benchmark times this loop before every op and once after the
last, and scales each op's CPU time by NOMINAL_S over the host speed around
it: the mean of the loop times just before and just after the op, taken as a
median over the WINDOW ops on either side.  The figures then read as times on
a host where the loop takes NOMINAL_S.  The loop is the benchmark's own code,
so no change to fhskit moves it.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import defaultdict

NOMINAL_S = 0.002
WINDOW = 2
_SEQ = tuple((i * 7919) % 50 for i in range(1000))


def reference_work(seq=_SEQ) -> list[int]:
    """A correlation profile by position binning: dicts, lists and int arithmetic."""
    n = len(seq)
    positions = defaultdict(list)
    for j, v in enumerate(seq):
        positions[v].append(j)
    values = [0] * n
    for i, v in enumerate(seq):
        for j in positions[v]:
            values[(j - i) % n] += 1
    return values


def reference_time() -> float:
    """CPU seconds of one reference_work call, with the cyclic collector held off.

    The loop makes no cycles; holding the collector off keeps garbage left by
    fhskit from being collected, and charged, inside it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = time.process_time()
        reference_work()
        return time.process_time() - c0
    finally:
        if enabled:
            gc.enable()


def scale(latencies: list[float], refs: list[float], window: int = WINDOW) -> list[float]:
    """Scale each latency to the nominal host speed.

    refs[i] and refs[i + 1] are the reference times just before and just
    after op i, so refs is one longer than latencies.
    """
    around = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    return [x * NOMINAL_S / statistics.median(around[max(0, i - window):i + window + 1])
            for i, x in enumerate(latencies)]
