"""Host-speed reference for the benchmark's timings.

The small shared machines this benchmark is meant for change speed by up
to about 1.6x for stretches of seconds to minutes: a fixed pure-Python
loop takes 14 ms in one stretch and 21 ms in the next, with no steal time
reported, and CPU time grows with wall time.  Runs of a few tens of
seconds that land in different stretches then differ by more than any
bound a regression check could use.  So every interval the benchmark
reports is scaled to a reference speed: multiplied by REFERENCE_S over
the time of a fixed pure-Python loop measured right before and right
after it.  The loop uses nothing of chaincodes, so a change to the
library moves a scaled time exactly as it moves the raw one, while a
change of the host's speed moves the interval and the loop alike and
cancels.  Raw wall times are kept in each run's record.
"""

from __future__ import annotations

import time

# about the reference loop's time in the faster stretches of a 2-vCPU
# Intel Xeon virtual machine; scaled times read as seconds there
REFERENCE_S = 0.001
LOOP_ITERATIONS = 9000
SAMPLES = 3

_TABLE = [(i * 7919) % 1021 for i in range(256)]
_LOGS = {v: i for i, v in enumerate(_TABLE)}


def _loop():
    """Table lookups, dict lookups and small-integer arithmetic, the
    operations the library's inner loops are made of."""
    table, logs, acc = _TABLE, _LOGS, 0
    for i in range(LOOP_ITERATIONS):
        a = table[(i + acc) & 255]
        acc = (acc + logs[a] * a) % 65521
    return acc


def measure():
    """Seconds of one reference loop: the median of SAMPLES loops, so that
    one interrupt does not count."""
    samples = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        _loop()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def scale(seconds, before, after):
    """`seconds` measured between reference times `before` and `after`,
    at the reference speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
