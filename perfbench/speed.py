"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by a quarter or
more over tens of seconds, for deterministic work, in CPU time as well as
in wall time (other tenants contend for the same cores, caches and memory).
A run of 30 seconds cannot average such a drift away, so every measured
time is also expressed at a fixed nominal speed: a fixed pure-Python kernel
(tuple keys, a dict of a few MB, integer arithmetic: the operations coarsek
spends its time in) is timed right before and right after each request
(the time after one request is the time before the next), and the
request's seconds are scaled by ``NOMINAL_S`` over the mean of the two
kernel times.  On the machine this was tuned on, that cut the spread of
4-sample medians of line-operator work from 14-25% to 6-8%; kernels with a
small working set, or run in another process, tracked the drift worse.  The
raw seconds stay in the run's record.

The kernel's table is built once and kept, so it adds a constant to the
peak resident set instead of a transient peak that would hide the
program's own peak on small workloads.  It holds only tuples of integers,
which the cyclic collector stops tracking after one collection, so the
program's full collections do not grow with it (a table of lists doubled
the collector's time on verify-suite).
"""

from __future__ import annotations

import time

# about the median kernel time on an Intel Xeon Processor (2 vCPUs, Python
# 3.11.7); fixed, so it only sets the scale of adjusted times
NOMINAL_S = 0.05


class Kernel:
    """Sweep a table of tuple keys in hash order, then rebuild a quarter of
    its values, so each run also allocates and frees."""

    SIZE = 40000
    STEP = 10000

    def __init__(self):
        self.table = {(i, (i & 7, i >> 3)): (i, i * i) for i in range(self.SIZE)}
        self.keys = list(frozenset(self.table))
        self.cursor = 0

    def seconds(self) -> float:
        """Time of one run of the kernel."""
        t0 = time.perf_counter()
        table = self.table
        total = 0
        for a, (b, c) in self.keys:
            total += table[(a, (b, c))][1] - b * c
        for i in range(self.cursor, self.cursor + self.STEP):
            table[(i, (i & 7, i >> 3))] = (i, i * i)
        self.cursor = (self.cursor + self.STEP) % self.SIZE
        return time.perf_counter() - t0
