"""A fixed pure-Python kernel whose time tracks the host's speed.

The host's speed swings by tens of percent within minutes (see README.md),
and every job slows down or speeds up with it.  The benchmark times this
kernel between jobs and expresses each job's time as a multiple of the
kernel's time measured around it.  The kernel imports nothing from
codespectra, so no change to the package moves it.

It is a loop of small-integer arithmetic that allocates no containers, so its
time follows the host and not the state of the heap the jobs leave behind.
Over six runs of `mw_dual` and `ensemble_design`, jobs divided by this
kernel varied 2-8% (quartile spread over the median), against 11-16% for the
raw times.  A kernel of tuples, dicts and `Fraction`s, closer to the
package's own operations, did worse on `mw_dual` (9-11%).  One pass takes
about 17-25 ms.
"""

import time

ITERATIONS = 200_000
# Seconds of job time between two passes of the kernel.
EVERY_S = 0.5
# Set-up time is reported in seconds on a host where one pass takes this long.
NOMINAL_S = 0.02


def kernel():
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7
    return total


def seconds():
    """Time one pass of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class HostClock:
    """Times the kernel after every ``EVERY_S`` seconds of job time.

    Each job record gets ``ref``, the mean of the kernel times just before
    and just after the stretch of jobs it belongs to.
    """

    def __init__(self):
        self.samples = [seconds()]
        self._pending = []
        self._busy = 0.0

    def after(self, record):
        self._pending.append(record)
        self._busy += record.seconds
        if self._busy >= EVERY_S:
            self.flush()

    def flush(self):
        if not self._pending:
            return
        now = seconds()
        ref = (self.samples[-1] + now) / 2
        for record in self._pending:
            record.ref = ref
        self.samples.append(now)
        self._pending = []
        self._busy = 0.0
