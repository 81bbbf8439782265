"""Host-speed sampler: calibrates measured times against a fixed reference kernel.

On a shared host the speed of a core moves by tens of percent, over
seconds to minutes, as neighbours come and go. On the 2-core VM this
benchmark was built on, one pure-Python loop took 24 to 40 ms within a
90 s window, and whole 15 s runs of one workload differed by up to 1.5x
in op time, so the spread between runs measured the neighbours, not the
program. The Sampler therefore times a fixed reference kernel - pure
Python dict lookups, like the solvers' inner loops - from a SIGALRM
handler every PERIOD_S, inside ops as well as between them, and marks
each sample with whether an op was running. Inside ops is where the
resolution is needed: staircase's ops last seconds and the host's speed
changes within one.

The kernel must not follow the program, so it allocates nothing (its
keys and values are preallocated small ints), runs with the garbage
collector off, and touches about 80 KB, which refills from cache in
microseconds after an op has evicted it. Whether it stays independent is
checked on every run: ``inside_vs_outside`` compares the kernel's median
inside ops with its median outside them (between ops and in deferred
checks), and the runner reports that ratio, which should stay near 1.

An interval's raw time is its wall time minus the time the handlers
inside it took; its calibrated time is the raw time scaled by
REFERENCE_NS over the median kernel time of the samples inside it and
the nearest one on each side. A calibrated millisecond is a millisecond
on a host where the kernel takes REFERENCE_NS. The kernel lives here, not
in the library, so no change to polytri moves its code; raw times are
kept beside every calibrated one, and ``dump`` keeps every sample for the
result file.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

PERIOD_S = 0.02
REFERENCE_NS = 250_000

_TABLE = {k: k & 7 for k in range(256)}
_KEYS = [(i * 7919) % 256 for i in range(8000)]


def _kernel() -> int:
    table = _TABLE
    acc = 0
    for k in _KEYS:
        acc ^= table[k]
    return acc


class Sampler:
    """Samples the kernel's time every PERIOD_S while started."""

    def __init__(self) -> None:
        self.at: list[int] = []  # sample start, perf_counter ns
        self.kernel_ns: list[int] = []
        self.cost_ns: list[int] = []  # whole handler, bookkeeping included
        self.inside: list[bool] = []  # taken while an op ran
        self.in_op = False  # set by the loop around each op
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:  # a tick that lands inside a slow sample is dropped
            return
        self._busy = True
        t0 = time.perf_counter_ns()
        enabled = gc.isenabled()
        gc.disable()
        k0 = time.perf_counter_ns()
        _kernel()
        k1 = time.perf_counter_ns()
        if enabled:
            gc.enable()
        self.at.append(t0)
        self.kernel_ns.append(k1 - k0)
        self.inside.append(self.in_op)
        self.cost_ns.append(time.perf_counter_ns() - t0)
        self._busy = False

    def start(self) -> None:
        for _ in range(3):  # the interpreter specialises the kernel on first runs
            _kernel()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def measure(self, t0: int, t1: int) -> tuple[int, float]:
        """(raw ns, calibrated ns) of the interval [t0, t1)."""
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_left(self.at, t1)
        raw = t1 - t0 - sum(self.cost_ns[i:j])
        around = self.kernel_ns[max(i - 1, 0) : j + 1]
        return raw, raw * REFERENCE_NS / statistics.median(around)

    def inside_vs_outside(self, t0: int, t1: int) -> tuple[float, int, int]:
        """Over [t0, t1): the kernel's median inside ops over its median
        outside them, and the two sample counts (ratio 1.0 when either
        side has no samples)."""
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_left(self.at, t1)
        ins = [k for k, x in zip(self.kernel_ns[i:j], self.inside[i:j]) if x]
        outs = [k for k, x in zip(self.kernel_ns[i:j], self.inside[i:j]) if not x]
        ratio = statistics.median(ins) / statistics.median(outs) if ins and outs else 1.0
        return ratio, len(ins), len(outs)

    def dump(self) -> dict[str, list]:
        return {"at": self.at, "kernel_ns": self.kernel_ns, "cost_ns": self.cost_ns,
                "inside": self.inside}
