"""A fixed piece of reference work that tells how fast the host runs now.

The benchmark runs on a few cores of a shared host, where other tenants slow
the same code by up to ~1.5x in phases from under a second to minutes. The
runner interleaves calls of this kernel with the program's work and gives
every time at the host speed at which one call takes `NOMINAL_S` (see
README, "Host speed").

The kernel is the benchmark's own and never calls robustcl, so a change to
the program cannot change it. It does what the program's autodiff engine
spends its time on: many small numpy operations on batch-sized arrays, each
paying Python and numpy call overhead, with a small matrix product among
them. Changing this file, or `NOMINAL_S`, changes every adjusted metric: do
it only in a change that re-records the baseline.
"""

from time import perf_counter

import numpy as np

ROUNDS = 60  # per call
NOMINAL_S = 0.0035  # one call, at the host speed the metrics are given for
SLICE_CALLS = 7  # a slice is the median of this many calls
INTERVAL_S = 0.1  # program time between two samples inside a unit

_rng = np.random.default_rng(20230205)
_A = _rng.standard_normal((128, 64))
_W = _rng.standard_normal((64, 64))


def work() -> float:
    a = _A
    for _ in range(ROUNDS):
        h = np.maximum(a @ _W, 0.0)
        a = h / (1.0 + np.abs(h)).sum(axis=1, keepdims=True) * 10.0
    return float(a.sum())


def time_call() -> float:
    t0 = perf_counter()
    work()
    return perf_counter() - t0


def time_slice() -> float:
    """Seconds one call takes now: the median of `SLICE_CALLS` calls, for
    work that is too short to sample inside (set-up)."""
    times = sorted(time_call() for _ in range(SLICE_CALLS))
    return times[SLICE_CALLS // 2]


def adjusted(seconds: float, call_s: float) -> float:
    """`seconds` of wall time at the host speed at which one call takes
    `NOMINAL_S`, when it took `call_s` while that time passed."""
    return seconds * NOMINAL_S / call_s


class Sampler:
    """Samples the host speed while a unit of work runs.

    `poll` is called from the traced program (see `spans.Tracer`); once
    `INTERVAL_S` of program time has passed since the last sample it times
    one call of the kernel. `clock` is the wall clock minus the time spent
    in those calls, so spans and units read from it do not contain them.
    Over a unit of 1.5-12 s that is 15-120 samples, 3% of its time, spread
    over the whole unit: the mean tracks the host speed the unit saw.
    """

    def __init__(self):
        self.paused = 0.0
        self.calls = []
        self._next = 0.0

    def clock(self) -> float:
        return perf_counter() - self.paused

    def poll(self) -> None:
        if perf_counter() >= self._next:
            self.sample()

    def sample(self) -> None:
        t = time_call()
        self.calls.append(t)
        self.paused += t
        self._next = perf_counter() + INTERVAL_S

    def take(self) -> list:
        """Return and forget the call times sampled so far."""
        calls, self.calls = self.calls, []
        return calls
