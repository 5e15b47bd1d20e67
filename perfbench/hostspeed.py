"""A clock corrected for the speed of a shared host.

On the reference host (a 2-vCPU guest shared with other guests) the same
pure-Python work takes anywhere from 1x to 2.5x as long, depending on what
the neighbours do, and the speed changes within seconds. Raw wall time of one
command then varies by a factor of two between identical runs.

``CorrectedClock`` removes most of that. Every ``INTERVAL_S`` seconds a
SIGALRM handler times ``probe``, a fixed piece of ``Fraction`` arithmetic of
the kind the program does, and the clock advances by the real time elapsed
since the previous probe times ``REFERENCE_S / probe time``. The probe's own
time is left out. The result is the time the work would take on the host
running at reference speed. The handler runs in the main thread between
bytecodes, so nothing runs concurrently with the program.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 300e-6  # probe time at the reference speed
INTERVAL_S = 0.02     # real time between probes; each probe costs ~1.5% of it

_XS = tuple(Fraction(i + 1, 2 * i + 3) for i in range(12))
_AS = _XS[:8]


def probe() -> float:
    """Seconds for a fixed piece of Fraction arithmetic. The collector is
    held off meanwhile, so a collection the program's allocations have made
    due runs in the program's time, not in the probe's."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for a in _AS:
            s = Fraction(0)
            for b in _XS:
                s = s + a * b
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_factor() -> float:
    """REFERENCE_S over the probe time now: the median of the last 5 of 15
    probes, once the interpreter has specialised the probe's bytecode."""
    times = [probe() for _ in range(15)]
    return REFERENCE_S / statistics.median(times[-5:])


class CorrectedClock:
    """Seconds at reference speed, advanced by a periodic probe."""

    def __init__(self, factor: float):
        self.factor = factor
        self.base = 0.0
        self.base_real = time.perf_counter()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, _signum, _frame):
        self.base += (time.perf_counter() - self.base_real) * self.factor
        self.factor = REFERENCE_S / probe()
        self.base_real = time.perf_counter()

    def now(self) -> float:
        return self.base + (time.perf_counter() - self.base_real) * self.factor
