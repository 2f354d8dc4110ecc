"""Host-speed adjustment of measured times.

On a shared host the same code runs at speeds up to about 2x apart, and a
slow spell can last through a whole run; raw wall times of one commit then
spread by 20-43% between runs.  A fixed pure-Python probe slows down in
step with the program, so while an operation runs the probe is also run
every TICK seconds (from a SIGALRM handler, between the operation's
bytecodes) and once at each end, and the operation is reported as

    adjusted = (raw - probe time inside it) * P_REF / mean(probe times),

its wall time on a host where the probe takes P_REF (about this host's
fast state).  The probe is this file's code alone, so no change to the
program can move it.  Raw times are kept beside the adjusted ones.
"""

from __future__ import annotations

import math
import signal
import time

PROBE_STEPS = 2400
P_REF = 3.0e-4
TICK = 0.02
_perf = time.perf_counter


def _step(a: float, b: float) -> float:
    return a * 0.5 + b


def probe() -> float:
    """Seconds taken by a fixed loop of Python calls, float math and dict stores."""
    t0 = _perf()
    s = 0.0
    d: dict[int, float] = {}
    for i in range(PROBE_STEPS):
        s = _step(s, math.sqrt(i))
        d[i & 63] = s
    return _perf() - t0


class Stopwatch:
    """Times operations and adjusts them to the reference host speed."""

    def __init__(self) -> None:
        probe()  # warm the probe's code path
        self.log: list[tuple[float, float]] = []  # (raw, adjusted) seconds
        self._busy = False

    def time(self, fn, *args, **kwargs):
        """(fn's result, adjusted seconds); exceptions propagate."""
        if self._busy:
            raise RuntimeError("Stopwatch.time does not nest")
        self._busy = True
        inside: list[float] = []

        def tick(_signum, _frame):
            inside.append(probe())

        before = probe()
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK, TICK)
        t0 = _perf()
        try:
            value = fn(*args, **kwargs)
        finally:
            raw = _perf() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            after = probe()
            self._busy = False
            probes = [before, *inside, after]
            work = max(raw - sum(inside), 0.0)
            adjusted = work * P_REF * len(probes) / sum(probes)
            self.log.append((raw, adjusted))
        return value, adjusted
