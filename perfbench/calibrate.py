"""Calibration of pass times against the speed of the host at the time.

On a shared 2-vCPU x86_64 virtual machine, the speed one vCPU gets drifts by
a third within minutes: in one four-minute stretch the same lp-small pass
took 3.4 to 5.7 s.  The two vCPUs drift independently of each other, so no
probe on the other vCPU, and no probe between steps several seconds long,
sees the speed a pass ran at.

`Sampler` therefore times a fixed pure-Python loop (`loop`, about 1 ms) on
the pass's own thread, from a timer signal every `INTERVAL_S` during the
pass: about 1 % of the pass's time, left out of it.  The calibrated pass time
is the pass time * `NOMINAL_S` / the mean loop time: seconds on a host where
the loop takes `NOMINAL_S`.  A change to lplimits moves it as it moves the
pass's wall time; a change in the host's speed mostly does not.  Python runs
the handler between bytecodes, so a sample falls after, never inside, a long
numpy call.  The loop runs no numpy and touches almost none of the memory
the program uses.  It sees only the vCPU of the pass's thread: where numpy
splits a product over both vCPUs (the simplex's pricing in lp-small and
lp-sweep), part of the drift stays.

`setup_s` is calibrated the same way, by 20 loops on each side of each
`import lplimits` in the fresh interpreter (see `run.py`).
"""
from __future__ import annotations

import time

INTERVAL_S = 0.1
NOMINAL_S = 0.001
_LOOP_ITERS = 12_000


def loop() -> float:
    """Seconds one calibration loop takes now (about 1 ms on a 2-vCPU Xeon)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_LOOP_ITERS):
        acc += i * i
    return time.perf_counter() - t0


class Sampler:
    """Context manager: times `loop` every `INTERVAL_S` of wall time from a
    SIGALRM handler, into `samples`; `spent_s` is the time the handler took.
    Main thread only, where Python runs signal handlers."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(loop())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        import signal   # here, so that the import probe does not load it

        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def calibrated(self, seconds) -> float:
        """`seconds` measured while sampling, scaled to the nominal host."""
        return seconds * NOMINAL_S * len(self.samples) / sum(self.samples)
