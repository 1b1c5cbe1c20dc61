"""The machine's current speed, read from a fixed reference loop.

The benchmark shares a few cores of a host with other work, and the speed it
gets drifts by tens of percent, both from second to second and from minute to
minute, for the same code (a cold ``import congestds`` took 0.47-0.77 CPU
seconds in ten consecutive processes).  So every time the benchmark reports is
scaled to a fixed *nominal* speed: a time measured while the reference loop
below took ``r`` seconds is reported as ``time * NOMINAL_S / r``.  The loop
does the kind of work the program does (``Fraction`` arithmetic, dict
updates) and never touches the program, so a change to the program moves the
scaled times as much as the raw ones, while the machine's drift cancels out.
The raw times are kept in the result file beside the scaled ones.

The speed changes within a second, so a stretch of time is scaled piece by
piece, about every 50 ms (``ScaledClock``).
"""

from __future__ import annotations

import os
import signal
import time
from fractions import Fraction

#: what the reference loop takes at nominal speed; about its time on a quiet
#: 2-vCPU Xeon KVM guest with Python 3.11
NOMINAL_S = 0.002


def reference_seconds() -> float:
    """One timing of the fixed reference loop (about 2 ms)."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction(1, k) * Fraction(k + 1, 3)
    counts = {}
    for k in range(4000):
        counts[k % 97] = counts.get(k % 97, 0) + k
    return time.perf_counter() - start


def steady_reference_seconds(samples: int = 5) -> float:
    """Median of a few timings: one preempted timing does not move it."""
    return sorted(reference_seconds() for _ in range(samples))[samples // 2]


def scale(raw_s: float, reference_before: float, reference_after: float) -> float:
    """``raw_s`` at nominal speed, from the reference timings around it."""
    return raw_s * NOMINAL_S / ((reference_before + reference_after) / 2)


def process_age() -> float:
    """Seconds since this process started (0.0 where /proc cannot tell)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


class ScaledClock:
    """Time at nominal speed since the process started, summed over the
    stretches between ``start()`` and ``stop()``.

    The time before the clock is made (interpreter start) is scaled by the
    first reference timing.  While the clock runs, a one-shot interval timer
    (SIGALRM), armed again after each piece, ends a piece about every
    ``piece_s`` seconds; ``stop()`` ends the last one.  Each piece is scaled
    by the reference timings at its two ends, and the reference loop's own
    time, a pause of the program, is in no piece.  Python runs the signal
    handler between two bytecodes of the main thread, so a piece that ends
    inside a long call into compiled code (an LP solve) lasts until that call
    returns.  The program's results do not depend on where the pauses fall.
    """

    def __init__(self, piece_s: float = 0.05) -> None:
        self.piece_s = piece_s
        self.raw_s = process_age()
        self.reference = steady_reference_seconds()
        self.scaled_s = scale(self.raw_s, self.reference, self.reference)
        self.paused_s = 0.0
        self.running = False
        self.mark = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def elapsed(self) -> float:
        """Raw seconds on a clock that stands still during the pauses: for
        spans, which the pauses must not lengthen.  A pause that falls
        between the two reads below lengthens the span it falls in."""
        paused = self.paused_s
        return time.perf_counter() - paused

    def start(self) -> None:
        self.running = True
        self.mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.piece_s)

    def stop(self) -> None:
        if not self.running:
            return
        self.running = False  # a handler still pending now does nothing
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._cut()

    def _cut(self) -> None:
        now = time.perf_counter()
        reference = reference_seconds()
        self.raw_s += now - self.mark
        self.scaled_s += scale(now - self.mark, self.reference, reference)
        self.reference = reference
        self.mark = time.perf_counter()
        self.paused_s += self.mark - now

    def _on_alarm(self, signum, frame) -> None:
        if self.running:
            self._cut()
            signal.setitimer(signal.ITIMER_REAL, self.piece_s)
