"""The speed meter: a fixed job of plain Python that shares the measuring
core with the measured processes, and whose speed turns their CPU time
into reference seconds.

The machine is a share of a host, and the speed of a core drifts by tens
of per cent within seconds and over minutes; a process's CPU time drifts
with it, so neither wall-clock nor CPU time repeats between runs.  While a
run measures, ``python3 meter.py`` runs on the same core as the measured
processes (it inherits the core from the thread that starts it), one fixed
unit of interpreted work after another.  The scheduler gives the two
processes alternate slices of a few milliseconds, so the meter meets the
same conditions of the core as the measured process.  After each unit the
meter stamps ``time.monotonic()`` (``CLOCK_MONOTONIC``, the same clock in
every process of the machine) and its own CPU time.  Over an interval, the
units the meter finished per second of its own CPU time are the core's
speed then; a measured process's CPU time in that interval, times that
speed, divided by ``UNITS_PER_S``, is its time at the reference speed.

The meter stamps until it has stamped after SIGTERM came, then writes its
stamps to standard output as doubles and exits; it ends by itself after
``MAX_LIFE_S``.
"""

from __future__ import annotations

import bisect
import signal
import subprocess
import sys
from array import array
from fractions import Fraction
from time import monotonic, process_time

# units per CPU second of the meter while it shares a core with a worker,
# on a calm stretch of the machine the README names: the reference speed
UNITS_PER_S = 600.0
# units run before READY, so that every stamped unit runs warm
WARM_UNITS = 200
MAX_LIFE_S = 170.0


class MeterError(RuntimeError):
    pass


def unit() -> None:
    """One unit: rational sums, tuple keys and string conversion, the
    kind of interpreted work the measured program does."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 97, i % 13 + 1)
        table[(i % 101, i % 7)] = str(acc)


class Clock:
    """The core's speed from the meter's stamps: (monotonic, CPU) seconds
    after each unit, in order."""

    def __init__(self, stamps):
        self.wall = list(stamps[0::2])
        self.cpu = list(stamps[1::2])

    def _at(self, t: float) -> tuple[float, float]:
        """Units finished and meter CPU seconds spent at time ``t``,
        counting the unit under way by the share of it that had gone by."""
        w = self.wall
        i = bisect.bisect_right(w, t) - 1
        if i < 0 or i + 1 >= len(w):
            raise MeterError(f"the speed meter did not run at {t:.3f}")
        share = (t - w[i]) / (w[i + 1] - w[i])
        return i + share, self.cpu[i] + share * (self.cpu[i + 1] - self.cpu[i])

    def rate(self, start: float, end: float) -> float:
        """Units per CPU second of the meter over ``[start, end]``."""
        u0, c0 = self._at(start)
        u1, c1 = self._at(end)
        return (u1 - u0) / (c1 - c0)

    def seconds(self, cpu_s: float, start: float, end: float) -> float:
        """Reference seconds of ``cpu_s`` CPU seconds spent within
        ``[start, end]``."""
        return cpu_s * self.rate(start, end) / UNITS_PER_S


class Meter:
    """Runs the meter process for the length of a ``with`` block; after
    the block, ``clock`` reads its stamps."""

    def __enter__(self) -> Meter:
        self.proc = subprocess.Popen([sys.executable, __file__], stdout=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL)
        if self.proc.stdout.readline() != b"READY\n":
            self._stop()
            raise MeterError("the speed meter did not start")
        return self

    def _stop(self) -> bytes:
        self.proc.terminate()
        try:
            data = self.proc.stdout.read()
        finally:
            self.proc.stdout.close()
            self.proc.wait()
        return data

    def __exit__(self, exc_type, exc, tb) -> None:
        data = self._stop()
        if exc_type is not None:
            return
        if self.proc.returncode != 0:
            raise MeterError(f"the speed meter ended with code {self.proc.returncode}")
        stamps = array("d")
        stamps.frombytes(data[: len(data) - len(data) % (2 * stamps.itemsize)])
        self.clock = Clock(stamps)


# when SIGTERM came
_stop_at = None


def _stop(signum, frame):
    global _stop_at
    _stop_at = monotonic()


def main() -> None:
    stamps = array("d")
    signal.signal(signal.SIGTERM, _stop)
    for _ in range(WARM_UNITS):
        unit()
    # the first stamp comes before READY, and the last after SIGTERM: every
    # interval the runner measures between the two lies within the stamps
    stamps.extend((monotonic(), process_time()))
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    deadline = stamps[0] + MAX_LIFE_S
    while stamps[-2] < deadline and (_stop_at is None or stamps[-2] <= _stop_at):
        unit()
        stamps.extend((monotonic(), process_time()))
    sys.stdout.buffer.write(stamps.tobytes())
    sys.stdout.flush()


if __name__ == "__main__":
    main()
