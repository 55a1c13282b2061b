"""Machine-speed sampling, so that times can be given at a fixed reference speed.

On a shared host the speed this process gets swings by up to a factor of two,
and it changes within a second: a fixed piece of work timed twice half a
second apart differs by about 25 % (quartile spread), and the medians of
15-s or 60-s windows spread by about 40 %.  Process CPU time follows wall
time, so the loss is not steal time but slower execution.  A run's raw wall
time therefore says more about the host than about the program.

``SpeedSampler`` measures the speed the process gets while a run is going
on: while it is armed, a wall-clock timer interrupts the process every
``PERIOD_S`` and times ``kernel()``, a fixed piece of pure Python that does
not depend on the program.  The mean of ``REF_KERNEL_S / duration`` over the
samples is the process's speed during the run relative to the reference
speed, the speed at which the kernel takes ``REF_KERNEL_S``.  A run's time at
the reference speed is its wall time, less the time spent sampling, times
that mean.

Over 80 runs of ``sim_field_disturb`` on a 2-core shared host, the log of
the program's run time followed the log of the duration of a kernel like
this one (twice as long, sampled every 0.1 s) with slope 1.02, and the residual was 0.055 (standard deviation of the log), against
0.20 for the raw run time.  A small-matrix numpy kernel did as well (slope
1.04); a tight integer loop on a small dict tracked less well (slope 1.4).
The kernel needs only the standard library, so the set-up probe can arm the
sampler before it imports anything.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.025
REF_KERNEL_S = 0.0004
_KERNEL_STEPS = 300


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: float) -> None:
        self.a = a
        self.b = b


def kernel() -> int:
    """A fixed piece of pure-Python work: about REF_KERNEL_S on a 2-core host.

    It allocates small objects and formats numbers, as interpreter-bound
    code does.
    """
    parts = []
    for i in range(_KERNEL_STEPS):
        pair = _Pair(i, float(i))
        parts.append(f"{pair.a}:{pair.b:.3f}")
    return len(",".join(parts))


class SpeedSampler:
    """Times ``kernel()`` every ``PERIOD_S`` of wall time while armed."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, *_signal) -> None:
        entered = time.perf_counter()
        kernel()
        done = time.perf_counter()
        self.durations.append(done - entered)
        self.spent_s += time.perf_counter() - entered

    def start(self) -> None:
        self.durations, self.spent_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Disarm; a run shorter than one period gets one sample taken now."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        if not self.durations:
            spent = self.spent_s
            self._sample()
            self.spent_s = spent

    def speed(self) -> float:
        """Mean speed while armed, relative to the reference speed."""
        return sum(REF_KERNEL_S / d for d in self.durations) / len(self.durations)

    def at_reference(self, wall_s: float) -> float:
        """``wall_s``, measured while armed, less sampling, at the reference speed."""
        return (wall_s - self.spent_s) * self.speed()
