"""Machine-speed probe that turns wall times into reference-speed times.

On a small shared host the same work runs up to ~1.7x slower for spells of
a fraction of a second to many seconds, whatever the program does.  A fixed
pure-Python kernel, timed right before and right after each measured
interval and every ``PERIOD_S`` inside it, reads the machine's speed over
that interval; scaling the interval by ``REFERENCE_S / mean kernel time``
gives the time the work would have taken at the reference speed.  The
kernel shares no code with polyflow and loads no module, so it can run
before ``import polyflow`` is timed.  Raw wall times are printed next to
the scaled ones.
"""
import signal
from time import perf_counter

_LOOPS = 1500
_REPEATS = 3  # the fastest of three drops a run that an interrupt landed in

# Kernel time on an unloaded core of the 2-vCPU x86-64 VM (Python 3.11) the
# benchmark was tuned on; it only sets the scale of the reported times.
REFERENCE_S = 1.2e-4


def calibrate() -> float:
    """Seconds the fixed kernel takes now."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = perf_counter()
        acc = 0.0
        for i in range(_LOOPS):
            acc += (i * 0.5) % 7.0
        best = min(best, perf_counter() - start)
    return best


PERIOD_S = 0.02


class Interval:
    """Times one interval, sampling the kernel inside it on a wall-clock timer.

    The samples' own time is taken out of ``wall``, and ``scaled`` is the
    interval at reference speed.  Only the main thread of a process may use
    one, and only one at a time: it owns SIGALRM while open.
    """

    def __enter__(self):
        self._kernels = [calibrate()]
        self._sampling = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = perf_counter()
        return self

    def _sample(self, signum, frame):
        start = perf_counter()
        self._kernels.append(calibrate())
        self._sampling += perf_counter() - start

    def __exit__(self, *exc):
        self.wall = perf_counter() - self._start - self._sampling
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._kernels.append(calibrate())
        self.speed = REFERENCE_S * len(self._kernels) / sum(self._kernels)
        self.scaled = self.wall * self.speed
        return False
