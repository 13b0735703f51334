"""How fast the host runs, sampled all through a repetition.

The benchmark runs on a few cores of a shared host whose speed changes by
up to 1.8x for stretches of a fraction of a second to minutes as other
work comes and goes. Process CPU time changes with it, so this is slower
execution, not stolen time, and wall-clock times of the same work spread
too widely to compare two versions of the program.

A Sampler therefore runs small fixed kernels from a SIGALRM handler
every INTERVAL_S seconds and records the CPU time each took; CPU time,
unlike wall-clock time, does not count time the kernel waited while
other work of the program ran on the same core. A timed interval
of the program then has a speed factor per kernel: the mean time of the
kernel's samples within WINDOW_S of the interval, over the kernel's
nominal time. The interval's time without the handler's own time,
divided by that factor, is what the interval would have taken at nominal
speed. A "text" kernel formats and parses floats in plain Python, like
emit and analyze_dir; a "step" kernel runs the forward pass of a
workload's net on one batch, like a training step.

The kernels use numpy and the standard library only, never asslab, so a
change to the program cannot change them. Signal handlers run between
bytecodes of the main thread and interrupted system calls are retried,
so sampling does not change what the program computes.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
# Samples this close to an interval also count for it, so that an
# interval shorter than INTERVAL_S still has a factor.
WINDOW_S = 0.1

# Seconds of one text_kernel call at nominal speed: its 5th percentile,
# called in a loop on a 2-vCPU Intel Xeon VM. Nominal times only set the
# scale of normalized times; ratios between two versions of the program
# do not depend on them.
TEXT_NOMINAL_S = 65e-6

_FLOATS = [0.1 * i + 0.123456789 for i in range(40)]


def text_kernel() -> None:
    """Formats 40 floats with repr, joins and splits them, parses them back."""
    line = ",".join([repr(v) for v in _FLOATS])
    sum(float(s) for s in line.split(","))


def step_kernel(dims: list[int], rows: int, repeat: int):
    """The forward pass of a ReLU net with layer widths dims on a batch of
    rows, `repeat` times per call."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((rows, dims[0]))
    weights = [rng.standard_normal((a, b)) / np.sqrt(a) for a, b in zip(dims, dims[1:])]

    def kernel() -> None:
        for _ in range(repeat):
            h = x
            for w in weights:
                h = np.maximum(h @ w, 0.0)
            h.sum(axis=0)

    return kernel


class Sampler:
    """Samples kernels from a SIGALRM handler between start() and stop().

    kernels maps a name to (kernel, nominal seconds of one call); more may
    be added while sampling runs.
    """

    def __init__(self, kernels: dict):
        self.kernels = dict(kernels)
        # (handler start, handler end, {kernel name: seconds})
        self.samples: list[tuple[float, float, dict]] = []
        self._previous = None

    def _handler(self, _signum, _frame) -> None:
        start = time.perf_counter()
        times = {}
        for name, (kernel, _) in list(self.kernels.items()):
            t0 = time.thread_time()
            kernel()
            times[name] = time.thread_time() - t0
        self.samples.append((start, time.perf_counter(), times))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def net_seconds(self, start: float, end: float) -> float:
        """end - start without the handler's time inside it."""
        inside = sum(min(e, end) - max(s, start) for s, e, _ in self.samples
                     if s < end and e > start)
        return end - start - inside

    def factor(self, kernel: str, start: float, end: float) -> float:
        """The host's slowness around [start, end] relative to nominal speed."""
        times = [t[kernel] for s, _, t in self.samples
                 if kernel in t and start - WINDOW_S <= s <= end + WINDOW_S]
        if not times:
            raise ValueError(f"no {kernel} samples within {WINDOW_S} s of an interval")
        return sum(times) / len(times) / self.kernels[kernel][1]
