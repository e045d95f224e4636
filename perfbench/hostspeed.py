"""Host-speed calibration, so times from a shared machine can be compared.

On a shared two-vCPU host the same pure-Python work runs up to about
1.6 times slower for stretches of a fraction of a second to many seconds,
whatever the benchmark does. A median over a 20-second run then depends on
how much of the run fell into slow stretches. The runner therefore
interleaves a fixed reference kernel with the timed calls: after every
``EVERY_NS`` of timed work it runs the kernel (outside the timed region),
and each timed call is scaled by the speed the kernel measured just before
and just after it. A normalized time reads as the time on a host where one kernel takes
``NOMINAL_NS``; raw times are reported beside it.

The kernel mixes the kinds of work the workloads do: Horner steps on 256-
and 1024-bit integers, a list comprehension of masked products, and
decimal formatting. It lives here, not in the program, so no change to the
program moves it.
"""

from __future__ import annotations

import random
import time

EVERY_NS = 1_000_000  # one kernel per millisecond of timed work
NOMINAL_NS = 100_000

_rng = random.Random(20100806)
_WORDS_256 = [_rng.getrandbits(256) for _ in range(96)]
_WORDS_1024 = [_rng.getrandbits(1024) for _ in range(24)]
_MASK_256 = (1 << 256) - 1
_MASK_1024 = (1 << 1024) - 1


def kernel() -> int:
    """One unit of reference work: 0.1 to 0.2 ms on the 2-vCPU host the
    baseline was taken on, depending on the host's state."""
    x = 3
    for c in _WORDS_256:
        x = (x * c + 1) & _MASK_256
    y = 5
    for c in _WORDS_1024:
        y = (y * c + 7) & _MASK_1024
    row = [(v * x - y) & _MASK_256 for v in _WORDS_256]
    text = ",".join(str(v) for v in row[:8])
    return len(text) ^ row[-1]


class Calibrator:
    """Runs the kernel in proportion to timed work and keeps its speeds."""

    def __init__(self):
        self.debt_ns = 0
        self.batches = []  # mean kernel ns of each batch, in run order

    @property
    def next_batch(self) -> int:
        return len(self.batches)

    def after(self, elapsed_ns: int) -> None:
        """Account for ``elapsed_ns`` of timed work; calibrate when due."""
        self.debt_ns += elapsed_ns
        count = self.debt_ns // EVERY_NS
        if count == 0:
            return
        self.debt_ns -= count * EVERY_NS
        start = time.perf_counter_ns()
        for _ in range(count):
            kernel()
        self.batches.append((time.perf_counter_ns() - start) / count)

    def scale(self, batch: int) -> float:
        """Factor turning a raw time measured between batches ``batch - 1``
        and ``batch`` into a normalized one, from the speed at both ends."""
        if not self.batches:
            self.after(EVERY_NS)
        last = len(self.batches) - 1
        ends = {max(0, min(batch - 1, last)), min(batch, last)}
        return NOMINAL_NS * len(ends) / sum(self.batches[i] for i in ends)
