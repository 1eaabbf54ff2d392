"""Machine speed, sampled between ops, for scaling the benchmark's timings."""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction


class Speed:
    """Speed of this core, sampled with a fixed stdlib kernel between ops.

    The benchmark shares its cores, and the same op can take a third longer
    from one moment to the next.  So each op's time is scaled to a reference
    speed: it is multiplied by REFERENCE_S over the median kernel time of the
    samples around it, three before and three after.  A sample follows every
    op of at least GAP_S / 5, and otherwise every GAP_S of op time.  The
    kernel never calls fal_spectrum, and it runs with the garbage collector
    off, so that no collection walks the package's live objects during a
    sample.  The run record keeps the unscaled figures too.
    """

    REFERENCE_S = 0.0080  # kernel time on a quiet core of the benchmark machine
    GAP_S = 0.1
    WINDOW = 3

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.since = 0.0
        self.sample()

    @staticmethod
    def kernel() -> Fraction:
        acc = Fraction(0)
        for i in range(1, 2200):
            acc += Fraction(i % 97 + 1, i % 13 + 1) * 3
        return acc

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)
        if enabled:
            gc.enable()

    def factor(self, index: int) -> float:
        """Scale factor for work done between sample ``index`` and the next."""
        around = self.samples[max(0, index - self.WINDOW + 1) : index + self.WINDOW + 1]
        return self.REFERENCE_S / statistics.median(around)

    def after_op(self, seconds: float) -> int:
        """Account an op; returns the index of the sample taken before it."""
        index = len(self.samples) - 1
        self.since += seconds
        if self.since >= self.GAP_S or seconds >= self.GAP_S / 5:
            self.sample()
            self.since = 0.0
        return index
