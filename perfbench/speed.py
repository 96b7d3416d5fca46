"""Machine-speed calibration of the timings.

The benchmark was built on a shared 2-CPU VM whose speed moves by up to
half from one minute to the next, in stretches of a few seconds: the
same corpus, answered in three processes minutes apart, took 23.6 s,
34.2 s and 29.5 s.  Every timing is therefore scaled to a reference
machine by a fixed kernel that runs next to it.  The kernel does the two
kinds of work the library spends its time on: batched LAPACK eigen-solves
of small matrices (the sampling loops) and a Python loop of small
determinants (the principal-minor sweeps).

* A request's latency is scaled by ``REFERENCE_S`` over the mean of the
  kernel's time right before and right after it, each the median of
  three runs (single runs a few ms apart differ by about 10%).  On that
  VM it cut the spread of the run totals over ten seeds from 0.15-0.23
  to about 0.05 (distance between the quartiles over the median).
* A set-up time is scaled by ``REFERENCE_S`` over the median of nine
  kernel runs made right after it in the same interpreter.

The raw times are reported beside the scaled ones.  The kernel uses
numpy only, so a change to matstab never moves it.
"""

import statistics
import time

import numpy as np

# Median kernel time on the reference machine (2-CPU x86-64 VM, numpy 2.4,
# OpenBLAS 0.3.31, one BLAS thread) in its usual state.
REFERENCE_S = 0.003


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.batch = rng.normal(size=(256, 6, 6))
        self.single = rng.normal(size=(100, 5, 5))
        self.samples = []

    def __call__(self):
        """One timed run of the kernel, in seconds (also kept)."""
        t0 = time.perf_counter()
        np.linalg.eigvals(self.batch)
        for m in self.single:
            np.linalg.det(m[:3, :3])
            np.linalg.det(m)
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def now(self):
        """Median of three runs: the machine's speed at this moment."""
        return statistics.median(self() for _ in range(3))

    def factor(self):
        """Reference over measured speed, from the median of the runs."""
        return REFERENCE_S / statistics.median(self.samples)
