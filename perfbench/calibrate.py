"""Machine-speed calibration for the benchmark's time metrics.

The benchmark runs on a few cores of a shared host. The other tenants slow
every CPU-bound program down by up to 2x, in phases that last from seconds
to minutes, so raw wall times of the same code move between runs by far more
than any regression bound could tolerate. A fixed piece of reference work,
timed next to each measured operation in the same process, slows down with it.
Each timing is therefore reported scaled to reference speed::

    scaled_s = measured_s * REFERENCE_S / calibration_s

where ``calibration_s`` is the reference work's time measured just before
the operation, and ``REFERENCE_S`` is a fixed constant of the order of that
time (the calibration took 0.075-0.11 s on the 2-vCPU VM the benchmark was
tuned on); only ratios between runs matter. The reference work does not
touch ``tce``, so a change to the program moves the scaled time exactly as
it moves the wall time. Raw wall times are printed beside the scaled ones.

The reference work mixes what the program spends its time on: an
interpreter loop, float formatting and parsing as in CSV writing and
loading, and NumPy distance/argmin passes as in the kernels. Its data is a
few megabytes, larger than a core's private cache, because the host's slow
phases hit code that works out of the shared cache and memory hardest; with
only cache-resident work the scaled times of the CSV-heavy workloads still
followed the host's speed. Those megabytes would raise the peak RSS of the
process that times the operations, so run.py takes ``peak_rss_mb`` from a
separate process that runs the program without the calibration.
"""

from __future__ import annotations

import io
from time import perf_counter

import numpy as np

REFERENCE_S = 0.08


class Calibration:
    """Times one fixed piece of reference work; the inputs are made once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.points = rng.random((20000, 2)) * 50.0
        self.centroids = rng.random((26, 2)) * 50.0
        self.rows = self.points.tolist()

    def _work(self) -> int:
        total = 0
        for i in range(100_000):
            total += i * i % 7
        buf = io.StringIO()
        for x, y in self.rows:
            buf.write(f"{x:.6f},{y:.6f}\n")
        parsed = {}
        for line in buf.getvalue().splitlines():
            key, value = line.split(",")
            parsed[key] = float(value)
        for _ in range(2):
            d = ((self.points[:, None, :] - self.centroids[None, :, :]) ** 2).sum(-1)
            total += int(np.bincount(d.argmin(1), minlength=len(self.centroids))[0])
        return total + len(parsed)

    def measure(self) -> float:
        """Seconds the reference work takes now."""
        start = perf_counter()
        self._work()
        return perf_counter() - start


def scaled(measured_s: float, calibration_s: float) -> float:
    """A wall time scaled to reference machine speed."""
    return measured_s * REFERENCE_S / calibration_s
