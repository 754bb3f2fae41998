"""Following the machine's speed while the benchmark runs.

The 2-vCPU virtual machine the bounds were set on shares its cores
with other tenants.  The same algorithm_a call took 117 to 226 ms within one minute, and a workload's
raw throughput moved by up to 2x between runs minutes apart.  A fixed
reference loop, timed between items, slows down with the machine, and
each item's time is scaled by the loop's nominal time over its local
time.  Reported times are therefore seconds at the reference loop's
nominal speed; the raw values are printed beside them.

Contention slows different code by different amounts, so each workload
builds its reference from the parts that resemble its own work (see
``Workload.reference``).  Over 5-second blocks, a matched reference cut
the variation of normalised item time to 1-4%, against 6-17% raw and
2-5% for one loop blending all parts.  None of the parts calls coopjam, so a change
to the library cannot move its own yardstick.
"""

import math
import statistics
from time import perf_counter

# Median time of each part on the machine the bounds were set on
# (2 vCPUs, Python 3.11, numpy 2.4, scipy 1.17).  They only fix a unit:
# scaled times equal raw times whenever the parts run at these speeds.
PART_NOMINAL_S = {
    "interpreter": 0.0015,
    "memory": 0.0028,
    "small_arrays": 0.0030,
    "linprog": 0.0017,
    "quadrature": 0.0013,
}
CALIBRATION_EVERY_S = 0.15     # one calibration per this much time
MAX_BURST = 25                 # calibrations run back to back, at most
WINDOW_S = 2.0                 # calibrations this close to an item count


class SpeedProbe:
    """Times a reference loop on demand and maps any interval to the
    machine's speed around it."""

    def __init__(self, parts):
        # imported here, after set-up, so that setup_s owns the imports
        import numpy as np
        from scipy.integrate import quad
        from scipy.optimize import linprog
        from scipy.special import logsumexp
        self._np = np
        self._quad = quad
        self._linprog = linprog
        self._logsumexp = logsumexp
        self._array = np.arange(1 << 17, dtype=float)   # 1 MiB
        x = np.linspace(0.1, 1.0, 6)
        self._matrix = np.outer(x, x) + np.eye(6)
        self._lp = (np.ones(3), -np.array([[1.0, 2.0, 0.5], [0.3, 1.0, 2.0]]),
                    -np.ones(2))
        self._parts = [getattr(self, f"_{name}_part") for name in parts]
        self.nominal_s = sum(PART_NOMINAL_S[name] for name in parts)
        self.samples = []       # (midpoint, seconds)
        self._last_end = float("-inf")

    # Reference parts.  Each resembles one kind of work in the library.

    def _interpreter_part(self):
        """Python integer arithmetic in a loop."""
        s = 0
        for i in range(25_000):
            s += i * i % 7
        return s

    def _memory_part(self):
        """Six elementwise passes over 1 MiB, like the Monte Carlo kernel."""
        a = self._array
        for _ in range(6):
            a = self._np.sqrt(a * 1.0001 + 1.0)
        return a[-1]

    def _small_arrays_part(self):
        """Many numpy calls on 6-element arrays, like a GP Newton step."""
        np = self._np
        x = self._matrix[0]
        for _ in range(25):
            v = np.log(np.abs(self._matrix @ x))
            x = np.exp(v - self._logsumexp(v))
        return x[0]

    def _linprog_part(self):
        """One tiny LP through scipy's HiGHS wrapper, like lp_solve."""
        c, a_ub, b_ub = self._lp
        return self._linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, 1.0)] * 3,
                             method="highs").fun

    def _quadrature_part(self):
        """Adaptive quadrature of an integrand built from small numpy
        products, like sop_integral's."""
        np = self._np
        w = self._matrix[0, :4]

        def integrand(x):
            return math.exp(-x) * float(np.prod(1.0 - np.exp(-x * w) / (1.0 + x * w)))

        return self._quad(integrand, 0.0, math.inf, epsrel=1e-10, limit=200)[0]

    def reference_loop(self):
        for part in self._parts:
            part()

    def warm_up(self):
        """One untimed call, so first-call costs stay out of the samples."""
        self.reference_loop()

    def calibrate(self):
        t = perf_counter()
        self.reference_loop()
        end = perf_counter()
        self.samples.append((0.5 * (t + end), end - t))
        self._last_end = end

    def between_items(self):
        """Catch up to one calibration per CALIBRATION_EVERY_S since the
        last one, so a long item is followed by as many calibrations as
        a stretch of short items would have had."""
        owed = int((perf_counter() - self._last_end) / CALIBRATION_EVERY_S)
        for _ in range(min(owed, MAX_BURST)):
            self.calibrate()

    def local_seconds(self, start, end):
        """Median reference time over calibrations near [start, end]."""
        near = [d for m, d in self.samples
                if start - WINDOW_S <= m <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return statistics.median(near)

    def scale(self, start, end):
        """Factor that converts raw seconds in [start, end] to nominal."""
        return self.nominal_s / self.local_seconds(start, end)

    def median_seconds(self):
        return statistics.median(d for _, d in self.samples)
