"""Machine-speed probe for timings taken on a shared CPU.

On a shared 2-vCPU x86 VM the CPU speed one process gets drifts by up to
1.7x over tens of seconds (measured with a fixed pure-Python loop), which is
wider than any useful regression bound.  A timing is therefore rescaled by
`factor()` to a machine on which `probe()`, a fixed kernel that does not
involve corecov, takes REFERENCE_S.  The kernel makes the same kind of calls
as a small fit (LAPACK and einsum on 12 x 12 arrays); over 3 s windows of
fit-small it halved the spread of the fit time, where a pure-Python loop cut
it by a third.  The probe must run while nothing else of the benchmark
competes for the CPU: with both vCPUs busy it runs about half as fast.
"""

import signal
import statistics
from time import perf_counter

import numpy as np

PROBE_INTERVAL_S = 0.5
# About the median duration of `probe()` on a 2-vCPU x86 VM, Python 3.11.
REFERENCE_S = 0.0025
_G = np.random.default_rng(0).standard_normal((12, 24))
_SPD = _G @ _G.T / 24 + np.eye(12)


def probe():
    """Duration of a fixed kernel of small LAPACK and einsum calls."""
    t0 = perf_counter()
    for _ in range(60):
        w, q = np.linalg.eigh(_SPD)
        x = np.linalg.solve(_SPD, (q * w) @ q.T)
        np.einsum("ij,jk->ik", x, _SPD)
    return perf_counter() - t0


def factor(samples):
    """Multiplier taking a timing made alongside `samples` to the reference
    speed: below 1 when the machine ran slower than the reference."""
    return REFERENCE_S / statistics.mean(samples)


class SpeedProbe:
    """Context manager sampling `probe()` three times at entry and at exit
    and every PROBE_INTERVAL_S in between.  The main thread runs the handler
    between bytecodes, so samples land inside the timed calls, which they
    lengthen by about 0.5%.  Rescaling each fit by the samples taken during
    it instead of all of them did not lower the spread of per-fit figures."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, *_):
        self.samples.append(probe())

    def __enter__(self):
        for _ in range(3):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(3):
            self._sample()
        return False

    def factor(self):
        return factor(self.samples)
