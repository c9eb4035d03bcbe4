"""Reference kernels that turn raw seconds into seconds at a fixed speed.

The machine's speed drifts by up to 2x, and it does so within fractions
of a second: each core switches between a fast and a slow regime as other
tenants come and go.  A raw timing therefore cannot repeat within a tenth,
and neither can a kernel timed once before and once after a section.  So
the benchmark samples two short reference kernels *inside* every timed
section: a ``Sampler`` runs one on a timer signal every ``INTERVAL_S``
seconds, in the measured thread, and the benchmark reports

    calibrated = (raw seconds - sampler seconds) * NOMINAL_S[kind]
                 / mean kernel seconds sampled during the section.

Two kernels match the two kinds of work in lagnet: ``python`` is
interpreted Python over small numpy arrays (the per-agent rounds, the
oracle's Newton loop, the trace and CSV code), ``lapack`` is dense linear
algebra (null-space SVDs, least squares and eigenvalue problems).  Neither
calls lagnet code.  The nominal seconds are constants of the benchmark;
README.md says how they were measured.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Median kernel seconds on the reference machine, measured with
# `python3 perfbench/studies.py kernels` (README.md, "Reference kernels").
# Changing them rescales every calibrated metric, so they stay fixed.
NOMINAL_S = {"python": 0.00180, "lapack": 0.00410}

KINDS = tuple(NOMINAL_S)
INTERVAL_S = 0.04   # one kernel sample every 40 ms
LAPACK_EVERY = 2    # the two kernels take turns
MIN_SAMPLES = 3     # fewer samples than this do not calibrate a section

_rng = np.random.default_rng(20171003)
_DENSE = _rng.standard_normal((100, 100))
_X0 = np.array([0.3, -0.7])
_LAM = np.array([[0.1, 0.2], [0.3, -0.1], [-0.2, 0.4]])
_EXPONENTS = (np.array([2, 0]), np.array([1, 1]), np.array([0, 3]))


def python_kernel() -> float:
    """Small-array numpy calls driven by interpreted code, like one agent's
    round: an inbox of neighbour values, a gradient, norms and a CSV field."""
    x = _X0
    acc = 0.0
    inbox = {}
    for k in range(60):
        inbox[k % 3] = (x, _LAM[k % 3], 0.5)
        g = x * x - 0.5 * x + float(np.prod(x ** _EXPONENTS[k % 3]))
        for xj, lam_j, s in inbox.values():
            g = g - s * lam_j + 0.1 * (x - xj)
        x = x - 1e-4 * g
        acc += float(g @ g) + float(np.linalg.norm(x))
        acc += len(",".join(repr(float(v)) for v in x))
    return acc


def lapack_kernel() -> float:
    """One dense nonsymmetric eigenvalue problem."""
    return float(np.linalg.eigvals(_DENSE).real.sum())


KERNELS = {"python": python_kernel, "lapack": lapack_kernel}


class Sampler:
    """Samples the reference kernels on SIGALRM while it is active.

    Each tick records ``(start, busy, kernel seconds, kind)``; ``busy`` is
    the whole time the tick took from the measured code.  ``total_busy``
    sums it, so a caller subtracts the ticks that fell inside an interval
    by reading ``total_busy`` at both ends.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ticks: list[tuple[float, float, float, str]] = []
        self.total_busy = 0.0
        self._count = 0
        self._previous = None

    def __enter__(self):
        for kernel in KERNELS.values():
            kernel()  # first calls load code and data into the caches
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        enter = time.perf_counter()
        kind = "lapack" if self._count % LAPACK_EVERY == 0 else "python"
        self._count += 1
        t0 = time.perf_counter()
        KERNELS[kind]()
        t1 = time.perf_counter()
        busy = time.perf_counter() - enter
        self.ticks.append((enter, busy, t1 - t0, kind))
        self.starts.append(enter)
        self.total_busy += busy

    def factors(self, t0: float, t1: float, fallback=None) -> dict[str, float]:
        """NOMINAL_S / mean kernel seconds sampled in [t0, t1), per kind.

        A kind with fewer than ``MIN_SAMPLES`` samples in the interval takes
        its factor from ``fallback`` (the enclosing operation's factors) or,
        without one, from a kernel timed once now.
        """
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        out = {}
        for kind in KINDS:
            seen = [tick[2] for tick in self.ticks[lo:hi] if tick[3] == kind]
            if len(seen) >= MIN_SAMPLES:
                out[kind] = NOMINAL_S[kind] / statistics.fmean(seen)
            elif fallback is not None:
                out[kind] = fallback[kind]
            else:
                start = time.perf_counter()
                KERNELS[kind]()
                out[kind] = NOMINAL_S[kind] / (time.perf_counter() - start)
        return out
