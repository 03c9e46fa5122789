"""Host-speed calibration for the benchmark's timings.

The benchmark runs on cores shared with other work. Two things then slow
a point that are not the library: time the process is not running at
all, and a core that runs slower while it is (other work sharing caches,
memory bandwidth or the core itself), which drifts by a third and more
over seconds to minutes.

The first is left out by timing with ``clock``, the process's CPU time:
the library runs on one thread and does no I/O, so on an unshared core
its CPU time is its wall time. The second is measured by a fixed
computation that shares no code with the library, timed right after each
point. A point's CPU time multiplied by ``REFERENCE_S`` over the
calibration time measured around it is the time the point would take on
a host that runs the calibration in ``REFERENCE_S``: a change in the
library moves it in full, a change in host speed mostly cancels out.

The kernel does the kind of work the library does: arithmetic on small
Python objects with overloaded operators (as forward-mode duals do),
list building, and numpy calls on 4x4 arrays.
"""

import time

import numpy as np

clock = time.process_time
# Median CPU time of one kernel call on the reference host (2-vCPU virtual
# machine, Python 3.11, numpy 2.4), so that scaled times stay near the
# wall times measured there.
REFERENCE_S = 2.3e-3
# A point's host factor uses the calibrations of the points within this
# many places of it, so one disturbed calibration does not move it.
WINDOW = 5


class _Pair:
    __slots__ = ("re", "du")

    def __init__(self, re, du=0.0):
        self.re = re
        self.du = du

    def __add__(self, other):
        if isinstance(other, _Pair):
            return _Pair(self.re + other.re, self.du + other.du)
        return _Pair(self.re + other, self.du)

    def __mul__(self, other):
        if isinstance(other, _Pair):
            return _Pair(self.re * other.re, self.re * other.du + self.du * other.re)
        return _Pair(self.re * other, self.du * other)


_MATRIX = np.eye(4) * 4.0 + np.arange(16.0).reshape(4, 4) * 0.01


def kernel():
    """One fixed unit of interpreter and small-numpy work."""
    acc = _Pair(0.0)
    for i in range(600):
        x = _Pair(0.001 * i, 1.0)
        acc = acc + x * x * 0.5 + i
    rows = [[acc.re * 1e-9 + j for j in range(4)] for _ in range(60)]
    v = np.asarray(rows[-1])
    for _ in range(60):
        v = np.linalg.solve(_MATRIX, v) + 1.0
    return acc.du + float(v[0])


def time_kernel():
    """CPU time of one kernel call, in seconds."""
    t0 = clock()
    kernel()
    return clock() - t0


def host_factors(cal_times):
    """``REFERENCE_S`` over the median calibration near each entry."""
    n = len(cal_times)
    factors = []
    for i in range(n):
        near = sorted(cal_times[max(0, i - WINDOW):i + WINDOW + 1])
        factors.append(REFERENCE_S / near[len(near) // 2])
    return factors
