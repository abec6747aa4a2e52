"""Host-speed correction for the benchmark's wall times.

On the shared host this benchmark was built on, a vCPU runs at one of
two speeds about 2x apart, switching every few seconds (another tenant's
load on the same physical core), and the share of slow time drifts from
minute to minute. A fixed kernel timed back to back read 6.5 ms in one
two-second window and 12-13 ms in the next, with no steal time and CPU
time equal to wall time. Whole benchmark runs of the same code therefore
spread by 25 % or more between quiet and busy minutes, which no run
length absorbs.

The ``Sampler`` times a fixed calibration kernel, at most once every
``INTERVAL_S``, from hooks on calls the program makes throughout a phase
(``worker.py`` installs them through ``tracer.Tracer``). The kernel is a
fixed-step RK4 two-body + J2 integration written here, the kind of
interpreted float arithmetic and call overhead that dominates the
program, so it slows down with the host by about as much as the program
does; it lives in the benchmark so that a change to the program cannot
change it. A phase's corrected time is its wall time, less the time spent
in the kernel, times ``REF_KERNEL_S`` over the time-weighted mean kernel
time during the phase: the seconds the phase would take on a host where
the kernel takes ``REF_KERNEL_S``.
"""

from __future__ import annotations

import math
import time

MU = 398600.4418            # km^3/s^2
J2 = 1.08262668e-3
RE = 6378.137               # km
STEPS = 30                  # RK4 steps per kernel call
INTERVAL_S = 0.02           # least time between two kernel calls
BURST = 10                  # kernel calls on each side of a set-up
# Kernel time in the fast state of the host the benchmark was built on
# (Xeon, 2 vCPUs, Python 3.11; 95-100 us, against 160-175 us in the slow
# state): the unit of the corrected seconds.
REF_KERNEL_S = 1.0e-4


def _accel(x, y, z):
    r2 = x * x + y * y + z * z
    r = math.sqrt(r2)
    c = -MU / (r2 * r)
    k = -1.5 * J2 * MU * RE * RE / (r2 * r2 * r)
    f = 5.0 * z * z / r2
    return (c * x + k * x * (1.0 - f), c * y + k * y * (1.0 - f),
            c * z + k * z * (3.0 - f))


def kernel() -> tuple:
    """Integrate a fixed LEO orbit for ``STEPS`` 10 s RK4 steps."""
    s = (7000.0, 0.0, 0.0, 0.0, 5.3, 5.3)
    h = 10.0
    for _ in range(STEPS):
        x, y, z, vx, vy, vz = s
        a1 = _accel(x, y, z)
        b = (x + 0.5 * h * vx, y + 0.5 * h * vy, z + 0.5 * h * vz)
        v2 = (vx + 0.5 * h * a1[0], vy + 0.5 * h * a1[1],
              vz + 0.5 * h * a1[2])
        a2 = _accel(*b)
        c = (x + 0.5 * h * v2[0], y + 0.5 * h * v2[1], z + 0.5 * h * v2[2])
        v3 = (vx + 0.5 * h * a2[0], vy + 0.5 * h * a2[1],
              vz + 0.5 * h * a2[2])
        a3 = _accel(*c)
        d = (x + h * v3[0], y + h * v3[1], z + h * v3[2])
        v4 = (vx + h * a3[0], vy + h * a3[1], vz + h * a3[2])
        a4 = _accel(*d)
        k = h / 6.0
        s = (x + k * (vx + 2.0 * (v2[0] + v3[0]) + v4[0]),
             y + k * (vy + 2.0 * (v2[1] + v3[1]) + v4[1]),
             z + k * (vz + 2.0 * (v2[2] + v3[2]) + v4[2]),
             vx + k * (a1[0] + 2.0 * (a2[0] + a3[0]) + a4[0]),
             vy + k * (a1[1] + 2.0 * (a2[1] + a3[1]) + a4[1]),
             vz + k * (a1[2] + 2.0 * (a2[2] + a3[2]) + a4[2]))
    return s


class Sampler:
    """Kernel timings taken from ``poll``, at most one per ``INTERVAL_S``."""

    def __init__(self):
        self.samples: list = []     # (start, duration) of each kernel call
        self.spent_s = 0.0
        self._next = 0.0
        for _ in range(20):         # let the interpreter specialise it
            kernel()

    def poll(self) -> None:
        clock = time.perf_counter
        if clock() < self._next:
            return
        t0 = clock()
        kernel()
        t1 = clock()
        self.samples.append((t0, t1 - t0))
        self.spent_s += t1 - t0
        self._next = t1 + INTERVAL_S

    def phase(self, start: float, end: float) -> dict:
        """Wall time of [start, end] less the kernel's share, the
        time-weighted mean kernel time over it, and the corrected time.
        Each kernel sample stands for the time until the next one."""
        xs = [(t, d) for t, d in self.samples if start <= t < end]
        spent = sum(d for _, d in xs)
        wall = end - start - spent
        if not xs:
            raise ValueError("no kernel sample in the phase")
        acc = 0.0
        for (t, d), nxt in zip(xs, [t for t, _ in xs[1:]] + [end]):
            acc += d * (nxt - t)
        kernel_s = acc / (end - xs[0][0])
        return {"wall_s": wall, "kernel_s": kernel_s, "samples": len(xs),
                "corrected_s": wall * REF_KERNEL_S / kernel_s}


def around(fn):
    """Run ``fn`` between two bursts of ``BURST`` kernel calls; return its
    result, its wall time and its time corrected by the mean kernel time
    of both bursts. For phases too short to sample inside (set-up)."""
    clock = time.perf_counter
    for _ in range(20):             # let the interpreter specialise it
        kernel()
    ds = []
    for _ in range(BURST):
        t0 = clock()
        kernel()
        ds.append(clock() - t0)
    t0 = clock()
    result = fn()
    wall = clock() - t0
    for _ in range(BURST):
        t1 = clock()
        kernel()
        ds.append(clock() - t1)
    kernel_s = sum(ds) / len(ds)
    return result, wall, wall * REF_KERNEL_S / kernel_s
