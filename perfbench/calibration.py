"""Machine-speed calibration for a host shared with other tenants.

On the reference host (a 2-vCPU VM) the same repetition runs at anything
from 0.5 to 1.1 times its usual speed, for stretches of a second to
minutes, which no median within one 30 s run removes.  A short fixed
kernel that does not touch paleomag measures that speed: many NumPy calls
on a 2-vector and a 2x2 matrix (the call overhead that dominates the 0D
workloads and the Krylov loops), DST-I transforms of a 96x96 array (the
FFT work of the 2D demag solve) and copies of a 2 MB array (the memory
traffic of the 2D fields).  A change to paleomag cannot move it.

``Pacer`` times a command in segments of about ``INTERVAL_S``: after a
call of a hooked program function (a time step, an audit) it pauses the
clock, runs the short kernel, and scales the segment just ended by
``REFERENCE_S`` over the mean of the kernel times on either side of it.
The paused time is left out of both the measured and the scaled time.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.fft

# the short kernel's time on a quiet reference host (2-vCPU Intel Xeon VM)
REFERENCE_S = 0.0145
INTERVAL_S = 0.2            # measured time between two short calibrations
SMALL_OPS = 600             # 2-vector / 2x2 NumPy updates per kernel run
TRANSFORMS = 6              # 96x96 DST-I transforms per kernel run
COPIES = 4                  # copies of a 2 MB array per kernel run


def calibrate(repeats: int = 1) -> float:
    """Wall time of ``repeats`` runs of the short calibration kernel, in s."""
    field = np.random.default_rng(0).standard_normal((96, 96))
    a = np.array([[2.0, 0.3], [0.1, 1.5]])
    block = np.ones(1 << 18)
    t0 = perf_counter()
    for _ in range(repeats):
        b = np.array([0.3, 0.4])
        for _ in range(SMALL_OPS):
            x = np.linalg.solve(a, b)
            b = 0.5 * (b + np.tanh(a @ x)) / np.sqrt(1.0 + b @ b)
        for _ in range(TRANSFORMS):
            field = 0.5 * (field + scipy.fft.dstn(field, type=1, norm="ortho"))
        for _ in range(COPIES):
            copy = block.copy()
            copy += 1.0
    return perf_counter() - t0


class Pacer:
    """Times commands in calibrated segments (see the module docstring).

    ``hook`` installs the pause points; ``measure`` times one command.
    ``clock`` is ``perf_counter`` without the paused time, so a tracer that
    uses it records no calibration in its spans.
    """

    def __init__(self):
        self.paused = 0.0           # total time spent calibrating
        self.segments = 0
        self._mark = None           # start of the open segment; None when idle
        self._cal = 0.0             # the kernel time before the open segment
        self._raw = self._scaled = 0.0

    def clock(self) -> float:
        return perf_counter() - self.paused

    def _calibrate(self) -> float:
        t0 = perf_counter()
        cal = calibrate()
        self.paused += perf_counter() - t0
        return cal

    def _close_segment(self) -> None:
        seg = perf_counter() - self._mark
        cal = self._calibrate()
        self._raw += seg
        self._scaled += seg * 2 * REFERENCE_S / (self._cal + cal)
        self.segments += 1
        self._cal = cal
        self._mark = perf_counter()

    def tick(self) -> None:
        """A pause point: calibrate if the open segment is long enough."""
        if self._mark is not None and perf_counter() - self._mark >= INTERVAL_S:
            self._close_segment()

    def hook(self, owner, attr: str) -> None:
        """Make every return from ``owner.attr`` a pause point."""
        fn = getattr(owner, attr)

        def paced(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.tick()
            return result

        paced.__wrapped__ = fn
        setattr(owner, attr, paced)

    def measure(self, fn) -> tuple:
        """Call fn(); returns (its result, measured s, scaled s)."""
        self._cal = self._calibrate()
        self._raw = self._scaled = 0.0
        self._mark = perf_counter()
        try:
            result = fn()
        finally:
            self._close_segment()
            self._mark = None
        return result, self._raw, self._scaled
