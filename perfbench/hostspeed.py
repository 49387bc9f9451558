"""Host-speed calibration for the benchmark's timings.

The benchmark was defined on a shared virtual machine whose speed steps by
a third within minutes, for every workload alike (README.md, "Host
speed").  A fixed mix of interpreter and numpy work, timed between the
timed intervals, tracks that speed.  Each reported time is scaled by
REF_CALIB_S over the mean calibration time on either side of it, so it
reads as seconds on a host where the calibration takes REF_CALIB_S.  The
calibration runs no library code, so a change to the library moves the
scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import time

import numpy as np

# A typical calibration time on the machine the benchmark was defined on
# (about 0.018 s in its fast phases, 0.027 s in its slow ones), so scaled
# times there read close to wall times.
REF_CALIB_S = 0.022
_PY_STEPS = 80_000
_NP_REPS = 120


class HostSpeed:
    """Calibrates on creation and at every call of ``factor``."""

    def __init__(self):
        self._x = np.linspace(0.1, 3.0, 4000) + 1j
        self.samples: list[float] = []
        self._last = self.measure()

    def measure(self) -> float:
        """Seconds for the fixed calibration work."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(_PY_STEPS):
            acc += i * i % 7
        for _ in range(_NP_REPS):
            acc += np.exp(-0.37 * self._x).sum().real
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        return t1 - t0

    def factor(self) -> float:
        """Scale for the interval since the previous calibration."""
        now = self.measure()
        f = REF_CALIB_S / (0.5 * (self._last + now))
        self._last = now
        return f
