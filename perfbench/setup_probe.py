"""Time one cold set-up: importing siegelsums and generating a round.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the elapsed seconds, then the host-speed calibration time measured
right after in the same process (hostspeed.py), so that both are taken on
the same CPU.  run.py starts this several times in fresh interpreters and
reports the median of the scaled times as setup_s.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import siegelsums  # noqa: E402,F401

from perfbench import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].round(int(sys.argv[2]), 0)
elapsed = time.perf_counter() - t0

from perfbench.hostspeed import HostSpeed  # noqa: E402

speed = HostSpeed()  # the first calibration also warms numpy up
print(elapsed, 0.5 * (speed.measure() + speed.measure()))
