"""Set-up probe: time importing qcharlab and generating one workload's inputs.

Usage: python3 perfbench/probe.py WORKLOAD SEED

Prints the set-up time in reference seconds (see hostspeed.py), scaled by
host-speed probes taken just before and just after it.
"""

import statistics
import sys
import time

from hostspeed import REFERENCE_PROBE_S, speed_probe

before = [speed_probe() for _ in range(3)]
t0 = time.perf_counter()
from workloads import make_inputs  # noqa: E402  (imports qcharlab inside the timed span)

make_inputs(sys.argv[1], int(sys.argv[2]))
raw = time.perf_counter() - t0
after = [speed_probe() for _ in range(3)]
print(raw * REFERENCE_PROBE_S / statistics.median(before + after))
