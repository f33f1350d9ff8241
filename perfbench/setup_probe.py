"""Set-up probe: a fresh interpreter that stops where the first SGD step starts.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED CONFIG

It imports ngn, builds the workload's problem, policy and theory context
and prints `ready`. `run.py` times it from process start to that line. It
then prints the median time of three runs of the reference kernel in this
process, by which `run.py` normalises the set-up time, and exits.
"""

import statistics
import sys
from pathlib import Path

from workloads import setup

if __name__ == "__main__":
    setup(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print("ready", flush=True)
    from reference import kernel_s

    print(statistics.median(kernel_s() for _ in range(3)), flush=True)
