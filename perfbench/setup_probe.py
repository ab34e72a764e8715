"""Fresh-process set-up for ``setup_s``.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <out_dir>

Imports the program, builds the workload's config and initial state (or the
CLI parser), then prints ``time.perf_counter()``.  That clock is system-wide
on Linux, so the parent subtracts the moment it started this process.
"""

import sys
import time
from pathlib import Path

import workloads

workloads.setup(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(repr(time.perf_counter()))
