"""Run ``gepcirc run INPUT`` in a child process and print its peak
resident memory and wall time under LABEL; exit with the run's status.

Usage: python3 .github/run_peak.py LABEL INPUT
"""

import resource
import subprocess
import sys
import time

label, path = sys.argv[1:]
start = time.perf_counter()
status = subprocess.call(["gepcirc", "run", path])
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(f"peak RSS of the {label} run: {peak // 1024} MB, "
      f"wall time {wall:.1f} s")
sys.exit(status)
