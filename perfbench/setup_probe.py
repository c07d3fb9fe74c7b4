"""Time one benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports the repro modules the benchmark's cells use and builds the
workload's first testbed.  Prints the wall seconds that took and the
host's slowness just before and after it (see clock.py).
"""

import sys
import time
from pathlib import Path

from clock import Calibrator

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    calibrator = Calibrator()
    slowness_before = calibrator.slowness()
    started = time.perf_counter()
    import cells

    cells.first_testbed(workload, seed)
    wall = time.perf_counter() - started
    print(wall, slowness_before, calibrator.slowness())
