"""Time one workload set-up in a fresh interpreter and print the seconds.

The clock starts before ``repro`` is imported, so the figure covers the
package import, the data set build and, for ``serve-ds3``, the stream and
service construction: everything before the first timed call.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.setup(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
print(time.perf_counter() - START)
