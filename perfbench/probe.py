"""Set-up probe: run in a fresh interpreter, prints the seconds from its
first statement until the workload's rings and fields are built (import
and Zech tables included), then the host-speed reference times measured
right before and right after (see hostref.py).

    python3 perfbench/probe.py WORKLOAD
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostref  # noqa: E402

mark = time.perf_counter()
BEFORE = hostref.measure()
START += time.perf_counter() - mark  # the reference loop is not set-up

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

if sys.argv[1] == "cli-session":
    import chaincodes.cli  # noqa: E402,F401
else:
    import workloads  # noqa: E402

    workloads.WORKLOADS[sys.argv[1]].setup()
elapsed = time.perf_counter() - START
print(elapsed, BEFORE, hostref.measure())
