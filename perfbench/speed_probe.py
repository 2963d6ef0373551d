"""Machine-speed probe: a fixed pure-Python kernel, timed back to back.

Usage (from run.py):
    python3 perfbench/speed_probe.py ENDS.json CPU

Pins itself to CPU, prints "ready", then runs the kernel in a loop and keeps
the CLOCK_MONOTONIC end time of every iteration in memory. On SIGTERM it
writes the end times to ENDS.json and exits.

The kernel is interpreter-bound and fits in the core's private caches, so
its speed follows the clock the host gives this machine's cores, and not
the memory traffic of the pipeline running on the other CPU.
"""

import json
import os
import signal
import sys
import time

LOOPS = 15000  # about 1.4 ms an iteration on the 2-core reference machine


def main() -> int:
    path, cpu = sys.argv[1], int(sys.argv[2])
    os.sched_setaffinity(0, {cpu})
    ends = []

    def stop(*_):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ends, fh)
        sys.exit(0)

    signal.signal(signal.SIGTERM, stop)
    print("ready", flush=True)
    while True:
        acc = 0
        for i in range(LOOPS):
            acc += i * i % 7
        ends.append(time.monotonic())


if __name__ == "__main__":
    sys.exit(main())
