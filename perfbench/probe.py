"""Time one workload's set-up in a fresh interpreter.

    python3 perfbench/probe.py <workload> < first-records

Prints the seconds from importing the program to its first dispatched
test (a started executor) or record (the monitor's first parse).  Wire
records for the monitor workloads arrive on standard input and are read
before the clock starts.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    name = sys.argv[1]
    lines = sys.stdin.read().splitlines()
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    started = time.perf_counter()
    from workloads import WORKLOADS

    dispatched = WORKLOADS[name]().probe(lines)
    print(repr(dispatched - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
