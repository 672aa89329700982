"""Record the traces ``monitor-replay`` streams, in a process of its own.

    python3 perfbench/record.py < campaign.json

Standard input holds the campaign's settings (the ``campaign_*``
attributes of ``MonitorReplay``).  Prints one JSON object: per session,
its wire lines and the verdict the offline checker gave.  Recording runs
apart from the measuring process so that it does not set that process's
peak memory.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    campaign = json.load(sys.stdin)
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    from workloads import MonitorReplay

    workload = MonitorReplay()
    for attribute, value in campaign.items():
        setattr(workload, attribute, value)
    json.dump(workload.record(), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
