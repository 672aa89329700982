"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, once untraced and once traced, and
fails unless every metric named in ``BENCHMARK.json`` is emitted (and
described in ``layers.json``), every layer boundary the workload should
exercise records calls, every verdict is right, and traced verdicts
equal untraced ones.  Takes about ten seconds.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Per workload: attribute overrides that shrink it to a few seconds.
TINY = {
    "todomvc-audit": {"slice": ("vue", "polymer"), "tests": 2,
                      "scheduled_actions": 15},
    "eggtimer-check": {"tests": 5},
    "monitor-replay": {"campaign_slice": ("vue", "polymer"),
                       "campaign_tests": 2, "campaign_actions": 10},
}


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import run
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    names = {w["name"] for w in declared["workloads"]}
    problems = []
    if names != set(WORKLOADS) or names != set(TINY):
        problems.append(f"workloads differ: declared {sorted(names)}, "
                        f"implemented {sorted(WORKLOADS)}")
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as f:
        described = json.load(f)
    for kind, section in (("end_to_end", "end_to_end"),
                          ("per_layer", "layers")):
        metrics = {m["name"] for m in declared[kind]}
        if metrics != set(described[section]):
            problems.append(f"layers.json {section} differs from "
                            f"BENCHMARK.json {kind}")
    run.PROBES = 1
    for name in sorted(names & set(TINY)):
        for trace in (0, 1):
            workload = WORKLOADS[name]()
            for attribute, value in TINY[name].items():
                setattr(workload, attribute, value)
            # A traced result is only correct when no boundary the
            # workload should exercise is silent and every traced round's
            # verdicts equal its untraced twin's (details go to stderr).
            # A metric missing from, or not declared in, BENCHMARK.json
            # raises.
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.execute(workload, 3, 0, bool(trace))
            label = f"{name} trace={trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: not correct ({result['failed']} "
                                f"of {result['attempted']} failed)")
            print(f"{label}: {result['attempted']} ops, "
                  f"{len(result['metrics'])} metrics", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
