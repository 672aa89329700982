"""End-to-end and per-layer benchmark of checking and monitoring.

    python3 perfbench/run.py --workload todomvc-audit --seed 1 \
        --seconds 40 --trace 0

Run from the root of a checkout: the program is imported from
``src/``.  Workloads (see :mod:`workloads`): ``todomvc-audit``,
``eggtimer-check`` and ``monitor-replay``.  Inputs
come from ``--seed``; rounds of work cycle through a few distinct round
inputs until ``--seconds`` have passed (closed loop, in-process, one
producer thread for monitoring).

``--trace 0`` reports the end-to-end metrics, taken from the fastest
tenth of each input's repeats (see :func:`fastest`); tails, records
per second and time to a shrunk counterexample are printed above the
result.  Set-up is timed in fresh interpreters between rounds.
``--trace 1`` alternates
untraced and traced rounds of identical input, wraps the public call
into each layer (:mod:`tracing`), prints the self-time table with the
tracing overhead, writes the spans to ``perfbench/out/`` and reports
the per-layer metrics.  Every round's verdicts are checked against
ground truth first; the last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Cold set-ups timed per untraced run (each in a fresh interpreter,
#: one after each of the first rounds so they sample different moments).
PROBES = 9
PROBE_TIMEOUT_S = 60
#: Share of rounds (and of set-up probes) the timings are taken from.
FASTEST = 0.1


def reported(values: dict, kind: str) -> dict:
    """``values`` as the result's metrics: every metric of ``kind``
    (``end_to_end`` or ``per_layer``) declared in ``BENCHMARK.json``,
    with its declared unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)[kind]
    names = {m["name"] for m in declared}
    if names != set(values):
        raise ValueError(f"{kind} metrics differ from BENCHMARK.json: "
                         f"missing {sorted(names - set(values))}, "
                         f"undeclared {sorted(set(values) - names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def round_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def probe_setup(workload) -> float:
    """Seconds of one cold set-up, timed in a fresh interpreter."""
    text = "".join(line + "\n" for line in workload.probe_lines())
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), workload.name],
        input=text, capture_output=True, text=True, cwd=ROOT,
        timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure(seed: int, seconds: float, one_round, inputs: int,
            between=None) -> list:
    """Closed loop: rounds cycling through ``inputs`` distinct round
    inputs until ``seconds`` have passed (at least one pass); returns
    each input's list of repeats.  ``between`` runs after each round,
    outside its timing."""
    repeats = [[] for _ in range(inputs)]
    started = time.perf_counter()
    index = 0
    while True:
        gc.collect()
        slot = index % inputs
        repeats[slot].append(one_round(round_seed(seed, slot + 1)))
        index += 1
        if between is not None:
            between()
        if index >= inputs and time.perf_counter() - started >= seconds:
            return repeats


def fastest(samples: list, key=lambda sample: sample) -> list:
    """The fastest :data:`FASTEST` share of ``samples`` (at least one).

    Other tenants of a shared machine only ever slow the program down,
    in spells of seconds to tens of seconds that make the same work up
    to 60% slower (its CPU time too, so it is not descheduling).
    Repeats of one input differ only by such interference, so the
    fastest of them measure the program itself.
    """
    return sorted(samples, key=key)[:max(1, round(len(samples) * FASTEST))]


def summarize(name: str, rounds: list, kept: list) -> None:
    """Print what the bounded metrics leave out: tails, records, cex."""
    ops = [ms for r in kept for ms in r.op_ms]
    wall = sum(r.wall_s for r in rounds)
    label = kept[0].op_label
    print(f"# {name}: {len(rounds)} rounds in {wall:.2f} s; the fastest "
          f"repeats of each input, {len(kept)} rounds, give the metrics "
          f"({len(ops)} ops)")
    print(f"#   {label} ms p50 {percentile(ops, 0.5):.2f}"
          f"  p90 {percentile(ops, 0.9):.2f}  p99 {percentile(ops, 0.99):.2f}")
    if any(r.records for r in kept):
        rates = [r.records / r.wall_s for r in kept]
        print(f"#   records_per_s median {statistics.median(rates):.1f}")
    cex = [s for r in kept for s in r.cex_s]
    if cex:
        print(f"#   cex_s_p50 {percentile(cex, 0.5):.3f} (n={len(cex)})")


def untraced(workload, seed: int, seconds: float) -> dict:
    setup = []

    def probe() -> None:
        if len(setup) < PROBES:
            setup.append(probe_setup(workload))

    workload.setup()
    workload.warmup(round_seed(seed, 0))
    repeats = measure(seed, seconds, workload.round, workload.inputs, probe)
    while len(setup) < PROBES:
        probe()
    kept = [r for runs in repeats
            for r in fastest(runs, key=lambda r: r.wall_s)]
    rounds = [r for runs in repeats for r in runs]
    summarize(workload.name, rounds, kept)
    ops = [ms for r in kept for ms in r.op_ms]
    values = {
        "setup_s": statistics.median(fastest(setup)),
        "states_per_s": sum(r.states for r in kept)
        / sum(r.wall_s for r in kept),
        "op_ms_p50": percentile(ops, 0.5),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported(values, "end_to_end"),
    }


def traced(workload, seed: int, seconds: float) -> dict:
    import tracing
    from layers import ShrinkObserver, per_layer, print_table
    from repro.quickltl import intern_stats
    from workloads import spec_load_s

    tracer = tracing.Tracer()
    shrink = ShrinkObserver()
    tracer.observers["runner.Runner.replay"] = shrink
    name = workload.name
    workload.setup()
    workload.warmup(round_seed(seed, 0))
    plain, traced_rounds = [], []
    mismatched = 0

    def traced_round(seed: int):
        hits, misses = intern_stats()
        uninstall = tracing.install(tracer)
        try:
            result = workload.round(seed)
        finally:
            uninstall()
        after = intern_stats()
        result.facts["intern_hits"] = after[0] - hits
        result.facts["intern_misses"] = after[1] - misses
        return result

    def pair(seed: int):
        # Alternate which twin runs first, so warm caches favour neither.
        nonlocal mismatched
        traced_first = len(traced_rounds) % 2 == 1
        one = traced_round(seed) if traced_first else workload.round(seed)
        gc.collect()
        two = workload.round(seed) if traced_first else traced_round(seed)
        with_trace, without = (one, two) if traced_first else (two, one)
        mismatched += with_trace.verdicts != without.verdicts
        traced_rounds.append(with_trace)
        plain.append(without)
        return with_trace

    measure(seed, seconds, pair, workload.inputs)
    uninstall = tracing.install(tracer)
    try:
        loads = spec_load_s(workload.spec_file, 3)
    finally:
        uninstall()
    silent = tracing.silent_boundaries(tracer, name)
    overhead = (sum(r.wall_s for r in traced_rounds)
                / sum(r.wall_s for r in plain) - 1.0)
    print_table(name, tracer, traced_rounds, loads, overhead)
    path = os.path.join(HERE, "out", f"spans-{name}-{seed}.jsonl")
    tracer.write(path)
    print(f"# spans: {len(tracer.spans)} written to "
          f"{os.path.relpath(path, ROOT)} ({tracer.dropped} beyond the cap)")
    if silent:
        print(f"perfbench: boundaries with zero calls on {name}: "
              f"{', '.join(silent)}", file=sys.stderr)
    if mismatched:
        print(f"perfbench: {mismatched} traced round(s) disagree with "
              "their untraced twin", file=sys.stderr)
    rounds = plain + traced_rounds
    failed = sum(r.failed for r in rounds)
    return {
        "correct": failed == 0 and not silent and not mismatched,
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "metrics": reported(per_layer(tracer, traced_rounds, loads, overhead,
                                      shrink, workload.full_width()),
                            "per_layer"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    result = execute(WORKLOADS[args.workload](), args.seed, args.seconds,
                     args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


def execute(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Prepare inputs, measure, and return the result object."""
    workload.prepare(seed)
    try:
        if trace:
            return traced(workload, seed, seconds)
        return untraced(workload, seed, seconds)
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
