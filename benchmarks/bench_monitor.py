"""Memoized monitor progression vs naive per-session stepping.

The online monitor's claim (``src/repro/monitor``): with hash-consed
residuals, a record's step is found in O(1) in the monitor's memo of
``(state key, residual)`` steps, so every record observing the same
state with the same residual costs **one** progression computation
between them, and monitoring N homogeneous sessions costs roughly the
progression work of a handful of distinct trajectories -- not N of
them.  This bench holds it to that claim on the workload the subsystem
is built for: a deterministic synthetic egg-timer population
(``repro.monitor.synth``) of ``REPRO_BENCH_MONITOR_SESSIONS`` sessions
(default 10000) walking a small trajectory palette, with a 10% injected
fault rate so the verdict comparison spans both outcomes.

The same pre-parsed record stream is driven through two monitors over
the real ``safety`` property of ``src/repro/specs/eggtimer.strom``:

* **unbatched** (``batch=False``): one progression step per
  (session, state), fresh unroll memo each -- what a per-session
  :class:`~repro.quickltl.FormulaChecker` farm would do;
* **batched** (the default): each record stepped on arrival through the
  monitor's step memo, over the shared
  :class:`~repro.checker.compiled.CompiledProperty` caches.

Both runs must produce **identical per-session verdicts** (verdict,
forced flag and disposition) -- correctness is asserted before any
timing counts.  The guard then requires the batched run to be at least
``REPRO_BENCH_MONITOR_TOLERANCE`` times faster (default 2.0, the PR-6
acceptance floor) and its residual-sharing ratio to exceed
``REPRO_BENCH_MONITOR_SHARING`` (default 0.9 -- the homogeneous-stream
guarantee).

Results land in ``benchmarks/out/monitor.json`` (a CI artifact).

A second bench measures the sharded monitor (``repro monitor --shards``,
``src/repro/monitor/shard.py``): the same wire stream dispatched to 1,
2 and 4 worker processes, each running the batched monitor over shipped
artifact bytes.  Per-session verdicts must be identical to the
single-process run at every width (the sharding invariant) before any
timing counts; the curve (lines/second per width, plus its flattening
point) lands in ``benchmarks/out/monitor_shards.json``.  Guards:
the best sharded wall-clock must not lose to single-process beyond
``REPRO_BENCH_MONITOR_SHARD_TOLERANCE`` (default 4.0 -- a one-core box
pays fork, pickling and dispatch with no parallelism to win back), and
the speedup at the widest point must reach
``REPRO_BENCH_MONITOR_SHARD_SPEEDUP`` (default 0.0; multi-core CI pins
it to 1.0 -- sharding must actually pay there).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.monitor import Monitor, parse_record
from repro.monitor.synth import synth_lines
from repro.specs import load_eggtimer_spec

from .harness import write_json

SESSIONS = int(os.environ.get("REPRO_BENCH_MONITOR_SESSIONS", "10000"))
TOLERANCE = float(os.environ.get("REPRO_BENCH_MONITOR_TOLERANCE", "2.0"))
SHARING_FLOOR = float(os.environ.get("REPRO_BENCH_MONITOR_SHARING", "0.9"))
FAULT_RATE = 0.1
SEED = 0

SHARD_SESSIONS = int(os.environ.get("REPRO_BENCH_SHARD_SESSIONS", "10000"))
SHARD_CURVE = tuple(
    int(x)
    for x in os.environ.get("REPRO_BENCH_MONITOR_SHARDS", "1,2,4").split(",")
)
SHARD_TOLERANCE = float(
    os.environ.get("REPRO_BENCH_MONITOR_SHARD_TOLERANCE", "4.0")
)
SHARD_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MONITOR_SHARD_SPEEDUP", "0.0")
)

#: Marginal-gain threshold under which the shard curve counts as flat.
FLAT_GAIN = 0.10


def _run(check, records, *, batch: bool):
    verdicts = {}

    def collect(verdict):
        verdicts[verdict.session_id] = (
            verdict.verdict, verdict.forced, verdict.disposition
        )

    monitor = Monitor(check, batch=batch, on_verdict=collect)
    start = time.perf_counter()
    for record in records:
        monitor.feed_record(record)
    report = monitor.finish()
    seconds = time.perf_counter() - start
    return verdicts, report, seconds


@pytest.mark.benchmark(group="monitor")
def test_batched_monitor_beats_per_session_stepping():
    check = load_eggtimer_spec().check_named("safety")
    # Pre-parse once: the wire codec is identical in both modes and is
    # not what this bench measures.
    records = [
        parse_record(line)
        for line in synth_lines(SEED, SESSIONS, FAULT_RATE)
    ]

    naive_verdicts, naive_report, naive_s = _run(
        check, records, batch=False
    )
    batched_verdicts, batched_report, batched_s = _run(
        check, records, batch=True
    )

    # Correctness before timing: batching must be invisible in the
    # verdicts.
    assert batched_verdicts == naive_verdicts, (
        "batched and per-session monitors disagree on session verdicts"
    )
    assert len(batched_verdicts) == SESSIONS

    metrics = batched_report.metrics
    speedup = naive_s / batched_s if batched_s else float("inf")
    report = {
        "sessions": SESSIONS,
        "fault_rate": FAULT_RATE,
        "tolerance": TOLERANCE,
        "sharing_floor": SHARING_FLOOR,
        "states_applied": metrics.states_applied,
        "cohort_steps": metrics.cohort_steps,
        "sharing_ratio": round(metrics.sharing_ratio, 4),
        "naive_s": round(naive_s, 4),
        "batched_s": round(batched_s, 4),
        "naive_states_per_s": round(
            metrics.states_applied / naive_s, 1
        ) if naive_s else 0.0,
        "batched_states_per_s": round(
            metrics.states_applied / batched_s, 1
        ) if batched_s else 0.0,
        "speedup": round(speedup, 2),
        "verdicts": dict(sorted(metrics.verdicts.items())),
        "intern_hit_ratio": round(metrics.intern_hit_ratio, 4),
    }
    write_json("monitor.json", report)

    assert speedup >= TOLERANCE, (
        f"batched monitor only {speedup:.2f}x per-session stepping at "
        f"{SESSIONS} sessions (floor x{TOLERANCE}); see "
        "benchmarks/out/monitor.json"
    )
    assert metrics.sharing_ratio > SHARING_FLOOR, (
        f"residual-sharing ratio {metrics.sharing_ratio:.3f} at or below "
        f"the {SHARING_FLOOR} floor for a homogeneous stream; see "
        "benchmarks/out/monitor.json"
    )


def _flattening_point(curve):
    """First shard width whose marginal throughput gain over the
    previous curve point is below ``FLAT_GAIN`` (the last width if the
    curve is still climbing everywhere measured)."""
    for prev, point in zip(curve, curve[1:]):
        if point["lines_per_s"] < prev["lines_per_s"] * (1.0 + FLAT_GAIN):
            return point["shards"]
    return curve[-1]["shards"]


@pytest.mark.benchmark(group="monitor")
def test_sharded_monitor_throughput_curve():
    from repro.artifact import SpecResolver
    from repro.monitor import ShardedMonitor
    from repro.specs import spec_path

    resolver = SpecResolver()
    bundle = resolver.load(spec_path("eggtimer.strom"))
    lines = list(synth_lines(SEED, SHARD_SESSIONS, FAULT_RATE))

    def collect_into(verdicts):
        def collect(verdict):
            verdicts[verdict.session_id] = (
                verdict.verdict, verdict.forced, verdict.disposition
            )
        return collect

    # Single-process baseline over the same *wire* lines: each shard
    # worker pays the line parse, so the baseline must too.
    single_verdicts = {}
    monitor = Monitor(
        bundle.check_named("safety"),
        compiled=bundle.property_named("safety"),
        on_verdict=collect_into(single_verdicts),
    )
    start = time.perf_counter()
    for line in lines:
        monitor.feed_line(line)
    monitor.finish()
    single_s = time.perf_counter() - start
    assert len(single_verdicts) == SHARD_SESSIONS

    curve = []
    for shards in SHARD_CURVE:
        verdicts = {}
        # Worker cold-start (fork + artifact decode) is part of the
        # honest cost sheet, so the clock starts before construction.
        start = time.perf_counter()
        sharded = ShardedMonitor(
            bundle,
            shards=shards,
            property_name="safety",
            resolver=resolver,
            on_verdict=collect_into(verdicts),
        )
        sharded.feed_lines(lines)
        sharded.finish()
        elapsed = time.perf_counter() - start
        # The sharding invariant, before any timing counts: identical
        # per-session verdicts at every width.
        assert verdicts == single_verdicts, (
            f"sharded monitor (shards={shards}) disagrees with the "
            "single-process monitor on session verdicts"
        )
        curve.append({
            "shards": shards,
            "wall_s": round(elapsed, 3),
            "lines_per_s": round(len(lines) / elapsed, 1) if elapsed else 0.0,
        })

    best = min(point["wall_s"] for point in curve)
    ratio = best / single_s if single_s else float("inf")
    widest = curve[-1]
    speedup_at_widest = (
        single_s / widest["wall_s"] if widest["wall_s"] else float("inf")
    )
    report = {
        "sessions": SHARD_SESSIONS,
        "fault_rate": FAULT_RATE,
        "lines": len(lines),
        "cores": os.cpu_count() or 1,
        "single_s": round(single_s, 3),
        "single_lines_per_s": round(
            len(lines) / single_s, 1
        ) if single_s else 0.0,
        "curve": curve,
        "flattening_point_shards": _flattening_point(curve),
        "best_sharded_s": round(best, 3),
        "best_vs_single_ratio": round(ratio, 3),
        "speedup_at_widest": round(speedup_at_widest, 3),
        "tolerance": SHARD_TOLERANCE,
        "speedup_floor": SHARD_SPEEDUP,
        "verdicts_identical": True,
    }
    write_json("monitor_shards.json", report)

    assert ratio <= SHARD_TOLERANCE, (
        f"sharded wall-clock {best:.2f}s vs single-process "
        f"{single_s:.2f}s (ratio {ratio:.2f}) exceeds tolerance "
        f"{SHARD_TOLERANCE}; see benchmarks/out/monitor_shards.json"
    )
    assert speedup_at_widest >= SHARD_SPEEDUP, (
        f"sharded monitor at {widest['shards']} shard(s) is only "
        f"{speedup_at_widest:.2f}x single-process (floor "
        f"x{SHARD_SPEEDUP}); see benchmarks/out/monitor_shards.json"
    )
