"""Async multiplexing benchmark: concurrency vs throughput under latency.

An :class:`~repro.api.transport.InlineTransport` with ``concurrency=M``
multiplexes M I/O-bound sessions on one event loop: while a session
awaits a wire round-trip, the loop drives its siblings, so campaign
wall-clock tracks the *longest* session rather than the summed
latency.  This bench makes that claim falsifiable:

* every test of an eggtimer campaign runs behind a
  :class:`~repro.executors.LatencyExecutor` injecting a deterministic
  ~``LATENCY_MS`` per protocol round-trip (the shape of a real
  out-of-process WebDriver backend) -- the target's executor factory
  builds it, so the concurrency-1 point drives the same sessions
  synchronously;
* the campaign runs at each width on the concurrency curve (default
  1, 2, 4, 8, 16) and, *before any timing claim counts*, each run's
  verdicts, per-test results and counterexample actions are
  hard-asserted identical to the plain serial loop with the same seed;
* the recorded in-flight gauges prove the loop genuinely overlapped
  sessions (``mean_concurrency``, ``await_ratio``);
* the guard fails the run when the widest point's speedup over
  concurrency 1 falls below ``REPRO_BENCH_ASYNC_TOLERANCE`` (default
  3.0x) -- unlike process fan-out this floor holds on a single-core
  runner, because the waiting being overlapped is sleep, not CPU.

Results land in ``benchmarks/out/async_curve.json`` (a CI artifact).

Environment knobs: ``REPRO_BENCH_ASYNC_TESTS`` (default 16),
``REPRO_BENCH_ASYNC_LATENCY_MS`` (default 5.0),
``REPRO_BENCH_ASYNC_CURVE`` (default ``1,2,4,8,16``),
``REPRO_BENCH_ASYNC_TOLERANCE`` (minimum widest-vs-1 speedup, 3.0).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.api import CheckSession, InlineTransport, SessionConfig
from repro.apps.eggtimer import egg_timer_app
from repro.checker import RunnerConfig
from repro.executors import DomExecutor, LatencyExecutor
from repro.specs import load_eggtimer_spec

from .harness import write_json

TESTS = int(os.environ.get("REPRO_BENCH_ASYNC_TESTS", "16"))
LATENCY_MS = float(os.environ.get("REPRO_BENCH_ASYNC_LATENCY_MS", "5.0"))
CURVE = tuple(
    int(x)
    for x in os.environ.get("REPRO_BENCH_ASYNC_CURVE", "1,2,4,8,16").split(",")
)
TOLERANCE = float(os.environ.get("REPRO_BENCH_ASYNC_TOLERANCE", "3.0"))

SPEC = load_eggtimer_spec().check_named("safety")
CONFIG = RunnerConfig(tests=TESTS, scheduled_actions=12,
                      demand_allowance=10, seed=11, shrink=False)


def _latency_session():
    return LatencyExecutor(
        DomExecutor(egg_timer_app()), latency_ms=LATENCY_MS, seed=1
    )


def _timed_async_run(concurrency: int):
    session = CheckSession(_latency_session)
    start = time.perf_counter()
    campaign = session.check(
        SPEC, config=CONFIG,
        session=SessionConfig(
            transport=InlineTransport(concurrency=concurrency)
        ),
    )
    return campaign, time.perf_counter() - start, session.last_metrics


def _assert_identical(serial, candidate, concurrency):
    where = f"concurrency {concurrency}"
    assert serial.passed == candidate.passed, where
    assert serial.tests_run == candidate.tests_run, where
    assert [r.verdict for r in serial.results] == [
        r.verdict for r in candidate.results
    ], where
    assert [r.actions for r in serial.results] == [
        r.actions for r in candidate.results
    ], where
    if serial.counterexample is None:
        assert candidate.counterexample is None, where
    else:
        assert (
            serial.counterexample.actions == candidate.counterexample.actions
        ), where


@pytest.mark.benchmark(group="async")
def test_async_concurrency_curve(benchmark):
    serial = CheckSession(egg_timer_app()).check(SPEC, config=CONFIG)

    points = []
    timings = {}
    last = None
    for concurrency in CURVE:
        if concurrency == CURVE[-1]:
            campaign, elapsed, metrics = benchmark.pedantic(
                _timed_async_run, args=(concurrency,), rounds=1, iterations=1
            )
        else:
            campaign, elapsed, metrics = _timed_async_run(concurrency)
        # Determinism before throughput: a fast wrong answer is a bug.
        _assert_identical(serial, campaign, concurrency)
        timings[concurrency] = elapsed
        points.append({
            "concurrency": concurrency,
            "wall_s": round(elapsed, 3),
            "tests": TESTS,
            "throughput_tests_per_s": round(TESTS / elapsed, 2),
            "inflight_sessions": metrics.inflight_sessions,
            "mean_concurrency": round(metrics.mean_concurrency, 2),
            "await_ratio": round(metrics.await_ratio, 3),
        })
        last = metrics

    widest = CURVE[-1]
    speedup = timings[CURVE[0]] / timings[widest] if timings[widest] else 0.0
    report = {
        "curve": points,
        "latency_ms": LATENCY_MS,
        "tests_per_campaign": TESTS,
        "speedup_widest_vs_1": round(speedup, 3),
        "tolerance": TOLERANCE,
        "verdicts_identical": True,
    }
    write_json("async_curve.json", report)

    # The loop genuinely overlapped sessions at the widest point.
    assert last is not None and last.mean_concurrency > 1.5
    # The throughput floor: injected latency is sleep, not CPU, so the
    # multiplexing win must hold even on a single-core runner.
    assert speedup >= TOLERANCE, (
        f"concurrency {widest} only {speedup:.2f}x over concurrency "
        f"{CURVE[0]} (floor {TOLERANCE}x); see async_curve.json"
    )
