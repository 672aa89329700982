"""Parallel-engine benchmark: serial vs parallel TodoMVC audit wall-clock.

QuickerCheck-style measurement (Krook & Svensson, 2024): the per-test
seed isolation makes campaigns embarrassingly parallel, so the parallel
engine's verdicts are identical to serial while wall-clock drops with
the available cores.  This bench audits a sample of TodoMVC
implementations with both engines, asserts the verdicts agree, and
records the wall-clock speedup.

Note the speedup ceiling is the machine's core count (on a single-core
CI runner the recorded speedup is ~1x or below, reflecting pure
engine overhead); the *verdict equivalence* assertions hold everywhere.

Environment knobs: ``REPRO_BENCH_PAR_JOBS`` (default 4),
``REPRO_BENCH_PAR_TESTS`` (default 8).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.api import CheckSession, SessionConfig
from repro.apps.todomvc import implementation_named
from repro.checker import RunnerConfig

from .harness import todomvc_safety, write_json, write_report

JOBS = int(os.environ.get("REPRO_BENCH_PAR_JOBS", "4"))
TESTS = int(os.environ.get("REPRO_BENCH_PAR_TESTS", "8"))

#: A passing-heavy sample: passing campaigns run every test, so they are
#: the workload where parallel fan-out actually matters.
SAMPLE = ["vue", "react", "binding-scala", "mithril", "polymer", "vanillajs"]


def _audit(jobs: int):
    spec = todomvc_safety(100)
    config = RunnerConfig(tests=TESTS, scheduled_actions=100,
                          demand_allowance=20, seed=0, shrink=False)
    outcomes = {}
    start = time.perf_counter()
    for name in SAMPLE:
        impl = implementation_named(name)
        session = CheckSession(impl.app_factory())
        outcomes[name] = session.check(spec, config=config,
                                       session=SessionConfig(jobs=jobs))
    elapsed = time.perf_counter() - start
    return outcomes, elapsed


@pytest.mark.benchmark(group="parallel")
def test_parallel_audit_speedup(benchmark):
    serial_outcomes, serial_s = _audit(jobs=1)
    (parallel_outcomes, parallel_s) = benchmark.pedantic(
        _audit, kwargs={"jobs": JOBS}, rounds=1, iterations=1
    )

    # Equivalence: same verdicts, same per-test results, same stop point.
    for name in SAMPLE:
        serial, parallel = serial_outcomes[name], parallel_outcomes[name]
        assert serial.passed == parallel.passed, name
        assert serial.tests_run == parallel.tests_run, name
        assert [r.verdict for r in serial.results] == [
            r.verdict for r in parallel.results
        ], name

    speedup = serial_s / parallel_s if parallel_s else float("inf")
    cores = os.cpu_count() or 1
    report = (
        f"Parallel campaign engine, TodoMVC audit workload\n"
        f"------------------------------------------------\n"
        f"implementations: {', '.join(SAMPLE)}\n"
        f"tests per campaign: {TESTS}   jobs: {JOBS}   cores: {cores}\n\n"
        f"serial wall-clock:   {serial_s:8.2f} s\n"
        f"parallel wall-clock: {parallel_s:8.2f} s\n"
        f"speedup:             {speedup:8.2f} x (ceiling: {cores} cores)\n\n"
        f"Verdicts, per-test results and stop points are identical.\n"
    )
    write_report("parallel_speedup.txt", report)
    write_json(
        "parallel_speedup.json",
        {
            "sample": SAMPLE,
            "tests_per_campaign": TESTS,
            "jobs": JOBS,
            "cores": cores,
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            "speedup": round(speedup, 3),
            "verdicts_identical": True,
        },
    )
