"""Fuzzing throughput: scenario diversity per second, and its overhead.

The differential fuzzer runs every generated campaign *five times*
(serial reference, pooled, warm-reuse, async-multiplexed, full-capture
for the narrowed-observation oracle) plus a trace-level re-evaluation
under the direct reference semantics -- scenario diversity is only
useful if that multiplier stays cheap enough to run at CI scale.  This
bench records:

* **throughput**: generated campaigns (and generated tests) per second
  through the full differential harness (`run_fuzz`),
* **differential overhead**: the same campaigns through the serial
  reference path only, so the cost multiplier of the cross-checking is
  an explicit, tracked number rather than folklore.

The run doubles as a correctness smoke at bench scale: any divergence
fails the bench outright (the fuzzer's whole claim is that the five
legs and the reference semantics agree).

Results land in ``benchmarks/out/fuzz_throughput.json`` (a CI artifact).

Environment knobs: ``REPRO_BENCH_FUZZ_CAMPAIGNS`` (default 20),
``REPRO_BENCH_FUZZ_JOBS`` (default 2), ``REPRO_BENCH_FUZZ_SEED``
(default 0).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.api import CheckSession, SessionConfig
from repro.api.scheduler import CheckTarget
from repro.fuzz import generate_campaign, machine_app, run_fuzz

from .harness import write_json

CAMPAIGNS = int(os.environ.get("REPRO_BENCH_FUZZ_CAMPAIGNS", "20"))
JOBS = int(os.environ.get("REPRO_BENCH_FUZZ_JOBS", "2"))
SEED = int(os.environ.get("REPRO_BENCH_FUZZ_SEED", "0"))


def _reference_only_seconds() -> float:
    """The same campaigns, serial reference schedule only (no pooled or
    warm re-runs, no trace oracle): the baseline the differential
    multiplier is measured against."""
    start = time.perf_counter()
    for index in range(CAMPAIGNS):
        campaign = generate_campaign(SEED, index)
        check = campaign.check_property()
        targets = [
            CheckTarget(name, machine_app(campaign.machine, fault))
            for name, fault in campaign.targets()
        ]
        CheckSession().check_many(
            targets, spec=check, config=campaign.config(),
            session=SessionConfig(jobs=1, reuse_executors=False),
        )
    return time.perf_counter() - start


@pytest.mark.benchmark(group="fuzz")
def test_fuzz_throughput(benchmark):
    start = time.perf_counter()
    report = benchmark.pedantic(
        run_fuzz,
        kwargs=dict(seed=SEED, campaigns=CAMPAIGNS, jobs=JOBS),
        rounds=1, iterations=1,
    )
    full_seconds = time.perf_counter() - start
    reference_seconds = _reference_only_seconds()

    detected = sum(count for _, count, _ in report.scoreboard_rows())
    injected = sum(total for _, _, total in report.scoreboard_rows())
    overhead = (
        full_seconds / reference_seconds if reference_seconds else 1.0
    )
    write_json(
        "fuzz_throughput.json",
        {
            "seed": SEED,
            "jobs": JOBS,
            "campaigns": CAMPAIGNS,
            "tests_run": report.tests_run,
            "full_s": round(full_seconds, 3),
            "campaigns_per_s": round(CAMPAIGNS / full_seconds, 2)
            if full_seconds else None,
            "reference_only_s": round(reference_seconds, 3),
            "differential_overhead_ratio": round(overhead, 2),
            "faults_detected": detected,
            "faults_injected": injected,
            "divergences": len(report.divergences),
        },
    )

    # Correctness smoke at bench scale: the schedules and the reference
    # semantics must agree, or the throughput number is meaningless.
    assert report.ok, (
        f"{len(report.divergences)} divergence(s) during the bench run: "
        + "; ".join(d.detail for d in report.divergences[:3])
    )
    assert injected > 0 and detected > 0
