"""Shared machinery for the paper-reproduction benchmarks.

The benchmarks regenerate the paper's evaluation artefacts:

* Table 1  -- pass/fail audit of the 43 TodoMVC implementations,
* Table 2  -- the fault taxonomy with per-problem counts,
* Figure 13 -- false-negative rate and running time vs. the temporal
  subscript,

plus two ablations motivated by the paper's design discussion (RV-LTL
vs. QuickLTL presumptive answers; per-step formula simplification).

Times are *simulated seconds* (virtual clock): the paper notes testing
time is dominated by waiting for events, which the virtual clock models
deterministically.  Campaigns run through :class:`repro.api.CheckSession`;
pass ``jobs=N`` (or set ``REPRO_BENCH_JOBS``) to fan each campaign's
tests out over the parallel engine -- verdicts are identical to serial.
Environment knobs (for quicker runs):

=======================  ==========================================
``REPRO_BENCH_TESTS``    tests per implementation for Table 1/2 (8)
``REPRO_BENCH_TRIALS``   trials per point for Figure 13 (3)
``REPRO_BENCH_SUBSCRIPTS``  comma-separated Figure 13 x-axis values
``REPRO_BENCH_JOBS``     parallel workers per campaign (1 = serial)
=======================  ==========================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.api import CheckSession, SessionConfig
from repro.apps.todomvc import Implementation, all_implementations
from repro.checker import CampaignResult, RunnerConfig
from repro.specs import load_todomvc_spec

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

DEFAULT_TESTS = int(os.environ.get("REPRO_BENCH_TESTS", "8"))
DEFAULT_TRIALS = int(os.environ.get("REPRO_BENCH_TRIALS", "3"))
DEFAULT_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
DEFAULT_SUBSCRIPTS = tuple(
    int(x)
    for x in os.environ.get(
        "REPRO_BENCH_SUBSCRIPTS", "10,25,50,100,200,350,500"
    ).split(",")
)

#: Paper reference points for Figure 13 (read off the plot).
PAPER_FIG13_REFERENCE = {
    "default_subscript": 100,
    "passing_seconds_at_100": 42.0,
    "all_faults_exposable_at": 50,
    "reliable_at": 100,
}

_spec_cache: Dict[int, object] = {}
_audit_cache: Dict[Tuple, CampaignResult] = {}


def todomvc_safety(subscript: int):
    """The TodoMVC safety CheckSpec at the given default subscript."""
    if subscript not in _spec_cache:
        _spec_cache[subscript] = load_todomvc_spec(
            default_subscript=subscript
        ).check_named("safety")
    return _spec_cache[subscript]


def audit_implementation(
    impl: Implementation,
    *,
    subscript: int = 100,
    tests: int = DEFAULT_TESTS,
    seed: int = 0,
    shrink: bool = False,
    jobs: int = DEFAULT_JOBS,
) -> CampaignResult:
    """Check one implementation against the TodoMVC safety property."""
    key = (impl.name, subscript, tests, seed, shrink)
    if key in _audit_cache:
        return _audit_cache[key]
    spec = todomvc_safety(subscript)
    config = RunnerConfig(
        tests=tests,
        scheduled_actions=subscript,
        demand_allowance=20,
        seed=seed,
        shrink=shrink,
        stop_on_failure=True,
    )
    session = CheckSession(impl.app_factory())
    result = session.check(spec, config=config,
                           session=SessionConfig(jobs=jobs))
    _audit_cache[key] = result
    return result


@dataclass
class AuditRow:
    implementation: Implementation
    result: CampaignResult

    @property
    def passed(self) -> bool:
        return self.result.passed

    @property
    def agrees_with_paper(self) -> bool:
        return self.passed == (not self.implementation.should_fail)


def audit_all(
    *, subscript: int = 100, tests: int = DEFAULT_TESTS, seed: int = 0,
    jobs: int = DEFAULT_JOBS,
) -> List[AuditRow]:
    """Audit all 43 implementations (Table 1's workload)."""
    return [
        AuditRow(impl, audit_implementation(impl, subscript=subscript,
                                            tests=tests, seed=seed, jobs=jobs))
        for impl in all_implementations()
    ]


def false_negative_rate(
    subscript: int, *, trials: int = DEFAULT_TRIALS, seed_base: int = 1000
) -> float:
    """Fraction of single-test runs on faulty implementations that pass
    (Figure 13's accuracy axis).  One trace per trial, like the paper's
    per-test measurement."""
    from repro.apps.todomvc import failing_implementations

    spec = todomvc_safety(subscript)
    passes = 0
    total = 0
    for impl in failing_implementations():
        session = CheckSession(impl.app_factory())
        for trial in range(trials):
            config = RunnerConfig(
                tests=1,
                scheduled_actions=subscript,
                demand_allowance=20,
                seed=seed_base + trial * 31 + hash(impl.name) % 1000,
                shrink=False,
            )
            result = session.check(spec, config=config)
            total += 1
            if result.passed:
                passes += 1
    return passes / total if total else 0.0


def passing_run_seconds(
    subscript: int, *, sample: int = 4, tests: int = 2, seed: int = 7
) -> float:
    """Average simulated seconds per test on passing implementations
    (Figure 13's running-time axis)."""
    from repro.apps.todomvc import passing_implementations

    spec = todomvc_safety(subscript)
    total_ms = 0.0
    count = 0
    for impl in passing_implementations()[:sample]:
        config = RunnerConfig(
            tests=tests,
            scheduled_actions=subscript,
            demand_allowance=20,
            seed=seed,
            shrink=False,
        )
        result = CheckSession(impl.app_factory()).check(spec, config=config)
        for test in result.results:
            total_ms += test.elapsed_virtual_ms
            count += 1
    return (total_ms / count / 1000.0) if count else 0.0


def write_report(filename: str, text: str) -> str:
    """Write a benchmark report under benchmarks/out/ and echo it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, filename)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(text)
    return path


def write_json(filename: str, record: dict) -> str:
    """Write a machine-readable benchmark record under benchmarks/out/
    (what CI uploads as run artifacts and feeds the regression guard)."""
    import json

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, filename)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(record, indent=2, sort_keys=True))
    return path
