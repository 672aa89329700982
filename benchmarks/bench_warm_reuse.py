"""Warm executor reuse benchmark: leased sessions vs cold construction.

QuickerCheck (arXiv:2404.16062) observes that once campaigns get small,
parallel PBT runtimes spend their time on per-session overhead rather
than on testing.  Both of the paper's batch shapes have exactly that
profile:

* **the audit** (Section 6): 43 implementations x a handful of short
  tests each -- every test used to pay executor construction plus a
  ``Start`` warm-up;
* **many properties x one app** (``check_all``): N campaigns against
  the same application, where one warm executor can serve every test
  of every property.

This bench runs both shapes twice with identical seeds -- cold
(``reuse_executors=False``: fresh executor per test, the pre-lease
behaviour) and warm (the default: leased executors reset between
tests) -- asserts the verdicts are identical, records the wall-clock
ratio (best-of-2 per measurement, to strip scheduler noise), and fails
when warm reuse is *slower* than cold start beyond
``REPRO_BENCH_WARM_TOLERANCE``.  Short tests (small action budgets)
keep session setup a visible fraction of the cost, which is exactly the
regime the lease layer targets; the warm-hit counters in the recorded
JSON prove the fast path actually ran.

Honest expectations: in this reproduction the simulated browser is
in-process, so session setup is dominated by mounting the application
-- which a reset must also pay to stay observationally identical.  The
one-app shape (cheap app, one warm-up amortised over every property's
campaign) shows a clear win; the TodoMVC audit shape sits at ~1.0
(construction savings in the noise), and the guard's job there is to
prove reuse never *loses*.  Against a real out-of-process WebDriver
backend the construction side of that ratio is seconds, not
microseconds.

Results land in ``benchmarks/out/warm_reuse.json`` (a CI artifact).

Environment knobs: ``REPRO_BENCH_WARM_TESTS`` (default 4),
``REPRO_BENCH_WARM_SUBSCRIPT`` (default 12, the per-test action
budget), ``REPRO_BENCH_WARM_REPEAT`` (property replication for the
one-app shape, default 4), ``REPRO_BENCH_WARM_TOLERANCE`` (warm/cold
wall-clock ratio ceiling, default 1.10 -- a timer-noise margin; the
recorded ratios sit at or below 1.0).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.api import CheckSession, CheckTarget, SessionConfig
from repro.apps.eggtimer import egg_timer_app
from repro.apps.todomvc import implementation_named
from repro.checker import RunnerConfig
from repro.specs import load_eggtimer_spec

from .harness import todomvc_safety, write_json

TESTS = int(os.environ.get("REPRO_BENCH_WARM_TESTS", "4"))
SUBSCRIPT = int(os.environ.get("REPRO_BENCH_WARM_SUBSCRIPT", "12"))
REPEAT = int(os.environ.get("REPRO_BENCH_WARM_REPEAT", "4"))
TOLERANCE = float(os.environ.get("REPRO_BENCH_WARM_TOLERANCE", "1.10"))

#: Small passing-heavy campaigns: the audit shape where per-session
#: overhead is the largest relative cost.
SAMPLE = [
    "vue", "react", "mithril", "binding-scala", "aurelia", "backbone",
    "emberjs", "closure", "exoskeleton", "jsblocks",
    "polymer", "vanillajs",
]


def _config():
    return RunnerConfig(tests=TESTS, scheduled_actions=SUBSCRIPT,
                        demand_allowance=10, seed=0, shrink=False)


def _best_of(measure, rounds=2):
    """Run ``measure`` several times, keeping the last batch and the
    *minimum* wall-clock -- the standard way to strip scheduler noise
    from sub-two-second measurements on shared machines."""
    best = float("inf")
    batch = None
    for _ in range(rounds):
        batch, seconds = measure()
        best = min(best, seconds)
    return batch, best


def _audit_batch(reuse: bool):
    def measure():
        spec = todomvc_safety(SUBSCRIPT)
        targets = [
            CheckTarget(name, implementation_named(name).app_factory())
            for name in SAMPLE
        ]
        start = time.perf_counter()
        batch = CheckSession().check_many(
            targets, spec=spec, config=_config(),
            session=SessionConfig(jobs=1, reuse_executors=reuse),
        )
        return batch, time.perf_counter() - start

    return _best_of(measure)


def _one_app_batch(reuse: bool):
    """Many properties x one app: the eggtimer module's properties,
    replicated, all against one application factory."""

    def measure():
        checks = load_eggtimer_spec().checks
        targets = [
            CheckTarget(f"{check.name}@{round}", spec=check)
            for round in range(REPEAT)
            for check in checks
        ]
        session = CheckSession(egg_timer_app())
        start = time.perf_counter()
        batch = session.check_many(
            targets, config=_config(),
            session=SessionConfig(jobs=1, reuse_executors=reuse),
        )
        return batch, time.perf_counter() - start

    return _best_of(measure)


def _assert_identical(cold, warm):
    assert len(cold) == len(warm)
    for left, right in zip(cold, warm):
        assert left.target == right.target
        assert left.result.passed == right.result.passed, left.target
        assert left.result.tests_run == right.result.tests_run, left.target
        assert [r.verdict for r in left.result.results] == [
            r.verdict for r in right.result.results
        ], left.target
        assert [r.actions for r in left.result.results] == [
            r.actions for r in right.result.results
        ], left.target


@pytest.mark.benchmark(group="warm-reuse")
def test_warm_reuse_beats_cold_start(benchmark):
    audit_cold, audit_cold_s = _audit_batch(reuse=False)
    (audit_warm, audit_warm_s) = benchmark.pedantic(
        _audit_batch, args=(True,), rounds=1, iterations=1
    )
    one_app_cold, one_app_cold_s = _one_app_batch(reuse=False)
    one_app_warm, one_app_warm_s = _one_app_batch(reuse=True)

    # Determinism first: warm-reuse verdicts == cold verdicts, both
    # shapes, before any timing claim counts.
    _assert_identical(audit_cold.outcomes, audit_warm.outcomes)
    _assert_identical(one_app_cold.outcomes, one_app_warm.outcomes)

    # The fast path genuinely ran: cold batches never hit warm, warm
    # batches pay one cold start per distinct target (audit) / one per
    # batch (one app, shared factory).
    assert audit_cold.metrics.warm_hits == 0
    assert audit_warm.metrics.warm_hits > 0
    assert audit_warm.metrics.cold_starts == len(SAMPLE)
    assert one_app_warm.metrics.cold_starts == 1

    audit_ratio = audit_warm_s / audit_cold_s if audit_cold_s else 1.0
    one_app_ratio = (
        one_app_warm_s / one_app_cold_s if one_app_cold_s else 1.0
    )
    report = {
        "audit": {
            "sample": SAMPLE,
            "campaigns": len(SAMPLE),
            "cold_s": round(audit_cold_s, 3),
            "warm_s": round(audit_warm_s, 3),
            "warm_vs_cold_ratio": round(audit_ratio, 3),
            "warm_hits": audit_warm.metrics.warm_hits,
            "cold_starts": audit_warm.metrics.cold_starts,
        },
        "one_app": {
            "campaigns": len(load_eggtimer_spec().checks) * REPEAT,
            "cold_s": round(one_app_cold_s, 3),
            "warm_s": round(one_app_warm_s, 3),
            "warm_vs_cold_ratio": round(one_app_ratio, 3),
            "warm_hits": one_app_warm.metrics.warm_hits,
            "cold_starts": one_app_warm.metrics.cold_starts,
        },
        "tests_per_campaign": TESTS,
        "scheduled_actions": SUBSCRIPT,
        "tolerance": TOLERANCE,
        "verdicts_identical": True,
    }
    write_json("warm_reuse.json", report)

    # The regression guard: warm reuse must not lose to cold start.
    # The tolerance absorbs timer noise only -- the recorded ratios are
    # the honest numbers.
    assert audit_warm_s <= audit_cold_s * TOLERANCE, (
        f"warm audit ({audit_warm_s:.2f}s) slower than cold "
        f"({audit_cold_s:.2f}s) beyond x{TOLERANCE}"
    )
    assert one_app_warm_s <= one_app_cold_s * TOLERANCE, (
        f"warm one-app batch ({one_app_warm_s:.2f}s) slower than cold "
        f"({one_app_cold_s:.2f}s) beyond x{TOLERANCE}"
    )
