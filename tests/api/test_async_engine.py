"""Multiplexed campaigns: an ``InlineTransport(concurrency=M)`` campaign
is observationally serial.

Same acceptance bar as the pooled campaigns (see ``test_engines.py``):
for the same seed, ``M`` sessions multiplexed on one event loop must
agree with the serial loop bit-for-bit -- verdicts, counterexamples,
per-test results, ``tests_run``, and the reporter event stream -- no
matter the concurrency, the latency injected, or whether warm executor
reuse is in play.  On top of that the loop must actually *overlap* the
injected latency (that is the point) and report the in-flight gauges
that prove it did.
"""

import pytest

from repro.api import CheckSession, InlineTransport, SessionConfig
from repro.apps.eggtimer import egg_timer_app
from repro.checker import RunnerConfig
from repro.executors import DomExecutor, LatencyExecutor
from repro.fuzz.oracles import RecordingReporter
from repro.specs import load_eggtimer_spec

from .test_engines import assert_campaigns_identical


def eggtimer_config(seed, tests=4, shrink=False, stop_on_failure=True):
    return RunnerConfig(tests=tests, scheduled_actions=15,
                        demand_allowance=10, seed=seed, shrink=shrink,
                        stop_on_failure=stop_on_failure)


def run(config, concurrency=1, decrement=1, latency_ms=None, reuse=False,
        reporters=()):
    """One egg-timer campaign through ``check`` on an InlineTransport;
    returns the campaign and the session (for its ``last_metrics``)."""
    app = egg_timer_app(decrement=decrement)
    target = app
    if latency_ms is not None:
        def target():
            return LatencyExecutor(DomExecutor(app), latency_ms=latency_ms,
                                   seed=5)
    session = CheckSession(target, reporters=list(reporters))
    campaign = session.check(
        load_eggtimer_spec().check_named("safety"), config=config,
        session=SessionConfig(
            transport=InlineTransport(concurrency=concurrency),
            reuse_executors=reuse,
        ),
    )
    return campaign, session


class TestAsyncEquivalence:
    @pytest.mark.parametrize("concurrency", [1, 3, 16])
    def test_passing_campaign(self, concurrency):
        config = eggtimer_config(seed=7)
        serial, _ = run(config)
        multiplexed, _ = run(config, concurrency=concurrency)
        assert_campaigns_identical(serial, multiplexed)
        assert serial.tests_run == 4

    def test_failing_campaign_with_shrinking(self):
        config = eggtimer_config(seed=7, tests=5, shrink=True)
        serial, _ = run(config, decrement=2)
        multiplexed, _ = run(config, concurrency=4, decrement=2)
        assert not serial.passed
        assert_campaigns_identical(serial, multiplexed)

    def test_latency_injection_changes_nothing(self):
        config = eggtimer_config(seed=3, tests=6)
        serial, _ = run(config)
        delayed, _ = run(config, concurrency=6, latency_ms=2)
        assert_campaigns_identical(serial, delayed)

    def test_warm_cache_changes_nothing(self):
        config = eggtimer_config(seed=11, tests=6)
        serial, _ = run(config)
        cached, session = run(config, concurrency=3, reuse=True)
        assert session.last_metrics.warm_hits > 0
        assert_campaigns_identical(serial, cached)

    def test_reporter_streams_are_identical(self):
        config = eggtimer_config(seed=5, tests=5, shrink=True)
        serial_rec, async_rec = RecordingReporter(), RecordingReporter()
        run(config, decrement=2, reporters=[serial_rec])
        run(config, concurrency=4, decrement=2, reporters=[async_rec])
        assert serial_rec.events == async_rec.events

    def test_continue_after_failure_keeps_all_results(self):
        config = eggtimer_config(seed=7, tests=5, stop_on_failure=False)
        serial, _ = run(config, decrement=2)
        multiplexed, _ = run(config, concurrency=5, decrement=2)
        assert serial.tests_run == 5
        assert_campaigns_identical(serial, multiplexed)


class TestAsyncMetrics:
    def test_inflight_gauges_prove_overlap(self):
        # 6 tests x ~5 ms injected latency on concurrency 6: at some
        # sampled instant most sessions must have been in flight, and
        # the loop must have spent most of its active time awaiting.
        _, session = run(eggtimer_config(seed=2, tests=6), concurrency=6,
                         latency_ms=5)
        metrics = session.last_metrics
        assert metrics.transport == "async"
        assert metrics.inflight_sessions >= 2
        assert metrics.inflight_sessions <= 6
        assert metrics.mean_concurrency > 1.0
        assert metrics.session_active_s > 0.0
        assert metrics.await_ratio > 0.5

    def test_concurrency_one_never_overlaps(self):
        _, session = run(eggtimer_config(seed=2, tests=3))
        metrics = session.last_metrics
        assert metrics.transport == "serial"
        assert metrics.inflight_sessions <= 1
        assert metrics.mean_concurrency <= 1.0

    def test_snapshot_carries_the_gauges(self):
        _, session = run(eggtimer_config(seed=2, tests=2), concurrency=2)
        snapshot = session.last_metrics.to_dict()
        for key in ("inflight_sessions", "mean_concurrency",
                    "session_active_s", "await_ratio"):
            assert key in snapshot


class TestAsyncConfiguration:
    def test_rejects_non_positive_concurrency(self):
        with pytest.raises(ValueError):
            InlineTransport(concurrency=0)
        with pytest.raises(ValueError):
            InlineTransport(concurrency=-2)
