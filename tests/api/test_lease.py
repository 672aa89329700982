"""The executor lifecycle manager: warm checkout/checkin semantics.

These are the unit tests of the lease layer in isolation (fake
executors); the end-to-end guarantee -- warm-reuse verdicts identical
to cold-start verdicts -- lives in ``test_warm_reuse.py``.
"""

from repro.api.lease import ExecutorCache, ExecutorLease
from repro.protocol.messages import Reset, Start

START = Start(frozenset({"#x"}), ())


def checkout(lease):
    return lease.checkout(START)


def checkin(lease, executor):
    lease.checkin(executor)


class FakeExecutor:
    """Records its lifecycle; ``resettable`` controls the reset answer."""

    def __init__(self, resettable=True):
        self.resettable = resettable
        self.started = 0
        self.resets = []
        self.stopped = 0

    def start(self, start):
        self.started += 1

    def reset(self, reset):
        if not self.resettable:
            return False
        self.resets.append(reset)
        return True

    def stop(self):
        self.stopped += 1


class NoResetExecutor:
    """A duck-typed backend from before the Reset protocol existed."""

    def __init__(self):
        self.started = 0
        self.stopped = 0

    def start(self, start):
        self.started += 1

    def stop(self):
        self.stopped += 1


def make_factory(cls=FakeExecutor, **kwargs):
    made = []

    def factory():
        executor = cls(**kwargs)
        made.append(executor)
        return executor

    factory.made = made
    return factory


class TestCheckout:
    def test_cold_start_on_empty_cache(self):
        cache = ExecutorCache()
        factory = make_factory()
        lease = cache.lease(factory)
        executor = checkout(lease)
        assert executor.started == 1
        assert not lease.warm
        assert cache.cold_starts.value == 1
        assert cache.warm_hits.value == 0

    def test_checkin_then_checkout_reuses_the_same_executor(self):
        cache = ExecutorCache()
        factory = make_factory()
        first = cache.lease(factory)
        executor = checkout(first)
        checkin(first, executor)
        assert len(cache) == 1
        second = cache.lease(factory)
        again = checkout(second)
        assert again is executor
        assert second.warm
        assert executor.stopped == 0
        resets = executor.resets
        assert resets and isinstance(resets[0], Reset)
        assert resets[0].dependencies == START.dependencies
        assert cache.warm_hits.value == 1
        assert cache.cold_starts.value == 1
        assert len(factory.made) == 1  # the factory ran exactly once

    def test_checkout_removes_the_entry(self):
        """Two concurrent leases can never share one executor."""
        cache = ExecutorCache()
        factory = make_factory()
        lease = cache.lease(factory)
        checkin(lease, checkout(lease))
        a = checkout(cache.lease(factory))
        b = checkout(cache.lease(factory))
        assert a is not b

    def test_backend_that_declines_reset_is_retired(self):
        cache = ExecutorCache()
        factory = make_factory(resettable=False)
        lease = cache.lease(factory)
        executor = checkout(lease)
        checkin(lease, executor)
        replacement = checkout(cache.lease(factory))
        assert replacement is not executor
        assert executor.stopped == 1  # retired, not leaked
        assert replacement.started == 1
        assert cache.cold_starts.value == 2
        assert cache.warm_hits.value == 0

    def test_pre_reset_backends_fall_back_cold(self):
        """An executor without a reset method (third-party duck type)
        must still work -- stop + fresh construction."""
        cache = ExecutorCache()
        factory = make_factory(cls=NoResetExecutor)
        lease = cache.lease(factory)
        executor = checkout(lease)
        checkin(lease, executor)
        replacement = checkout(cache.lease(factory))
        assert replacement is not executor
        assert executor.stopped == 1
        assert cache.warm_hits.value == 0

    def test_distinct_factories_never_share_executors(self):
        cache = ExecutorCache()
        factory_a, factory_b = make_factory(), make_factory()
        lease_a = cache.lease(factory_a)
        executor_a = checkout(lease_a)
        checkin(lease_a, executor_a)
        executor_b = checkout(cache.lease(factory_b))
        assert executor_b is not executor_a
        assert len(factory_b.made) == 1


class TestDisabled:
    def test_disabled_cache_always_starts_cold_and_stops(self):
        cache = ExecutorCache(enabled=False)
        factory = make_factory()
        lease = cache.lease(factory)
        executor = checkout(lease)
        checkin(lease, executor)
        assert executor.stopped == 1
        assert len(cache) == 0
        again = checkout(cache.lease(factory))
        assert again is not executor
        assert cache.cold_starts.value == 2


class TestClose:
    def test_close_stops_every_warm_executor(self):
        """One slot: parking B's executor stops A's, and close stops
        B's, so every warm executor is stopped by the end."""
        cache = ExecutorCache()
        factory_a, factory_b = make_factory(), make_factory()
        for factory in (factory_a, factory_b):
            lease = cache.lease(factory)
            checkin(lease, checkout(lease))
        assert len(cache) == 1
        cache.close()
        assert len(cache) == 0
        assert factory_a.made[0].stopped == 1
        assert factory_b.made[0].stopped == 1


class RaisingStopExecutor(FakeExecutor):
    def stop(self):
        super().stop()
        raise RuntimeError("the session is already gone")


class TestStopFailures:
    """A parked executor whose ``stop()`` raises must neither leak the
    executor parked after it nor fail the batch: ``close`` swallows the
    error as displacement does."""

    def test_close_stops_every_parked_executor(self):
        cache = ExecutorCache()
        made = []
        for cls in (RaisingStopExecutor, RaisingStopExecutor):
            factory = make_factory(cls=cls)
            lease = cache.lease(factory)
            checkin(lease, checkout(lease))
            made.append(factory.made[0])
        assert len(cache) == 1
        cache.close()  # the second one's stop raises too
        assert [executor.stopped for executor in made] == [1, 1]
        assert len(cache) == 0


class TestOneSlot:
    """A worker parks one executor: the last test's."""

    def test_parking_b_stops_the_parked_a(self):
        cache = ExecutorCache()
        factory_a, factory_b = make_factory(), make_factory()
        lease_a = cache.lease(factory_a)
        executor_a = checkout(lease_a)
        executor_b = checkout(cache.lease(factory_b))
        checkin(lease_a, executor_a)
        checkin(cache.lease(factory_b), executor_b)
        assert executor_a.stopped == 1
        assert executor_b.stopped == 0
        assert len(cache) == 1
        assert checkout(cache.lease(factory_b)) is executor_b

    def test_parking_b_survives_an_a_whose_stop_raises(self):
        cache = ExecutorCache()
        factory_a = make_factory(cls=RaisingStopExecutor)
        factory_b = make_factory()
        lease_a, lease_b = cache.lease(factory_a), cache.lease(factory_b)
        executor_a, executor_b = checkout(lease_a), checkout(lease_b)
        checkin(lease_a, executor_a)
        checkin(lease_b, executor_b)  # must not raise
        assert executor_a.stopped == 1
        assert len(cache) == 1
        assert checkout(cache.lease(factory_b)) is executor_b

    def test_checkout_for_b_stops_the_parked_a_before_constructing(self):
        cache = ExecutorCache()
        events = []

        class Logged(FakeExecutor):
            def __init__(self, name):
                super().__init__()
                self.name = name
                events.append(("construct", name))

            def stop(self):
                super().stop()
                events.append(("stop", self.name))

        def factory_a():
            return Logged("a")

        def factory_b():
            return Logged("b")

        lease = cache.lease(factory_a)
        checkin(lease, checkout(lease))
        lease_b = cache.lease(factory_b)
        checkout(lease_b)
        assert events == [("construct", "a"), ("stop", "a"), ("construct", "b")]
        assert not lease_b.warm
        assert len(cache) == 0
        assert (cache.warm_hits.value, cache.cold_starts.value) == (0, 2)

    def test_close_stops_the_parked_executor(self):
        cache = ExecutorCache()
        factory = make_factory()
        lease = cache.lease(factory)
        checkin(lease, checkout(lease))
        cache.close()
        assert factory.made[0].stopped == 1
        assert len(cache) == 0
        cache.close()  # nothing parked: a no-op
        assert factory.made[0].stopped == 1


class TestCountersAcrossLeases:
    def test_counts_accumulate_over_a_campaign_shape(self):
        """N tests of one target: 1 cold start, N-1 warm hits."""
        cache = ExecutorCache()
        factory = make_factory()
        for _ in range(5):
            lease = cache.lease(factory)
            checkin(lease, checkout(lease))
        assert cache.cold_starts.value == 1
        assert cache.warm_hits.value == 4
        assert len(factory.made) == 1

    def test_lease_is_exported_type(self):
        cache = ExecutorCache()
        assert isinstance(cache.lease(make_factory()), ExecutorLease)


class TestSchedulerReleasesFinishedTargets:
    def test_serial_batch_holds_at_most_one_live_executor_per_target_in_play(self):
        """A target's warm executor is stopped as soon as the worker
        moves to another target, not kept until the end of the batch."""
        from repro.api import CheckSession, CheckTarget, SessionConfig
        from repro.apps.eggtimer import egg_timer_app
        from repro.checker import RunnerConfig
        from repro.executors import DomExecutor
        from repro.specs import load_eggtimer_spec

        stopped = []

        class TrackedExecutor(DomExecutor):
            def __init__(self, app_factory, name):
                super().__init__(app_factory)
                self.name = name

            def stop(self):
                stopped.append(self.name)

        def tracked(name):
            return lambda: TrackedExecutor(egg_timer_app(), name)

        spec = load_eggtimer_spec().check_named("safety")
        config = RunnerConfig(tests=2, scheduled_actions=8,
                              demand_allowance=5, seed=3, shrink=False)
        targets = [
            CheckTarget("first", tracked("first"), spec=spec, config=config),
            CheckTarget("second", tracked("second"), spec=spec, config=config),
        ]

        stops_so_far = []
        from repro.api import Reporter

        class WatchingReporter(Reporter):
            """Snapshot the stop log as each campaign ends."""


            def on_campaign_end(self, result):
                stops_so_far.append(list(stopped))

        CheckSession(reporters=[WatchingReporter()]).check_many(
            targets, session=SessionConfig(jobs=1)
        )
        # The first target's executor was stopped by the time the
        # second campaign ended (its first checkout displaced it), and
        # both are stopped when the batch completes.
        assert stops_so_far[-1] == ["first"]
        assert stopped == ["first", "second"]


class TestResetFailureFallback:
    def test_a_raising_reset_falls_back_to_cold_start(self):
        """reset() blowing up (dead warm session) must not fail the
        test: retire the executor, start cold."""

        class DyingExecutor:
            def __init__(self):
                self.started = 0
                self.stopped = 0

            def start(self, start):
                self.started += 1

            def reset(self, reset):
                raise RuntimeError("session is gone")

            def stop(self):
                self.stopped += 1
                raise RuntimeError("even stop fails")

        cache = ExecutorCache()
        factory = make_factory(cls=DyingExecutor)
        lease = cache.lease(factory)
        checkin(lease, checkout(lease))
        replacement = checkout(cache.lease(factory))
        assert replacement is not factory.made[0]
        assert replacement.started == 1
        assert factory.made[0].stopped == 1  # retirement was attempted
        assert cache.warm_hits.value == 0
        assert cache.cold_starts.value == 2


class TestDepth:
    def test_default_depth_evicts_on_overlapping_checkins(self):
        """One parked executor per key: two overlapping leases of one
        key park two executors, and the second checkin stops the
        first."""
        cache = ExecutorCache()
        factory = make_factory()
        lease_a, lease_b = cache.lease(factory), cache.lease(factory)
        executor_a = checkout(lease_a)
        executor_b = checkout(lease_b)  # cache empty: both cold
        checkin(lease_a, executor_a)
        checkin(lease_b, executor_b)
        assert len(cache) == 1
        assert executor_a.stopped == 1  # displaced by the newer checkin
        assert checkout(cache.lease(factory)) is executor_b
