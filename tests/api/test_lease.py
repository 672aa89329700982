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
        cache = ExecutorCache()
        factory_a, factory_b = make_factory(), make_factory()
        for factory in (factory_a, factory_b):
            lease = cache.lease(factory)
            checkin(lease, checkout(lease))
        assert len(cache) == 2
        cache.close()
        assert len(cache) == 0
        assert factory_a.made[0].stopped == 1
        assert factory_b.made[0].stopped == 1



class TestStopFailures:
    """A parked executor whose ``stop()`` raises must neither leak the
    executors parked after it nor fail the batch: ``close`` and
    ``release`` swallow the error as eviction does."""

    def park_two(self, cache):
        """Park one executor under each of two keys; the first refuses
        to stop."""

        class RaisingStopExecutor(FakeExecutor):
            def stop(self):
                super().stop()
                raise RuntimeError("the session is already gone")

        factories = [make_factory(cls=RaisingStopExecutor), make_factory()]
        for factory in factories:
            lease = cache.lease(factory)
            checkin(lease, checkout(lease))
        assert len(cache) == 2
        return factories, [factory.made[0] for factory in factories]

    def test_close_stops_every_parked_executor(self):
        cache = ExecutorCache()
        _, made = self.park_two(cache)
        cache.close()
        assert [executor.stopped for executor in made] == [1, 1]
        assert len(cache) == 0

    def test_release_stops_every_parked_executor(self):
        cache = ExecutorCache()
        factories, made = self.park_two(cache)
        for factory in factories:
            cache.release(factory)
        assert [executor.stopped for executor in made] == [1, 1]
        assert len(cache) == 0

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

    def test_lease_key_override(self):
        """Explicit keys group factories built per call."""
        cache = ExecutorCache()
        executors = []
        for _ in range(3):
            factory = make_factory()  # a fresh factory object each time
            lease = cache.lease(factory, key="shared-target")
            executors.append(checkout(lease))
            checkin(lease, executors[-1])
        assert executors[1] is executors[0]
        assert executors[2] is executors[0]
        assert cache.warm_hits.value == 2

    def test_lease_is_exported_type(self):
        cache = ExecutorCache()
        assert isinstance(cache.lease(make_factory()), ExecutorLease)


class TestRelease:
    def test_release_stops_and_drops_the_entry(self):
        cache = ExecutorCache()
        factory = make_factory()
        lease = cache.lease(factory)
        checkin(lease, checkout(lease))
        assert len(cache) == 1
        cache.release(factory)
        assert len(cache) == 0
        assert factory.made[0].stopped == 1

    def test_release_of_a_missing_key_is_a_no_op(self):
        cache = ExecutorCache()
        cache.release("never-seen")  # must not raise
        assert len(cache) == 0


class TestSchedulerReleasesFinishedTargets:
    def test_serial_batch_holds_at_most_one_live_executor_per_target_in_play(self):
        """A target's warm executor is stopped when its last campaign
        finishes, not kept until the end of the batch."""
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
        # second campaign ended (released at its last use), and both
        # are stopped when the batch completes.
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


class TestBoundedCache:
    def test_checkin_past_the_bound_evicts_least_recently_used(self):
        cache = ExecutorCache(max_entries=2)
        factories = [make_factory() for _ in range(3)]
        for factory in factories:
            lease = cache.lease(factory)
            checkin(lease, checkout(lease))
        assert len(cache) == 2
        # The first-parked executor was evicted and stopped.
        assert factories[0].made[0].stopped == 1
        assert factories[1].made[0].stopped == 0
        assert factories[2].made[0].stopped == 0

    def test_recently_reused_entries_survive_eviction(self):
        cache = ExecutorCache(max_entries=2)
        factory_a, factory_b, factory_c = (make_factory() for _ in range(3))
        for factory in (factory_a, factory_b):
            lease = cache.lease(factory)
            checkin(lease, checkout(lease))
        # Touch A again: it becomes most recently used.
        lease = cache.lease(factory_a)
        checkin(lease, checkout(lease))
        lease = cache.lease(factory_c)
        checkin(lease, checkout(lease))
        # B (least recently used) was evicted; A survived.
        assert factory_b.made[0].stopped == 1
        assert factory_a.made[0].stopped == 0

    def test_unbounded_by_default(self):
        cache = ExecutorCache()
        factories = [make_factory() for _ in range(10)]
        for factory in factories:
            lease = cache.lease(factory)
            checkin(lease, checkout(lease))
        assert len(cache) == 10


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
