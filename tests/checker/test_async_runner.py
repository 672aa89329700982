"""The async/sync seam: one session loop, two faces.

``Runner.run_single_test`` drives the *same* session coroutine as
``run_single_test_async``, with a single ``send``: with no loop
running, every executor reaches it inline, so nothing it awaits ever
suspends.  Identity is therefore by construction, but these tests pin
it observationally anyway: hypothesis-generated fuzz machines (the same
generator the differential fuzzer uses) must produce byte-identical
:class:`TestResult`\\ s through both entry points, with and without
latency injection.
"""

import asyncio
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.scheduler import _test_seed
from repro.api.lease import ExecutorCache
from repro.api.session import _coerce_executor_factory
from repro.apps.eggtimer import egg_timer_app
from repro.checker import Runner, RunnerConfig
from repro.checker.runner import _drive_inline
from repro.executors import DomExecutor, LatencyExecutor
from repro.fuzz import generate_campaign, machine_app
from repro.specs import load_eggtimer_spec


def _fuzz_runner(campaign, fault):
    factory = _coerce_executor_factory(machine_app(campaign.machine, fault))
    return Runner(campaign.check_property(), factory, campaign.config())


def _comparable(result):
    """A TestResult with the intern counters zeroed.

    The hash-cons table is process-global, so whichever drive runs
    second inherits a warmer table; hits/misses are telemetry, never
    semantics (see ``TestResult``'s docstring), and are excluded the
    same way the fuzz oracles exclude them.
    """
    result.intern_hits = result.intern_misses = 0
    return result


class TestAsyncSyncEquivalence:
    """The seam identity, hypothesis-driven over fuzz machines."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 3))
    def test_async_drive_equals_sync_drive(self, seed, index):
        campaign = generate_campaign(seed, 0)
        targets = campaign.targets()
        _, fault = targets[index % len(targets)]
        runner = _fuzz_runner(campaign, fault)
        test_seed = _test_seed(campaign.config().seed, index)

        sync_result = runner.run_single_test(random.Random(test_seed))
        async_result = asyncio.run(
            runner.run_single_test_async(random.Random(test_seed))
        )
        assert _comparable(sync_result) == _comparable(async_result)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_latency_wrapping_changes_nothing_but_wall_clock(self, seed):
        # A LatencyExecutor between the driver and the app must be
        # invisible to the verdict, the trace and the virtual clock.
        campaign = generate_campaign(seed, 0)
        _, fault = campaign.targets()[-1]
        runner = _fuzz_runner(campaign, fault)
        test_seed = _test_seed(campaign.config().seed, 0)

        plain = runner.run_single_test(random.Random(test_seed))
        wrapped = asyncio.run(
            runner.run_single_test_async(
                random.Random(test_seed),
                executor_factory=lambda: LatencyExecutor(
                    runner.executor_factory(), latency_ms=0, seed=seed
                ),
            )
        )
        assert _comparable(plain) == _comparable(wrapped)

    def test_real_latency_still_agrees_on_the_eggtimer(self):
        spec = load_eggtimer_spec().check_named("safety")
        config = RunnerConfig(tests=1, scheduled_actions=8,
                              demand_allowance=6, seed=3, shrink=False)
        runner = Runner(spec, lambda: DomExecutor(egg_timer_app()), config)
        sync_result = runner.run_single_test(random.Random("egg/0"))
        async_result = asyncio.run(
            runner.run_single_test_async(
                random.Random("egg/0"),
                executor_factory=lambda: LatencyExecutor(
                    DomExecutor(egg_timer_app()), latency_ms=2, seed=1
                ),
            )
        )
        assert _comparable(sync_result) == _comparable(async_result)

    def test_leased_async_drive_agrees_and_runs_warm(self):
        campaign = generate_campaign(77, 0)
        runner = _fuzz_runner(campaign, None)
        test_seed = _test_seed(campaign.config().seed, 0)
        baseline = runner.run_single_test(random.Random(test_seed))

        async def leased_pair():
            cache = ExecutorCache(enabled=True, depth=2)
            lease = cache.lease(runner.executor_factory)
            first = await runner.run_single_test_async(
                random.Random(test_seed), lease=lease
            )
            cold_warm = lease.warm
            lease = cache.lease(runner.executor_factory)
            second = await runner.run_single_test_async(
                random.Random(test_seed), lease=lease
            )
            cache.close()
            return first, second, cold_warm, lease.warm

        first, second, first_warm, second_warm = asyncio.run(leased_pair())
        assert _comparable(first) == _comparable(baseline)
        assert _comparable(second) == _comparable(baseline)
        assert first_warm is False  # cold start
        assert second_warm is True  # reused the parked session


class TestSeamGuards:
    """The sync face takes async sessions too, and misuse fails loudly
    rather than deadlocking or diverging."""

    def _runner(self, factory):
        spec = load_eggtimer_spec().check_named("safety")
        return Runner(
            spec, factory,
            RunnerConfig(tests=1, scheduled_actions=4,
                         demand_allowance=4, seed=0, shrink=False),
        )

    def test_sync_entry_drives_async_factories(self):
        plain = self._runner(lambda: DomExecutor(egg_timer_app()))
        wrapped = self._runner(
            lambda: LatencyExecutor(DomExecutor(egg_timer_app()), latency_ms=1)
        )
        expected = plain.run_single_test(random.Random(0))
        assert _comparable(wrapped.run_single_test(random.Random(0))) == (
            _comparable(expected)
        )
        # Shrinking's replays take the same path.
        replayed = wrapped.replay(list(expected.actions))
        assert replayed.trace == plain.replay(list(expected.actions)).trace

    def test_sync_lease_drives_async_factories(self):
        from repro.executors import BlockingExecutor
        from repro.protocol.messages import Start

        cache = ExecutorCache(enabled=True)
        lease = cache.lease(
            lambda: LatencyExecutor(DomExecutor(egg_timer_app()), latency_ms=1)
        )
        # No loop runs here: the async session gets a private one.
        executor = _drive_inline(lease.checkout(Start(frozenset(), ())))
        assert isinstance(executor.inner, BlockingExecutor)
        assert [m.state.happened for m in _drive_inline(executor.drain())]
        _drive_inline(lease.checkin(executor))
        cache.close()

    def test_drive_inline_raises_on_a_yielding_executor(self):
        async def actually_blocks():
            await asyncio.sleep(0)

        with pytest.raises(RuntimeError, match="suspended"):
            _drive_inline(actually_blocks())
