"""Adaptive pool width: the ``jobs="auto"`` heuristic and its wiring.

``suggest_jobs`` turns a finished batch's recorded queue-depth and
utilisation metrics into the next batch's width.  The exact decision
table is pinned here -- changing the heuristic must be a deliberate,
test-visible act, because audits tune their throughput around it.
"""

from repro.api import (
    AUTO_JOBS,
    CheckSession,
    PoolMetrics,
    SessionConfig,
    suggest_jobs,
)
from repro.checker import RunnerConfig
from repro.executors import CCSExecutor, parse_definitions
from repro.specstrom import load_module

SPEC = """
action coin! = ccs!("coin") when present(`coin`);
action tea!  = ccs!("tea")  when present(`tea`);
check always{4} (present(`coin`) || present(`tea`));
"""


def busy_metrics(jobs, queue_depth, utilisation):
    """A PoolMetrics snapshot with the given shape: ``jobs`` workers,
    ``queue_depth`` max backlog, every worker at ``utilisation``."""
    metrics = PoolMetrics(jobs=jobs, transport="fork")
    metrics.wall_s = 10.0
    for worker in range(jobs):
        metrics.worker_tasks[worker] = 5
        metrics.worker_busy_s[worker] = 10.0 * utilisation
    metrics.sample_queue_depth(queue_depth)
    return metrics


class TestSuggestJobsHeuristic:
    """The pinned decision table (see ``suggest_jobs``' docstring)."""

    def test_no_history_defaults_to_cpu_count(self):
        assert suggest_jobs(None, cpu=8) == 8

    def test_empty_metrics_default_to_cpu_count(self):
        assert suggest_jobs(PoolMetrics(jobs=4), cpu=8) == 8

    def test_deep_queue_and_busy_workers_double_the_width(self):
        metrics = busy_metrics(jobs=2, queue_depth=10, utilisation=0.9)
        assert suggest_jobs(metrics, cpu=16) == 4

    def test_scale_up_is_capped_at_the_cpu_count(self):
        metrics = busy_metrics(jobs=6, queue_depth=30, utilisation=0.9)
        assert suggest_jobs(metrics, cpu=8) == 8

    def test_deep_queue_alone_does_not_scale_up(self):
        # Backlog with idle workers means the merge (not width) is the
        # bottleneck; adding workers would not help.
        metrics = busy_metrics(jobs=2, queue_depth=10, utilisation=0.3)
        assert suggest_jobs(metrics, cpu=16) == 1  # idle: halved instead

    def test_busy_workers_with_a_shallow_queue_keep_the_width(self):
        metrics = busy_metrics(jobs=4, queue_depth=4, utilisation=0.9)
        assert suggest_jobs(metrics, cpu=16) == 4

    def test_idle_workers_halve_the_width(self):
        metrics = busy_metrics(jobs=8, queue_depth=2, utilisation=0.2)
        assert suggest_jobs(metrics, cpu=16) == 4

    def test_scale_down_floors_at_one(self):
        metrics = busy_metrics(jobs=1, queue_depth=0, utilisation=0.0)
        assert suggest_jobs(metrics, cpu=16) == 1

    def test_kept_width_is_clamped_to_the_cpu_count(self):
        metrics = busy_metrics(jobs=12, queue_depth=4, utilisation=0.6)
        assert suggest_jobs(metrics, cpu=4) == 4

    def test_utilisation_boundaries(self):
        # >= 0.75 counts as busy, < 0.40 as idle; between keeps.
        deep = 10
        assert suggest_jobs(busy_metrics(2, deep, 0.75), cpu=16) == 4
        assert suggest_jobs(busy_metrics(2, deep, 0.74), cpu=16) == 2
        assert suggest_jobs(busy_metrics(2, 2, 0.40), cpu=16) == 2
        assert suggest_jobs(busy_metrics(2, 2, 0.39), cpu=16) == 1


class TestSuggestJobsCapacity:
    """``capacity=`` replaces the CPU count as the clamp: a distributed
    fabric's width lives on its worker hosts, not on the coordinator."""

    def test_capacity_overrides_the_local_cpu_clamp(self):
        # A 1-CPU coordinator fronting a 16-slot TCP fabric must be
        # allowed to scale past its own core count.
        metrics = busy_metrics(jobs=4, queue_depth=20, utilisation=0.9)
        assert suggest_jobs(metrics, cpu=1, capacity=16) == 8

    def test_no_history_defaults_to_the_capacity(self):
        assert suggest_jobs(None, cpu=1, capacity=12) == 12

    def test_scale_up_is_capped_at_the_capacity(self):
        metrics = busy_metrics(jobs=6, queue_depth=30, utilisation=0.9)
        assert suggest_jobs(metrics, cpu=64, capacity=8) == 8

    def test_kept_width_is_clamped_to_the_capacity(self):
        metrics = busy_metrics(jobs=12, queue_depth=4, utilisation=0.6)
        assert suggest_jobs(metrics, cpu=64, capacity=4) == 4

    def test_capacity_none_falls_back_to_cpu(self):
        metrics = busy_metrics(jobs=6, queue_depth=30, utilisation=0.9)
        assert suggest_jobs(metrics, cpu=8, capacity=None) == 8

    def test_auto_session_clamps_to_transport_capacity(self):
        """AUTO_JOBS over a PoolTransport asks the *transport* for its
        capacity (pinned: a fat fake transport widens a 1-CPU box)."""
        from repro.api.session import _transport_capacity
        from repro.api.transport import InlineTransport

        class FatTransport(InlineTransport):
            def capacity(self):
                return 32

        assert _transport_capacity(FatTransport()) == 32
        assert _transport_capacity(None) is None
        assert suggest_jobs(None, cpu=1,
                            capacity=FatTransport().capacity()) == 32


class TestSessionAutoWiring:
    def _factory(self):
        defs, initial = parse_definitions(
            """
            Idle = coin.Choose
            Choose = tea.Idle
            Idle
            """
        )
        return lambda: CCSExecutor(initial, defs, tau_period_ms=0)

    def _config(self):
        return RunnerConfig(tests=2, scheduled_actions=4,
                            demand_allowance=4, seed=0, shrink=False)

    def test_auto_session_records_metrics_between_batches(self):
        spec = load_module(SPEC).checks[0]
        session = CheckSession(self._factory(), jobs=AUTO_JOBS)
        assert session.last_metrics is None
        first = session.check_many(
            [("a", self._factory()), ("b", self._factory())],
            spec=spec, config=self._config(),
        )
        assert first.passed
        assert session.last_metrics is first.metrics
        second = session.check_many(
            [("a", self._factory())], spec=spec, config=self._config()
        )
        assert session.last_metrics is second.metrics

    def test_auto_jobs_argument_on_check_many(self):
        spec = load_module(SPEC).checks[0]
        session = CheckSession(self._factory())
        batch = session.check_many(
            [("a", self._factory())], spec=spec, config=self._config(),
            session=SessionConfig(jobs=AUTO_JOBS),
        )
        assert batch.passed
        # The width actually used came from suggest_jobs(None) = CPU.
        assert batch.metrics.jobs == suggest_jobs(None)

    def test_explicit_jobs_still_validate(self):
        try:
            CheckSession(self._factory(), jobs=0)
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("jobs=0 must be rejected")


class TestCliJobsValue:
    def test_accepts_auto_and_integers(self):
        from repro.cli import _jobs_value

        assert _jobs_value("auto") == "auto"
        assert _jobs_value("3") == 3

    def test_rejects_non_positive(self):
        import argparse

        from repro.cli import _jobs_value

        try:
            _jobs_value("0")
        except argparse.ArgumentTypeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("0 must be rejected")


class TestSerialBacklogSignal:
    def test_serial_batches_record_queue_depth(self):
        """A width-1 batch must still record its backlog, or the auto
        heuristic could never scale back up from 1 (the scale-up
        condition reads max_queue_depth)."""
        from repro.api import CheckSession

        defs_factory = TestSessionAutoWiring()._factory()
        spec = load_module(SPEC).checks[0]
        config = RunnerConfig(tests=3, scheduled_actions=4,
                              demand_allowance=4, seed=0, shrink=False)
        batch = CheckSession().check_many(
            [("a", defs_factory), ("b", defs_factory)],
            spec=spec, config=config, session=SessionConfig(jobs=1),
        )
        # 2 campaigns x 3 tests: the first sample sees the whole batch.
        assert batch.metrics.max_queue_depth == 6
        # Busy serial workers with a deep backlog now scale up.
        assert suggest_jobs(batch.metrics, cpu=8) == 2


class TestJobsValidation:
    def test_typoed_auto_is_rejected_up_front(self):
        from repro.api import CheckSession

        for bogus in ("atuo", "Auto", ""):
            try:
                CheckSession(jobs=bogus)
            except ValueError as err:
                assert "auto" in str(err)
            else:  # pragma: no cover
                raise AssertionError(f"jobs={bogus!r} must be rejected")

    def test_typoed_auto_on_check_many_is_rejected(self):
        from repro.api import CheckSession, SessionConfig

        factory = TestSessionAutoWiring()._factory()
        spec = load_module(SPEC).checks[0]
        session = CheckSession(factory)
        try:
            session.check_many(
                [("a", factory)], spec=spec,
                session=SessionConfig(jobs="atuo"),
            )
        except ValueError as err:
            assert "auto" in str(err)
        else:  # pragma: no cover
            raise AssertionError(
                "check_many(session=SessionConfig(jobs='atuo')) "
                "must be rejected"
            )

    def test_non_integer_jobs_rejected(self):
        from repro.api import CheckSession

        factory = TestSessionAutoWiring()._factory()
        for bogus in (2.5, True):
            try:
                CheckSession(factory, jobs=bogus)
            except ValueError as err:
                assert "positive integer" in str(err)
            else:  # pragma: no cover
                raise AssertionError(f"jobs={bogus!r} must be rejected")
