"""The campaign loop: every batch, at every width, on every transport.

The paper's checker runs one loop per property: generate each test from
its own seed, run it, record and shrink the first failure (Section 3.4).
Every test seeds its RNG with ``f"{seed}/{index}"``, so no state flows
between tests and *any* schedule that runs every index and merges the
results in index order is observationally the serial loop.  This
module is that loop, written once:

* :class:`CheckTarget` describes one campaign (a label, the system
  under test, its spec/property/config);
* :class:`CampaignSet` collects the targets as ready-to-run
  ``(label, Runner)`` pairs in submission order -- a single
  :meth:`~repro.api.session.CheckSession.check` is a one-entry set;
* :class:`PooledScheduler` flattens every campaign's test indices into
  one task list and hands it to one
  :class:`~repro.api.transport.PoolTransport`: an
  :class:`~repro.api.transport.InlineTransport` in the caller's thread
  for width-1 local batches (and for every batch where ``fork`` is
  missing), a fork pool started once per batch (workers pull
  ``(campaign, index)`` tasks from a shared queue and are reused across
  campaigns), or remote TCP workers.

Outcomes are merged through :class:`CampaignMerge` campaign by campaign
in submission order, index by index within each, so every transport
produces *identical* verdicts, counterexamples and reporter event
streams (asserted in ``tests/api/test_transport_conformance.py``).  The
merge advances as results arrive, so reporters observe campaigns live,
in order, while later campaigns are still running.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..checker.result import CampaignResult, Counterexample, TestResult
from ..checker.runner import Runner
from .lease import ExecutorCache
from .pool import PoolMetrics, validate_jobs
from .reporters import Reporter
from .transport import (
    SKIPPED,
    PoolTask,
    PoolTransport,
    TaskFailure,
    resolve_transport,
)

__all__ = [
    "CheckTarget",
    "CampaignSet",
    "CampaignOutcome",
    "CampaignSetResult",
    "PooledScheduler",
]


def _test_seed(seed: object, index: int) -> str:
    """The campaign's per-test RNG seed (changing this string would
    change every generated trace)."""
    return f"{seed}/{index}"


@dataclass
class CheckTarget:
    """One campaign of a multi-target batch.

    ``app`` is an application factory (``page -> app``) or zero-argument
    executor factory, exactly like ``CheckSession``'s first argument;
    ``None`` means "use the session's own application".  ``spec``,
    ``property`` and ``config`` default to the batch-wide values passed
    to ``check_many``.
    """

    name: str
    app: Optional[Callable] = None
    spec: object = None
    property: Optional[str] = None
    config: object = None
    #: JSON-able runner descriptor for remote transports: where a
    #: ``repro worker`` on another host finds the spec/property/app
    #: (see :mod:`repro.api.transport.worker`).  ``None`` = this target
    #: can only run on local transports.  The session completes partial
    #: descriptors with the effective property/subscript/config, and --
    #: when the spec path is readable locally -- with the compiled
    #: artifact (``artifact_b64`` + ``source_hash``,
    #: :mod:`repro.artifact`) so workers load instead of
    #: re-elaborating; hand-built descriptors may pre-set any of these
    #: fields to override that.
    remote: Optional[dict] = None


@dataclass
class CampaignOutcome:
    """A finished campaign and the target label it belongs to."""

    target: str
    result: CampaignResult

    @property
    def passed(self) -> bool:
        return self.result.passed


@dataclass
class CampaignSetResult:
    """All campaign outcomes of one batch, in submission order.

    ``metrics`` carries the batch's :class:`~repro.api.pool.PoolMetrics`
    (queue depth, worker utilisation, warm-hit/cold-start counts,
    per-campaign wall-clock).
    """

    outcomes: List[CampaignOutcome] = field(default_factory=list)
    metrics: Optional[PoolMetrics] = None

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __getitem__(self, index: int) -> CampaignOutcome:
        return self.outcomes[index]

    @property
    def results(self) -> List[CampaignResult]:
        return [outcome.result for outcome in self.outcomes]

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    @property
    def failures(self) -> List[CampaignOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.passed]

    def summary(self) -> str:
        failed = len(self.failures)
        return (
            f"{len(self.outcomes)} campaign(s): "
            f"{len(self.outcomes) - failed} passed, {failed} failed"
        )


class CampaignSet:
    """An ordered batch of labelled campaigns, ready to schedule.

    Labels are kept unique (a duplicate gets a ``#2``-style suffix) so
    task ids -- and therefore crash reports -- are unambiguous.
    """

    def __init__(self) -> None:
        self._campaigns: List[Tuple[str, Runner]] = []
        self._labels: set = set()

    def add(self, label: str, runner: Runner) -> str:
        """Add one campaign; returns the (possibly deduplicated) label."""
        candidate = label
        suffix = 2
        while candidate in self._labels:
            # Keep bumping: an explicit "x#2" target must not collide
            # with the dedup of a repeated "x".
            candidate = f"{label}#{suffix}"
            suffix += 1
        self._labels.add(candidate)
        self._campaigns.append((candidate, runner))
        return candidate

    def __len__(self) -> int:
        return len(self._campaigns)

    def __iter__(self):
        return iter(self._campaigns)

    @property
    def campaigns(self) -> List[Tuple[str, Runner]]:
        return list(self._campaigns)


def campaign_tasks(
    runner: Runner,
    transport: PoolTransport,
    label: str,
    cache: ExecutorCache,
) -> List[PoolTask]:
    """The campaign's tests as pool tasks with ids ``(label, index)``,
    so crash reports always say exactly what died.

    A shared first-failure counter implements the ``stop_on_failure``
    horizon: tasks past the earliest failure seen so far are skipped --
    those indices are unreachable in the serial loop, so skipping them
    never changes the outcome, it only saves work.  ``cache`` (created
    before any worker forks) lets a worker's consecutive tasks on the
    campaign's target reuse its parked executor instead of paying
    construction + ``Start`` per test.

    Each task carries every face a transport may need: the ``thunk``
    local workers run and -- when the runner has a ``remote``
    descriptor -- a JSON-able ``payload`` remote workers rebuild the
    test from, plus the ``record`` hook the coordinator uses to fold a
    remote result into the first-failure counter (the thunk does this
    in-process).
    """
    config = runner.config
    first_fail = transport.make_counter(config.tests)
    # Evaluate the watched events and compile the property before any
    # worker forks: forked workers inherit both copy-on-write.  A runner
    # that came through the artifact pipeline adopted the artifact's
    # pre-seeded bundle, so compiling is a no-op.
    runner.watched_events()
    runner.compiled_spec()
    factory = runner.executor_factory

    def make_task(index: int) -> PoolTask:
        def record(result: object) -> None:
            if getattr(result, "failed", False):
                with first_fail.get_lock():
                    if index < first_fail.value:
                        first_fail.value = index

        def thunk() -> TestResult:
            result = runner.run_single_test(
                random.Random(_test_seed(config.seed, index)),
                lease=cache.lease(factory),
            )
            record(result)
            return result

        def past_first_failure() -> bool:
            return index > first_fail.value

        payload = None
        if runner.remote is not None:
            payload = {"index": index, "reuse": cache.enabled,
                       "runner": runner.remote}
        return PoolTask(
            (label, index), thunk,
            skip=past_first_failure if config.stop_on_failure else None,
            payload=payload, record=record,
        )

    return [make_task(index) for index in range(config.tests)]


class CampaignMerge:
    """The campaign loop's body, as an incremental state machine.

    The scheduler funnels each campaign's outcomes through one of these
    in index order, so failure recording, shrinking, ``stop_on_failure``
    and the reporter sequence (``on_campaign_start``, then
    ``on_test_start`` / ``on_test_end`` per index, ``on_counterexample``
    and ``on_campaign_end``) exist in exactly one place, whichever
    transport produced the outcomes.  That single body is what makes
    "pooled == serial" a structural property rather than a discipline.
    """

    def __init__(
        self, runner: Runner, reporters: Sequence[Reporter], label: str
    ) -> None:
        self.runner = runner
        self.reporters = reporters
        self.label = label
        self.next_index = 0
        self.results: List[TestResult] = []
        self.counterexample: Optional[Counterexample] = None
        self.shrunk: Optional[Counterexample] = None
        self._stopped = False
        self._started = False
        self._finished: Optional[CampaignResult] = None
        #: Wall-clock bracket (first test start -> finish), for
        #: PoolMetrics.campaign_wall_s.  Campaigns overlap under
        #: pooling, so this is latency, not CPU time.
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    @property
    def complete(self) -> bool:
        return self._stopped or self.next_index >= self.runner.config.tests

    @property
    def wall_s(self) -> float:
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    def test_started(self, at: float) -> None:
        """Date one of the campaign's tests: the earliest start opens
        the campaign's wall-clock bracket."""
        if self.started_at is None or at < self.started_at:
            self.started_at = at

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for reporter in self.reporters:
            reporter.on_campaign_start(
                self.runner.spec.name,
                self.runner.config.tests,
                target=self.label,
            )

    def step(self, outcome: object) -> None:
        """Consume the transport's outcome (a :class:`TestResult`,
        ``SKIPPED`` or a ``TaskFailure``) for ``next_index``."""
        if outcome == SKIPPED:
            # Only indices past the first failure are skipped; the merge
            # stops at that failure and never reaches one.
            raise AssertionError(
                f"campaign {self.label!r} test {self.next_index} was "
                "skipped but the merge reached it"
            )
        if isinstance(outcome, TaskFailure):
            raise outcome.error
        self.start()
        name = self.runner.spec.name
        index = self.next_index
        seed = _test_seed(self.runner.config.seed, index)
        for reporter in self.reporters:
            reporter.on_test_start(name, index, seed)
        self.results.append(outcome)
        for reporter in self.reporters:
            reporter.on_test_end(name, index, outcome)
        if outcome.failed:
            self.counterexample, self.shrunk = _record_failure(
                self.runner, outcome, self.reporters
            )
            if self.runner.config.stop_on_failure:
                self._stopped = True
        self.next_index += 1

    def finish(self) -> CampaignResult:
        if self._finished is None:
            self.start()  # zero-test edge: events still bracket properly
            self.finished_at = time.perf_counter()
            self._finished = CampaignResult(
                property_name=self.runner.spec.name,
                results=self.results,
                counterexample=self.counterexample,
                shrunk_counterexample=self.shrunk,
            )
            for reporter in self.reporters:
                reporter.on_campaign_end(self._finished)
        return self._finished


def _record_failure(
    runner: Runner, result: TestResult, reporters: Sequence[Reporter]
) -> Tuple[Counterexample, Optional[Counterexample]]:
    """Build (and optionally shrink) the counterexample for a failing
    test."""
    counterexample = Counterexample(
        actions=list(result.actions),
        trace=list(result.trace),
        verdict=result.verdict,
    )
    shrunk: Optional[Counterexample] = None
    if runner.config.shrink:
        # Looked up at call time, so a patched module attribute (a
        # tracer, a test double) is what runs.
        from ..checker.shrink import shrink_counterexample

        shrunk = shrink_counterexample(runner, counterexample)
    for reporter in reporters:
        reporter.on_counterexample(runner.spec.name, counterexample, shrunk)
    return counterexample, shrunk


class PooledScheduler:
    """Runs a :class:`CampaignSet` on one transport.

    ``jobs`` bounds the pool width across the *whole batch* (default
    1).  At ``jobs=1``, or where the platform has no ``fork``, a local
    batch runs on an :class:`~repro.api.transport.InlineTransport` in
    the caller's thread -- the serial loop, with no pool at all.  A
    remote transport is used at any width (its width is its connected
    workers), and so is an explicit ``InlineTransport``.
    """

    def __init__(
        self, jobs: int = 1, transport: Optional[PoolTransport] = None,
    ) -> None:
        self.jobs = validate_jobs(jobs)
        self.transport = transport

    def run(
        self,
        campaigns: CampaignSet,
        reporters: Sequence[Reporter] = (),
        reuse: bool = True,
    ) -> CampaignSetResult:
        """Run the batch.  ``reuse`` enables warm executor reuse across
        consecutive tasks of the same target (see
        :mod:`repro.api.lease`); verdicts are identical either way."""
        entries = campaigns.campaigns
        for reporter in reporters:
            reporter.on_session_start(len(entries))
        started = time.perf_counter()
        transport = resolve_transport(self.transport, self.jobs)
        metrics = PoolMetrics(jobs=self.jobs, transport=transport.name)
        # Warm/cold counters come from the transport, so forked workers
        # -- each owning a private copy-on-write ExecutorCache --
        # aggregate into one number the parent can report.
        warm_hits = transport.make_counter(0)
        cold_starts = transport.make_counter(0)
        cache = ExecutorCache(enabled=reuse, warm_hits=warm_hits,
                              cold_starts=cold_starts)
        tasks: List[PoolTask] = []
        merges: List[CampaignMerge] = []
        for label, runner in entries:
            # Shared first-failure counters must exist before any fork.
            tasks.extend(campaign_tasks(runner, transport, label, cache))
            merges.append(CampaignMerge(runner, reporters, label))
        metrics.tasks_total = len(tasks)
        merge_for = {merge.label: merge for merge in merges}
        arrived: Dict[Tuple[str, int], object] = {}
        cursor = 0

        def advance() -> None:
            """Consume every outcome the deterministic cursor can reach:
            campaigns in submission order, indices in order within.  A
            campaign is finished (on_campaign_end fires) the moment its
            last reachable outcome is merged, so reporter events nest
            properly even while later campaigns are still running."""
            nonlocal cursor
            while cursor < len(merges):
                merge = merges[cursor]
                while not merge.complete:
                    key = (merge.label, merge.next_index)
                    if key not in arrived:
                        return
                    merge.step(arrived.pop(key))
                merge.finish()
                metrics.campaign_wall_s[merge.label] = merge.wall_s
                cursor += 1

        def on_result(task_id, outcome, elapsed) -> None:
            merge_for[task_id[0]].test_started(time.perf_counter() - elapsed)
            if isinstance(outcome, TestResult):
                metrics.record_engine(outcome)
            arrived[task_id] = outcome
            advance()

        try:
            if tasks:
                # worker_exit closes each forked worker's private cache
                # (stopping its parked executor) as the worker drains its
                # sentinel -- per-worker state the parent cannot reach.
                transport.run(tasks, self.jobs, on_result=on_result,
                              metrics=metrics, worker_exit=cache.close)
        finally:
            # Stop the executor this process parked (the inline
            # transport's).
            cache.close()
        advance()
        if cursor < len(merges):  # pragma: no cover - transports deliver all
            raise AssertionError(
                f"campaign {merges[cursor].label!r} has unmerged tests"
            )
        outcomes = [
            CampaignOutcome(merge.label, merge.finish()) for merge in merges
        ]
        # += not =: a remote transport already folded its workers'
        # per-result warm/cold deltas into the metrics as they arrived
        # (remote caches cannot share this process's counters).
        metrics.warm_hits += warm_hits.value
        metrics.cold_starts += cold_starts.value
        metrics.wall_s = time.perf_counter() - started
        session_view = [(o.target, o.result) for o in outcomes]
        for reporter in reporters:
            reporter.on_session_end(session_view, metrics=metrics)
        return CampaignSetResult(outcomes, metrics=metrics)
