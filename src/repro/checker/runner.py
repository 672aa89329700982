"""The checker's session loop (paper, Sections 2.3 and 3.4).

One loop drives every session.  After the initial ``loaded?`` event it
asks an *action source* for the next action, fires it with a trace
version (stale requests are dropped by the executor and the freshly
arrived events are processed instead, Figure 10), and feeds every
arriving state to the formula's progression checker, until the verdict
is definitive or the source runs dry.  There are two sources:

* a generated test (:meth:`Runner.run_single_test`) picks a random
  *enabled* action -- guard satisfied and primitive feasible in the
  current state -- for ``scheduled_actions`` actions, extending the run
  while the formula demands more states, up to ``demand_allowance``
  extra actions, after which the verdict is *forced* by the polarity
  rule; with nothing enabled it waits for application events;
* a replay (:meth:`Runner.replay`, used by shrinking and the fuzz
  corpus) fires a recorded action sequence in order.  Each ``Act``
  carries the version read after the decision latency, so it is never
  stale.  The replay returns ``None`` when the spec lacks an action's
  name, no state has been observed, an action's guard is not ``True``
  where it would fire, or the executor raises ``ActionFailed``.  It has
  no budget, state cap or idle wait, and it always runs on an executor
  it constructs and stops, never on a leased one.

A failing test (negative verdict) yields a counterexample, which is then
shrunk by replay (:mod:`repro.checker.shrink`).
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, List, Optional, Tuple

from ..executors.base import ActionFailed
from ..protocol.messages import Acted, Act, Narrow, Start, Timeout
from ..protocol.session import TraceEntry
from ..quickltl import FormulaChecker, Verdict, intern_delta
from ..specstrom.actions import PrimitiveAction, PrimitiveEvent, ResolvedAction
from ..specstrom.errors import SpecEvalError
from ..specstrom.eval import EvalContext, evaluate
from ..specstrom.module import CheckSpec
from ..specstrom.state import StateSnapshot
from ..specstrom.values import ActionValue
from .compiled import CompiledProperty
from .config import RunnerConfig
from .result import TestResult

__all__ = ["Runner", "TraceAccumulator", "QueryNarrower"]


class TraceAccumulator:
    """Drains executor messages into a trace while feeding the checker.

    Every drained message becomes a :class:`TraceEntry` of the
    session's one trace, advances the state count, and -- until the
    verdict is definitive -- is observed by the formula checker (with
    its step-table key, when a ``key`` function is given).
    """

    __slots__ = (
        "checker", "key", "trace", "states", "verdict", "current_state",
        "query_width_sum",
    )

    def __init__(
        self,
        checker: FormulaChecker,
        key: Optional[Callable[[StateSnapshot], Optional[tuple]]],
    ) -> None:
        self.checker = checker
        self.key = key
        self.trace: List[TraceEntry] = []
        self.states = 0
        self.verdict = Verdict.DEMAND
        self.current_state: Optional[StateSnapshot] = None
        #: Total captured query entries across states -- the honest
        #: measure of what narrowing saved (full runs sum the whole
        #: dependency set every state).
        self.query_width_sum = 0

    def absorb(self, executor) -> None:
        for message in executor.drain():
            state = message.state
            kind = (
                "acted"
                if isinstance(message, Acted)
                else "timeout" if isinstance(message, Timeout) else "event"
            )
            self.trace.append(TraceEntry(kind, state.happened, state))
            self.states += 1
            self.query_width_sum += len(state.queries)
            self.current_state = state
            if not self.verdict.is_definitive:
                key = None if self.key is None else self.key(state)
                self.verdict = self.checker.observe(state, key)


class QueryNarrower:
    """Per-test driver of the ``Narrow`` protocol message.

    After every observed state it recomputes the capture set the
    residual formula (plus the spec's actions) still needs and tells
    the executor when it changed; a backend that declines once is never
    asked again (full snapshots simply continue).  The set may widen
    again later -- e.g. when the liveness analysis loses track -- but
    never beyond the session's ``Start`` set.
    """

    __slots__ = ("compiled", "executor", "checker", "full", "active", "enabled")

    def __init__(self, compiled: CompiledProperty, executor, checker) -> None:
        self.compiled = compiled
        self.executor = executor
        self.checker = checker
        self.full = frozenset(compiled.spec.dependencies)
        self.active = self.full
        self.enabled = (
            compiled.supports_narrowing
            and getattr(executor, "narrow", None) is not None
        )

    def update(self) -> None:
        """Re-narrow (or re-widen) for the checker's current residual."""
        if not self.enabled:
            return
        target = self.compiled.narrowed_dependencies(self.checker.residual)
        if target is None:
            target = self.full
        if target == self.active:
            return
        if self.executor.narrow(Narrow(target)):
            self.active = target
            return
        # Backend declined: stop asking -- but never leave it stuck on
        # an *earlier accepted* narrow when the formula now needs more.
        self.enabled = False
        if self.active != self.full and self.executor.narrow(
            Narrow(self.full)
        ):
            self.active = self.full


class Runner:
    """Checks one :class:`CheckSpec` against executors from a factory.

    ``remote`` is an optional JSON-able descriptor of this runner --
    which ``.strom`` file, property, application registry string and
    config -- for transports whose workers cannot receive the factory
    closure itself (see :mod:`repro.api.transport.worker`).  Runners
    without one can only run on local (inline/fork) transports.

    ``compiled`` is an optional pre-built :class:`CompiledProperty` for
    the same spec -- the ahead-of-time pipeline (:mod:`repro.artifact`)
    passes the artifact's property bundle here so the runner starts
    with the pre-seeded progression caches instead of compiling its
    own.
    """

    def __init__(
        self,
        spec: CheckSpec,
        executor_factory: Callable[[], object],
        config: Optional[RunnerConfig] = None,
        remote: Optional[dict] = None,
        compiled: Optional[CompiledProperty] = None,
    ) -> None:
        self.spec = spec
        self.executor_factory = executor_factory
        self.config = config or RunnerConfig()
        self.remote = remote
        self._watched_events: Optional[Tuple[Tuple[str, PrimitiveEvent], ...]] = None
        self._compiled: Optional[CompiledProperty] = compiled

    # ------------------------------------------------------------------
    # Single test
    # ------------------------------------------------------------------

    def watched_events(self) -> Tuple[Tuple[str, PrimitiveEvent], ...]:
        """The spec's watched events as (name, primitive) pairs.

        Event definitions are state- and RNG-independent, so they are
        evaluated once per runner and cached -- a campaign of N tests
        evaluates them once, not N times (the pooled schedulers warm
        this cache before forking, so workers inherit it for free).
        """
        if self._watched_events is None:
            self._watched_events = self._evaluate_watched_events()
        return self._watched_events

    def _evaluate_watched_events(self) -> Tuple[Tuple[str, PrimitiveEvent], ...]:
        watched = []
        ctx = EvalContext(state=None, rng=None,
                          default_subscript=self.spec.default_subscript)
        for event in self.spec.events:
            primitive = evaluate(event.body, event.env, ctx)
            if not isinstance(primitive, PrimitiveEvent):
                raise SpecEvalError(
                    f"event {event.name} must be built from an event "
                    f"primitive such as changed?"
                )
            watched.append((event.name, primitive))
        return tuple(watched)

    def compiled_spec(self) -> CompiledProperty:
        """The spec's compiled form (shared progression caches, action
        footprint), built once per runner unless an artifact-provided
        bundle was adopted at construction.  The pooled schedulers call
        this before forking so every worker inherits the warm artifact
        copy-on-write."""
        if self._compiled is None:
            self._compiled = CompiledProperty(self.spec)
        return self._compiled

    def _step_key(self) -> Optional[Callable[[StateSnapshot], Optional[tuple]]]:
        compiled = self.compiled_spec()
        return compiled.key if compiled.keyed else None

    def _start_message(self) -> Start:
        return Start(self.spec.dependencies, self.watched_events())

    def _narrower(self, executor, checker) -> Optional[QueryNarrower]:
        if not self.config.narrow_queries:
            return None
        return QueryNarrower(self.compiled_spec(), executor, checker)

    def run_single_test(self, rng: random.Random, lease=None) -> TestResult:
        """Run one generated test.

        ``lease`` (an :class:`~repro.api.lease.ExecutorLease`) checks a
        possibly-warm executor out of its cache and parks it again after
        the test; without one, a fresh executor is constructed and
        stopped.  Verdicts are identical either way.
        """
        start = self._start_message()
        if lease is not None:
            executor = lease.checkout(start)
        else:
            executor = self.executor_factory()
            executor.start(start)
        try:
            result = self._drive(executor, partial(self._random_actions, rng))
        except BaseException:
            # The session is in an unknown state (e.g. ActionFailed from
            # a vanished target): never park it warm, never leak it.
            executor.stop()
            raise
        if lease is not None:
            lease.checkin(executor)
        else:
            executor.stop()
        return result

    def replay(self, actions: List[Tuple[str, ResolvedAction]]) -> Optional[TestResult]:
        """Re-run a concrete action sequence; returns the result, or None
        when the sequence is not replayable (an action lost its target,
        or is unknown or guarded off where it would fire).

        Always on a freshly constructed executor, stopped afterwards.
        """
        executor = self.executor_factory()
        executor.start(self._start_message())
        try:
            return self._drive(executor, partial(self._recorded_actions, actions))
        except ActionFailed:
            return None
        finally:
            executor.stop()

    def _drive(self, executor, source) -> TestResult:
        """THE session loop (paper, Sections 2.3 and 3.4).

        ``source(executor, acc, fired)`` is a generator of the actions
        to fire, as ``(action, resolved, version)``; a ``None`` version
        means the executor's own once the decision latency has passed.
        It yields ``None`` after waiting for events instead, and returns
        the stall reason, if any.  A rejected (stale) act fires nothing,
        and the source is asked again.

        Interning is counted as the process-wide delta around the test:
        a worker runs one test at a time, so it is this test's work.
        """
        checker = self.compiled_spec().checker()
        config = self.config
        narrower = self._narrower(executor, checker)
        with intern_delta() as interning:
            acc = TraceAccumulator(checker, self._step_key())
            fired: List[Tuple[str, ResolvedAction]] = []
            stall_reason: Optional[str] = None
            start_ms = executor.now_ms

            acc.absorb(executor)
            actions = source(executor, acc, fired)
            while not acc.verdict.is_definitive:
                if narrower is not None:
                    # Every state the executor snapshots from here on only
                    # needs what the progressed formula (and the actions)
                    # can still read.
                    narrower.update()
                try:
                    picked = next(actions)
                except StopIteration as stop:
                    stall_reason = stop.value
                    break
                if picked is None:
                    continue
                action_value, resolved, version = picked
                # The checker "thinks" for a while; asynchronous events during
                # that window make the upcoming Act stale (Figure 10).
                executor.pass_time(config.decision_latency_ms)
                if version is None:
                    version = executor.version
                accepted = executor.act(
                    Act(resolved, action_value.name, version,
                        action_value.timeout_ms)
                )
                if not accepted:
                    # pick up the events that made us stale
                    acc.absorb(executor)
                    continue
                fired.append((action_value.name, resolved))
                acc.absorb(executor)
                if action_value.timeout_ms is not None:
                    executor.await_events(action_value.timeout_ms)
                executor.pass_time(config.settle_ms)
                acc.absorb(executor)

            verdict = acc.verdict
            forced = False
            if verdict is Verdict.DEMAND:
                verdict = checker.force()
                forced = True
            return TestResult(
                verdict=verdict,
                forced=forced,
                states_observed=acc.states,
                actions_taken=len(fired),
                stale_rejections=getattr(
                    getattr(executor, "recorder", None), "stale_rejections", 0
                ),
                elapsed_virtual_ms=executor.now_ms - start_ms,
                trace=acc.trace,
                actions=fired,
                stall_reason=stall_reason,
                max_formula_size=checker.max_formula_size,
                intern_hits=interning.hits,
                intern_misses=interning.misses,
                query_width_sum=acc.query_width_sum,
                steps_reused=checker.steps_reused,
            )

    # ------------------------------------------------------------------
    # Action sources
    # ------------------------------------------------------------------

    def _random_actions(self, rng: random.Random, executor, acc, fired):
        """A generated test: a random enabled action, decided on the
        states seen so far, while the budget and demand allowance last."""
        config = self.config
        while True:
            if acc.states >= config.max_states:
                return "max states reached"
            budget_spent = len(fired) >= config.scheduled_actions
            if budget_spent and acc.verdict is not Verdict.DEMAND:
                return None
            if len(fired) >= config.scheduled_actions + config.demand_allowance:
                return None
            if acc.current_state is None:
                return "no initial state"
            enabled = self._enabled_actions(acc.current_state, rng)
            if not enabled:
                # Nothing to do: wait for application events instead.
                before = acc.states
                executor.await_events(config.idle_wait_ms)
                acc.absorb(executor)
                if acc.states == before or acc.trace[-1].kind == "timeout":
                    return "no enabled actions and no events"
                yield None
                continue
            action_value, primitive = enabled[rng.randrange(len(enabled))]
            yield (action_value, primitive.resolve(acc.current_state, rng),
                   acc.states)

    def _recorded_actions(self, actions, executor, acc, fired):
        """A replay: the recorded actions in order, never stale.  A
        candidate is only valid if every action is *legal* where it
        fires: the real runner never fires a guarded-off action, so a
        shrink that would do so is rejected outright."""
        by_name = {a.name: a for a in self.spec.actions}
        for name, resolved in actions:
            action_value = by_name.get(name)
            if (
                action_value is None
                or acc.current_state is None
                or not self._action_legal(action_value, acc.current_state)
            ):
                raise ActionFailed(f"{name} cannot fire here")
            yield action_value, resolved, None

    # ------------------------------------------------------------------
    # Action selection
    # ------------------------------------------------------------------

    def _enabled_actions(
        self, state: StateSnapshot, rng: random.Random
    ) -> List[Tuple[ActionValue, PrimitiveAction]]:
        """All actions whose guard holds and whose primitive can fire."""
        enabled = []
        ctx = EvalContext(
            state=state, rng=rng, default_subscript=self.spec.default_subscript
        )
        for action in self.spec.actions:
            if action.guard is not None:
                guard_value = evaluate(action.guard, action.env, ctx)
                if not isinstance(guard_value, bool):
                    raise SpecEvalError(
                        f"guard of {action.name} must be a boolean"
                    )
                if not guard_value:
                    continue
            primitive = evaluate(action.body, action.env, ctx)
            if not isinstance(primitive, PrimitiveAction):
                raise SpecEvalError(
                    f"action {action.name} must be built from an action "
                    f"primitive such as click!"
                )
            if primitive.is_enabled(state):
                enabled.append((action, primitive))
        return enabled

    def _action_legal(self, action: ActionValue, state: StateSnapshot) -> bool:
        """Does the action's guard hold in ``state``?"""
        if action.guard is None:
            return True
        ctx = EvalContext(
            state=state, rng=None, default_subscript=self.spec.default_subscript
        )
        guard_value = evaluate(action.guard, action.env, ctx)
        return guard_value is True
