"""The checker's test loop (paper, Sections 2.3 and 3.4).

For each generated test the runner:

1. starts a fresh executor session (``Start`` with the dependency set and
   watched events) and waits for the initial ``loaded?`` event,
2. repeatedly picks a random *enabled* action -- guard satisfied and
   primitive feasible in the current state -- fires it with the current
   trace version (stale requests are dropped by the executor and the
   freshly arrived events are processed instead, Figure 10), and feeds
   every arriving state to the formula's progression checker,
3. stops on a definitive verdict; otherwise runs ``scheduled_actions``
   actions, extending the run while the formula demands more states, up
   to ``demand_allowance`` extra actions, after which the verdict is
   *forced* by the polarity rule.

A failing test (negative verdict) yields a counterexample, which is then
shrunk by replay (:mod:`repro.checker.shrink`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..executors.base import ActionFailed
from ..protocol.messages import Acted, Act, Narrow, Start, Timeout
from ..protocol.session import TraceEntry
from ..quickltl import (
    FormulaChecker,
    Verdict,
    pop_intern_counter,
    push_intern_counter,
)
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


@dataclass
class _FiredAction:
    name: str
    resolved: ResolvedAction
    timeout_ms: Optional[float]


class TraceAccumulator:
    """Drains executor messages into a trace while feeding the checker.

    Shared by the random test loop and the replay loop (they used to
    carry near-identical ``absorb`` closures): every drained message
    becomes a :class:`TraceEntry`, advances the state count, and -- until
    the verdict is definitive -- is observed by the formula checker
    (with its step-table key, when a ``key`` function is given).
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
    without one can only run on local (inline/fork/thread) transports.

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
            result = self._drive_test(executor, rng)
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

    def _drive_test(self, executor, rng: random.Random) -> TestResult:
        """THE session loop (paper, Sections 2.3 and 3.4).

        Interning is counted on a per-thread counter (not the global
        table deltas), so tests running on sibling worker threads each
        report their own work.
        """
        checker = self.compiled_spec().checker()
        config = self.config
        narrower = self._narrower(executor, checker)
        counter, token = push_intern_counter()
        try:
            acc = TraceAccumulator(checker, self._step_key())
            fired: List[_FiredAction] = []
            actions_taken = 0
            stall_reason: Optional[str] = None
            start_ms = executor.now_ms

            acc.absorb(executor)
            while True:
                if acc.verdict.is_definitive:
                    break
                if narrower is not None:
                    # Every state the executor snapshots from here on only
                    # needs what the progressed formula (and the actions)
                    # can still read.
                    narrower.update()
                if acc.states >= config.max_states:
                    stall_reason = "max states reached"
                    break
                budget_spent = actions_taken >= config.scheduled_actions
                if budget_spent and acc.verdict is not Verdict.DEMAND:
                    break
                if actions_taken >= config.scheduled_actions + config.demand_allowance:
                    break
                if acc.current_state is None:
                    stall_reason = "no initial state"
                    break
                enabled = self._enabled_actions(acc.current_state, rng)
                if not enabled:
                    # Nothing to do: wait for application events instead.
                    before = acc.states
                    executor.await_events(config.idle_wait_ms)
                    acc.absorb(executor)
                    if acc.states == before or acc.trace[-1].kind == "timeout":
                        stall_reason = "no enabled actions and no events"
                        break
                    continue
                action_value, primitive = enabled[rng.randrange(len(enabled))]
                resolved = primitive.resolve(acc.current_state, rng)
                decision_version = acc.states
                # The checker "thinks" for a while; asynchronous events during
                # that window make the upcoming Act stale (Figure 10).
                executor.pass_time(config.decision_latency_ms)
                accepted = executor.act(
                    Act(resolved, action_value.name, decision_version,
                        action_value.timeout_ms)
                )
                if not accepted:
                    # pick up the events that made us stale
                    acc.absorb(executor)
                    continue
                actions_taken += 1
                fired.append(
                    _FiredAction(action_value.name, resolved, action_value.timeout_ms)
                )
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
                actions_taken=actions_taken,
                stale_rejections=getattr(
                    getattr(executor, "recorder", None), "stale_rejections", 0
                ),
                elapsed_virtual_ms=executor.now_ms - start_ms,
                trace=acc.trace,
                actions=[(f.name, f.resolved) for f in fired],
                stall_reason=stall_reason,
                max_formula_size=checker.max_formula_size,
                intern_hits=counter[0],
                intern_misses=counter[1],
                query_width_sum=acc.query_width_sum,
                steps_reused=checker.steps_reused,
            )
        finally:
            pop_intern_counter(token)

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

    # ------------------------------------------------------------------
    # Replay (used by shrinking)
    # ------------------------------------------------------------------

    def replay(self, actions: List[Tuple[str, ResolvedAction]]) -> Optional[TestResult]:
        """Re-run a concrete action sequence; returns the result, or None
        when the sequence is not replayable (an action lost its target).

        Like :meth:`_drive_test`, interning is counted on a per-thread
        counter, so a shrink replay on the merging thread does not
        count what worker threads intern meanwhile.
        """
        executor = self.executor_factory()
        executor.start(self._start_message())
        checker = self.compiled_spec().checker()
        config = self.config
        narrower = self._narrower(executor, checker)
        actions_by_name = {a.name: a for a in self.spec.actions}
        timeout_by_name = {a.name: a.timeout_ms for a in self.spec.actions}
        counter, token = push_intern_counter()
        try:
            acc = TraceAccumulator(checker, self._step_key())
            start_ms = executor.now_ms
            dispatched = 0  # the verdict can turn definitive mid-sequence

            acc.absorb(executor)
            for name, resolved in actions:
                if acc.verdict.is_definitive:
                    break
                if narrower is not None:
                    narrower.update()
                # A candidate is only valid if every action is *legal* where
                # it fires: the real runner never fires a guarded-off action,
                # so a shrink that would do so is rejected outright.
                action_value = actions_by_name.get(name)
                if action_value is None or acc.current_state is None:
                    executor.stop()
                    return None
                if not self._action_legal(action_value, acc.current_state):
                    executor.stop()
                    return None
                executor.pass_time(config.decision_latency_ms)
                try:
                    accepted = executor.act(
                        Act(resolved, name, executor.version, timeout_by_name.get(name))
                    )
                except ActionFailed:
                    executor.stop()
                    return None
                if not accepted:  # pragma: no cover - version always current here
                    executor.stop()
                    return None
                dispatched += 1
                acc.absorb(executor)
                timeout_ms = timeout_by_name.get(name)
                if timeout_ms is not None:
                    executor.await_events(timeout_ms)
                executor.pass_time(config.settle_ms)
                acc.absorb(executor)

            verdict = acc.verdict
            forced = False
            if verdict is Verdict.DEMAND:
                verdict = checker.force()
                forced = True
            executor.stop()
            return TestResult(
                verdict=verdict,
                forced=forced,
                states_observed=acc.states,
                actions_taken=dispatched,
                stale_rejections=0,
                elapsed_virtual_ms=executor.now_ms - start_ms,
                trace=acc.trace,
                actions=list(actions),
                max_formula_size=checker.max_formula_size,
                intern_hits=counter[0],
                intern_misses=counter[1],
                query_width_sum=acc.query_width_sum,
                steps_reused=checker.steps_reused,
            )
        finally:
            pop_intern_counter(token)
