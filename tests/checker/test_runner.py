"""The checker's test loop: budgets, demand extension, forcing, seeds."""

import random

import pytest

from repro.api import CheckSession
from repro.apps.eggtimer import egg_timer_app
from repro.apps.todomvc import implementation_named
from repro.checker import Runner, RunnerConfig
from repro.dom import Element
from repro.executors import DomExecutor
from repro.quickltl import Verdict
from repro.specs import load_eggtimer_spec, load_todomvc_spec
from repro.specstrom import load_module


def counter_app(page):
    doc = page.document
    label = Element("span", {"id": "value"}, text="0")
    button = Element("button", {"id": "inc"}, text="+")
    doc.root.append_child(label)
    doc.root.append_child(button)
    state = {"n": 0}

    def on_click(_event):
        state["n"] += 1
        label.text = str(state["n"])

    doc.add_event_listener(button, "click", on_click)
    return state


COUNTER_SPEC = """
let ~value = parseInt(`#value`.text);
action inc! = click!(`#inc`);
let ~incremented { let old = value; next (inc! in happened && value == old + 1) };
let ~safety = loaded? in happened && value == 0 && always{20} incremented;
let ~reachesFive = eventually{20} (value == 5);
check safety, reachesFive;
"""


@pytest.fixture(scope="module")
def counter_module():
    return load_module(COUNTER_SPEC)


def check(spec, executor_factory, config):
    """One campaign on the serial loop."""
    return CheckSession(executor_factory).check(spec, config=config)


def run_counter(check_name, module, **kwargs):
    spec = module.check_named(check_name)
    defaults = dict(tests=3, scheduled_actions=10, demand_allowance=15,
                    seed=1, shrink=False)
    defaults.update(kwargs)
    return check(spec, lambda: DomExecutor(counter_app),
                 RunnerConfig(**defaults))


class TestBasicCampaigns:
    def test_safety_passes(self, counter_module):
        result = run_counter("safety", counter_module)
        assert result.passed
        assert result.tests_run == 3

    def test_liveness_witnessed_definitively(self, counter_module):
        result = run_counter("reachesFive", counter_module, tests=1,
                             scheduled_actions=30)
        assert result.results[0].verdict is Verdict.DEFINITELY_TRUE
        assert not result.results[0].forced

    def test_demand_extends_run_past_schedule(self, counter_module):
        """The safety property's transition obligations demand a next
        state at every step, so the run extends into the allowance."""
        result = run_counter("safety", counter_module, tests=1,
                             scheduled_actions=5, demand_allowance=7)
        test = result.results[0]
        assert test.actions_taken == 12  # schedule + full allowance
        assert test.forced
        assert test.verdict is Verdict.PROBABLY_TRUE

    def test_liveness_unfulfilled_is_forced_false(self, counter_module):
        """reachesFive with too few actions: eventually{20} keeps
        demanding; once the budget is gone the polarity rule reports
        probably-false."""
        result = run_counter("reachesFive", counter_module, tests=1,
                             scheduled_actions=2, demand_allowance=1)
        test = result.results[0]
        assert test.verdict is Verdict.PROBABLY_FALSE
        assert test.forced
        assert not result.passed


class TestDeterminism:
    def test_same_seed_same_outcome(self, counter_module):
        a = run_counter("safety", counter_module, seed=99)
        b = run_counter("safety", counter_module, seed=99)
        assert [t.actions_taken for t in a.results] == [
            t.actions_taken for t in b.results
        ]
        assert [(n, r) for n, r in a.results[0].actions] == [
            (n, r) for n, r in b.results[0].actions
        ]

    def test_different_tests_use_different_randomness(self, counter_module):
        result = run_counter("reachesFive", counter_module, tests=2,
                             scheduled_actions=8)
        # both tests ran (no stop) and produced traces independently
        assert result.tests_run == 2


class TestFailureHandling:
    def broken_counter(self, page):
        doc = page.document
        label = Element("span", {"id": "value"}, text="0")
        button = Element("button", {"id": "inc"}, text="+")
        doc.root.append_child(label)
        doc.root.append_child(button)
        state = {"n": 0}

        def on_click(_event):
            state["n"] += 2  # off by one
            label.text = str(state["n"])

        doc.add_event_listener(button, "click", on_click)
        return state

    def test_counterexample_recorded_and_shrunk(self, counter_module):
        spec = counter_module.check_named("safety")
        result = check(
            spec,
            lambda: DomExecutor(self.broken_counter),
            RunnerConfig(tests=5, scheduled_actions=10, seed=3, shrink=True),
        )
        assert not result.passed
        assert result.counterexample is not None
        assert result.counterexample.verdict is Verdict.DEFINITELY_FALSE
        assert result.shrunk_counterexample is not None
        assert len(result.shrunk_counterexample.actions) == 1

    def test_stop_on_failure(self, counter_module):
        spec = counter_module.check_named("safety")
        result = check(
            spec,
            lambda: DomExecutor(self.broken_counter),
            RunnerConfig(tests=10, scheduled_actions=10, seed=3,
                         shrink=False, stop_on_failure=True),
        )
        assert result.tests_run == 1

    def test_continue_after_failure(self, counter_module):
        spec = counter_module.check_named("safety")
        result = check(
            spec,
            lambda: DomExecutor(self.broken_counter),
            RunnerConfig(tests=4, scheduled_actions=10, seed=3,
                         shrink=False, stop_on_failure=False),
        )
        assert result.tests_run == 4
        assert all(t.failed for t in result.results)


class TestStalling:
    def dead_app(self, page):
        page.document.root.append_child(Element("span", {"id": "value"}, text="0"))
        return {}

    def test_no_enabled_actions_stalls_gracefully(self):
        module = load_module(
            """
            let ~value = parseInt(`#value`.text);
            action poke! = click!(`#missing`);
            let ~prop = always{5} (value == 0);
            check prop;
            """
        )
        result = check(
            module.checks[0],
            lambda: DomExecutor(self.dead_app),
            RunnerConfig(tests=1, scheduled_actions=5, seed=0, shrink=False),
        )
        test = result.results[0]
        assert test.stall_reason is not None
        assert test.verdict is Verdict.PROBABLY_TRUE  # forced, no violation


class TestEggTimerEndToEnd:
    """The runner drives timeouts and events on the egg timer."""

    def test_wait_actions_collect_tick_events(self):
        module = load_eggtimer_spec()
        spec = module.check_named("safety")
        result = check(
            spec,
            lambda: DomExecutor(egg_timer_app()),
            RunnerConfig(tests=2, scheduled_actions=20, demand_allowance=10,
                         seed=7, shrink=False),
        )
        assert result.passed
        # Every test observed more states than actions: tick events count.
        for test in result.results:
            assert test.states_observed > test.actions_taken


class TestReplayAccounting:
    """Runner.replay must report only the actions it actually
    dispatched: the verdict can turn definitive mid-sequence."""

    def _failing_runner(self):
        spec = load_eggtimer_spec().check_named("safety")
        return Runner(
            spec,
            lambda: DomExecutor(egg_timer_app(decrement=2)),
            RunnerConfig(tests=5, scheduled_actions=20, demand_allowance=10,
                         seed=3, shrink=True),
        )

    def test_replay_counts_only_dispatched_actions(self):
        runner = self._failing_runner()
        campaign = check(runner.spec, runner.executor_factory, runner.config)
        assert not campaign.passed
        shrunk = campaign.shrunk_counterexample
        assert shrunk is not None
        # Pad the failing sequence with actions that can never run: the
        # verdict is already definitive when the replay reaches them.
        padded = list(shrunk.actions) + list(shrunk.actions) * 3
        replayed = runner.replay(padded)
        assert replayed is not None
        assert replayed.failed
        assert replayed.actions_taken == len(shrunk.actions)
        assert replayed.actions_taken < len(padded)
        assert replayed.actions == padded[:replayed.actions_taken]
        # The dispatched count agrees with the observed trace: no
        # phantom actions inflate the reporter's statistics.
        acted = sum(1 for entry in replayed.trace if entry.kind == "acted")
        assert acted == replayed.actions_taken

    def test_full_replay_still_counts_everything(self):
        runner = self._failing_runner()
        campaign = check(runner.spec, runner.executor_factory, runner.config)
        shrunk = campaign.shrunk_counterexample
        prefix = list(shrunk.actions)[:-1]  # stop short of the failure
        replayed = runner.replay(prefix)
        assert replayed is not None
        assert replayed.actions_taken == len(prefix)



class TestReplayReproducesTheLiveRun:
    """A generated test that no stale rejection touched replays from its
    own actions to the very same trace: nothing but the actions (not
    what earlier sessions in the process did) drives the application."""

    @pytest.mark.parametrize("app", ["eggtimer", "vue", "jquery"])
    def test_replay_reproduces_the_trace(self, app):
        if app == "eggtimer":
            spec = load_eggtimer_spec().check_named("safety")
            factory = egg_timer_app()
        else:
            spec = load_todomvc_spec().check_named("safety")
            factory = implementation_named(app).app_factory()
        runner = Runner(spec, lambda: DomExecutor(factory),
                        RunnerConfig(scheduled_actions=20, demand_allowance=10))
        replayed = 0
        for seed in range(8):
            live = runner.run_single_test(random.Random(seed))
            if live.stale_rejections:
                continue
            replay = runner.replay(live.actions)
            assert replay is not None
            assert replay.trace == live.trace, seed
            assert replay.actions == live.actions
            assert replay.verdict is live.verdict
            replayed += 1
        assert replayed >= 4


class TestWatchedEventsCache:
    """Event definitions are state- and RNG-independent: one evaluation
    per campaign, not one per test."""

    def test_evaluated_exactly_once_per_campaign(self, monkeypatch):
        spec = load_eggtimer_spec().check_named("safety")  # has tick?
        calls = []
        original = Runner._evaluate_watched_events

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(Runner, "_evaluate_watched_events", counting)
        result = check(
            spec,
            lambda: DomExecutor(egg_timer_app()),
            RunnerConfig(tests=3, scheduled_actions=8, demand_allowance=5,
                         seed=1, shrink=False),
        )
        assert result.tests_run == 3
        assert len(calls) == 1

    def test_cache_returns_the_same_tuple(self):
        spec = load_eggtimer_spec().check_named("safety")
        runner = Runner(spec, lambda: DomExecutor(egg_timer_app()))
        assert runner.watched_events() is runner.watched_events()


class TestLeaseExceptionSafety:
    def test_mid_test_error_stops_the_executor_instead_of_parking_it(self):
        """An executor that blows up mid-test must not be checked in
        warm (its session state is unknown) and must be stopped."""
        from repro.api import ExecutorCache
        from repro.executors.base import ActionFailed

        stopped = []

        class BlowingExecutor(DomExecutor):
            def act(self, act):
                raise ActionFailed("target vanished")

            def stop(self):
                stopped.append(self)
                super().stop()

        spec = load_eggtimer_spec().check_named("safety")
        runner = Runner(
            spec,
            lambda: BlowingExecutor(egg_timer_app()),
            RunnerConfig(tests=1, scheduled_actions=5, demand_allowance=3,
                         seed=1, shrink=False),
        )
        cache = ExecutorCache()
        import random as random_module

        with pytest.raises(ActionFailed):
            runner.run_single_test(
                random_module.Random("x"),
                lease=cache.lease(runner.executor_factory),
            )
        assert len(stopped) == 1
        assert len(cache) == 0  # nothing parked warm


class TestSessionWork:
    """Executor protocol work per batch, counted on fixed-seed campaigns
    with shrinking on: every ``start``, ``reset``, ``drain``, ``act``,
    ``pass_time``, ``await_events`` and ``stop`` a DOM session receives,
    shrink replays included.  A refactor of the session loop, the lease
    or the worker loops must leave these totals exactly where they are."""

    CALLS = ("start", "reset", "drain", "act", "pass_time", "await_events",
             "stop")
    #: Ten tests and fourteen shrink replays.  With reuse on, each of the
    #: three targets starts cold once and is reset for its later tests;
    #: replays always construct, start and stop their own executor.
    WARM = {"start": 17, "reset": 7, "drain": 544, "act": 260,
            "pass_time": 520, "await_events": 49, "stop": 17}
    COLD = {"start": 24, "reset": 0, "drain": 544, "act": 260,
            "pass_time": 520, "await_events": 49, "stop": 24}

    def count_batch(self, monkeypatch, **session):
        import threading
        from collections import Counter

        from repro.api import CheckTarget, SessionConfig
        from repro.apps.todomvc import implementation_named
        from repro.specs import load_todomvc_spec

        counts = Counter()
        lock = threading.Lock()

        def counting(name):
            original = getattr(DomExecutor, name)

            def wrapper(self, *args):
                with lock:
                    counts[name] += 1
                return original(self, *args)

            return wrapper

        for name in self.CALLS:
            monkeypatch.setattr(DomExecutor, name, counting(name))
        egg = load_eggtimer_spec().check_named("safety")
        egg_config = RunnerConfig(tests=4, scheduled_actions=15,
                                  demand_allowance=10, seed=7, shrink=True,
                                  stop_on_failure=False)
        targets = [
            CheckTarget("egg", egg_timer_app(), spec=egg, config=egg_config),
            CheckTarget("egg-faulty", egg_timer_app(decrement=2), spec=egg,
                        config=egg_config),
            CheckTarget(
                "vue", implementation_named("vue").app_factory(),
                spec=load_todomvc_spec().check_named("safety"),
                config=RunnerConfig(tests=2, scheduled_actions=20, seed=0,
                                    shrink=True),
            ),
        ]
        batch = CheckSession().check_many(
            targets, session=SessionConfig(**session)
        )
        assert [o.passed for o in batch] == [True, False, True]
        assert batch.results[1].shrunk_counterexample is not None
        return {name: counts[name] for name in self.CALLS}

    def test_serial_with_reuse(self, monkeypatch):
        assert self.count_batch(monkeypatch, jobs=1) == self.WARM

    def test_serial_without_reuse(self, monkeypatch):
        assert self.count_batch(
            monkeypatch, jobs=1, reuse_executors=False
        ) == self.COLD


def fresh_row_table(patch):
    """Empty the step keys' row table for one pinned run, so no reset
    of it (whatever ran earlier in the process) falls mid-campaign."""
    import repro.checker.compiled as compiled_module

    patch.setattr(compiled_module, "_ROWS", {}, raising=False)


class TestDeferSharing:
    """Quoted temporal bodies built and shared on fixed-seed campaigns
    of freshly elaborated specs: every ``Defer`` the evaluator builds
    (module load included), how many distinct nodes those are, and the
    summed per-test intern-table hits and misses.  A quote is a value,
    so re-quoting a body over the same captured values must return the
    node already built -- the distinct count stays far below the built
    count, and progression's constructions hit the table.  A step the
    step table serves forces no body and constructs no node, so
    ``built`` and the intern counts drop only by the steps
    :class:`TestProgressionWork` counts as reused (before the step
    table: built 154 and 146, hits 642 and 411, misses 460 and 721);
    ``distinct`` does not move."""

    EGG = {"built": 121, "distinct": 30, "intern_hits": 462, "intern_misses": 457}
    VUE = {"built": 144, "distinct": 83, "intern_hits": 405, "intern_misses": 720}

    def target(self, name):
        from repro.api import CheckTarget
        from repro.apps.todomvc import implementation_named
        from repro.specs import load_todomvc_spec

        if name == "egg":
            return CheckTarget(
                "egg", egg_timer_app(),
                spec=load_eggtimer_spec().check_named("safety"),
                config=RunnerConfig(tests=4, scheduled_actions=15,
                                    demand_allowance=10, seed=7),
            )
        return CheckTarget(
            "vue", implementation_named("vue").app_factory(),
            spec=load_todomvc_spec().check_named("safety"),
            config=RunnerConfig(tests=2, scheduled_actions=20, seed=0),
        )

    def work(self, monkeypatch, name):
        from repro.api import SessionConfig
        import repro.specstrom.eval as spec_eval

        built = []
        quote = spec_eval._defer

        def counting(*args):
            defer = quote(*args)
            built.append(defer)
            return defer

        with monkeypatch.context() as patch:
            fresh_row_table(patch)
            patch.setattr(spec_eval, "_defer", counting)
            batch = CheckSession().check_many(
                [self.target(name)], session=SessionConfig(jobs=1)
            )
        assert batch.passed
        # ``built`` keeps every node alive, so equal quotes built at
        # different states are counted once whatever their lifetimes.
        counts = {"built": len(built), "distinct": len({id(d) for d in built})}
        del built
        # Interning is counted on a second, unobserved run: holding
        # every Defer alive above turns re-created nodes into hits.
        with monkeypatch.context() as patch:
            fresh_row_table(patch)
            batch = CheckSession().check_many(
                [self.target(name)], session=SessionConfig(jobs=1)
            )
        results = batch.results[0].results
        counts["intern_hits"] = sum(r.intern_hits for r in results)
        counts["intern_misses"] = sum(r.intern_misses for r in results)
        return counts

    def test_egg_timer_safety(self, monkeypatch):
        assert self.work(monkeypatch, "egg") == self.EGG

    def test_todomvc_safety(self, monkeypatch):
        assert self.work(monkeypatch, "vue") == self.VUE



class TestProgressionWork:
    """Progression steps on the fixed-seed campaigns of
    :class:`TestDeferSharing`: states observed, calls to ``progress``
    (each computes one step) and steps the property's step table served
    instead.  No test here turns definitive, so every observed state is
    exactly one of the two."""

    EGG = {"states": 147, "progress_calls": 117, "steps_reused": 30}
    VUE = {"states": 142, "progress_calls": 141, "steps_reused": 1}

    def work(self, monkeypatch, name):
        import repro.quickltl.progression as progression
        from repro.api import SessionConfig

        calls = []
        progress = progression.progress

        def counting(*args):
            calls.append(1)
            return progress(*args)

        with monkeypatch.context() as patch:
            fresh_row_table(patch)
            patch.setattr(progression, "progress", counting)
            batch = CheckSession().check_many(
                [TestDeferSharing().target(name)], session=SessionConfig(jobs=1)
            )
        assert batch.passed
        results = batch.results[0].results
        return {
            "states": sum(r.states_observed for r in results),
            "progress_calls": len(calls),
            "steps_reused": sum(getattr(r, "steps_reused", 0) for r in results),
        }

    def test_egg_timer_safety(self, monkeypatch):
        assert self.work(monkeypatch, "egg") == self.EGG

    def test_todomvc_safety(self, monkeypatch):
        assert self.work(monkeypatch, "vue") == self.VUE


class TestEvaluatorWork:
    """The evaluator's work on the fixed-seed campaigns of
    :class:`TestDeferSharing`, counted from outside: states observed,
    ``Defer.force`` calls, ``StateSnapshot.elements`` calls (every state
    read goes through it), calls to the shared builtins' host
    functions, and the runner's guard and action-body evaluations.  How
    expressions are evaluated may get cheaper; what they evaluate must
    not change, except that a step the step table serves evaluates
    nothing: forces, state reads and builtin calls drop only by the
    steps :class:`TestProgressionWork` counts as reused, two forces
    each here (before the step table: forces 294 and 284, state reads
    1235 and 7119, builtin calls 438 and 6938).  ``states`` and
    ``runner_evaluates`` do not move."""

    EGG = {"states": 147, "forces": 234, "state_reads": 1076,
           "builtin_calls": 369, "runner_evaluates": 471}
    VUE = {"states": 142, "forces": 282, "state_reads": 7089,
           "builtin_calls": 6910, "runner_evaluates": 1961}

    def work(self, monkeypatch, name):
        import repro.checker.runner as runner_module
        from repro.api import SessionConfig
        from repro.quickltl import Defer
        from repro.specstrom import StateSnapshot
        from repro.specstrom.builtins import _BUILTINS

        counts = {"forces": 0, "state_reads": 0, "builtin_calls": 0,
                  "runner_evaluates": 0}

        def counting(key, original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            return wrapper

        with monkeypatch.context() as patch:
            fresh_row_table(patch)
            patch.setattr(Defer, "force", counting("forces", Defer.force))
            patch.setattr(StateSnapshot, "elements",
                          counting("state_reads", StateSnapshot.elements))
            for builtin in _BUILTINS:
                patch.setattr(builtin, "fn",
                              counting("builtin_calls", builtin.fn))
            patch.setattr(runner_module, "evaluate",
                          counting("runner_evaluates", runner_module.evaluate))
            batch = CheckSession().check_many(
                [TestDeferSharing().target(name)], session=SessionConfig(jobs=1)
            )
        assert batch.passed
        states = sum(r.states_observed for r in batch.results[0].results)
        return {"states": states, **counts}

    def test_egg_timer_safety(self, monkeypatch):
        assert self.work(monkeypatch, "egg") == self.EGG

    def test_todomvc_safety(self, monkeypatch):
        assert self.work(monkeypatch, "vue") == self.VUE
