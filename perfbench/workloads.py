"""The workloads: inputs from a seed, program set-up, one round.

A round is one closed-loop unit of work through the program's public
API, checked for correctness before any of its numbers count:

* check workloads run one serial ``CheckSession.check_many`` batch
  (``jobs=1``); operations are generated tests;
* the monitor workload pushes one interleaved wire stream from a
  producer thread through an ``IngestQueue`` (block policy) into
  ``Monitor.run_queue``; operations are sessions.

Inputs are made in :meth:`prepare` before any clock runs.  What a user
of the program pays before the first test or record is dispatched (the
import, spec resolution, session or monitor construction, the first
executor start) is timed by :meth:`probe`, in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import CheckSession, CheckTarget
from repro.api.config import SessionConfig
from repro.api.reporters import Reporter
from repro.apps.eggtimer import egg_timer_app
from repro.apps.todomvc import implementation_named
from repro.artifact import SpecResolver
from repro.checker import RunnerConfig
from repro.checker.runner import Runner
from repro.monitor import Monitor
from repro.monitor.ingest import IngestQueue
from repro.monitor.records import trace_records
from repro.monitor.replay import interleave_sessions
from repro.specs import spec_path

HERE = os.path.dirname(os.path.abspath(__file__))

#: Subscript of the paper's Table 1 audit and Figure 13's default.
SUBSCRIPT = 100
RECORD_TIMEOUT_S = 120


@dataclass
class RoundResult:
    """What one round did, measured from outside the program."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: States observed by tests and shrink replays (checker), or state
    #: records progressed (monitor).
    states: int = 0
    #: Wire records pushed through the monitor (0 for check rounds).
    records: int = 0
    #: Wall ms per operation: per generated test, or per session's
    #: verdict lag (deciding record enqueued -> on_verdict; records are
    #: enqueued tick by tick, as the monitor asks for them).
    op_ms: List[float] = field(default_factory=list)
    #: Failing campaign start -> shrunk counterexample, seconds.
    cex_s: List[float] = field(default_factory=list)
    #: Verdicts, comparable between a traced and an untraced round.
    verdicts: tuple = ()
    #: Layer facts the program reports itself (warm hits, widths, ...).
    facts: Dict[str, float] = field(default_factory=dict)
    #: What one ``op_ms`` sample times.
    op_label: str = "test"


class _TestClock:
    """Times each ``Runner.run_single_test`` and each failing campaign,
    and counts the states shrink replays observe.

    Installed for the life of a check workload; a traced round wraps
    these wrappers, so they are the same in both modes.
    """

    def __init__(self) -> None:
        self.test_s: List[float] = []
        self.replay_states = 0
        self.campaign_started: Optional[float] = None
        #: The runner of the campaign under way.
        self.runner: Optional[Runner] = None
        self._original = Runner.run_single_test
        self._replay = Runner.replay
        clock = self
        original = self._original
        replay = self._replay

        def counted_replay(runner, actions):
            result = replay(runner, actions)
            if result is not None:
                clock.replay_states += result.states_observed
            return result

        def run_single_test(runner, rng, lease=None):
            started = time.perf_counter()
            if runner is not clock.runner:
                clock.runner = runner
                clock.campaign_started = started
            result = original(runner, rng, lease)
            clock.test_s.append(time.perf_counter() - started)
            return result

        Runner.run_single_test = run_single_test
        Runner.replay = counted_replay

    def close(self) -> None:
        Runner.run_single_test = self._original
        Runner.replay = self._replay


class _CexClock(Reporter):
    """A reporter stamping each shrunk counterexample."""

    api_version = 2

    def __init__(self, clock: _TestClock) -> None:
        self.clock = clock
        self.cex_s: List[float] = []

    def on_counterexample(self, property_name, counterexample, shrunk) -> None:
        self.cex_s.append(time.perf_counter() - self.clock.campaign_started)


class CheckWorkload:
    """One serial ``check_many`` batch per round."""

    #: Distinct round inputs an untraced run cycles through: few, so
    #: that each repeats often enough for its fastest repeats to have
    #: missed the machine's slow spells.  States per round hardly
    #: depend on the input.
    inputs = 2
    spec_file = ""
    property_name = "safety"
    tests = 1
    scheduled_actions = 100
    demand_allowance = 50

    def __init__(self) -> None:
        self.session: Optional[CheckSession] = None
        self.clock: Optional[_TestClock] = None

    def targets(self) -> List[Tuple[str, object, bool]]:
        """``(name, app factory, should pass)`` per campaign."""
        raise NotImplementedError

    def prepare(self, seed: int) -> None:
        """Check inputs are the per-round runner seeds; nothing to make."""

    def probe_lines(self) -> List[str]:
        return []

    def setup(self) -> None:
        self.session = CheckSession(default_subscript=SUBSCRIPT)
        self.clock = _TestClock()

    def close(self) -> None:
        if self.clock is not None:
            self.clock.close()
            self.clock = None

    def check(self, session: CheckSession, seed: int, reporters=(),
              tests: Optional[int] = None):
        """One batch with shrinking, warm reuse and narrowing at their
        defaults; returns the targets and the batch result."""
        targets = self.targets()
        batch = session.check_many(
            [CheckTarget(name, app) for name, app, _ in targets],
            spec=spec_path(self.spec_file),
            property=self.property_name,
            config=RunnerConfig(
                tests=self.tests if tests is None else tests,
                scheduled_actions=self.scheduled_actions,
                demand_allowance=self.demand_allowance,
                seed=seed,
            ),
            session=SessionConfig(jobs=1, reporters=list(reporters)),
        )
        return targets, batch

    def warmup(self, seed: int) -> None:
        self.round(seed, tests=max(1, self.tests // 10))

    def full_width(self) -> int:
        """Selectors a full (unnarrowed) snapshot captures."""
        return len(self.session.resolver.load(spec_path(self.spec_file))
                   .module.check_named(self.property_name).dependencies)

    def round(self, seed: int, tests: Optional[int] = None) -> RoundResult:
        clock = self.clock
        clock.test_s = []
        clock.replay_states = 0
        clock.runner = None
        cex = _CexClock(clock)
        started = time.perf_counter()
        targets, batch = self.check(self.session, seed, (cex,), tests)
        wall = time.perf_counter() - started
        result = RoundResult(wall_s=wall, op_ms=[s * 1000 for s in clock.test_s],
                             cex_s=cex.cex_s, states=clock.replay_states)
        verdicts = []
        width = 0
        max_size = 0
        for (name, _app, should_pass), outcome in zip(targets, batch.outcomes):
            tests_run = outcome.result.results
            result.attempted += len(tests_run)
            if outcome.passed != should_pass:
                result.failed += len(tests_run)
            for test in tests_run:
                result.states += test.states_observed
                width += test.query_width_sum
                max_size = max(max_size, test.max_formula_size)
            verdicts.append((name, outcome.passed,
                             tuple(t.verdict.name for t in tests_run)))
        result.verdicts = tuple(verdicts)
        metrics = batch.metrics
        result.facts = {
            "tests": result.attempted,
            "shrink_states": clock.replay_states,
            "query_width_sum": width,
            "max_formula_size": max_size,
            "warm_hits": metrics.warm_hits,
            "cold_starts": metrics.cold_starts,
        }
        return result

    def probe(self, lines: List[str]) -> float:
        """Seconds from import to the first started executor (called in
        a fresh interpreter, right after the import it measures)."""
        from repro.executors.domexec import DomExecutor

        class Dispatched(Exception):
            pass

        start = DomExecutor.start
        stamp = []

        def first_start(executor, message):
            start(executor, message)
            stamp.append(time.perf_counter())
            raise Dispatched

        DomExecutor.start = first_start
        try:
            self.check(CheckSession(default_subscript=SUBSCRIPT), 0, tests=1)
        except Dispatched:
            pass
        finally:
            DomExecutor.start = start
        return stamp[0]


class TodoMVCAudit(CheckWorkload):
    """A fixed Table 1 slice, passing and failing implementations."""

    name = "todomvc-audit"
    spec_file = "todomvc.strom"
    tests = 3
    scheduled_actions = 30
    demand_allowance = 20
    #: Passing and failing implementations alternate.  Every failing one
    #: is caught within three tests on every seed tried; problems 9, 11
    #: and 12 (dojo, backbone_marionette, ractive) often are not, and
    #: problem 7 (mithril) was missed on one round seed of seventy.
    slice = ("vue", "polymer", "react", "jquery", "backbone", "elm",
             "emberjs", "dijon")

    def targets(self):
        implementations = [implementation_named(n) for n in self.slice]
        return [(i.name, i.app_factory(), not i.should_fail)
                for i in implementations]


class EggTimerCheck(CheckWorkload):
    """Many short tests of the egg timer's safety property."""

    name = "eggtimer-check"
    spec_file = "eggtimer.strom"
    tests = 25
    scheduled_actions = 10

    def targets(self):
        return [("egg-timer", egg_timer_app(), True)]


class _TickQueue(IngestQueue):
    """An ingest queue handed to the monitor one tick at a time.

    A tick is one record of every live session, as the round-robin
    interleave emits them.  Each ``get_batch`` first asks the producer
    for the next tick and waits until all of it is queued, so batch
    boundaries never depend on thread timing, and each record is
    enqueued only when the monitor is ready for it: a verdict's lag is
    then the monitor's latency, not the time the record sat behind the
    rest of the stream.
    """

    def __init__(self) -> None:
        super().__init__(maxsize=10_000, policy="block")
        self.asked = threading.Event()
        self.ready = threading.Event()

    def get_batch(self, max_items, timeout_s=None):
        self.asked.set()
        self.ready.wait()
        self.ready.clear()
        return super().get_batch(max_items, timeout_s)

    def close(self) -> None:
        super().close()
        self.ready.set()
        self.asked.set()


class MonitorReplay:
    """Recorded TodoMVC traces, a heterogeneous stream, through
    ``Monitor.run_queue`` once per round, fed tick by tick by one
    producer thread."""

    name = "monitor-replay"
    spec_file = "todomvc.strom"
    property_name = "safety"
    #: Every round streams the same prepared input.
    inputs = 1
    #: The recording campaign is fixed; the workload seed only orders
    #: the sessions on the wire.
    campaign_seed = 7
    campaign_slice = ("vue", "polymer", "react", "jquery", "backbone", "elm")
    campaign_tests = 5
    campaign_actions = 40

    def __init__(self) -> None:
        self.lines: List[str] = []
        #: session -> line positions of its records, in order.
        self.positions: Dict[str, List[int]] = {}
        #: Line positions, one list per tick of the interleave.
        self.ticks: List[List[int]] = []
        #: session -> the offline campaign's verdict name.
        self.offline: Dict[str, str] = {}
        self.bundle = None
        self.check_spec = None

    def record(self) -> Dict[str, dict]:
        """Wire lines and verdict of every test of a fixed offline
        campaign, keyed by session (see ``record.py``)."""
        session = CheckSession(default_subscript=SUBSCRIPT)
        batch = session.check_many(
            [CheckTarget(n, implementation_named(n).app_factory())
             for n in self.campaign_slice],
            spec=spec_path(self.spec_file),
            property=self.property_name,
            config=RunnerConfig(
                tests=self.campaign_tests,
                scheduled_actions=self.campaign_actions,
                demand_allowance=20, seed=self.campaign_seed,
                shrink=False, stop_on_failure=False),
            session=SessionConfig(jobs=1),
        )
        recorded = {}
        for outcome in batch.outcomes:
            for index, test in enumerate(outcome.result.results):
                session_id = f"{outcome.target}/{index}"
                recorded[session_id] = {
                    "lines": list(trace_records(session_id, test.trace,
                                                end=True)),
                    "verdict": test.verdict.name,
                }
        return recorded

    def prepare(self, seed: int) -> None:
        """Record in a child process, so that the campaign's traces do
        not set this process's peak memory, then interleave the
        sessions in a seeded order."""
        campaign = {"campaign_seed": self.campaign_seed,
                    "campaign_slice": list(self.campaign_slice),
                    "campaign_tests": self.campaign_tests,
                    "campaign_actions": self.campaign_actions}
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "record.py")],
            input=json.dumps(campaign), capture_output=True, text=True,
            cwd=os.path.dirname(HERE), timeout=RECORD_TIMEOUT_S, check=True,
        )
        recorded = json.loads(done.stdout)
        self.offline = {s: entry["verdict"] for s, entry in recorded.items()}
        sessions = sorted(recorded)
        random.Random(seed).shuffle(sessions)
        tagged = interleave_sessions({
            s: [(s, line) for line in recorded[s]["lines"]] for s in sessions
        })
        self.lines, self.ticks = [], []
        self.positions = {s: [] for s in sessions}
        tick = set()
        for position, (session, line) in enumerate(tagged):
            if not self.ticks or session in tick:
                self.ticks.append([])
                tick = set()
            tick.add(session)
            self.ticks[-1].append(position)
            self.lines.append(line)
            self.positions[session].append(position)

    def setup(self) -> None:
        self.bundle = SpecResolver(default_subscript=SUBSCRIPT).load(
            spec_path(self.spec_file))
        self.check_spec = self.bundle.module.check_named(self.property_name)

    def close(self) -> None:
        pass

    def full_width(self) -> int:
        return len(self.check_spec.dependencies)

    def monitor(self, on_verdict) -> Monitor:
        return Monitor(self.check_spec,
                       compiled=self.bundle.property_named(self.property_name),
                       on_verdict=on_verdict)

    def warmup(self, seed: int) -> None:
        self.round(seed)

    def round(self, seed: int) -> RoundResult:
        """Stream the prepared input (``seed`` is unused: the stream
        was made from the workload seed) through a fresh monitor."""
        lines, positions = self.lines, self.positions
        stamps = [0.0] * len(lines)
        verdicts = {}

        def on_verdict(verdict) -> None:
            verdicts[verdict.session_id] = (verdict, time.perf_counter())

        queue = _TickQueue()

        def produce() -> None:
            put = queue.put
            now = time.perf_counter
            for tick in self.ticks:
                queue.asked.wait()
                queue.asked.clear()
                if queue.closed:
                    return
                for position in tick:
                    put(lines[position])
                    stamps[position] = now()
                queue.ready.set()
            queue.asked.wait()
            queue.close()

        monitor = self.monitor(on_verdict)
        producer = threading.Thread(target=produce, name="perfbench-producer")
        producer.start()
        started = time.perf_counter()
        try:
            report = monitor.run_queue(queue)
        finally:
            queue.close()
            producer.join()
        wall = time.perf_counter() - started
        result = RoundResult(wall_s=wall, attempted=len(positions),
                             op_label="verdict lag",
                             records=report.metrics.records_ingested,
                             states=report.metrics.states_applied)
        signature = []
        for session, places in positions.items():
            entry = verdicts.get(session)
            if entry is None:
                result.failed += 1
                continue
            verdict, at = entry
            if verdict.disposition == "definitive":
                decided = places[verdict.states - 1]
            else:
                decided = places[-1]
            result.op_ms.append((at - stamps[decided]) * 1000)
            if (verdict.disposition == "error"
                    or verdict.verdict != self.offline[session]):
                result.failed += 1
            signature.append((session, verdict.verdict, verdict.disposition))
        result.verdicts = tuple(sorted(signature))
        batcher = monitor.batcher
        result.facts = {
            "session_steps": batcher.session_steps,
            "cohort_steps": batcher.cohort_steps,
            "max_formula_size": report.metrics.max_formula_size,
        }
        return result

    def probe(self, lines: List[str]) -> float:
        """Seconds from import to the first dispatched record (called in
        a fresh interpreter, right after the import it measures)."""
        import repro.monitor.service as service

        parse = service.parse_record
        stamp = []

        def first_parse(line):
            if not stamp:
                stamp.append(time.perf_counter())
            return parse(line)

        service.parse_record = first_parse
        try:
            self.setup()
            queue = IngestQueue(maxsize=10_000, policy="block")

            def produce() -> None:
                for line in lines:
                    queue.put(line)
                queue.close()

            producer = threading.Thread(target=produce)
            monitor = self.monitor(lambda verdict: None)
            producer.start()
            try:
                monitor.run_queue(queue)
            finally:
                queue.close()
                producer.join()
        finally:
            service.parse_record = parse
        return stamp[0]

    def probe_lines(self) -> List[str]:
        """The first session's records: enough to dispatch one."""
        first = min(self.positions.values(), key=lambda p: p[0])
        return [self.lines[p] for p in first]


def spec_load_s(spec_file: str, count: int) -> List[float]:
    """Seconds per cold ``SpecResolver.load`` (a fresh resolver each)."""
    times = []
    for _ in range(count):
        started = time.perf_counter()
        SpecResolver(default_subscript=SUBSCRIPT).load(spec_path(spec_file))
        times.append(time.perf_counter() - started)
    return times


WORKLOADS = {
    cls.name: cls
    for cls in (TodoMVCAudit, EggTimerCheck, MonitorReplay)
}
