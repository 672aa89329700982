"""The acceptance criterion: monitor verdicts == offline checker verdicts.

Two flavours: recorded traces from a *real* egg-timer campaign (live
DOM executor, real action scheduling) replayed through the monitor's
full wire path, and the fuzzer's monitor oracle run over a generated
campaign.
"""

import dataclasses

import pytest

from repro.api import CheckSession, CheckTarget, SessionConfig
from repro.apps.eggtimer import egg_timer_app
from repro.apps.todomvc import implementation_named
from repro.checker import RunnerConfig
from repro.executors import DomExecutor
from repro.fuzz.campaigns import generate_campaign, run_campaign
from repro.fuzz.oracles import monitor_oracle_mismatch
from repro.monitor import Monitor
from repro.monitor.records import parse_record, trace_records
from repro.monitor.replay import interleave_sessions, monitor_verdicts
from repro.specs import load_eggtimer_spec, load_todomvc_spec


@pytest.fixture(scope="module")
def module():
    return load_eggtimer_spec()


def recorded_campaign(check, app_factory, **kwargs):
    # narrow_queries=False records full states: replay equivalence wants
    # the monitor to see exactly what the offline checker saw.
    defaults = dict(tests=3, scheduled_actions=25, demand_allowance=10,
                    seed=7, shrink=False, narrow_queries=False)
    defaults.update(kwargs)
    return CheckSession(lambda: DomExecutor(app_factory)).check(
        check, config=RunnerConfig(**defaults)
    )


class TestOfflineEquivalence:
    @pytest.mark.parametrize("app_kwargs", [
        {},                  # healthy timer: presumptive passes
        {"decrement": 2},    # double decrement: DEFINITELY_FALSE traces
    ])
    def test_monitor_matches_checker_on_real_campaign(
        self, module, app_kwargs
    ):
        check = module.check_named("safety")
        result = recorded_campaign(check, egg_timer_app(**app_kwargs))
        traces = {
            f"test{index:02d}": [entry.state for entry in test.trace]
            for index, test in enumerate(result.results)
        }
        verdicts = monitor_verdicts(check, traces)
        assert set(verdicts) == set(traces)
        for index, test in enumerate(result.results):
            session = verdicts[f"test{index:02d}"]
            assert session.verdict == test.verdict.name, session
            assert session.forced == test.forced, session

    def test_generated_campaign_passes_every_oracle(self):
        """The fifth fuzz leg runs inside run_campaign: a clean generated
        campaign must report no divergence from any oracle, the monitor
        replay included."""
        campaign = generate_campaign(seed=0, index=3)
        outcome = run_campaign(campaign, jobs=2)
        assert outcome.divergences == []
        assert outcome.tests_run > 0

    def test_monitor_oracle_reports_a_doctored_divergence(self, module):
        check = module.check_named("safety")
        result = recorded_campaign(check, egg_timer_app(), tests=1)
        (test,) = result.results
        doctored = type(test)(**{
            **test.__dict__, "forced": not test.forced,
        })
        mismatch = monitor_oracle_mismatch(check, [doctored])
        assert mismatch is not None
        assert "test 0" in mismatch


def stamped(state, session):
    """``state`` with a ``data-session`` attribute on every element."""
    return dataclasses.replace(state, queries={
        selector: tuple(
            dataclasses.replace(
                element,
                attributes=element.attributes + (("data-session", session),),
            )
            for element in elements
        )
        for selector, elements in state.queries.items()
    })


class TestProjectedCohorts:
    """Three passing TodoMVC implementations, one seed: their tests
    replay the same states, ``data-id``s included, since every mounted
    app numbers its items from 1.  Keyed on what the formula can read or
    on every attribute (the analysis's ``None``), the monitor steps
    those states once.  Stamped with a per-session attribute the safety
    property never reads, they still step once per projected state
    until a projection-table reset splits their cohorts.  Steps are
    deterministic under ``run_lines``, so the counts are pinned."""

    COHORT_STEPS = {"projected": 81, "every_attribute": 81}
    SESSION_STEPS = 246

    def campaign(self, stamp=False):
        safety = load_todomvc_spec().check_named("safety")
        batch = CheckSession().check_many(
            [CheckTarget(name, implementation_named(name).app_factory())
             for name in ("vue", "react", "backbone")],
            spec=safety,
            config=RunnerConfig(tests=2, scheduled_actions=20,
                                demand_allowance=20, seed=3, shrink=False),
            session=SessionConfig(jobs=1),
        )
        assert batch.passed
        encoded = {}
        for outcome in batch.outcomes:
            for index, test in enumerate(outcome.result.results):
                session = f"{outcome.target}/{index}"
                states = [entry.state for entry in test.trace]
                if stamp:
                    states = [stamped(state, session) for state in states]
                encoded[session] = trace_records(session, states)
        return safety, list(interleave_sessions(encoded))

    def replay(self, check, lines):
        """Cohort steps and per-session verdicts of one monitor run."""
        seen = {}
        monitor = Monitor(check, on_verdict=lambda v: seen.__setitem__(
            v.session_id, (v.verdict, v.disposition, v.states)))
        monitor.run_lines(lines)
        assert monitor.batcher.session_steps == self.SESSION_STEPS
        return monitor.batcher.cohort_steps, seen

    def test_projection_shares_steps_and_keeps_verdicts(self):
        safety, lines = self.campaign()
        steps, verdicts = {}, {}
        for label, observed in (("projected", safety.observed_attributes),
                                ("every_attribute", None)):
            steps[label], verdicts[label] = self.replay(
                dataclasses.replace(safety, observed_attributes=observed),
                lines)
        assert safety.observed_attributes == frozenset()
        assert steps == self.COHORT_STEPS
        assert verdicts["projected"] == verdicts["every_attribute"]
        assert {verdict for verdict, _, _ in verdicts["projected"].values()} == {
            "PROBABLY_TRUE"}

    def test_table_resets_only_split_cohorts(self, monkeypatch):
        import repro.monitor.service as service

        safety, lines = self.campaign(stamp=True)
        steps, want = self.replay(safety, lines)
        assert steps == self.COHORT_STEPS["projected"]
        monkeypatch.setattr(service, "_PROJECTION_LIMIT", 2)
        steps, verdicts = self.replay(safety, lines)
        assert verdicts == want
        assert self.COHORT_STEPS["projected"] < steps

    def test_shards_project_through_their_monitors(self):
        safety, lines = self.campaign()
        _, want = self.replay(safety, lines)
        traces = {}
        for line in lines:
            record = parse_record(line)
            if record.state is not None:
                traces.setdefault(record.session_id, []).append(record.state)
        sharded = monitor_verdicts(safety, traces, shards=2)
        assert {session: (v.verdict, v.disposition, v.states)
                for session, v in sharded.items()} == want
