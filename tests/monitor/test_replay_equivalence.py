"""The acceptance criterion: monitor verdicts == offline checker verdicts.

Two flavours: recorded traces from a *real* egg-timer campaign (live
DOM executor, real action scheduling) replayed through the monitor's
full wire path, and the fuzzer's monitor oracle run over a generated
campaign.
"""

import pytest

from repro.api import CheckSession
from repro.apps.eggtimer import egg_timer_app
from repro.checker import RunnerConfig
from repro.executors import DomExecutor
from repro.fuzz.campaigns import generate_campaign, run_campaign
from repro.fuzz.oracles import monitor_oracle_mismatch
from repro.monitor.replay import monitor_verdicts
from repro.specs import load_eggtimer_spec


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
