"""Verdict identity across spec-resolution paths.

The artifact pipeline's acceptance bar: a campaign checked from a
loaded artifact -- serially, over a fork/thread pool, or on a remote
worker fed artifact bytes -- produces verdicts, counterexamples and
test counts identical to one compiled from source.
"""

import base64

import pytest

from repro.api import CheckSession, SessionConfig
from repro.apps.eggtimer import egg_timer_app
from repro.artifact import artifact_bytes, compile_spec, save_artifact
from repro.checker import RunnerConfig
from repro.specs import spec_path

QUICK = RunnerConfig(tests=4, scheduled_actions=12, demand_allowance=8,
                     seed="artifact-identity", shrink=False)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("artifact") / "egg.qsa")
    save_artifact(compile_spec(spec_path("eggtimer.strom")), path)
    return path


def _verdicts(result):
    return [r.verdict for r in result.results]


class TestSourceVsArtifact:
    @pytest.mark.parametrize("prop", ["safety", "liveness", "timeUp"])
    def test_serial_verdicts_identical(self, artifact, prop):
        from_source = CheckSession(egg_timer_app()).check(
            spec_path("eggtimer.strom"), property=prop, config=QUICK
        )
        from_artifact = CheckSession(egg_timer_app()).check(
            artifact, property=prop, config=QUICK
        )
        assert _verdicts(from_artifact) == _verdicts(from_source)
        assert from_artifact.passed == from_source.passed
        if from_source.counterexample is not None:
            assert (from_artifact.counterexample.actions
                    == from_source.counterexample.actions)

    def test_check_all_batch_identical(self, artifact):
        cfg = SessionConfig(jobs=2)
        from_source = CheckSession(egg_timer_app()).check_all(
            spec_path("eggtimer.strom"), config=QUICK, session=cfg
        )
        from_artifact = CheckSession(egg_timer_app()).check_all(
            artifact, config=QUICK, session=cfg
        )
        assert [(r.property_name, _verdicts(r)) for r in from_artifact] == [
            (r.property_name, _verdicts(r)) for r in from_source
        ]


class TestWorkerArtifactPath:
    def test_worker_cache_load_from_bytes_matches_source(self, artifact):
        """The remote path in miniature: a _RunnerCache fed artifact
        bytes runs the same test to the same verdict as a local
        source-compiled runner."""
        import random

        from repro.api.scheduler import _test_seed
        from repro.api.transport.worker import _RunnerCache

        bundle = compile_spec(spec_path("eggtimer.strom"))
        descriptor = {
            "spec": spec_path("eggtimer.strom"),
            "property": "safety",
            "app": "eggtimer",
            "artifact_b64": base64.b64encode(
                artifact_bytes(bundle)
            ).decode("ascii"),
            "source_hash": bundle.source_hash,
            "config": {"tests": 4, "scheduled_actions": 12,
                       "demand_allowance": 8,
                       "seed": "artifact-identity", "shrink": False},
        }
        cache = _RunnerCache()
        runner = cache.runner_for(descriptor)
        remote = [
            runner.run_single_test(
                random.Random(_test_seed("artifact-identity", index))
            ).verdict
            for index in range(4)
        ]
        local = CheckSession(egg_timer_app()).check(
            spec_path("eggtimer.strom"), property="safety", config=QUICK
        )
        assert remote == _verdicts(local)

    def test_rebuilt_campaign_is_one_front_end_run(self):
        """Satellite regression: rebuilding a campaign for the same
        unchanged spec file must not re-run the front end (it used to
        re-elaborate per campaign rebuild)."""
        from repro.api.transport.worker import _RunnerCache

        base = {
            "spec": spec_path("eggtimer.strom"),
            "property": "safety",
            "app": "eggtimer",
            "config": {"tests": 2, "seed": "a"},
        }
        cache = _RunnerCache()
        first = cache.runner_for(base)
        # A rebuilt campaign: same spec content, different run knobs.
        rebuilt = cache.runner_for({**base, "config": {"tests": 9,
                                                       "seed": "b"}})
        assert rebuilt is not first  # distinct runner per campaign
        hits, misses = cache.resolver_stats()
        assert (hits, misses) == (1, 1)  # but one elaboration total

    def test_artifact_bytes_skip_the_front_end_entirely(self):
        import repro.artifact.resolver as resolver_module
        from repro.api.transport.worker import _RunnerCache

        bundle = compile_spec(spec_path("eggtimer.strom"))
        descriptor = {
            "spec": spec_path("eggtimer.strom"),
            "property": "safety",
            "app": "eggtimer",
            "artifact_b64": base64.b64encode(
                artifact_bytes(bundle)
            ).decode("ascii"),
            "source_hash": bundle.source_hash,
            "config": {"tests": 2, "seed": "a"},
        }
        cache = _RunnerCache()
        calls = []
        original = resolver_module.compile_source
        resolver_module.compile_source = (
            lambda *a, **k: calls.append(1) or original(*a, **k)
        )
        try:
            cache.runner_for(descriptor)
        finally:
            resolver_module.compile_source = original
        assert calls == []  # loaded, never elaborated
