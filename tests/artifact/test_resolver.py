"""SpecResolver: the one seam; memoized by content, wire-ready."""

import base64

from repro.api import CheckSession
from repro.apps.eggtimer import egg_timer_app
from repro.artifact import (
    SpecResolver,
    compile_spec,
    content_hash,
    save_artifact,
)
from repro.artifact.codec import decode, encode
from repro.checker import RunnerConfig
from repro.checker.compiled import CompiledProperty
from repro.specs import spec_path
from repro.specstrom.module import CheckSpec


class TestContentMemo:
    def test_same_path_same_content_is_one_front_end_run(self):
        resolver = SpecResolver()
        first = resolver.load(spec_path("eggtimer.strom"))
        second = resolver.load(spec_path("eggtimer.strom"))
        assert second is first
        assert resolver.stats() == (1, 1)

    def test_artifact_and_source_paths_memoize_separately(self, tmp_path):
        resolver = SpecResolver()
        artifact = str(tmp_path / "egg.qsa")
        save_artifact(compile_spec(spec_path("eggtimer.strom")), artifact)
        from_source = resolver.load(spec_path("eggtimer.strom"))
        from_artifact = resolver.load(artifact)
        assert resolver.stats() == (0, 2)
        assert from_source.source_hash == from_artifact.source_hash
        assert resolver.load(artifact) is from_artifact
        assert resolver.stats() == (1, 2)

    def test_edited_content_under_the_same_path_recompiles(self, tmp_path):
        resolver = SpecResolver()
        spec_file = tmp_path / "egg.strom"
        source = open(spec_path("eggtimer.strom")).read()
        spec_file.write_text(source)
        first = resolver.load(str(spec_file))
        spec_file.write_text(source + "\n// touched\n")
        second = resolver.load(str(spec_file))
        assert second is not first
        assert second.source_hash != first.source_hash
        assert resolver.stats() == (0, 2)

    def test_load_bytes_memoizes_by_source_hash(self):
        from repro.artifact import artifact_bytes

        resolver = SpecResolver()
        bundle = compile_spec(spec_path("eggtimer.strom"))
        data = artifact_bytes(bundle)
        first = resolver.load_bytes(data, source_hash=bundle.source_hash)
        second = resolver.load_bytes(data, source_hash=bundle.source_hash)
        assert second is first
        assert resolver.stats() == (1, 1)


class TestResolve:
    def test_path_resolves_to_check_plus_compiled_property(self):
        resolver = SpecResolver()
        check, compiled = resolver.resolve(
            spec_path("eggtimer.strom"), property="safety"
        )
        assert isinstance(check, CheckSpec) and check.name == "safety"
        assert isinstance(compiled, CompiledProperty)
        assert compiled.spec is check

    def test_bare_check_resolves_without_a_bundle(self):
        resolver = SpecResolver()
        bundle = resolver.load(spec_path("eggtimer.strom"))
        check = bundle.check_named("safety")
        resolved, compiled = resolver.resolve(check)
        assert resolved is check
        assert compiled is None


class TestRemoteFields:
    def test_fields_carry_loadable_artifact_bytes(self):
        resolver = SpecResolver()
        fields = resolver.remote_fields(spec_path("eggtimer.strom"))
        assert set(fields) == {"artifact_b64", "source_hash"}
        with open(spec_path("eggtimer.strom"), "rb") as handle:
            assert fields["source_hash"] == content_hash(handle.read())
        other = SpecResolver()
        bundle = other.load_bytes(
            base64.b64decode(fields["artifact_b64"]),
            source_hash=fields["source_hash"],
        )
        assert set(bundle.properties) == {"safety", "liveness", "timeUp"}

    def test_encoding_is_memoized_per_bundle(self):
        resolver = SpecResolver()
        first = resolver.remote_fields(spec_path("eggtimer.strom"))
        second = resolver.remote_fields(spec_path("eggtimer.strom"))
        assert first == second
        assert len(resolver._encoded) == 1


class TestStepTableStaysLocal:
    """The step table keys process-local row ids, so no encoding of a
    bundle carries it, however full local campaigns left it."""

    CONFIG = RunnerConfig(tests=4, scheduled_actions=15, demand_allowance=10,
                          seed=7)

    def verdicts(self, bundle):
        result = CheckSession(egg_timer_app()).check(
            bundle, property="safety", config=self.CONFIG
        )
        return [(r.verdict, r.states_observed) for r in result.results]

    def test_encodings_after_a_campaign_carry_no_steps(self):
        resolver = SpecResolver()
        bundle = resolver.load(spec_path("eggtimer.strom"))
        local = self.verdicts(bundle)
        assert bundle.caches.outcomes
        payload = encode(bundle)
        decoded = decode(payload)
        shipped = SpecResolver().load_bytes(
            resolver.encoded(bundle), source_hash=bundle.source_hash
        )
        for copy in (decoded, shipped):
            assert copy.caches.outcomes == {}
            assert copy.caches.simplify  # the node tables do travel
            assert self.verdicts(copy) == local
            assert copy.properties["safety"].caches.outcomes
        bundle.caches.outcomes.clear()
        assert encode(bundle) == payload
