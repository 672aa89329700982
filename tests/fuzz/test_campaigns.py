"""The fuzz driver: determinism, scoreboard, corpus, divergence handling."""

import json

import pytest

from repro.fuzz import campaigns as campaigns_module
from repro.fuzz.campaigns import (
    generate_campaign,
    run_campaign,
    run_fuzz,
)
from repro.fuzz.corpus import append_entry, read_corpus, replay_entry
from repro.fuzz.machine import MachineFault
from repro.specstrom.module import load_module

JOBS = 2
SEED = 11


class TestGeneration:
    def test_campaigns_are_deterministic(self):
        assert generate_campaign(3, 5) == generate_campaign(3, 5)
        assert generate_campaign(3, 5) != generate_campaign(3, 6)

    def test_every_generated_spec_elaborates(self):
        for index in range(15):
            campaign = generate_campaign(SEED, index)
            module = load_module(campaign.spec_source,
                                 default_subscript=campaign.default_subscript)
            assert len(module.checks) == 1
            assert campaign.spec_kind in ("model", "random")

    def test_model_campaigns_bring_faulty_twins(self):
        drawn = [generate_campaign(SEED, index) for index in range(15)]
        model = [c for c in drawn if c.spec_kind == "model"]
        assert model
        assert any(c.faults for c in model)
        targets = model[0].targets()
        assert targets[0] == ("correct", None)


class TestRunCampaign:
    def test_campaigns_run_clean_and_fill_the_scoreboard(self):
        detections = []
        for index in range(4):
            campaign = generate_campaign(SEED, index)
            outcome = run_campaign(campaign, jobs=JOBS)
            assert outcome.divergences == []
            assert outcome.tests_run > 0
            detections.extend(outcome.detections)
        assert detections  # at least one faulty twin was injected

    def test_run_fuzz_is_deterministic(self):
        first = run_fuzz(seed=SEED, campaigns=3, jobs=JOBS)
        second = run_fuzz(seed=SEED, campaigns=3, jobs=JOBS)
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )
        assert first.ok
        assert first.tests_run > 0

    def test_report_lists_every_missed_fault(self):
        report = run_fuzz(seed=0, campaigns=18, jobs=JOBS)
        missed = report.to_dict()["missed"]
        assert missed  # campaign 17 misses a drop_transition fault
        for kind, detected, injected in report.scoreboard_rows():
            assert sum(m["fault"]["kind"] == kind for m in missed) == injected - detected
        for entry in missed:
            campaign = generate_campaign(0, entry["campaign"])
            assert MachineFault.from_dict(entry["fault"]) in campaign.faults


class TestCorpus:
    def test_counterexamples_are_persisted_and_replay(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        report = run_fuzz(seed=7, campaigns=8, jobs=JOBS,
                          corpus_path=str(corpus))
        assert report.ok
        assert report.counterexamples >= 1
        entries = list(read_corpus(str(corpus)))
        assert len(entries) == report.counterexamples
        for entry in entries:
            assert entry.kind == "counterexample"
            assert entry.actions
            # Replay must reproduce the recorded verdict exactly.
            assert replay_entry(entry) is None

    def test_append_creates_parent_directories(self, tmp_path):
        campaign = generate_campaign(SEED, 0)
        entry = campaigns_module._divergence_entry(
            campaign, None, "path", "synthetic", jobs=JOBS
        )
        path = tmp_path / "deep" / "nested" / "corpus.jsonl"
        append_entry(str(path), entry)
        restored = list(read_corpus(str(path)))
        assert len(restored) == 1
        assert restored[0].machine == campaign.machine
        assert restored[0].spec_source == campaign.spec_source


class TestDivergenceHandling:
    @pytest.fixture
    def broken_oracle(self, monkeypatch):
        """Make the trace oracle reject everything: a synthetic checker
        bug, exercising detection, shrinking, persistence and replay."""
        monkeypatch.setattr(
            campaigns_module,
            "direct_oracle_mismatch",
            lambda check, result: "synthetic disagreement",
        )

    #: Every oracle of the pass, and the kind it reports under.
    ORACLES = (
        ("compare_campaigns", "path"),
        ("narrowing_mismatch", "narrow"),
        ("direct_oracle_mismatch", "oracle"),
        ("monitor_oracle_mismatch", "monitor"),
    )

    def test_divergence_is_detected_shrunk_and_persisted(self, monkeypatch):
        """Each oracle, made to reject everything (a synthetic checker
        bug), is reported under its own kind, and its divergence is
        shrunk, persisted and replayed."""
        campaign = generate_campaign(SEED, 0)
        for oracle, kind in self.ORACLES:
            with monkeypatch.context() as patch:
                patch.setattr(campaigns_module, oracle,
                              lambda *args: "synthetic disagreement")
                outcome = run_campaign(campaign, jobs=JOBS)
                assert outcome.divergences, oracle
                assert all("synthetic disagreement" in d.detail
                           for d in outcome.divergences), oracle
                divergence = outcome.divergences[0]
                assert divergence.kind == kind, oracle
                # Shrinking drove the reproduction down to the smallest
                # configuration that still diverges (everything, here).
                assert divergence.entry.config["tests"] == 1, oracle
                assert divergence.entry.config["scheduled_actions"] == 1, oracle
                # The entry records the original batch shape and pool
                # width, so replay re-runs the campaign that diverged,
                # not a one-target approximation of it.
                assert divergence.entry.extra["jobs"] == JOBS
                assert divergence.entry.extra["twins"] == [
                    fault.to_dict() for fault in campaign.faults
                ]
                # While the bug "exists", the corpus entry reproduces.
                assert replay_entry(divergence.entry) is None, oracle

    def test_fixed_divergence_no_longer_reproduces(self, tmp_path):
        entry_holder = {}

        def capture(monkeypatch_entry):
            entry_holder["entry"] = monkeypatch_entry

        campaign = generate_campaign(SEED, 0)
        # Record a divergence under a temporarily-broken oracle...
        original = campaigns_module.direct_oracle_mismatch
        campaigns_module.direct_oracle_mismatch = (
            lambda check, result: "synthetic disagreement"
        )
        try:
            outcome = run_campaign(campaign, jobs=JOBS,
                                   shrink_divergences=False)
            capture(outcome.divergences[0].entry)
        finally:
            campaigns_module.direct_oracle_mismatch = original
        # ...then replay it against the healthy checker: fixed.
        message = replay_entry(entry_holder["entry"])
        assert message == "the recorded divergence no longer reproduces"

    def test_report_flags_divergences(self, broken_oracle):
        report = run_fuzz(seed=SEED, campaigns=1, jobs=JOBS)
        assert not report.ok
        assert "DIVERGENCE" in report.summary()
        assert report.to_dict()["divergences"]
