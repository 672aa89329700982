"""Checkpoint/restore: kill the monitor anywhere, resume losslessly.

The acceptance property: for any split point, (run to the split,
checkpoint, die, restore, run the rest) emits the same verdict stream
and reports the same cumulative totals as one uninterrupted run.
"""

import os

import pytest

from repro.artifact import ArtifactCorruptError, ArtifactFormatError, SpecResolver
from repro.monitor import (
    IngestQueue,
    Monitor,
    ShardedMonitor,
    feed_lines,
    read_checkpoint_header,
)
from repro.monitor.checkpoint import load_checkpoint_payload, shard_checkpoint_path
from repro.monitor.synth import synth_lines
from repro.specs import load_eggtimer_spec, spec_path

#: Metrics keys that legitimately differ across a process restart
#: (cache and step-memo warmth, wall clock).
_RESTART_SENSITIVE = {
    "cohort_steps", "sharing_ratio", "intern_hits", "intern_misses",
    "intern_hit_ratio", "cache_evictions", "cache_trims",
    "wall_s", "states_per_s", "max_queue_depth", "parse_s", "progress_s",
}


@pytest.fixture(scope="module")
def check():
    return load_eggtimer_spec().check_named("safety")


@pytest.fixture(scope="module")
def lines():
    return list(synth_lines(sessions=16, seed=11))


def _run(check, stream, restore_dir=None, on_verdict=None):
    monitor = Monitor(check, on_verdict=on_verdict)
    if restore_dir is not None:
        monitor.restore_from(restore_dir)
    report = monitor.run_lines(stream)
    return monitor, report


class TestResumeEquivalence:
    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.9])
    def test_any_split_point_resumes_to_identical_verdicts(
        self, check, lines, tmp_path, fraction
    ):
        full_verdicts = []
        _, full = _run(check, lines, on_verdict=full_verdicts.append)

        cut = int(len(lines) * fraction)
        directory = str(tmp_path / f"ckpt-{fraction}")
        before = []
        first = Monitor(check, on_verdict=before.append)
        for line in lines[:cut]:
            first.feed_line(line)
        first.checkpoint_to(directory)
        del first  # the "kill"

        after = []
        _, resumed = _run(check, lines[cut:], restore_dir=directory,
                          on_verdict=after.append)

        assert ([v.to_dict() for v in before + after]
                == [v.to_dict() for v in full_verdicts])
        full_d, resumed_d = full.metrics.to_dict(), resumed.metrics.to_dict()
        for key, value in full_d.items():
            if key not in _RESTART_SENSITIVE:
                assert resumed_d[key] == value, key

    def test_restored_sessions_keep_their_residual_progress(
        self, check, lines, tmp_path
    ):
        directory = str(tmp_path / "ckpt")
        first = Monitor(check)
        for line in lines[: len(lines) // 2]:
            first.feed_line(line)
        first.checkpoint_to(directory)
        residuals = {
            e.session_id: e.residual
            for e in first.table.live_sessions()
        }
        assert residuals  # the split leaves sessions open

        second = Monitor(check)
        second.restore_from(directory)
        restored = {
            e.session_id: e.residual
            for e in second.table.live_sessions()
        }
        assert set(restored) == set(residuals)
        # Defers re-intern by closure identity, so a restored residual
        # is a fresh node with the same spine (the verdict-equivalence
        # test above pins the semantics)...
        for session_id, residual in residuals.items():
            assert repr(restored[session_id]) == repr(residual)
        # ...but sharing survives: sessions that shared one interned
        # residual before the checkpoint still share one node after.
        shared_before = {}
        for session_id, residual in residuals.items():
            shared_before.setdefault(id(residual), []).append(session_id)
        for group in shared_before.values():
            ids_after = {id(restored[session_id]) for session_id in group}
            assert len(ids_after) == 1

    def test_late_records_stay_late_across_restore(self, check, tmp_path):
        lines = list(synth_lines(sessions=3, seed=5))
        directory = str(tmp_path / "ckpt")
        first = Monitor(check)
        first.run_lines(lines)  # everything resolves
        first.checkpoint_to(directory)

        second = Monitor(check)
        second.restore_from(directory)
        # Replay one already-resolved session's record: the restored
        # retired ring must classify it late, not open a new session.
        second.feed_line(lines[0])
        second.flush()
        assert second.metrics.late_records == 1
        assert second.metrics.sessions_started == first.metrics.sessions_started

    def test_checkpoint_without_phase_timings_restores_with_defaults(
        self, check, lines, tmp_path
    ):
        """A checkpoint written before ``parse_s``/``progress_s`` existed
        carries metrics without them: they restore as the class
        defaults and accumulate from there."""
        directory = str(tmp_path / "ckpt")
        first = Monitor(check)
        for line in lines[: len(lines) // 2]:
            first.feed_line(line)
        first.flush()
        del first.metrics.parse_s, first.metrics.progress_s
        path = first.checkpoint_to(directory)
        _header, saved = load_checkpoint_payload(path)
        assert "parse_s" not in vars(saved["metrics"])

        second = Monitor(check)
        second.restore_from(directory)
        restored = second.metrics
        assert restored.to_dict()["parse_s"] == 0.0
        assert restored.to_dict()["progress_s"] == 0.0
        assert restored.records_ingested == len(lines) // 2
        report = second.run_lines(lines[len(lines) // 2:])
        assert report.metrics.parse_s > 0
        assert report.metrics.progress_s > 0


class TestCheckpointContainer:
    def test_header_reads_without_payload_decode(self, check, lines, tmp_path):
        directory = str(tmp_path / "ckpt")
        monitor = Monitor(check)
        for line in lines[:20]:
            monitor.feed_line(line)
        path = monitor.checkpoint_to(directory)
        assert path == shard_checkpoint_path(directory, 0, 1)
        header = read_checkpoint_header(path)
        assert header["records_ingested"] == 20
        assert header["property"] == "safety"
        assert header["sessions_live"] == len(monitor.table)

    def test_checkpoint_overwrites_atomically(self, check, lines, tmp_path):
        directory = str(tmp_path / "ckpt")
        monitor = Monitor(check)
        for index, line in enumerate(lines):
            monitor.feed_line(line)
            if index in (5, 15):
                monitor.checkpoint_to(directory)
        path = shard_checkpoint_path(directory, 0, 1)
        header = read_checkpoint_header(path)
        assert header["records_ingested"] == 16  # the latest snapshot
        assert os.listdir(directory) == [os.path.basename(path)]  # no tmp junk

    def test_torn_checkpoint_is_a_typed_error(self, check, lines, tmp_path):
        directory = str(tmp_path / "ckpt")
        monitor = Monitor(check)
        for line in lines[:10]:
            monitor.feed_line(line)
        path = monitor.checkpoint_to(directory)
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(ArtifactCorruptError):
            Monitor(check).restore_from(directory)

    def test_foreign_file_is_a_format_error(self, check, tmp_path):
        directory = str(tmp_path / "ckpt")
        os.makedirs(directory)
        with open(shard_checkpoint_path(directory, 0, 1), "wb") as handle:
            handle.write(b"definitely not a checkpoint")
        with pytest.raises(ArtifactFormatError):
            Monitor(check).restore_from(directory)

    def test_older_single_file_layout_is_refused(self, check, lines, tmp_path):
        # An older release's ``monitor.qsc`` is no complete width: the
        # restore refuses it rather than starting empty.
        directory = str(tmp_path / "ckpt")
        monitor = Monitor(check)
        for line in lines[:10]:
            monitor.feed_line(line)
        path = monitor.checkpoint_to(directory)
        os.rename(path, os.path.join(directory, "monitor.qsc"))
        with pytest.raises(ArtifactFormatError, match="no monitor checkpoint"):
            Monitor(check).restore_from(directory)

    def test_wrong_property_is_rejected(self, check, lines, tmp_path):
        directory = str(tmp_path / "ckpt")
        monitor = Monitor(check)
        for line in lines[:10]:
            monitor.feed_line(line)
        monitor.checkpoint_to(directory)
        other = load_eggtimer_spec().check_named("liveness")
        with pytest.raises(ArtifactFormatError):
            Monitor(other).restore_from(directory)


class TestSuspend:
    def test_suspend_leaves_sessions_open(self, check, lines):
        monitor = Monitor(check)
        cut = len(lines) // 2
        for line in lines[:cut]:
            monitor.feed_line(line)
        report = monitor.suspend()
        assert len(monitor.table) > 0
        assert report.metrics.sessions_live == len(monitor.table)
        assert "inconclusive" not in report.metrics.verdicts

    def test_finish_after_suspend_still_resolves(self, check, lines):
        monitor = Monitor(check)
        for line in lines[: len(lines) // 2]:
            monitor.feed_line(line)
        monitor.suspend()
        report = monitor.finish()
        assert report.metrics.sessions_live == 0


class TestIngestCounts:
    """Ingest drops and depth samples are counters like the rest:
    checkpointed, restored and merged, at every width."""

    @pytest.fixture(scope="class")
    def bundle(self):
        return SpecResolver().load(spec_path("eggtimer.strom"))

    def _monitor(self, kind, bundle):
        if kind == "single":
            return Monitor(bundle.check_named("safety"),
                           compiled=bundle.property_named("safety"))
        return ShardedMonitor(bundle, shards=2, property_name="safety",
                              transport=kind)

    @pytest.mark.parametrize("kind", ["single", "inline", "process"])
    def test_drops_and_queue_depth_survive_a_restore(
        self, bundle, kind, tmp_path
    ):
        lines = list(synth_lines(seed=0, sessions=20, fault_rate=0.2))
        directory = str(tmp_path / "ckpt")
        shedding = IngestQueue(maxsize=60, policy="drop")
        assert feed_lines(lines[:65], shedding) == (60, 5)
        shedding.close()
        first = self._monitor(kind, bundle).run_queue(
            shedding, checkpoint_dir=directory
        )
        assert first.metrics.dropped_records == 5
        assert first.metrics.max_queue_depth == 60

        rest = IngestQueue()
        feed_lines(lines[65:], rest)
        rest.close()
        resumed = self._monitor(kind, bundle)
        resumed.restore_from(directory)
        report = resumed.run_queue(rest)
        assert report.metrics.records_ingested == len(lines) - 5
        assert report.metrics.dropped_records == 5
        assert not report.ok
        assert report.metrics.max_queue_depth == len(lines) - 65
