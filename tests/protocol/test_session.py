"""The version/staleness arithmetic (Figure 10)."""

from repro.protocol import TraceRecorder


class TestRecorder:
    def test_empty(self):
        recorder = TraceRecorder()
        assert recorder.length == 0
        assert recorder.stale_rejections == 0
        assert not recorder.is_stale(0)

    def test_append_returns_version(self):
        recorder = TraceRecorder()
        assert recorder.append() == 1
        assert recorder.append() == 2
        assert recorder.length == 2

    def test_staleness_rule(self):
        """An Act carrying a version smaller than the trace length is
        out of date: the checker decided before seeing the new states."""
        recorder = TraceRecorder()
        recorder.append()
        assert not recorder.is_stale(1)  # decided after seeing state 1
        recorder.append()
        assert recorder.is_stale(1)  # a state arrived meanwhile
        assert not recorder.is_stale(2)

    def test_rejection_counter(self):
        recorder = TraceRecorder()
        recorder.note_stale_rejection()
        recorder.note_stale_rejection()
        assert recorder.stale_rejections == 2
