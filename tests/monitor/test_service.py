"""Monitor end-to-end: lifecycles, eviction, EOF, quarantine, errors."""

import json

import pytest

from repro.monitor.ingest import IngestQueue
from repro.monitor.metrics import MonitorMetrics
from repro.monitor.records import trace_records
from repro.monitor.replay import interleave_sessions, monitor_verdicts
from repro.monitor.service import Monitor
from repro.monitor.shard import ShardedMonitor
from repro.monitor.synth import _countdown, synth_lines, synth_traces
from repro.quickltl import Always, Atom, intern_delta
from repro.specs import spec_path
from repro.specstrom import load_module_file
from repro.specstrom.module import CheckSpec


@pytest.fixture(scope="module")
def safety():
    return load_module_file(spec_path("eggtimer.strom")).check_named("safety")


def collect(check, **kwargs):
    """A monitor plus the list its verdicts land in."""
    verdicts = []
    monitor = Monitor(check, on_verdict=verdicts.append, **kwargs)
    return monitor, verdicts


def atom_check(formula):
    """Wrap a bare formula as a minimal CheckSpec."""
    return CheckSpec(
        name="synthetic", formula=formula, actions=[], events=[],
        dependencies=frozenset(),
    )


class TestLifecycles:
    def test_definitive_mid_stream_then_late_records(self, safety):
        monitor, verdicts = collect(safety)
        faulty = _countdown(3, fault_at=2)
        for line in trace_records("f", faulty, end=False):
            monitor.feed_line(line)
        monitor.flush()
        assert [v.disposition for v in verdicts] == ["definitive"]
        assert verdicts[0].verdict == "DEFINITELY_FALSE"
        assert not verdicts[0].forced
        # Anything after the resolution is late: counted, never applied.
        for line in trace_records("f", _countdown(3), end=True):
            monitor.feed_line(line)
        report = monitor.finish()
        assert len(verdicts) == 1
        assert report.metrics.late_records == len(_countdown(3)) + 1
        assert report.metrics.verdicts == {"DEFINITELY_FALSE": 1}

    def test_end_record_forces_demanding_residual(self, safety):
        monitor, verdicts = collect(safety)
        monitor.run_lines(trace_records("h", _countdown(3), end=True))
        (verdict,) = verdicts
        assert verdict.disposition == "ended"
        assert verdict.verdict == "PROBABLY_TRUE"
        assert verdict.forced
        assert verdict.states == len(_countdown(3))

    def test_batched_and_unbatched_verdicts_agree(self, safety):
        traces, _ = synth_traces(seed=3, sessions=12, fault_rate=0.3)
        batched = monitor_verdicts(safety, traces, batch=True)
        naive = monitor_verdicts(safety, traces, batch=False)
        def as_pairs(vs):
            return {
                sid: (v.verdict, v.forced, v.disposition)
                for sid, v in vs.items()
            }

        assert as_pairs(batched) == as_pairs(naive)

    def test_interleaving_does_not_change_verdicts(self, safety):
        traces, _ = synth_traces(seed=5, sessions=9, fault_rate=0.4)
        encoded = {
            sid: trace_records(sid, trace) for sid, trace in traces.items()
        }
        interleaved = monitor_verdicts(safety, traces)
        monitor, verdicts = collect(safety)
        # Sequential schedule: each session completes before the next.
        monitor.run_lines(
            line for lines in encoded.values() for line in lines
        )
        sequential = {v.session_id: v for v in verdicts}
        assert {s: v.verdict for s, v in sequential.items()} == {
            s: v.verdict for s, v in interleaved.items()
        }


class TestEviction:
    def test_lru_cap_bounds_live_sessions(self, safety):
        cap = 8
        monitor, verdicts = collect(safety, max_sessions=cap)
        traces, _ = synth_traces(seed=0, sessions=50, fault_rate=0.0)
        encoded = {
            sid: trace_records(sid, trace, end=False)
            for sid, trace in traces.items()
        }
        for line in interleave_sessions(encoded):
            monitor.feed_line(line)
            assert len(monitor.table) <= cap
        report = monitor.finish()
        metrics = report.metrics
        assert metrics.sessions_started == 50
        assert metrics.evicted_lru == 42
        assert metrics.sessions_live == 0
        # Every session gets an explicit disposition, never silence.
        assert len(verdicts) == 50
        assert metrics.verdicts == {"inconclusive": 50}
        evicted = [v for v in verdicts if v.reason == "evicted:lru"]
        assert len(evicted) == 42
        assert all(v.disposition == "inconclusive" for v in evicted)

    def test_idle_ttl_evicts_with_injected_clock(self, safety):
        now = [0.0]
        monitor, verdicts = collect(
            safety, idle_ttl_s=30.0, clock=lambda: now[0]
        )
        quiet, chatty = _countdown(3), _countdown(4, pause_after=2)
        monitor.feed_line(trace_records("quiet", quiet[:2], end=False)[0])
        monitor.flush()
        now[0] = 20.0
        monitor.feed_line(trace_records("chatty", chatty[:2], end=False)[0])
        monitor.flush()
        assert verdicts == []
        now[0] = 35.0  # quiet idle for 35s, chatty for 15s
        monitor.flush()
        assert [v.session_id for v in verdicts] == ["quiet"]
        assert verdicts[0].disposition == "inconclusive"
        assert verdicts[0].reason == "evicted:idle"
        assert monitor.metrics.evicted_idle == 1
        assert "chatty" in monitor.table


class TestEof:
    def test_eof_defaults_to_inconclusive(self, safety):
        monitor, verdicts = collect(safety)
        report = monitor.run_lines(
            trace_records("h", _countdown(3), end=False)
        )
        (verdict,) = verdicts
        assert verdict.disposition == "inconclusive"
        assert verdict.reason == "eof"
        assert verdict.verdict is None
        assert report.metrics.verdicts == {"inconclusive": 1}

    def test_resolve_at_eof_forces_like_an_end_record(self, safety):
        monitor, verdicts = collect(safety, resolve_at_eof=True)
        monitor.run_lines(trace_records("h", _countdown(3), end=False))
        (verdict,) = verdicts
        assert verdict.disposition == "ended"
        assert verdict.reason == "eof"
        assert verdict.verdict == "PROBABLY_TRUE"
        assert verdict.forced

    def test_finish_is_idempotent(self, safety):
        monitor, verdicts = collect(safety)
        monitor.run_lines(trace_records("h", _countdown(2), end=True))
        monitor.finish()
        assert len(verdicts) == 1

    def test_late_record_after_eof_is_attributed_to_eof(self, safety):
        # An EOF-inconclusive session was never "finished"; the retired
        # ring must say "eof" so a record trickling in afterwards is a
        # late record of an EOF-drained session, not of a completed one.
        monitor, verdicts = collect(safety)
        monitor.run_lines(trace_records("h", _countdown(3), end=False))
        assert verdicts[0].disposition == "inconclusive"
        assert monitor.table.retired_reason("h") == "eof"
        late = trace_records("h", _countdown(1), end=False)[0]
        monitor.feed_line(late)
        monitor.flush()
        assert monitor.metrics.late_records == 1
        assert len(verdicts) == 1  # late record resurrects nothing


class TestQuarantine:
    def test_malformed_lines_quarantine_and_fail_ok(self, safety):
        monitor, verdicts = collect(safety)
        lines = list(trace_records("h", _countdown(2), end=True))
        lines.insert(1, "{torn json")
        lines.insert(3, '{"state": {}}')
        report = monitor.run_lines(lines)
        assert not report.ok
        assert report.metrics.malformed_records == 2
        assert [line for line, _err in report.quarantine] == [
            "{torn json", '{"state": {}}'
        ]
        # The well-formed frames around the garbage still progress.
        assert [v.verdict for v in verdicts] == ["PROBABLY_TRUE"]

    def test_quarantine_samples_are_capped(self, safety):
        monitor, _ = collect(safety)
        report = monitor.run_lines("garbage" for _ in range(30))
        assert report.metrics.malformed_records == 30
        assert len(report.quarantine) == 20

    def test_mixed_stream_pins_counts_and_sample_texts(self, safety):
        lines = list(interleave_sessions({
            "a": trace_records("a", _countdown(3)),
            "b": trace_records("b", _countdown(3, fault_at=2)),
        }))
        # "checked": 0 equals (and hashes like) the default False that
        # #remaining's well-formed elements decode to.
        torn = '{"session": "a", "state": {"queries"'
        int_flag = ('{"session": "c", "state": {"queries": {"#remaining": '
                    '[{"tag": "span", "text": "3", "checked": 0}]}}}')
        null_classes = ('{"session": "c", "state": {"queries": {"#toggle": '
                        '[{"tag": "button", "classes": null}]}}}')
        float_session = '{"session": 7.5, "end": true}'
        stream = list(lines)
        for position, line in sorted({
            1: torn, 3: int_flag, 4: "   ", 6: null_classes, 8: float_session,
        }.items(), reverse=True):
            stream.insert(position, line)
        monitor, verdicts = collect(safety)
        report = monitor.run_lines(stream)
        assert report.metrics.malformed_records == 4
        assert report.metrics.records_ingested == len(lines) == 11
        assert report.metrics.sessions_started == 2
        assert report.metrics.states_applied == 9
        assert report.quarantine == [
            (torn, "invalid JSON: Expecting ':' delimiter: "
                   "line 1 column 37 (char 36)"),
            (int_flag, "element field 'checked' must be bool, got int"),
            (null_classes, "element 'classes' must be a list of strings"),
            (float_session, "record needs a non-empty 'session' tag"),
        ]
        assert [(v.session_id, v.verdict, v.disposition, v.states)
                for v in verdicts] == [
            ("b", "DEFINITELY_FALSE", "definitive", 4),
            ("a", "PROBABLY_TRUE", "ended", 5),
        ]


class _ChunkedQueue(IngestQueue):
    """A closed queue holding ``lines`` that hands out at most ``chunk``
    lines per ``get_batch``."""

    def __init__(self, lines, chunk):
        super().__init__(maxsize=len(lines) + 1)
        self.chunk = chunk
        for line in lines:
            self.put(line)
        self.close()

    def get_batch(self, max_items, timeout_s=None):
        return super().get_batch(min(max_items, self.chunk), timeout_s)


class TestDeterminism:
    """Ingest chunking is not observable: verdicts and step counts depend
    on the input stream alone."""

    LINES = list(synth_lines(seed=0, sessions=60, fault_rate=0.2))

    def drive(self, monitor, chunk):
        lines = []
        monitor.on_verdict = lambda verdict: lines.append(
            json.dumps(verdict.to_dict(), sort_keys=True))
        if chunk is None:
            report = monitor.run_lines(self.LINES)
        else:
            report = monitor.run_queue(_ChunkedQueue(self.LINES, chunk))
        metrics = report.metrics
        return lines, metrics.cohort_steps, metrics.states_applied

    @pytest.mark.parametrize("chunk", [1, 7, len(LINES), None],
                             ids=["1", "7", "all", "run_lines"])
    def test_chunking_changes_no_verdict_and_no_step(self, safety, chunk):
        expected = self.drive(Monitor(safety), len(self.LINES))
        assert expected[1:] == (19, 332)
        assert len(expected[0]) == 60
        assert self.drive(Monitor(safety), chunk) == expected
        sharded = [self.drive(ShardedMonitor(safety, shards=2,
                                             transport="inline"), size)
                   for size in (len(self.LINES), chunk)]
        assert sharded[0][1:] == sharded[1][1:]
        assert sharded[0][2] == 332
        for lines, _steps, _states in sharded:
            assert sorted(lines) == sorted(expected[0])


class TestPhaseTimings:
    def test_parse_and_progress_time_is_reported(self, safety):
        monitor, _ = collect(safety)
        report = monitor.run_lines(synth_lines(sessions=6, seed=1))
        metrics = report.metrics
        assert metrics.parse_s > 0
        assert metrics.progress_s > 0
        data = metrics.to_dict()
        assert data["parse_s"] == round(metrics.parse_s, 4)
        assert data["progress_s"] == round(metrics.progress_s, 4)
        line = monitor.heartbeat_line(0)
        assert f"parse={metrics.parse_s * 1000:.0f}ms " in line
        assert f"progress={metrics.progress_s * 1000:.0f}ms" in line

    def test_merged_sums_phase_timings(self):
        merged = MonitorMetrics.merged([
            MonitorMetrics(parse_s=0.25, progress_s=1.0),
            MonitorMetrics(parse_s=0.5, progress_s=0.5),
        ])
        assert merged.parse_s == 0.75
        assert merged.progress_s == 1.5


class TestHeartbeat:
    def test_rate_reads_the_monitor_clock(self, safety):
        now = [100.0]
        monitor = Monitor(safety, clock=lambda: now[0])
        for line in synth_lines(sessions=6, seed=1):
            monitor.feed_line(line)
        states = monitor.metrics.states_applied
        assert states > 0
        now[0] += 2.0
        assert f"states={states} ({states / 2.0:.0f}/s) " in \
            monitor.heartbeat_line(0)

    @pytest.mark.parametrize("periods", [
        {"checkpoint_period_s": 0}, {"checkpoint_period_s": -1.0},
        {"heartbeat_s": 0}, {"heartbeat_s": -1.0},
    ], ids=["checkpoint-0", "checkpoint-negative", "heartbeat-0",
            "heartbeat-negative"])
    def test_run_queue_rejects_non_positive_periods(self, safety, periods):
        with pytest.raises(ValueError, match="must be positive"):
            Monitor(safety).run_queue(_ChunkedQueue([], 1), **periods)


class TestErrors:
    def test_progression_error_quarantines_only_that_session(self):
        def reads_x(state):
            return state.queries["#x"][0].text == "on"

        check = atom_check(Always(5, Atom("reads-x", reads_x)))
        monitor, verdicts = collect(check)
        from repro.monitor.synth import timer_state
        from repro.specstrom.state import ElementSnapshot, StateSnapshot
        with_x = StateSnapshot(
            queries={"#x": (ElementSnapshot(tag="i", text="on"),)},
        )
        without_x = timer_state(3, False, ("loaded?",))  # no "#x" selector
        lines = list(interleave_sessions({
            "good": trace_records("good", [with_x, with_x]),
            "bad": trace_records("bad", [without_x]),
        }))
        report = monitor.run_lines(lines)
        by_session = {v.session_id: v for v in verdicts}
        assert by_session["bad"].disposition == "error"
        assert "KeyError" in by_session["bad"].reason
        assert by_session["good"].disposition == "ended"
        assert by_session["good"].verdict == "PROBABLY_TRUE"
        assert report.metrics.sessions_errored == 1
        assert not report.ok


class TestBoundedCaches:
    def test_long_stream_stays_within_cache_bound(self, safety):
        """Satellite regression: a tiny cache cap over a long stream must
        trim (counted) without changing any verdict."""
        traces, faulty = synth_traces(seed=11, sessions=120, fault_rate=0.25)
        monitor, verdicts = collect(safety, cache_entries=32)
        encoded = {
            sid: trace_records(sid, trace) for sid, trace in traces.items()
        }
        report = monitor.run_lines(interleave_sessions(encoded))
        assert report.metrics.cache_trims > 0
        assert report.metrics.cache_evictions > 0
        bounded = {v.session_id: v for v in verdicts}
        unbounded = monitor_verdicts(safety, traces)
        assert {s: v.verdict for s, v in bounded.items()} == {
            s: v.verdict for s, v in unbounded.items()
        }
        for session, is_faulty in faulty.items():
            expected = "DEFINITELY_FALSE" if is_faulty else "PROBABLY_TRUE"
            assert bounded[session].verdict == expected


class TestReport:
    def test_report_surfaces_sharing_and_intern_deltas(self, safety):
        traces, _ = synth_traces(seed=2, sessions=30, fault_rate=0.0)
        monitor, _ = collect(safety)
        encoded = {
            sid: trace_records(sid, trace) for sid, trace in traces.items()
        }
        with intern_delta() as delta:
            report = monitor.run_lines(interleave_sessions(encoded))
        metrics = report.metrics
        assert report.ok
        assert metrics.sessions_finished == 30
        # The run's own hash-cons work, all of it in progression steps.
        assert delta.constructions > 0
        assert (metrics.intern_hits, metrics.intern_misses) == delta.as_tuple()
        # 30 sessions over a 3-trajectory palette: heavy cohort sharing.
        assert metrics.sharing_ratio > 0.8
        assert metrics.cohort_steps < metrics.states_applied
        payload = report.to_dict()
        assert payload["event"] == "monitor_end"
        assert payload["metrics"]["verdicts"] == {"PROBABLY_TRUE": 30}
