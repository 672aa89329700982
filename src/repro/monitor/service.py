"""The monitor service: residual-per-session progression over a stream.

:class:`Monitor` is the online twin of the offline
:class:`~repro.quickltl.FormulaChecker`: where the checker drives one
session to a verdict, the monitor multiplexes *many* concurrent
sessions through one shared :class:`~repro.checker.compiled.CompiledProperty`
-- same formula, same progression semantics, same forced-verdict
polarity rule, so replaying any recorded trace through the monitor
yields exactly the offline verdict (asserted by ``tests/monitor`` and
the fuzzer's fifth leg).

Processing is organised in *rounds*: each flush claims at most one
pending record per session (preserving per-session order across
rounds), hands the round to the :class:`~repro.monitor.batch.BatchProgressor`
(same-(residual, state) cohorts cost one progression step), applies the
outcomes, then sweeps the idle TTL.  A cohort's state is keyed on what
the formula can read: each row's element attributes are projected onto
the property's ``observed_attributes`` (:meth:`Monitor._cohort_key`), so
sessions whose states differ only in unread attributes share a step.
Sessions resolve by:

* a **definitive** verdict mid-stream (``top``/``bottom`` residual),
* an **end record** (final presumptive verdict; a still-demanding
  residual is *forced* by the polarity rule, exactly like a finished
  test whose budget ran out),
* **eviction** (LRU capacity or idle TTL) -- an explicit
  ``inconclusive`` disposition, never silence,
* a **progression error** (e.g. a state missing a selector the formula
  reads) -- an ``error`` disposition quarantining that session only,
* **stream EOF** -- remaining sessions are ``inconclusive`` by default,
  or force-resolved with ``resolve_at_eof=True``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, IO, Iterable, List, Optional, Tuple

from ..checker.compiled import CompiledProperty, key_fields
from ..quickltl import ProgressionCaches, Verdict, force_verdict, intern_delta
from ..specstrom.module import CheckSpec
from .batch import BatchProgressor
from .ingest import IngestQueue
from .metrics import MonitorMetrics
from .records import MonitorRecord, RecordError, StateKey, parse_record
from .table import SessionEntry, SessionTable

__all__ = ["SessionVerdict", "MonitorReport", "Monitor"]

#: How many quarantined lines are kept verbatim for the report.
_QUARANTINE_SAMPLES = 20

#: The longest a quiet stream defers TTL sweeps, heartbeats and
#: periodic checkpoints.
_IDLE_WAIT_S = 0.5

#: Entries each cohort-key projection table holds before it resets whole.
_PROJECTION_LIMIT = 1 << 14


@dataclass(frozen=True)
class SessionVerdict:
    """The final disposition of one session."""

    session_id: str
    #: Verdict name (``Verdict.<name>``), or None for inconclusive/error.
    verdict: Optional[str]
    #: Was a demanding residual resolved by the polarity rule?
    forced: bool
    #: "definitive" | "ended" | "inconclusive" | "error"
    disposition: str
    #: Machine-readable detail: "", "evicted:lru", "evicted:idle", "eof",
    #: or the progression error text.
    reason: str
    #: States this session observed before resolving.
    states: int

    def to_dict(self) -> dict:
        return {
            "event": "verdict",
            "session": self.session_id,
            "verdict": self.verdict,
            "forced": self.forced,
            "disposition": self.disposition,
            "reason": self.reason,
            "states": self.states,
        }


@dataclass
class MonitorReport:
    """What a finished monitor run reports."""

    metrics: MonitorMetrics
    #: Up to ``_QUARANTINE_SAMPLES`` ``(line, error)`` pairs, verbatim.
    quarantine: List[Tuple[str, str]]

    @property
    def ok(self) -> bool:
        """No malformed input, no dropped input, no errored sessions."""
        return not (
            self.metrics.malformed_records
            or self.metrics.dropped_records
            or self.metrics.sessions_errored
        )

    def to_dict(self) -> dict:
        return {
            "event": "monitor_end",
            "ok": self.ok,
            "metrics": self.metrics.to_dict(),
            "quarantine": [
                {"line": line[:200], "error": error}
                for line, error in self.quarantine
            ],
        }


class Monitor:
    """Streams concurrent sessions through one compiled spec."""

    def __init__(
        self,
        check: CheckSpec,
        *,
        max_sessions: Optional[int] = None,
        idle_ttl_s: Optional[float] = None,
        batch: bool = True,
        batch_size: int = 4096,
        cache_entries: Optional[int] = None,
        resolve_at_eof: bool = False,
        on_verdict: Optional[Callable[[SessionVerdict], None]] = None,
        clock: Callable[[], float] = time.monotonic,
        compiled: Optional[CompiledProperty] = None,
    ) -> None:
        if compiled is not None and cache_entries is None:
            # An artifact-shipped property: reuse its pre-seeded caches
            # instead of re-elaborating (the shard-worker path).
            self.compiled = compiled
        else:
            caches = (
                ProgressionCaches(max_entries=cache_entries)
                if cache_entries is not None
                else None
            )
            self.compiled = CompiledProperty(check, caches=caches)
        self.formula = check.formula
        self.property_name = check.name
        self._observed = check.observed_attributes
        #: Decoder row id -> projected row id, and projected row content
        #: -> the first decoder row id that had it (:meth:`_cohort_key`).
        self._projected: Dict[int, int] = {}
        self._projections: Dict[tuple, int] = {}
        self.table = SessionTable(
            max_sessions=max_sessions, idle_ttl_s=idle_ttl_s
        )
        self.batcher = BatchProgressor(self.compiled.caches, enabled=batch)
        self.metrics = MonitorMetrics()
        self.batch_size = max(1, batch_size)
        self.resolve_at_eof = resolve_at_eof
        self.on_verdict = on_verdict
        self._clock = clock
        self._started = clock()
        self._pending: List[MonitorRecord] = []
        self._quarantine: List[Tuple[str, str]] = []
        self._intern = intern_delta()
        self._finished = False
        # Checkpoint-restore baselines: deltas measured against
        # process-wide tables (intern, caches) and the process clock
        # restart at zero after a restore; report() adds these so the
        # final report covers the whole logical stream.
        self._intern_base_hits = 0
        self._intern_base_misses = 0
        self._cache_base_evictions = 0
        self._cache_base_trims = 0

    # -- feeding -------------------------------------------------------

    def feed_line(self, line: str) -> None:
        """Ingest one wire line; malformed input is quarantined."""
        started = time.perf_counter()
        try:
            record = parse_record(line)
        except RecordError as error:
            self.metrics.malformed_records += 1
            if len(self._quarantine) < _QUARANTINE_SAMPLES:
                self._quarantine.append((line.strip(), str(error)))
            return
        finally:
            self.metrics.parse_s += time.perf_counter() - started
        if record is not None:
            self.feed_record(record)

    def count_ingest(self, dropped: int, depth: Optional[int] = None) -> None:
        """Add ``dropped`` lines shed before parsing; sample the ingest
        queue's ``depth`` when given (:meth:`run_queue` calls this per
        batch)."""
        self.metrics.dropped_records += dropped
        if depth is not None:
            self.metrics.sample_queue_depth(depth)

    def feed_record(self, record: MonitorRecord) -> None:
        self.metrics.records_ingested += 1
        self._pending.append(record)
        if len(self._pending) >= self.batch_size:
            self.flush()

    # -- processing ----------------------------------------------------

    def flush(self) -> None:
        """Process every pending record in session-ordered rounds: round
        k holds the k-th pending record of every session, in arrival
        order."""
        pending = self._pending
        self._pending = []
        rounds: List[List[MonitorRecord]] = []
        ordinals: Dict[str, int] = {}
        for record in pending:
            ordinal = ordinals.get(record.session_id, 0)
            ordinals[record.session_id] = ordinal + 1
            if ordinal == len(rounds):
                rounds.append([])
            rounds[ordinal].append(record)
        for round_records in rounds:
            self.metrics.ticks += 1
            self._apply_round(round_records)
        self._sweep_idle()
        self.metrics.sessions_live = len(self.table)

    def _apply_round(self, records: List[MonitorRecord]) -> None:
        now = self._clock()
        work: List[Tuple[SessionEntry, object, StateKey]] = []
        for record in records:
            entry = self.table.get(record.session_id)
            if entry is None:
                if self.table.retired_reason(record.session_id) is not None:
                    # Late: the session already resolved (or was evicted).
                    self.metrics.late_records += 1
                    continue
                entry = self._open_session(record.session_id, now)
            else:
                self.table.touch(entry, now)
            if record.end:
                self._resolve_end(entry, reason="")
            else:
                work.append((entry, record.state, self._cohort_key(record)))
        if not work:
            return
        started = time.perf_counter()
        outcomes = self.batcher.run_round(work)
        self.metrics.progress_s += time.perf_counter() - started
        self.metrics.states_applied = self.batcher.session_steps
        self.metrics.cohort_steps = self.batcher.cohort_steps
        for (entry, _state, _key), outcome in zip(work, outcomes):
            if self.table.get(entry.session_id) is not entry:
                # Evicted mid-round by a later arrival's LRU overflow;
                # its inconclusive disposition is already out.
                continue
            if outcome.error is not None:
                self._emit(SessionVerdict(
                    session_id=entry.session_id,
                    verdict=None,
                    forced=False,
                    disposition="error",
                    reason=outcome.error,
                    states=entry.states_seen,
                ))
                self.metrics.sessions_errored += 1
                self.metrics.record_verdict("error")
                self.table.retire(entry.session_id, "error")
                continue
            entry.states_seen += 1
            entry.verdict = outcome.verdict
            entry.residual = outcome.residual
            if outcome.size > entry.max_formula_size:
                entry.max_formula_size = outcome.size
            if outcome.size > self.metrics.max_formula_size:
                self.metrics.max_formula_size = outcome.size
            if outcome.verdict.is_definitive:
                self._emit(SessionVerdict(
                    session_id=entry.session_id,
                    verdict=outcome.verdict.name,
                    forced=False,
                    disposition="definitive",
                    reason="",
                    states=entry.states_seen,
                ))
                self.metrics.sessions_finished += 1
                self.metrics.record_verdict(outcome.verdict.name)
                self.table.retire(entry.session_id, "finished")

    def _cohort_key(self, record: MonitorRecord) -> StateKey:
        """``record``'s state key with every row's attributes projected
        onto the observed ones: a row's projected id is the first
        decoder row id whose elements project to the same fields.
        Decoder ids are never reused, so a table reset only splits
        cohorts; ``None`` observed keeps the decoder's key."""
        observed = self._observed
        if observed is None:
            return record.state_key
        rows, happened = record.state_key
        projected, projections = self._projected, self._projections
        queries = record.state.queries
        key = []
        for selector, row_id in rows:
            projected_id = projected.get(row_id)
            if projected_id is None:
                content = tuple([key_fields(element, observed)
                                 for element in queries[selector]])
                projected_id = projections.get(content)
                if projected_id is None:
                    projected_id = row_id
                    if None not in content:  # else: off the wire types
                        if len(projections) >= _PROJECTION_LIMIT:
                            projections.clear()
                        projections[content] = row_id
                if len(projected) >= _PROJECTION_LIMIT:
                    projected.clear()
                projected[row_id] = projected_id
            key.append((selector, projected_id))
        return tuple(key), happened

    def _open_session(self, session_id: str, now: float) -> SessionEntry:
        entry, evicted = self.table.open(session_id, self.formula, now)
        self.metrics.sessions_started += 1
        for victim in evicted:
            self._emit_eviction(victim, "evicted:lru")
            self.metrics.evicted_lru += 1
        return entry

    def _resolve_end(self, entry: SessionEntry, reason: str) -> None:
        verdict = entry.verdict
        forced = False
        if verdict is Verdict.DEMAND:
            # Exactly the offline checker's budget-exhausted resolution.
            verdict = force_verdict(entry.residual)
            forced = True
        self._emit(SessionVerdict(
            session_id=entry.session_id,
            verdict=verdict.name,
            forced=forced,
            disposition="ended",
            reason=reason,
            states=entry.states_seen,
        ))
        self.metrics.sessions_finished += 1
        self.metrics.record_verdict(verdict.name)
        self.table.retire(entry.session_id, "finished")

    def _sweep_idle(self) -> None:
        for victim in self.table.sweep_idle(self._clock()):
            self._emit_eviction(victim, "evicted:idle")
            self.metrics.evicted_idle += 1

    def _emit_eviction(self, entry: SessionEntry, reason: str) -> None:
        self._emit(SessionVerdict(
            session_id=entry.session_id,
            verdict=None,
            forced=False,
            disposition="inconclusive",
            reason=reason,
            states=entry.states_seen,
        ))
        self.metrics.sessions_evicted += 1
        self.metrics.record_verdict("inconclusive")

    def _emit(self, verdict: SessionVerdict) -> None:
        if self.on_verdict is not None:
            self.on_verdict(verdict)

    # -- checkpointing -------------------------------------------------

    def checkpoint_to(self, directory: str) -> str:
        """Flush, then atomically snapshot this monitor's state under
        ``directory`` as shard 0 of width 1 (see
        :mod:`repro.monitor.checkpoint`).

        Returns the checkpoint path.  Safe to call on any cadence: the
        flush makes the snapshot quiescent, the write is atomic, and a
        crash mid-write leaves the previous checkpoint intact.  Other
        widths' files are pruned once this one is down.
        """
        from .checkpoint import prune_shard_checkpoints, save_shard_checkpoint

        self.flush()
        path = save_shard_checkpoint(self, directory, 0, 1)
        prune_shard_checkpoints(directory, 1)
        return path

    def restore_from(self, directory: str) -> dict:
        """Resume from the checkpoint under ``directory``, whatever
        width wrote it (the shards merge into this one monitor).

        Must be called on a *fresh* monitor for the same property:
        live sessions re-enter the table with their residuals, the
        retired ring still recognises late records, and metrics resume
        cumulatively -- the eventual report counts the whole logical
        stream, as if the process had never died.  Returns the
        checkpoint header.
        """
        from .checkpoint import load_checkpoint, restore_snapshot

        header, snapshot = load_checkpoint(directory, self.property_name)
        restore_snapshot(self, snapshot)
        return header

    # -- finishing -----------------------------------------------------

    def suspend(self, checkpoint_dir: Optional[str] = None) -> MonitorReport:
        """Report without draining: open sessions stay open.

        The checkpoint-enabled EOF path -- open sessions were just
        checkpointed, so resolving them ``inconclusive`` would be a
        lie; a later ``--restore`` run picks them up instead.  Passing
        ``checkpoint_dir`` saves a final checkpoint (:meth:`checkpoint_to`)
        before reporting.
        """
        if checkpoint_dir is not None:
            self.checkpoint_to(checkpoint_dir)
        else:
            self.flush()
        return self.report()

    def finish(self) -> MonitorReport:
        """Flush, resolve/discard remaining sessions, freeze metrics."""
        if self._finished:
            return self.report()
        self._finished = True
        self.flush()
        for entry in self.table.drain():
            if self.resolve_at_eof:
                self._resolve_end(entry, reason="eof")
            else:
                self._emit(SessionVerdict(
                    session_id=entry.session_id,
                    verdict=None,
                    forced=False,
                    disposition="inconclusive",
                    reason="eof",
                    states=entry.states_seen,
                ))
                self.metrics.record_verdict("inconclusive")
        self.metrics.sessions_live = 0
        return self.report()

    def report(self) -> MonitorReport:
        """The current report (finalised counters, live or finished)."""
        metrics = self.metrics
        metrics.wall_s = max(0.0, self._clock() - self._started)
        metrics.intern_hits = self._intern_base_hits + self._intern.hits
        metrics.intern_misses = (
            self._intern_base_misses + self._intern.misses
        )
        metrics.cache_evictions = (
            self._cache_base_evictions + self.compiled.caches.evicted_entries
        )
        metrics.cache_trims = (
            self._cache_base_trims + self.compiled.caches.trims
        )
        return MonitorReport(
            metrics=metrics, quarantine=list(self._quarantine)
        )

    def heartbeat_line(self, queue_depth: int) -> str:
        """The periodic stderr one-liner (:meth:`MonitorMetrics.heartbeat_line`)."""
        return self.metrics.heartbeat_line(queue_depth)

    # -- drivers -------------------------------------------------------
    #
    # The only monitor loop: ShardedMonitor binds these two functions
    # too, so they use nothing but feed_line, count_ingest, flush,
    # checkpoint_to, suspend, finish, heartbeat_line, batch_size and
    # _clock.

    def run_lines(self, lines: Iterable[str]) -> MonitorReport:
        """Drive a finite in-memory/file stream to completion."""
        for line in lines:
            self.feed_line(line)
        return self.finish()

    def run_queue(
        self,
        queue: IngestQueue,
        *,
        heartbeat_s: Optional[float] = None,
        heartbeat_stream: Optional[IO[str]] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_period_s: float = 5.0,
    ) -> MonitorReport:
        """Drain an :class:`IngestQueue` until its producers close it.

        Each batch is fed, counted (the lines the queue shed since the
        last batch, and its depth) and flushed; the flush runs even
        when the wait comes back empty, so TTL sweeps never wait for
        traffic.  ``heartbeat_s`` prints :meth:`heartbeat_line` to
        ``heartbeat_stream`` on that period.

        ``checkpoint_dir`` snapshots the monitor there every
        ``checkpoint_period_s`` (between drains, so every checkpoint is
        quiescent) and once more at EOF -- and switches EOF from
        :meth:`finish` to :meth:`suspend`: open sessions live on in the
        final checkpoint instead of resolving ``inconclusive``, so a
        ``--restore`` run continues them seamlessly.
        """
        wait = _IDLE_WAIT_S
        if heartbeat_s is not None:
            wait = min(wait, heartbeat_s)
        if checkpoint_dir is not None:
            wait = min(wait, checkpoint_period_s)
        last_beat = last_checkpoint = self._clock()
        counted = 0
        while True:
            batch = queue.get_batch(self.batch_size, timeout_s=wait)
            if batch is None:
                break
            depth = queue.depth() + len(batch) if batch else None
            for line in batch:
                self.feed_line(line)
            dropped = queue.dropped
            self.count_ingest(dropped - counted, depth)
            counted = dropped
            self.flush()
            now = self._clock()
            if (checkpoint_dir is not None
                    and now - last_checkpoint >= checkpoint_period_s):
                last_checkpoint = now
                self.checkpoint_to(checkpoint_dir)
            if (heartbeat_s is not None and heartbeat_stream is not None
                    and now - last_beat >= heartbeat_s):
                last_beat = now
                print(self.heartbeat_line(queue.depth()),
                      file=heartbeat_stream, flush=True)
        self.count_ingest(queue.dropped - counted)
        if checkpoint_dir is not None:
            return self.suspend(checkpoint_dir)
        return self.finish()
