"""Replay recorded traces through the monitor's real ingest path.

This is the monitor's equivalence harness: take traces an offline
campaign recorded, encode them onto the wire format, interleave them as
if N users were live at once, and stream the result through a
:class:`~repro.monitor.service.Monitor`.  Because the monitor's
progression and end-of-stream forcing mirror the offline
:class:`~repro.quickltl.FormulaChecker` exactly, the per-session
verdicts must equal the offline ones -- ``tests/monitor`` assert it
directly and the fuzzer's fifth leg
(:func:`repro.fuzz.oracles.monitor_oracle_mismatch`) cross-checks it on
every generated campaign.

The whole wire round-trip is exercised on purpose: traces go through
:func:`~repro.monitor.records.trace_records` (encode) and
:meth:`Monitor.feed_line` (parse), not through any in-memory shortcut,
so a codec asymmetry breaks the equivalence tests too.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from ..specstrom.module import CheckSpec
from .records import trace_records
from .service import Monitor, SessionVerdict

__all__ = ["interleave_sessions", "monitor_verdicts"]


def interleave_sessions(
    encoded: Mapping[str, Sequence[str]]
) -> Iterator[str]:
    """Round-robin merge per-session record streams into one wire stream.

    Per-session order is preserved (the only ordering the monitor
    promises to respect); sessions advance in lockstep, which is the
    adversarial schedule for the session table -- everyone is live at
    once.
    """
    cursors = {session: 0 for session in encoded}
    live = list(encoded.keys())
    while live:
        still_live = []
        for session in live:
            lines = encoded[session]
            cursor = cursors[session]
            if cursor < len(lines):
                yield lines[cursor]
                cursors[session] = cursor + 1
                still_live.append(session)
        live = still_live


def monitor_verdicts(
    check: CheckSpec,
    traces: Mapping[str, Sequence[object]],
    *,
    batch: bool = True,
    max_sessions: Optional[int] = None,
    cache_entries: Optional[int] = None,
    shards: Optional[int] = None,
) -> Dict[str, SessionVerdict]:
    """Stream recorded traces through a monitor; per-session verdicts.

    ``traces`` maps session id -> a recorded trace (state snapshots, or
    ``TraceEntry``-like objects carrying ``.state``).  Each trace is
    closed with an end record, so a session whose formula still demands
    states resolves by the same polarity rule as a finished offline
    test.

    ``shards`` > 1 replays through an inline-transport
    :class:`~repro.monitor.shard.ShardedMonitor` instead -- the same
    router, shard handler and merge as ``--shards N`` without worker
    processes, which is how the equivalence tests and the fuzzer's
    monitor oracle assert sharded ≡ single-process verdicts.
    """
    encoded = {
        session: trace_records(session, trace, end=True)
        for session, trace in traces.items()
    }
    verdicts: Dict[str, SessionVerdict] = {}

    def collect(verdict: SessionVerdict) -> None:
        verdicts[verdict.session_id] = verdict

    if shards is not None and shards > 1:
        from .shard import ShardedMonitor

        monitor = ShardedMonitor(
            check,
            shards=shards,
            transport="inline",
            batch=batch,
            max_sessions=max_sessions,
            cache_entries=cache_entries,
            on_verdict=collect,
        )
    else:
        monitor = Monitor(
            check,
            batch=batch,
            max_sessions=max_sessions,
            cache_entries=cache_entries,
            on_verdict=collect,
        )
    lines: List[str] = list(interleave_sessions(encoded))
    monitor.run_lines(lines)
    return verdicts
