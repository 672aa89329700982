"""Online monitoring: concurrent sessions through the compiled engine.

Offline, a :class:`~repro.checker.runner.Runner` *generates* one trace
and checks it; the monitor is the other deployment mode the progression
semantics make almost free -- *observe* arbitrarily many already-running
sessions and progress each one's residual formula as its states stream
in.  Everything heavy is shared through one
:class:`~repro.checker.compiled.CompiledProperty` (hash-consed
residuals, memoized progression), and each monitor keeps one memo of
whole steps on top: every record with the same (state, residual) costs
a single progression step between them.

Layers, bottom up:

* :mod:`.records` -- the JSONL wire format and canonical state codec;
* :mod:`.ingest`  -- sources (file/stdin/TCP) behind one bounded queue;
* :mod:`.table`   -- the LRU/TTL-bounded per-session residual table;
* :mod:`.batch`   -- per-record progression through one bounded memo;
* :mod:`.metrics` -- counters, heartbeat, JSON summary;
* :mod:`.service` -- the :class:`Monitor` orchestrator and the one
  monitor loop (:meth:`Monitor.run_queue`);
* :mod:`.checkpoint` -- atomic snapshot/restore of the session table
  (``repro monitor --checkpoint DIR`` / ``--restore``), one file per
  shard at every width -- a single-process monitor is shard 0 of 1;
* :mod:`.shard`   -- the multi-process :class:`ShardedMonitor`: a
  session-hash router over N shards, each a ``Monitor`` (in a worker
  process over shipped artifact bytes, or inline) served by one
  message handler, driven by ``Monitor``'s loop (``--shards N``);
* :mod:`.replay`  -- recorded traces through the real ingest path (the
  monitor == checker equivalence harness, also the fuzzer's fifth leg);
* :mod:`.synth`   -- deterministic synthetic egg-timer streams for
  smoke tests and benchmarks.

Driven by ``repro monitor`` (see :mod:`repro.cli`).
"""

from .batch import BatchProgressor, StepOutcome
from .checkpoint import list_shard_checkpoints, read_checkpoint_header
from .ingest import IngestQueue, SocketIngestServer, StreamProducer, feed_lines
from .metrics import MonitorMetrics
from .records import (
    MonitorRecord,
    RecordError,
    encode_record,
    parse_record,
    snapshot_from_json,
    snapshot_to_json,
    state_key,
    trace_records,
)
from .replay import interleave_sessions, monitor_verdicts
from .service import Monitor, MonitorReport, SessionVerdict
from .shard import (
    ShardRouter,
    ShardedMonitor,
    ShardedMonitorReport,
    peek_session_id,
)
from .table import SessionEntry, SessionTable

__all__ = [
    "BatchProgressor",
    "StepOutcome",
    "list_shard_checkpoints",
    "read_checkpoint_header",
    "IngestQueue",
    "SocketIngestServer",
    "StreamProducer",
    "feed_lines",
    "MonitorMetrics",
    "MonitorRecord",
    "RecordError",
    "encode_record",
    "parse_record",
    "snapshot_from_json",
    "snapshot_to_json",
    "state_key",
    "trace_records",
    "interleave_sessions",
    "monitor_verdicts",
    "Monitor",
    "MonitorReport",
    "SessionVerdict",
    "SessionEntry",
    "SessionTable",
    "ShardRouter",
    "ShardedMonitor",
    "ShardedMonitorReport",
    "peek_session_id",
]
