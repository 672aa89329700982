"""Sharded multi-process monitoring: N workers, one verdict stream.

The single-process :class:`~repro.monitor.service.Monitor` progresses
every session on one core.  :class:`ShardedMonitor` keeps that monitor
*exactly as it is* and scales it sideways: a dispatcher drains the
ingest stream, routes every line by a cheap hash of its session id
(peeked without a full JSON parse -- see :func:`peek_session_id`), and
feeds N worker processes, each running today's ``Monitor`` -- its own
:class:`~repro.monitor.table.SessionTable`,
:class:`~repro.monitor.batch.BatchProgressor` and
:class:`~repro.quickltl.ProgressionCaches` -- over a
:class:`~repro.artifact.build.CompiledSpec` shipped as artifact bytes,
so workers load instead of re-elaborating (the same discipline remote
checker workers follow).

Because the router partitions *sessions* (never records of one session)
and per-session record order is preserved end to end, the sharded
monitor's verdict multiset is identical to the single-process monitor's
for any shard count and any record interleaving -- asserted by
``tests/monitor/test_shard.py`` and the fuzzer's monitor-oracle leg.
The one caveat: ``max_sessions``/``idle_ttl_s`` caps apply *per shard*,
so eviction choices (which depend on global LRU order) are equivalent
only in aggregate, not victim-for-victim.

Dispatch channels reuse the ingest queue's backpressure discipline
(:mod:`repro.monitor.ingest`): bounded multiprocessing queues of line
chunks, ``block`` stalling the dispatcher and ``drop`` shedding the
incoming chunk (counted, surfaced as ``dropped_records``).  Control
messages (ticks, checkpoints, shutdown) always block -- backpressure
may shed data, never protocol.

The dispatcher is no second monitor loop: :class:`ShardedMonitor`
binds :meth:`Monitor.run_queue` and :meth:`Monitor.run_lines`, and
every shard -- a worker process, or a ``Monitor`` in the caller's
thread under the ``inline`` transport -- serves the dispatcher's
messages through one handler, :func:`serve_shard`.  Lines the ingest
queue or a ``drop`` channel shed, and the ingest depth samples, ride to
shard 0 with the next tick, so they are checkpointed, restored and
merged like every other counter.

Checkpoints use the one layout of :mod:`repro.monitor.checkpoint`: one
``QSRC`` file per shard (``shard-NN-of-WW.qsc``).  Restore loads the
complete width on disk that covers the most records -- N shard files,
or a single-process monitor's width-1 file -- and re-partitions the
merged snapshot through the router, so the shard count may change
across a restart.
"""

from __future__ import annotations

import json
import multiprocessing
import queue as queue_module
import threading
import time
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..artifact.codec import decode, encode
from .checkpoint import (
    _empty_snapshot,
    load_checkpoint,
    prune_shard_checkpoints,
    restore_snapshot,
    save_shard_checkpoint,
)
from .metrics import MonitorMetrics
from .service import (
    _QUARANTINE_SAMPLES,
    Monitor,
    MonitorReport,
    SessionVerdict,
)

__all__ = [
    "ShardRouter",
    "ShardedMonitor",
    "ShardedMonitorReport",
    "peek_session_id",
    "serve_shard",
    "split_snapshot",
]

#: Chunks a dispatch channel holds before ``block`` stalls the
#: dispatcher (or ``drop`` sheds).
_CHANNEL_CAPACITY = 64

#: Lines per dispatched chunk.
_CHUNK_SIZE = 256


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


def peek_session_id(line: str) -> Optional[str]:
    """The record's top-level ``"session"`` value, without a full parse.

    A depth- and string-aware scan over the raw line: only a key at
    object depth 1 named ``session`` matches (a nested ``"session"``
    inside the state payload never mis-routes), string values are
    JSON-decoded (escapes intact) and integer values canonicalised to
    their decimal string, exactly like
    :func:`~repro.monitor.records.parse_record`.  Returns ``None`` for
    anything else -- blank lines, non-objects, a missing or ill-typed
    tag -- which the router sends to shard 0, whose monitor quarantines
    it through the ordinary malformed-record path.
    """
    text = line.strip()
    if not text or text[0] != "{":
        return None
    i, n = 1, len(text)
    depth = 1
    while i < n:
        char = text[i]
        if char == '"':
            # Scan one string token (key or value).
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == '"':
                    break
                j += 1
            if j >= n:
                return None
            raw = text[i:j + 1]
            i = j + 1
            while i < n and text[i] in " \t\r\n":
                i += 1
            if i < n and text[i] == ":" and depth == 1 and raw == '"session"':
                i += 1
                while i < n and text[i] in " \t\r\n":
                    i += 1
                if i >= n:
                    return None
                value = text[i]
                if value == '"':
                    j = i + 1
                    while j < n:
                        if text[j] == "\\":
                            j += 2
                            continue
                        if text[j] == '"':
                            break
                        j += 1
                    if j >= n:
                        return None
                    try:
                        decoded = json.loads(text[i:j + 1])
                    except ValueError:
                        return None
                    return decoded or None
                j = i + (1 if value == "-" else 0)
                start = j
                while j < n and text[j].isdigit():
                    j += 1
                if j == start or (j < n and text[j] in ".eE"):
                    return None  # not a plain integer
                try:
                    return str(int(text[i:j]))
                except ValueError:  # past the interpreter's digit limit
                    return None
            continue
        if char in "{[":
            depth += 1
        elif char in "}]":
            depth -= 1
            if depth <= 0:
                return None
        i += 1
    return None


class ShardRouter:
    """Deterministic session-id -> shard-index partition.

    CRC32 rather than :func:`hash`: Python's string hash is salted per
    process, and the route must be identical across workers, restarts
    and re-sharding restores.  Ids are hashed as UTF-8, with lone
    surrogates (which a JSON ``\\ud800`` escape decodes to) passed
    through rather than refused.
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards}")
        self.shards = shards

    def shard_of(self, session_id: str) -> int:
        encoded = session_id.encode("utf-8", "surrogatepass")
        return zlib.crc32(encoded) % self.shards

    def route(self, line: str) -> int:
        """The shard for one wire line (0 when no session id peeks out)."""
        session_id = peek_session_id(line)
        return 0 if session_id is None else self.shard_of(session_id)


def split_snapshot(snapshot: dict, router: ShardRouter) -> List[dict]:
    """Partition a whole-monitor snapshot into per-shard snapshots.

    Live entries and the retired ring route by session id, so every
    session's state lands on the shard that will receive its future
    records.  Aggregate counters/metrics cannot be attributed to a
    shard after a merge, so they ride on shard 0 -- the merged report
    (which sums) still covers the whole logical stream.
    """
    parts = [_empty_snapshot() for _ in range(router.shards)]
    for item in snapshot["entries"]:
        parts[router.shard_of(item["session_id"])]["entries"].append(item)
    for session_id, reason in snapshot["retired"]:
        parts[router.shard_of(session_id)]["retired"].append(
            (session_id, reason)
        )
    parts[0]["metrics"] = snapshot["metrics"]
    parts[0]["quarantine"] = list(snapshot["quarantine"])
    return parts


# ----------------------------------------------------------------------
# Dispatch channels
# ----------------------------------------------------------------------


class ShardChannel:
    """One bounded dispatch channel to a shard worker.

    The ingest queue's backpressure discipline over a multiprocessing
    queue of line *chunks*: ``block`` stalls the dispatcher on a full
    channel, ``drop`` sheds the incoming chunk and counts every line in
    it.  Control messages always block: protocol is never shed.
    """

    def __init__(self, ctx, capacity: int, policy: str) -> None:
        if policy not in ("block", "drop"):
            raise ValueError(f"policy must be 'block' or 'drop', got {policy!r}")
        self.queue = ctx.Queue(capacity)
        self.policy = policy
        self.dropped = 0

    def send_lines(self, chunk: List[str]) -> None:
        if self.policy == "drop":
            try:
                self.queue.put_nowait(("lines", chunk))
            except queue_module.Full:
                self.dropped += len(chunk)
        else:
            self.queue.put(("lines", chunk))

    def send_control(self, message: tuple) -> None:
        self.queue.put(message)

    def depth(self) -> int:
        """Chunks in flight (approximate; 0 where unsupported)."""
        try:
            return self.queue.qsize()
        except (NotImplementedError, OSError):  # pragma: no cover
            return 0


# ----------------------------------------------------------------------
# The shard handler
# ----------------------------------------------------------------------


def serve_shard(
    monitor: Monitor, index: int, shards: int, message: tuple
) -> Optional[Tuple[str, object]]:
    """Serve one dispatcher message on shard ``index``'s monitor.

    Worker processes call this in their loop; inline shards are called
    directly.  Returns the ``(kind, payload)`` reply for the dispatcher
    (an ack, or the final ``report`` after ``suspend``/``finish``), or
    ``None`` when the message has none.
    """
    kind = message[0]
    if kind == "lines":
        for line in message[1]:
            monitor.feed_line(line)
    elif kind == "tick":
        monitor.count_ingest(message[1], message[2])
        monitor.flush()
    elif kind == "checkpoint":
        monitor.flush()
        save_shard_checkpoint(monitor, message[1], index, shards)
        return "checkpointed", None
    elif kind == "restore":
        restore_snapshot(monitor, decode(message[1]))
        return "restored", None
    elif kind == "suspend":
        monitor.flush()
        if message[1] is not None:
            save_shard_checkpoint(monitor, message[1], index, shards)
        report = monitor.suspend()
        return "report", (report.metrics, report.quarantine)
    else:  # "finish"
        report = monitor.finish()
        return "report", (report.metrics, report.quarantine)
    return None


def _shard_worker_main(
    index: int,
    shards: int,
    artifact: bytes,
    source_hash: str,
    property_name: str,
    monitor_kwargs: dict,
    inbox,
    outbox,
) -> None:
    """One shard worker: an ordinary :class:`Monitor` behind a channel.

    Loads the shipped artifact bytes (never re-elaborates), then serves
    its inbox until the final ``report``.  Any exception surfaces as an
    ``error`` message -- a shard must fail loudly, not hang the merge.
    """
    try:
        from ..artifact.resolver import SpecResolver

        bundle = SpecResolver().load_bytes(artifact, source_hash=source_hash)
        check = bundle.check_named(property_name)
        compiled = bundle.property_named(property_name)

        def emit(verdict: SessionVerdict) -> None:
            outbox.put((index, "verdict", verdict))

        monitor = Monitor(
            check, compiled=compiled, on_verdict=emit, **monitor_kwargs
        )
        while True:
            reply = serve_shard(monitor, index, shards, inbox.get())
            if reply is not None:
                outbox.put((index, *reply))
                if reply[0] == "report":
                    break
    except BaseException:  # pragma: no cover - exercised via error tests
        outbox.put((index, "error", traceback.format_exc()))


# ----------------------------------------------------------------------
# The sharded monitor
# ----------------------------------------------------------------------


@dataclass
class ShardedMonitorReport(MonitorReport):
    """A merged report plus the per-shard breakdown.

    ``metrics`` sums counters across shards (``wall_s`` and
    ``max_formula_size`` take the max -- shards run concurrently);
    ``quarantine`` concatenates shard samples up to the usual cap;
    ``shard_metrics`` keeps each worker's own counters and
    ``queue_depth_by_shard`` its dispatch-channel depth samples.
    """

    shard_metrics: List[MonitorMetrics] = field(default_factory=list)
    queue_depth_by_shard: Dict[int, List[int]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = super().to_dict()
        data["shards"] = len(self.shard_metrics)
        data["shard_metrics"] = [m.to_dict() for m in self.shard_metrics]
        data["queue_depth_by_shard"] = {
            str(index): samples
            for index, samples in sorted(self.queue_depth_by_shard.items())
        }
        return data


class ShardedMonitor:
    """N shards behind one dispatcher, reporting as one monitor.

    ``spec`` is a :class:`~repro.artifact.build.CompiledSpec` bundle
    (required for the ``process`` transport -- workers receive its
    artifact bytes) or a bare :class:`~repro.specstrom.module.CheckSpec`
    (``inline`` transport only -- the in-process twin used by the
    equivalence tests and the fuzz oracle: same router, handler and
    merge, with each shard's ``Monitor`` served in the caller's
    thread).
    """

    def __init__(
        self,
        spec,
        *,
        shards: int,
        property_name: Optional[str] = None,
        transport: str = "process",
        max_sessions: Optional[int] = None,
        idle_ttl_s: Optional[float] = None,
        batch: bool = True,
        cache_entries: Optional[int] = None,
        resolve_at_eof: bool = False,
        on_verdict: Optional[Callable[[SessionVerdict], None]] = None,
        channel_policy: str = "block",
        resolver=None,
    ) -> None:
        if transport not in ("process", "inline"):
            raise ValueError(
                f"transport must be 'process' or 'inline', got {transport!r}"
            )
        from ..artifact.build import CompiledSpec

        if isinstance(spec, CompiledSpec):
            check = spec.check_named(property_name)
            compiled = spec.property_named(property_name)
        elif transport == "inline":
            check, compiled = spec, None
        else:
            raise TypeError(
                "the process transport ships artifact bytes; pass a "
                "CompiledSpec bundle (compile the spec first) or use "
                "transport='inline'"
            )
        self.router = ShardRouter(shards)
        self.shards = shards
        self.transport = transport
        self.property_name = check.name
        self.on_verdict = on_verdict
        self._clock = time.monotonic
        self._buffers: List[List[str]] = [[] for _ in range(shards)]
        self._dispatched = 0
        # Ingest drops run_queue counted, how many drops (ingest plus
        # channel) shard 0 has been sent, and the ingest depth to send.
        self._ingest_dropped = 0
        self._forwarded_dropped = 0
        self._unsent_depth: Optional[int] = None
        self._depth_samples: Dict[int, List[int]] = {
            index: [] for index in range(shards)
        }
        self._finished: Optional[ShardedMonitorReport] = None
        self._cond = threading.Condition(threading.Lock())
        self._acks: Dict[str, List[int]] = {"checkpointed": [], "restored": []}
        self._reports: Dict[int, Tuple[MonitorMetrics, list]] = {}
        self._errors: List[Tuple[int, str]] = []
        self._collector_stop = threading.Event()
        self._monitors: List[Monitor] = []
        self._channels: List[ShardChannel] = []
        self._workers: list = []
        monitor_kwargs = dict(
            max_sessions=max_sessions,
            idle_ttl_s=idle_ttl_s,
            batch=batch,
            cache_entries=cache_entries,
            resolve_at_eof=resolve_at_eof,
        )

        if transport == "inline":
            self._monitors = [
                Monitor(check, compiled=compiled, on_verdict=self._emit,
                        **monitor_kwargs)
                for _ in range(shards)
            ]
            return

        if resolver is None:
            from ..artifact.resolver import SpecResolver

            resolver = SpecResolver()
        artifact = resolver.encoded(spec)
        # Fork context, like the pool's ForkTransport: workers inherit
        # the parent's imports; the artifact bytes are re-decoded per
        # process so each worker interns into its own table.
        ctx = multiprocessing.get_context("fork")
        self._outbox = ctx.Queue()
        self._channels = [
            ShardChannel(ctx, _CHANNEL_CAPACITY, channel_policy)
            for _ in range(shards)
        ]
        self._workers = [
            ctx.Process(
                target=_shard_worker_main,
                args=(
                    index,
                    shards,
                    artifact,
                    spec.source_hash,
                    self.property_name,
                    monitor_kwargs,
                    self._channels[index].queue,
                    self._outbox,
                ),
                daemon=True,
                name=f"monitor-shard-{index}",
            )
            for index in range(shards)
        ]
        collector = threading.Thread(
            target=self._collect, daemon=True, name="monitor-shard-collect"
        )
        for worker in self._workers:
            worker.start()
        collector.start()

    # -- verdict / message plumbing ------------------------------------

    def _emit(self, verdict: SessionVerdict) -> None:
        if self.on_verdict is not None:
            self.on_verdict(verdict)

    def _send(self, index: int, message: tuple) -> None:
        """Deliver one message to shard ``index``.

        Process shards get it through their channel (only ``lines``
        may be shed); inline shards serve it at once, and their reply
        goes where the collector puts the workers' replies.
        """
        if self.transport == "inline":
            reply = serve_shard(self._monitors[index], index, self.shards,
                                message)
            if reply is not None:
                self._deliver(index, *reply)
        elif message[0] == "lines":
            self._channels[index].send_lines(message[1])
        else:
            self._channels[index].send_control(message)

    def _deliver(self, index: int, kind: str, payload) -> None:
        if kind == "verdict":
            self._emit(payload)
            return
        with self._cond:
            if kind == "report":
                self._reports[index] = payload
            elif kind == "error":
                self._errors.append((index, payload))
            else:
                self._acks[kind].append(index)
            self._cond.notify_all()

    def _collect(self) -> None:
        pending = self.shards
        while pending:
            try:
                index, kind, payload = self._outbox.get(timeout=0.2)
            except queue_module.Empty:
                if self._collector_stop.is_set():
                    return
                continue
            self._deliver(index, kind, payload)
            if kind in ("report", "error"):
                pending -= 1

    def _wait(self, predicate, timeout_s: float = 120.0) -> None:
        with self._cond:
            done = self._cond.wait_for(
                lambda: bool(self._errors) or predicate(), timeout_s
            )
            if self._errors:
                index, text = self._errors[0]
                raise RuntimeError(f"monitor shard {index} failed:\n{text}")
            if not done:
                raise RuntimeError(
                    "timed out waiting for monitor shard workers"
                )

    def _round(self, ack: str, messages: List[tuple]) -> None:
        """Send shard ``i`` ``messages[i]``; wait for every ``ack``."""
        with self._cond:
            self._acks[ack] = []
        for index, message in enumerate(messages):
            self._send(index, message)
        self._wait(lambda: len(self._acks[ack]) >= self.shards)

    # -- feeding -------------------------------------------------------

    def feed_line(self, line: str) -> None:
        """Route one wire line to its session's shard."""
        index = self.router.route(line)
        buffer = self._buffers[index]
        buffer.append(line)
        if len(buffer) >= _CHUNK_SIZE:
            self._ship(index)

    def feed_lines(self, lines: Iterable[str]) -> None:
        for line in lines:
            self.feed_line(line)

    def _ship(self, index: int) -> None:
        chunk = self._buffers[index]
        self._buffers[index] = []
        self._dispatched += len(chunk)
        self._send(index, ("lines", chunk))

    def count_ingest(self, dropped: int, depth: Optional[int] = None) -> None:
        """Hold ingest counts for shard 0's next tick (see
        :meth:`Monitor.count_ingest`); sample the channels' depths."""
        self._ingest_dropped += dropped
        if depth is None:
            return
        self._unsent_depth = max(depth, self._unsent_depth or 0)
        for index, channel in enumerate(self._channels):
            samples = self._depth_samples[index]
            if len(samples) < 10_000:
                samples.append(channel.depth() * _CHUNK_SIZE)

    def flush(self) -> None:
        """Ship partial chunks and send every shard its idle tick.

        Shard 0's tick carries the ingest and channel drops since the
        last tick, and the newest ingest depth.
        """
        for index, buffer in enumerate(self._buffers):
            if buffer:
                self._ship(index)
        dropped = self._ingest_dropped + self.channel_dropped
        self._send(0, ("tick", dropped - self._forwarded_dropped,
                       self._unsent_depth))
        self._forwarded_dropped = dropped
        self._unsent_depth = None
        for index in range(1, self.shards):
            self._send(index, ("tick", 0, None))

    @property
    def channel_dropped(self) -> int:
        """Lines shed by ``drop``-policy dispatch channels."""
        return sum(channel.dropped for channel in self._channels)

    def heartbeat_line(self, queue_depth: int) -> str:
        """The dispatcher-side stderr one-liner (per-shard metrics
        arrive with the final merged report)."""
        return (
            f"[monitor] shards={self.shards} "
            f"dispatched={self._dispatched} "
            f"queue={queue_depth} "
            f"shed={self.channel_dropped} "
            f"dropped={self._ingest_dropped}"
        )

    # -- checkpoint / restore ------------------------------------------

    def checkpoint_to(self, directory: str) -> str:
        """Flush, then checkpoint every shard (one ``QSRC`` file each).

        Only after *all* shards ack does the round prune other widths'
        files -- a crash mid-round leaves the previous complete round
        restorable, never an empty directory.
        """
        self.flush()
        self._round("checkpointed",
                    [("checkpoint", directory)] * self.shards)
        prune_shard_checkpoints(directory, self.shards)
        return directory

    def restore_from(self, directory: str) -> dict:
        """Resume from ``directory``, whatever width wrote it.

        Loads the merged snapshot (:func:`load_checkpoint`) and
        re-partitions it through the router, so restoring under a
        different shard count -- or from a single-process run -- is the
        same code path as the exact-match case.  Returns the header.
        """
        header, snapshot = load_checkpoint(directory, self.property_name)
        parts = split_snapshot(snapshot, self.router)
        self._round("restored", [("restore", encode(part)) for part in parts])
        return header

    # -- finishing -----------------------------------------------------

    def suspend(
        self, checkpoint_dir: Optional[str] = None
    ) -> "ShardedMonitorReport":
        """Report without draining (checkpointing first when asked)."""
        return self._shutdown(("suspend", checkpoint_dir))

    def finish(self) -> "ShardedMonitorReport":
        """Resolve/discard remaining sessions on every shard; merge."""
        return self._shutdown(("finish",))

    def _shutdown(self, message: tuple) -> "ShardedMonitorReport":
        if self._finished is not None:
            return self._finished
        self.flush()
        for index in range(self.shards):
            self._send(index, message)
        self._wait(lambda: len(self._reports) >= self.shards)
        self._collector_stop.set()
        for worker in self._workers:
            worker.join(timeout=10.0)
        if message[0] == "suspend" and message[1] is not None:
            prune_shard_checkpoints(message[1], self.shards)
        shard_metrics = [self._reports[i][0] for i in range(self.shards)]
        quarantine: List[Tuple[str, str]] = []
        for index in range(self.shards):
            for line, error in self._reports[index][1]:
                if len(quarantine) >= _QUARANTINE_SAMPLES:
                    break
                quarantine.append((line, error))
        self._finished = ShardedMonitorReport(
            metrics=MonitorMetrics.merged(shard_metrics),
            quarantine=quarantine,
            shard_metrics=shard_metrics,
            queue_depth_by_shard={
                index: list(samples)
                for index, samples in self._depth_samples.items()
            },
        )
        return self._finished

    def stop(self) -> None:
        """Hard-stop workers (error paths/tests); no report."""
        self._collector_stop.set()
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
        for worker in self._workers:
            worker.join(timeout=5.0)

    # -- Monitor's own loop --------------------------------------------

    run_lines = Monitor.run_lines
    run_queue = Monitor.run_queue
