"""Monitor checkpoint/restore: crash-safe snapshots of the session table.

A long-running monitor accumulates state that is expensive to lose: the
residual formula of every live session (the whole point of online
checking -- a session observed for an hour cannot be re-observed), the
retired ring that distinguishes *late* records from *new* sessions, and
the run's metrics.  A checkpoint captures exactly that, in the artifact
container format (:mod:`repro.artifact.format`, ``QSRC`` magic) with
the artifact codec's re-interning payload encoding
(:mod:`repro.artifact.codec`) -- restored residuals land in the
process-wide hash-cons table, so a million structurally identical
restored sessions still intern to one node.

One layout serves every width: a checkpoint directory holds one file
per shard, named by index and width (``shard-00-of-04.qsc`` ...
``shard-03-of-04.qsc``).  A single-process monitor is shard 0 of width
1 (``shard-00-of-01.qsc``).  A round prunes other widths' files only
after all of its own shards have written, so a width change never
destroys the previous complete round before the new one exists.
:func:`load_checkpoint` keeps each width whose every index is present,
takes the one covering the most records, and merges its shards into one
whole-monitor snapshot; the restoring monitor re-partitions that
through its router, so the width may change across a restart.  A
directory with no complete width -- including one that holds only an
older ``monitor.qsc`` -- is refused, never restored empty.

Discipline:

* **atomic**: :func:`save_shard_checkpoint` writes tmp + fsync +
  rename, so a crash mid-write leaves the previous checkpoint intact,
  never a torn one;
* **quiescent**: the monitor applies every record as it is fed, so a
  checkpoint taken between two feeds has no in-flight record to lose
  -- the header's ``records_ingested`` is exact;
* **cumulative**: restored metrics are *baselines*, not resets -- a
  restored run's final report counts the whole logical stream, so
  ``kill -9`` + restore reports the same totals an uninterrupted run
  would;
* **rebased**: ``last_active`` clocks are rebased to the restoring
  process's clock (monotonic clocks do not survive a process), so the
  idle TTL measures observed idleness, not downtime.

The header is readable without decoding the payload
(:func:`read_checkpoint_header`), so an operator -- or the CI
kill-and-restore test -- can poll ``records_ingested`` to know exactly
how much of the stream a checkpoint covers.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Optional, Tuple

from ..artifact.codec import decode, encode
from ..artifact.errors import ArtifactFormatError
from ..artifact.format import CHECKPOINT_MAGIC, pack, sniff, unpack, write_atomic
from ..quickltl import Verdict
from .metrics import MonitorMetrics
from .table import SessionEntry

__all__ = [
    "checkpoint_bytes",
    "list_shard_checkpoints",
    "load_checkpoint",
    "load_checkpoint_payload",
    "merge_snapshots",
    "prune_shard_checkpoints",
    "read_checkpoint_header",
    "restore_snapshot",
    "save_shard_checkpoint",
    "shard_checkpoint_path",
    "snapshot_monitor",
]

#: Shard checkpoint files: ``shard-<index>-of-<width>.qsc``.
_SHARD_PATTERN = re.compile(r"^shard-(\d+)-of-(\d+)\.qsc$")

_FORMAT = "repro-monitor-checkpoint"


def shard_checkpoint_path(directory: str, index: int, shards: int) -> str:
    """Shard ``index`` of a ``shards``-wide round inside ``directory``."""
    return os.path.join(directory, f"shard-{index:02d}-of-{shards:02d}.qsc")


def _widths(directory: str) -> Dict[int, Dict[int, str]]:
    """``{width: {index: path}}`` for every shard file under ``directory``."""
    widths: Dict[int, Dict[int, str]] = {}
    try:
        names = os.listdir(directory)
    except OSError:
        return widths
    for name in names:
        match = _SHARD_PATTERN.match(name)
        if match:
            index, shards = int(match.group(1)), int(match.group(2))
            widths.setdefault(shards, {})[index] = os.path.join(directory, name)
    return widths


def list_shard_checkpoints(directory: str) -> List[Tuple[int, str]]:
    """``(shard_index, path)`` pairs under ``directory``, by width, then index."""
    return [
        (index, path)
        for _shards, files in sorted(_widths(directory).items())
        for index, path in sorted(files.items())
    ]


def prune_shard_checkpoints(directory: str, shards: int) -> None:
    """Delete the shard files of every width but ``shards``.

    Called only after a complete ``shards``-wide round has been
    written: the previous width's files must survive until then, and
    must not survive afterwards to be restored in place of the newer
    round.
    """
    for width, files in _widths(directory).items():
        if width == shards:
            continue
        for path in files.values():
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - raced by another pruner
                pass


def _empty_snapshot() -> dict:
    return {
        "entries": [],
        "retired": [],
        "metrics": MonitorMetrics(),
        "quarantine": [],
    }


def snapshot_monitor(monitor) -> dict:
    """The monitor's restorable state as a payload dict.

    The progressor's memo is not captured: a restored monitor starts
    it empty, so its later ``cohort_steps`` can only be higher.
    """
    report = monitor.report()  # folds intern/cache counts into metrics
    return {
        "entries": [
            {
                "session_id": entry.session_id,
                "residual": entry.residual,
                "verdict": entry.verdict.name,
                "states_seen": entry.states_seen,
                "max_formula_size": entry.max_formula_size,
                "idle_s": max(0.0, monitor._clock() - entry.last_active),
            }
            for entry in monitor.table.live_sessions()
        ],
        "retired": list(monitor.table._retired.items()),
        "metrics": report.metrics,
        "quarantine": list(report.quarantine),
    }


def checkpoint_bytes(monitor, index: int, shards: int) -> bytes:
    """Serialize a monitor, shard ``index`` of ``shards``, to checkpoint
    container bytes."""
    snapshot = snapshot_monitor(monitor)
    header = {
        "format": _FORMAT,
        "property": monitor.property_name,
        "records_ingested": snapshot["metrics"].records_ingested,
        "sessions_live": len(snapshot["entries"]),
        "shard": index,
        "shards": shards,
    }
    return pack(header, encode(snapshot), magic=CHECKPOINT_MAGIC)


def save_shard_checkpoint(
    monitor, directory: str, index: int, shards: int
) -> str:
    """Atomically write one shard's checkpoint under ``directory``.

    Returns the path.  The directory is created on first use; the write
    is tmp + fsync + rename so readers (and crashes) only ever see a
    complete file.
    """
    os.makedirs(directory, exist_ok=True)
    path = shard_checkpoint_path(directory, index, shards)
    write_atomic(path, checkpoint_bytes(monitor, index, shards))
    return path


def read_checkpoint_header(path: str) -> dict:
    """The checkpoint's JSON header, without decoding the payload.

    This is the cheap liveness probe: ``records_ingested`` says exactly
    how much of the stream the checkpoint covers.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    from ..artifact.format import read_header

    _version, header, _offset = read_header(data, magic=CHECKPOINT_MAGIC)
    return header


def load_checkpoint_payload(path: str) -> Tuple[dict, dict]:
    """Read one checkpoint file: ``(header, decoded_snapshot)``.

    Raises on a missing, foreign or torn file -- a restore must never
    silently start empty.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if not sniff(data, magic=CHECKPOINT_MAGIC):
        raise ArtifactFormatError(f"{path} is not a monitor checkpoint")
    header, payload = unpack(data, magic=CHECKPOINT_MAGIC)
    return header, decode(payload)


def load_checkpoint(directory: str, property_name: str) -> Tuple[dict, dict]:
    """The checkpoint under ``directory``: ``(header, merged_snapshot)``.

    Of the widths whose every shard file is present, the one whose
    headers sum the most ``records_ingested`` wins: a crash between a
    round's last write and its prune leaves two complete widths of the
    same sessions, and restoring both would count every session twice.
    The winner's shards merge into one whole-monitor snapshot.

    Raises :class:`~repro.artifact.ArtifactFormatError` when no width
    is complete or a shard checks another property, and
    :class:`~repro.artifact.ArtifactCorruptError` on a torn file.
    """
    best: Optional[Tuple[int, int, List[str]]] = None
    for shards, files in _widths(directory).items():
        if any(index not in files for index in range(shards)):
            continue
        paths = [files[index] for index in range(shards)]
        covered = sum(
            read_checkpoint_header(path)["records_ingested"]
            for path in paths
        )
        if best is None or (covered, shards) > best[:2]:
            best = (covered, shards, paths)
    if best is None:
        raise ArtifactFormatError(
            f"no monitor checkpoint found under {directory}"
        )
    snapshots = []
    for path in best[2]:
        header, snapshot = load_checkpoint_payload(path)
        if header.get("property") != property_name:
            raise ArtifactFormatError(
                f"checkpoint is for property {header.get('property')!r}, "
                f"monitor checks {property_name!r}"
            )
        snapshots.append(snapshot)
    merged = merge_snapshots(snapshots)
    return {
        "format": _FORMAT,
        "property": property_name,
        "records_ingested": merged["metrics"].records_ingested,
        "sessions_live": len(merged["entries"]),
        "shards": best[1],
    }, merged


def merge_snapshots(parts: List[dict]) -> dict:
    """Fold per-shard snapshots into one whole-monitor snapshot.

    Sessions are disjoint across shards (the router partitions by id),
    so entries, retired rings and quarantine samples concatenate (the
    restoring monitor re-caps the samples); metrics merge by
    :meth:`MonitorMetrics.merged`.
    """
    merged = _empty_snapshot()
    for part in parts:
        merged["entries"].extend(part["entries"])
        merged["retired"].extend(part["retired"])
        merged["quarantine"].extend(part["quarantine"])
    merged["metrics"] = MonitorMetrics.merged(
        [part["metrics"] for part in parts]
    )
    return merged


def restore_snapshot(monitor, snapshot: dict) -> None:
    """Load a decoded snapshot into a freshly constructed monitor.

    The monitor must be new (same spec, empty table); restored state
    *replaces* its table and rebases its metrics:

    * live sessions re-enter the table with their residuals (already
      re-interned by the codec) and their observed idle time, measured
      against the restoring clock -- downtime does not count as idle;
    * counters restore verbatim, the progressor's step and intern
      counts with them; cache counts and wall clock restore as
      baselines the new process's deltas add to, so the final report
      covers the whole logical stream.
    """
    now = monitor._clock()
    for item in snapshot["entries"]:
        entry = SessionEntry(
            session_id=item["session_id"],
            residual=item["residual"],
            verdict=Verdict[item["verdict"]],
            states_seen=item["states_seen"],
            max_formula_size=item["max_formula_size"],
            last_active=now - item.get("idle_s", 0.0),
        )
        monitor.table._entries[entry.session_id] = entry
    for session_id, reason in snapshot["retired"]:
        monitor.table._remember(session_id, reason)
    metrics = snapshot["metrics"]
    metrics.sessions_live = len(monitor.table)
    monitor.metrics = metrics
    # The property's cache counters restart at zero in a new process;
    # fold the checkpointed totals in as baselines.
    monitor._cache_base_evictions = metrics.cache_evictions
    monitor._cache_base_trims = metrics.cache_trims
    monitor._started = now - metrics.wall_s
    # The batcher's counters are the metrics' source of truth for
    # states_applied/cohort_steps and the intern counts from the next
    # step on; seed them.
    batcher = monitor.batcher
    batcher.session_steps = metrics.states_applied
    batcher.cohort_steps = metrics.cohort_steps
    batcher.intern_hits = metrics.intern_hits
    batcher.intern_misses = metrics.intern_misses
    from .service import _QUARANTINE_SAMPLES

    for line, error in snapshot["quarantine"]:
        if len(monitor._quarantine) >= _QUARANTINE_SAMPLES:
            break
        monitor._quarantine.append((line, error))
