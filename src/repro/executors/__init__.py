"""Executors: the systems the checker can drive."""

from .base import (
    ActionFailed,
    AsyncExecutor,
    BlockingExecutor,
    Executor,
    LatencyExecutor,
    SyncExecutorAdapter,
    ensure_async_executor,
    ensure_sync_executor,
)
from .domexec import DomExecutor
from .ccs import (
    CCSDefinitions,
    Process,
    Nil,
    Prefix,
    Choice,
    Parallel,
    Restrict,
    Relabel,
    Ref,
    TAU,
    parse_ccs,
    parse_definitions,
    transitions,
    enabled_labels,
    CCSParseError,
)
from .ccsexec import CCSExecutor

__all__ = [
    "Executor",
    "AsyncExecutor",
    "BlockingExecutor",
    "SyncExecutorAdapter",
    "LatencyExecutor",
    "ensure_async_executor",
    "ensure_sync_executor",
    "DomExecutor",
    "ActionFailed",
    "CCSDefinitions",
    "Process",
    "Nil",
    "Prefix",
    "Choice",
    "Parallel",
    "Restrict",
    "Relabel",
    "Ref",
    "TAU",
    "parse_ccs",
    "parse_definitions",
    "transitions",
    "enabled_labels",
    "CCSParseError",
    "CCSExecutor",
]
