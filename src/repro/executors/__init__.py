"""Executors: the systems the checker can drive."""

from .base import ActionFailed, Executor
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
