"""The spec object codec: pickle with custom reducers for the hard parts.

A compiled spec is an object graph of three kinds of things:

* **formulas** -- hash-consed QuickLTL nodes.  Their own
  ``__reduce__`` already rebuilds through the interning constructors,
  so the stream is a children-first (topological) encoding that
  *re-interns on load*: decoding a formula in a process that already
  holds an equal one returns the existing node.  Deferred formulas are
  no exception: an evaluator-built :class:`~repro.quickltl.Defer`'s
  build is a :class:`~repro.specstrom.eval.Quote`, which pickles as its
  constructor arguments (body, captured values, subscript), so the
  cycle ``defer -> thunk -> environment -> binding -> defer`` is broken
  by pickle's own memo at the environment, like any other cycle.  A
  hand-built defer's closure does not pickle and is refused.
* **environments** -- plain dataclass chains, except the builtins root,
  which is process-specific (it binds the ``happened`` identity
  sentinel and ~50 builtin closures).  The root is replaced by a
  marker and re-created from :func:`global_environment` on load; the
  few builtin values that can leak into module bindings or quotes
  (:class:`BuiltinFunction`, ``HAPPENED``) rebuild by name.
* **everything else** -- AST nodes, snapshots, caches, verdicts: plain
  picklable data.

Artifacts are a local build product (like ``.pyc`` files), not a
network-facing interchange format; the payload is standard pickle and
should only be loaded from trusted paths.
"""

from __future__ import annotations

import io
import pickle

from ..specstrom.builtins import global_environment
from ..specstrom.eval import HAPPENED
from ..specstrom.values import BuiltinFunction, Environment
from .errors import ArtifactCorruptError, ArtifactEncodeError

__all__ = ["encode", "decode"]

#: Protocol 4 (3.4+) is the newest protocol every supported interpreter
#: (3.9-3.12) reads and writes identically.
_PROTOCOL = 4

_SHARED_BUILTINS: list = []


def _builtins_env() -> Environment:
    """One builtins root per process, shared by every decoded artifact
    (it is only ever read through)."""
    if not _SHARED_BUILTINS:
        _SHARED_BUILTINS.append(global_environment())
    return _SHARED_BUILTINS[0]


def _builtin_by_name(name: str) -> BuiltinFunction:
    try:
        value = _builtins_env().lookup(name)
    except Exception:
        raise ArtifactCorruptError(
            f"artifact references unknown builtin {name!r}"
        ) from None
    if not isinstance(value, BuiltinFunction):
        raise ArtifactCorruptError(f"builtin {name!r} is no longer a function")
    return value


def _happened() -> object:
    return HAPPENED


def _is_builtins_root(env: Environment) -> bool:
    return env.parent is None and env.bindings.get("happened") is HAPPENED


class _SpecPickler(pickle.Pickler):
    def reducer_override(self, obj):
        if type(obj) is Environment and _is_builtins_root(obj):
            return (_builtins_env, ())
        if type(obj) is BuiltinFunction:
            return (_builtin_by_name, (obj.name,))
        if obj is HAPPENED:
            return (_happened, ())
        return NotImplemented


def encode(obj: object) -> bytes:
    """Serialize a compiled-spec object graph to payload bytes."""
    buffer = io.BytesIO()
    try:
        _SpecPickler(buffer, protocol=_PROTOCOL).dump(obj)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise ArtifactEncodeError(f"spec payload is not serializable: {exc}") from exc
    return buffer.getvalue()


def decode(data: bytes) -> object:
    """Rebuild an object graph from payload bytes (re-interning formulas,
    deferred ones included, as a side effect)."""
    try:
        return pickle.loads(data)
    except ArtifactCorruptError:
        raise
    except Exception as exc:  # noqa: BLE001 - pickle raises a zoo of types
        raise ArtifactCorruptError(f"artifact payload does not decode: {exc}") from exc
