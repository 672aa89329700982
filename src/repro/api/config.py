"""SessionConfig: the consolidated knob surface for scheduled checking.

``CheckSession.check / check_many / check_all`` grew one keyword at a
time -- ``jobs``, ``reuse_executors``, reporter lists, with runner
flags (``stop_on_failure``, ``narrow_queries``, ``shrink``) squeezed
into per-call :class:`~repro.checker.config.RunnerConfig` rebuilds --
and the CLI re-assembled the same bundle from ``argparse`` flags by
hand.  :class:`SessionConfig` is that bundle as one value::

    cfg = SessionConfig(jobs=8, reuse_executors=False,
                        narrow_queries=False)
    session.check_many(targets, spec=spec, session=cfg)

The old bare keywords (``jobs=`` / ``reporters=`` /
``reuse_executors=`` on the check methods) went through one release of
``DeprecationWarning`` and are gone; ``session=`` is the only
spelling.

Two kinds of knob live here, deliberately together because every
caller sets them together:

* **scheduling** -- ``jobs`` (a width, or ``"auto"``), ``transport``
  (``None`` | ``"fork"`` | ``"thread"`` | a
  :class:`~repro.api.transport.PoolTransport` instance such as
  :class:`~repro.api.transport.TcpTransport`), ``reuse_executors``,
  ``reporters``;
* **runner overrides** -- ``stop_on_failure`` / ``narrow_queries`` /
  ``shrink``, tri-state (``None`` = keep whatever the
  :class:`RunnerConfig` says), overlaid by :meth:`SessionConfig.runner_config`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..checker.config import RunnerConfig

__all__ = ["SessionConfig"]


@dataclass
class SessionConfig:
    """How one scheduled batch should run (not *what* it checks --
    that's the targets/spec/``RunnerConfig``)."""

    #: Pool width: an int, ``"auto"`` (adaptive from the previous
    #: batch's metrics, clamped to the transport capacity), or ``None``
    #: for the session default.
    jobs: Union[int, str, None] = None
    #: Task delivery: ``None`` (platform default), ``"fork"``,
    #: ``"thread"``, or a live ``PoolTransport`` (e.g. ``TcpTransport``
    #: serving remote ``repro worker`` processes, or ``InlineTransport()``
    #: keeping the batch in the caller's thread at any width).
    transport: object = None
    #: Keep executors warm between consecutive tests of one target.
    reuse_executors: bool = True
    #: Reporters for the batch; ``None`` = the session's reporters.
    reporters: Optional[Sequence[object]] = None
    #: Tri-state RunnerConfig overrides (None = leave as configured).
    stop_on_failure: Optional[bool] = None
    narrow_queries: Optional[bool] = None
    shrink: Optional[bool] = None

    def runner_config(
        self, base: Optional[RunnerConfig]
    ) -> Optional[RunnerConfig]:
        """Overlay this config's runner-level overrides on ``base``
        (returns ``base`` untouched when no override is set)."""
        overrides = {
            name: value
            for name, value in (
                ("stop_on_failure", self.stop_on_failure),
                ("narrow_queries", self.narrow_queries),
                ("shrink", self.shrink),
            )
            if value is not None
        }
        if not overrides:
            return base
        return dataclasses.replace(
            base if base is not None else RunnerConfig(), **overrides
        )

    def merged(self, **updates) -> "SessionConfig":
        """A copy with ``updates`` applied."""
        return dataclasses.replace(self, **updates)
