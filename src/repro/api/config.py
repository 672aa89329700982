"""SessionConfig: how one scheduled batch runs.

``CheckSession.check / check_many / check_all`` take their batch knobs
as one value::

    cfg = SessionConfig(jobs=8, reuse_executors=False)
    session.check_many(targets, spec=spec, session=cfg)

*What* a batch checks -- its targets, spec and
:class:`~repro.checker.config.RunnerConfig` (tests, seed, shrinking,
stop-on-failure, narrowing) -- lives elsewhere; *how* it runs lives
here:

* ``jobs`` -- how many tests run at once: a positive int, default 1
  (the exact serial loop);
* ``transport`` -- ``None`` or a
  :class:`~repro.api.transport.PoolTransport` instance such as
  :class:`~repro.api.transport.TcpTransport`;
* ``reuse_executors`` and ``reporters``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .pool import validate_jobs
from .transport.base import PoolTransport

__all__ = ["SessionConfig"]


@dataclass
class SessionConfig:
    """How one scheduled batch should run (not *what* it checks --
    that's the targets/spec/``RunnerConfig``)."""

    #: Pool width: how many tests run at once.
    jobs: int = 1
    #: Task delivery: ``None`` (a fork pool for ``jobs > 1`` where the
    #: platform has ``fork``, else the caller's thread) or a live
    #: ``PoolTransport`` (e.g. ``TcpTransport`` serving remote ``repro
    #: worker`` processes, or ``InlineTransport()`` keeping the batch in
    #: the caller's thread at any width).
    transport: Optional[PoolTransport] = None
    #: Keep executors warm between consecutive tests of one target.
    reuse_executors: bool = True
    #: Reporters for the batch; ``None`` = the session's reporters.
    reporters: Optional[Sequence[object]] = None

    def __post_init__(self) -> None:
        validate_jobs(self.jobs)
        if self.transport is not None and not isinstance(
            self.transport, PoolTransport
        ):
            raise TypeError(
                "transport must be None or a PoolTransport instance, "
                f"got {self.transport!r}"
            )
