"""The public checking API: session facade, scheduler, transports, reporters.

This layer is the front door for running checking campaigns::

    from repro.api import CheckSession, ConsoleReporter, SessionConfig

    session = CheckSession(todomvc_app(), reporters=[ConsoleReporter()])
    result = session.check("specs/todomvc.strom", property="safety",
                           session=SessionConfig(jobs=4))

``CheckSession`` owns executor lifecycle, spec loading and result
aggregation.  Every call -- :meth:`CheckSession.check`, ``check_many``
(the paper's 43-implementation audit shape), ``check_all`` -- runs on
one campaign loop, :class:`PooledScheduler`; ``SessionConfig.jobs``
says how many tests run at once, and a :class:`PoolTransport` decides
*where* they run (the caller's thread, forked workers, or remote TCP
workers) with identical verdicts on each;
:class:`Reporter` hooks observe progress -- console, JSON Lines, JUnit
XML for CI, or a live TTY progress line.  The lower-level
:class:`repro.checker.Runner` remains available as the single-test
engine underneath.
"""

from .config import SessionConfig
from .lease import ExecutorCache, ExecutorLease
from .pool import PoolMetrics
from .reporters import (
    ConsoleReporter,
    JsonlReporter,
    JUnitXmlReporter,
    ProgressReporter,
    Reporter,
)
from .scheduler import (
    CampaignOutcome,
    CampaignSet,
    CampaignSetResult,
    CheckTarget,
    PooledScheduler,
)
from .session import CheckSession
from .transport import (
    ForkTransport,
    InlineTransport,
    PoolTask,
    PoolTransport,
    TaskFailure,
    TcpTransport,
    WorkerCrashed,
)

__all__ = [
    "CheckSession",
    "SessionConfig",
    "CampaignOutcome",
    "CampaignSet",
    "CampaignSetResult",
    "CheckTarget",
    "PooledScheduler",
    "ExecutorCache",
    "ExecutorLease",
    "PoolMetrics",
    "PoolTask",
    "PoolTransport",
    "ForkTransport",
    "InlineTransport",
    "TcpTransport",
    "TaskFailure",
    "WorkerCrashed",
    "Reporter",
    "ConsoleReporter",
    "JsonlReporter",
    "JUnitXmlReporter",
    "ProgressReporter",
]
