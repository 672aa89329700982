"""The CheckSession facade: one object that owns a checking campaign.

Before this layer existed, every caller (the CLI, the benchmark
harness, the examples) re-assembled the same plumbing by hand: load a
.strom module, pick a property, wrap the application in an executor
factory, build a :class:`~repro.checker.runner.Runner`, run it, print
``result.summary()``.  ``CheckSession`` bundles that wiring::

    session = CheckSession(todomvc_app())          # an app factory
    result = session.check("specs/todomvc.strom", property="safety",
                           config=RunnerConfig(tests=20))

    session = CheckSession(lambda: CCSExecutor(initial, defs))
    result = session.check(module, property="vending")

The first argument is *what to test*: either an application factory
(``Callable[[Page], app]``, wrapped in a fresh
:class:`~repro.executors.DomExecutor` per test) or a zero-argument
executor factory for any other backend -- the checker stays
executor-agnostic (paper, Section 3.4).  ``jobs`` sets the default
pool width and ``reporters`` observe progress.

Every call runs on the one campaign loop,
:class:`~repro.api.scheduler.PooledScheduler`: :meth:`CheckSession.check`
is a one-target batch, and multi-target batches (the paper's
43-implementation audit) go through :meth:`CheckSession.check_many`,
which fans *whole campaigns* out over one shared worker pool::

    session = CheckSession(jobs=8, reporters=[ProgressReporter()])
    batch = session.check_many(
        [CheckTarget(impl.name, impl.app_factory())
         for impl in all_implementations()],
        spec=load_todomvc_spec().check_named("safety"),
        config=RunnerConfig(tests=8, shrink=False),
    )

The pool is forked once for the batch, its workers are reused across
campaigns through a task queue, and it is torn down when the batch
completes -- verdicts are identical to running each campaign serially
with the same seed.

Executors are reused warm by default (``reuse_executors=True``):
consecutive tasks on the same worker that test the same application
reset a cached executor (the ``Reset`` protocol message) instead of
paying construction + ``Start`` per test -- the per-session overhead
that dominates batches of small campaigns.  Warm verdicts are
bit-for-bit identical to cold ones; pass ``reuse_executors=False`` (or
``--no-reuse`` on the CLI) for the cold baseline.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..artifact import ArtifactError, CompiledSpec, SpecResolver
from ..checker.compiled import CompiledProperty
from ..checker.config import RunnerConfig
from ..checker.result import CampaignResult
from ..checker.runner import Runner
from ..executors.domexec import DomExecutor
from ..quickltl import DEFAULT_SUBSCRIPT
from ..specstrom.module import CheckSpec, SpecModule
from .config import SessionConfig
from .pool import PoolMetrics, suggest_jobs
from .reporters import Reporter
from .scheduler import CampaignSet, CampaignSetResult, CheckTarget, PooledScheduler
from .transport import PoolTransport

__all__ = ["CheckSession", "SessionConfig", "AUTO_JOBS"]

#: Sentinel accepted wherever ``jobs=`` is: pick the pool width
#: adaptively from the previous batch's recorded
#: :class:`~repro.api.pool.PoolMetrics` (queue depth + utilisation, see
#: :func:`~repro.api.pool.suggest_jobs`); the first batch of a session
#: starts at the CPU count.
AUTO_JOBS = "auto"

SpecLike = Union[str, "os.PathLike[str]", SpecModule, CheckSpec, CompiledSpec]

TargetLike = Union[CheckTarget, Tuple[str, Callable], Callable]


class CheckSession:
    """A reusable checking context for one system under test.

    ``app_or_factory`` may be omitted for audit-style sessions whose
    targets each bring their own application (see :meth:`check_many`);
    :meth:`check` then requires nothing less, but targets must all
    carry an app.
    """

    def __init__(
        self,
        app_or_factory: Optional[Callable] = None,
        *,
        jobs: Optional[int] = None,
        reporters: Sequence[Reporter] = (),
        default_subscript: int = DEFAULT_SUBSCRIPT,
    ) -> None:
        _validate_jobs(jobs)
        self.auto_jobs = jobs == AUTO_JOBS
        if self.auto_jobs:
            # Each batch picks its width from the previous batch's
            # metrics (see check_many).
            jobs = None
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        self.executor_factory = (
            None
            if app_or_factory is None
            else _coerce_executor_factory(app_or_factory)
        )
        self.jobs = jobs
        self.reporters: List[Reporter] = list(reporters)
        self.default_subscript = default_subscript
        #: The one seam everything in this session resolves specs
        #: through: ``.strom`` source and compiled artifacts are both
        #: accepted, memoized by content hash, and re-encoded at most
        #: once for remote shipping.
        self.resolver = SpecResolver(default_subscript=default_subscript)
        #: PoolMetrics of the session's most recent scheduled batch --
        #: what ``jobs="auto"`` learns the next batch's width from.
        self.last_metrics: Optional[PoolMetrics] = None

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------

    def check(
        self,
        spec: SpecLike,
        *,
        property: Optional[str] = None,
        config: Optional[RunnerConfig] = None,
        session: Optional[SessionConfig] = None,
    ) -> CampaignResult:
        """Check one property and return its campaign result.

        ``spec`` may be a ``.strom`` file path, a compiled-artifact path
        (``repro compile`` output -- the first four bytes decide), a
        loaded :class:`~repro.artifact.CompiledSpec` bundle, an
        elaborated :class:`SpecModule`, or a single :class:`CheckSpec`.
        For anything module-shaped, ``property`` names the check to run;
        it may be omitted when the module declares exactly one.

        This is a one-target :meth:`check_many`: the campaign runs on
        the same scheduler with the same ``session`` knobs (a
        :class:`SessionConfig`), records :attr:`last_metrics`, and
        reporters see the same batch-shaped stream as :meth:`check_all`
        -- ``on_session_start`` / ``on_session_end`` around the
        campaign, whose target label is the property name.
        """
        check, _ = self._resolve(spec, property)
        batch = self.check_many(
            [CheckTarget(check.name, spec=spec, property=check.name)],
            config=config,
            session=session,
        )
        return batch.results[0]

    def check_many(
        self,
        targets: Iterable[TargetLike],
        *,
        spec: Optional[SpecLike] = None,
        property: Optional[str] = None,
        config: Optional[RunnerConfig] = None,
        session: Optional[SessionConfig] = None,
    ) -> CampaignSetResult:
        """Check many targets as one batch on a shared worker pool.

        ``targets`` is an iterable of :class:`CheckTarget` (full
        control), ``(name, app)`` pairs, or bare app/executor factories.
        ``spec``/``property``/``config`` provide batch-wide defaults
        that individual targets may override; a target without its own
        ``app`` uses the session's application.

        ``session`` (a :class:`SessionConfig`) carries the batch knobs:

        * ``jobs`` bounds the pool across the whole batch (default: the
          session's ``jobs``, else 1 -- i.e. the exact serial loop).
          :data:`AUTO_JOBS` (``"auto"``) picks the width from the
          previous batch's recorded queue-depth/utilisation metrics
          (:func:`~repro.api.pool.suggest_jobs`), clamped to the
          transport's reported capacity.
        * ``transport`` picks task delivery: ``None``/"fork"/"thread"
          run locally; a live
          :class:`~repro.api.transport.TcpTransport` shards the batch
          over connected ``repro worker`` processes -- targets then
          need a ``remote`` descriptor saying where a remote host finds
          their spec/property/app.
        * ``reuse_executors`` keeps each worker's executor warm between
          consecutive tests of the same target (reset instead of
          reconstructed; see :mod:`repro.api.lease`).  Warm and cold
          runs produce identical verdicts.

        The pool is started once, reused across campaigns, and torn
        down when the batch completes; verdicts are identical to
        sequential :meth:`check` calls with the same seeds, whichever
        transport runs them.
        """
        cfg = session if session is not None else SessionConfig()
        campaign_set = CampaignSet()
        batch_pair: Optional[Tuple[CheckSpec, Optional[CompiledProperty]]] = None
        #: One compiled form per property without a bundle (a CheckSpec
        #: or a SpecModule), so its step table serves every campaign.
        compiled_for: Dict[int, CompiledProperty] = {}
        for position, target in enumerate(targets):
            target = self._coerce_target(target, position)
            target_spec = target.spec if target.spec is not None else spec
            if target_spec is None:
                raise ValueError(
                    f"target {target.name!r} has no spec and no batch-wide "
                    "spec= was given"
                )
            if target.spec is None and target.property is None:
                # The common audit shape: every target shares the batch
                # spec.  Resolve (and for a path, elaborate) it exactly
                # once.
                if batch_pair is None:
                    batch_pair = self._resolve(spec, property)
                check_spec, compiled = batch_pair
            else:
                # A target overriding only `property` still reads the
                # batch spec; the resolver's content-hash memo makes
                # sure a spec file is elaborated once per batch, not
                # once per target.
                check_spec, compiled = self._resolve(
                    target_spec, target.property or property
                )
            if compiled is None:
                compiled = compiled_for.get(id(check_spec))
                if compiled is None:
                    compiled = compiled_for[id(check_spec)] = CompiledProperty(
                        check_spec
                    )
            if target.app is not None:
                factory = _coerce_executor_factory(target.app)
            elif self.executor_factory is not None:
                factory = self.executor_factory
            else:
                raise ValueError(
                    f"target {target.name!r} has no app and the session was "
                    "constructed without an application"
                )
            target_config = cfg.runner_config(
                target.config if target.config is not None else config
            )
            remote = None
            if target.remote is not None:
                # Complete the target's descriptor with the batch-level
                # facts a remote worker needs to rebuild the runner:
                # which property, which subscript convention, and the
                # *effective* RunnerConfig (seed included -- that is
                # what makes the remote verdicts identical).
                remote = dict(target.remote)
                remote.setdefault("property", check_spec.name)
                remote.setdefault("subscript", self.default_subscript)
                remote.setdefault(
                    "config",
                    dataclasses.asdict(
                        target_config
                        if target_config is not None
                        else RunnerConfig()
                    ),
                )
                if "artifact_b64" not in remote and isinstance(
                    remote.get("spec"), str
                ):
                    # Ship the compiled artifact alongside the path so
                    # remote workers load instead of re-elaborating
                    # (encoded once per spec, memoized in the resolver).
                    # A path the coordinator cannot read stays a bare
                    # path -- it may only resolve on the worker's host.
                    try:
                        for field, value in self.resolver.remote_fields(
                            remote["spec"]
                        ).items():
                            remote.setdefault(field, value)
                    except (OSError, ArtifactError):
                        pass
            campaign_set.add(
                target.name,
                Runner(check_spec, factory, target_config,
                       remote=remote, compiled=compiled),
            )
        capacity = _transport_capacity(cfg.transport)
        jobs = cfg.jobs
        _validate_jobs(jobs)
        if jobs == AUTO_JOBS:
            jobs = suggest_jobs(self.last_metrics, capacity=capacity)
        elif jobs is None:
            if self.auto_jobs:
                jobs = suggest_jobs(self.last_metrics, capacity=capacity)
            elif self.jobs is not None:
                jobs = self.jobs
            elif capacity is not None:
                # A capacity-reporting transport (the TCP fabric) was
                # handed over explicitly; use the width it advertises.
                jobs = capacity
            else:
                jobs = 1
        scheduler = PooledScheduler(jobs, transport=cfg.transport)
        active_reporters = (
            self.reporters if cfg.reporters is None else list(cfg.reporters)
        )
        result = scheduler.run(campaign_set, active_reporters,
                               reuse=cfg.reuse_executors)
        self.last_metrics = result.metrics
        return result

    @staticmethod
    def _coerce_target(target: TargetLike, position: int) -> CheckTarget:
        if isinstance(target, CheckTarget):
            return target
        if isinstance(target, tuple) and len(target) == 2:
            name, app = target
            return CheckTarget(str(name), app)
        if callable(target):
            name = getattr(target, "__name__", None) or f"target-{position}"
            return CheckTarget(name, target)
        raise TypeError(
            "targets must be CheckTarget, (name, app) pairs or callables; "
            f"got {type(target).__name__}"
        )

    def check_all(
        self,
        spec: SpecLike,
        *,
        config: Optional[RunnerConfig] = None,
        session: Optional[SessionConfig] = None,
    ) -> List[CampaignResult]:
        """Check every property of a module, in declaration order.

        The batch rides the cross-campaign scheduler: one campaign per
        property, all against this session's application, on one worker
        pool (``jobs``, defaulting like :meth:`check_many`).  This is
        the *many properties x one app* fast path -- because every
        campaign shares the session's executor factory, warm executor
        reuse spans property boundaries, so a worker pays executor
        warm-up once and resets between properties instead of
        reconstructing per test.  Verdicts are identical to sequential
        :meth:`check` calls.
        """
        if self.executor_factory is None:
            raise ValueError(
                "this session was constructed without an application; "
                "pass one to CheckSession(...) or use check_many with "
                "targets that carry their own apps"
            )
        bundle: Optional[CompiledSpec] = None
        if isinstance(spec, CheckSpec):
            checks = [spec]
        else:
            bundle = self._bundle(spec)
            checks = (bundle.module if bundle is not None else self._load(spec)).checks
        batch = self.check_many(
            [
                CheckTarget(
                    check.name,
                    spec=bundle if bundle is not None else check,
                    property=check.name if bundle is not None else None,
                )
                for check in checks
            ],
            config=config,
            session=session,
        )
        return batch.results

    def runner(
        self,
        spec: SpecLike,
        *,
        property: Optional[str] = None,
        config: Optional[RunnerConfig] = None,
    ) -> Runner:
        """The underlying single-test engine (for replay/shrink access)."""
        check_spec, compiled = self._resolve(spec, property)
        return self._runner(check_spec, config, compiled)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _runner(
        self,
        check_spec: CheckSpec,
        config: Optional[RunnerConfig],
        compiled: Optional[CompiledProperty] = None,
    ) -> Runner:
        if self.executor_factory is None:
            raise ValueError(
                "this session was constructed without an application; "
                "pass one to CheckSession(...) or use check_many with "
                "targets that carry their own apps"
            )
        return Runner(check_spec, self.executor_factory, config, compiled=compiled)

    def _bundle(self, spec: SpecLike) -> Optional[CompiledSpec]:
        """The artifact-grade bundle for ``spec``, when one exists.

        Paths (source or artifact) resolve through the session's
        :class:`SpecResolver`; already-compiled bundles pass through;
        modules and bare checks have no bundle (``None``), and
        :meth:`check_many` compiles each of their properties once per
        batch.
        """
        if isinstance(spec, CompiledSpec):
            return spec
        if isinstance(spec, (str, os.PathLike)):
            return self.resolver.load(os.fspath(spec))
        return None

    def _load(self, spec: SpecLike) -> SpecModule:
        """The module view of any spec-like input (elaborating through
        the resolver's content-hash memo for paths)."""
        if isinstance(spec, SpecModule):
            return spec
        bundle = self._bundle(spec)
        if bundle is not None:
            return bundle.module
        raise TypeError(
            f"cannot load a specification from {type(spec).__name__}; "
            "pass a .strom or artifact path, a SpecModule, a CompiledSpec "
            "or a CheckSpec"
        )

    def _resolve(
        self, spec: SpecLike, property: Optional[str]
    ) -> Tuple[CheckSpec, Optional[CompiledProperty]]:
        """Pick the property to check and, when the spec came through
        the artifact pipeline, its pre-compiled bundle."""
        if isinstance(spec, CheckSpec):
            if property is not None and property != spec.name:
                raise ValueError(
                    f"property {property!r} does not match the CheckSpec "
                    f"{spec.name!r}"
                )
            return spec, None
        bundle = self._bundle(spec)
        module = bundle.module if bundle is not None else self._load(spec)
        if property is not None:
            check = module.check_named(property)
        elif len(module.checks) == 1:
            check = module.checks[0]
        else:
            names = [c.name for c in module.checks]
            raise ValueError(
                f"the module declares {len(names)} properties {names}; "
                "pass property= to pick one (or use check_all)"
            )
        compiled = bundle.properties[check.name] if bundle is not None else None
        return check, compiled


def _transport_capacity(transport) -> Optional[int]:
    """The transport's parallel capacity, when it can report one --
    what adaptive ``jobs="auto"`` clamps against instead of the local
    CPU count (a TCP fabric's width lives on the worker hosts)."""
    if isinstance(transport, PoolTransport):
        return transport.capacity()
    return None


def _validate_jobs(jobs) -> None:
    """Reject anything that is neither a worker count nor the ``"auto"``
    sentinel -- a typo'd string or a float must fail here, not as an
    opaque ``TypeError`` deep inside the scheduler."""
    if jobs is None or jobs == AUTO_JOBS:
        return
    if not isinstance(jobs, int) or isinstance(jobs, bool):
        raise ValueError(
            f"jobs must be a positive integer or {AUTO_JOBS!r}, "
            f"got {jobs!r}"
        )


def _coerce_executor_factory(app_or_factory: Callable) -> Callable[[], object]:
    """Turn *what to test* into a zero-argument executor factory.

    A callable with no required parameters is taken to be an executor
    factory already (e.g. ``lambda: CCSExecutor(...)``); a callable with
    required parameters is an application factory ``page -> app`` and is
    wrapped in a fresh :class:`DomExecutor` per test.
    """
    if not callable(app_or_factory):
        raise TypeError(
            f"expected an app factory or executor factory, "
            f"got {type(app_or_factory).__name__}"
        )
    try:
        signature = inspect.signature(app_or_factory)
    except (TypeError, ValueError):  # builtins without introspection
        signature = None
    if signature is not None:
        required = [
            parameter
            for parameter in signature.parameters.values()
            if parameter.default is inspect.Parameter.empty
            and parameter.kind
            in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
            )
        ]
        if not required:
            return app_or_factory
    return lambda: DomExecutor(app_or_factory)
