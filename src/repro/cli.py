"""Command-line interface: check Specstrom specifications against apps.

Built on the checking API (:mod:`repro.api`): every command assembles a
:class:`~repro.api.CheckSession` -- which owns executor lifecycle, spec
loading and result aggregation -- picks how to parallelise (``--jobs``),
and attaches reporters (``--format console``, ``--format json`` for
JSON-Lines, or ``--format junit`` for CI test reports; a live progress
line appears automatically on a TTY).

Usage (also via the ``quickstrom-repro`` console script)::

    python -m repro compile SPEC.strom [-o OUT.qsa]
    python -m repro inspect OUT.qsa
    python -m repro check SPEC.strom --app todomvc[:implementation]
    python -m repro check SPEC.strom --app eggtimer [--property NAME]
                                     [--jobs N] [--format json|junit]
    python -m repro audit [--subscript N] [--tests N] [--jobs N]
                          [--format json|junit] [--report-file PATH]
                          [IMPLEMENTATION ...]
    python -m repro fuzz [--seed N] [--campaigns N] [--jobs N]
                         [--corpus PATH] [--replay PATH]
    python -m repro monitor SPEC.strom [--property NAME]
                            [--input PATH|- | --listen HOST:PORT]
                            [--max-sessions N] [--idle-ttl SECONDS]
                            [--queue-size N] [--queue-policy block|drop]
                            [--no-batch] [--cache-entries N]
                            [--shards N] [--resolve-at-eof] [--format json]
                            [--checkpoint DIR [--restore]]
    python -m repro worker --connect HOST:PORT [--slots N]
    python -m repro list-implementations

``check`` loads a specification file and runs its properties against the
chosen application -- each property is a campaign on one shared pool,
so ``--jobs`` spans every (property, test) task.  ``audit`` reproduces
the paper's Table 1 workload over named (or all) TodoMVC
implementations; its ``--jobs`` spans *campaigns* -- the whole batch
runs on one shared worker pool (forked once, reused across
implementations), with verdicts identical to a serial audit.  Both
commands reuse warm executors across consecutive tests of the same
target by default (``--no-reuse`` restores cold per-test construction;
verdicts are identical either way).

Distributed checking (:mod:`repro.api.transport`): pass ``--transport
tcp --listen HOST:PORT`` to ``check`` or ``audit`` and the command
becomes a coordinator that shards its ``(campaign, index)`` tasks over
``repro worker`` processes connected from any host -- verdicts,
counterexamples and reporter streams are identical to a local run with
the same seed.  Each worker slot runs one test at a time; ``--slots N``
(or more workers) is how a host serves more tests at once.

``monitor`` is the online deployment mode (:mod:`repro.monitor`): it
ingests framed session streams -- a JSONL file, stdin, or a TCP
listener -- and progresses every session's residual through one shared
compiled spec, emitting a verdict per session and a metrics summary at
the end.  ``--shards N`` scales it across N worker processes (sessions
are routed by a hash of their id; the merged verdict multiset is
identical to a single-process run).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .api import (
    CheckSession,
    CheckTarget,
    ConsoleReporter,
    JsonlReporter,
    JUnitXmlReporter,
    ProgressReporter,
    Reporter,
    SessionConfig,
)
from .apps.eggtimer import egg_timer_app
from .apps.todomvc import all_implementations, implementation_named, todomvc_app
from .checker import RunnerConfig
from .quickltl import DEFAULT_SUBSCRIPT

__all__ = ["main"]


def _app_factory(spec: str):
    kind, _, variant = spec.partition(":")
    if kind == "todomvc":
        if variant:
            return implementation_named(variant).app_factory()
        return todomvc_app()
    if kind == "eggtimer":
        return egg_timer_app()
    raise SystemExit(f"unknown app {spec!r}; use todomvc[:name] or eggtimer")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quickstrom-repro",
        description="Property-based acceptance testing with QuickLTL "
        "(Quickstrom reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_ = sub.add_parser(
        "compile",
        help="ahead-of-time compile a .strom spec to a versioned "
             "artifact (load skips the whole front end)",
    )
    compile_.add_argument("spec", help="path to the Specstrom file")
    compile_.add_argument("-o", "--output", default=None, metavar="PATH",
                          help="artifact path (default: SPEC.qsa next to "
                               "the source)")
    compile_.add_argument("--subscript", type=int, default=DEFAULT_SUBSCRIPT,
                          help="default temporal subscript baked into the "
                               "artifact (paper default: 100)")

    inspect_ = sub.add_parser(
        "inspect",
        help="print a compiled artifact's header: version, source "
             "hash, and the checks manifest",
    )
    inspect_.add_argument("artifact", help="path to a .qsa artifact")

    check = sub.add_parser("check", help="check a .strom spec (or "
                                         "compiled .qsa artifact) "
                                         "against an app")
    check.add_argument("spec", help="path to the Specstrom file or a "
                                    "compiled artifact")
    check.add_argument("--app", required=True,
                       help="todomvc[:implementation] or eggtimer")
    check.add_argument("--property", dest="property_name", default=None,
                       help="check only this property")
    check.add_argument("--tests", type=_positive_int, default=10)
    check.add_argument("--actions", type=int, default=None,
                       help="scheduled actions per test (default: subscript)")
    check.add_argument("--subscript", type=int, default=DEFAULT_SUBSCRIPT,
                       help="default temporal subscript (paper default: 100)")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--no-shrink", action="store_true")
    _campaign_options(check, jobs_help="run each campaign's tests on N "
                      "parallel workers (verdicts are identical to serial)")

    audit = sub.add_parser("audit", help="audit TodoMVC implementations "
                                         "(the paper's Table 1)")
    audit.add_argument("names", nargs="*",
                       help="implementation names (default: all 43)")
    audit.add_argument("--subscript", type=int, default=DEFAULT_SUBSCRIPT)
    audit.add_argument("--tests", type=_positive_int, default=8)
    audit.add_argument("--seed", type=int, default=0)
    _campaign_options(audit, jobs_help="audit N campaigns concurrently on "
                      "one shared worker pool (forked once for the whole "
                      "batch; verdicts are identical to serial)")

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generated apps x generated specs, "
             "cross-checked serial vs pooled vs warm vs full-capture vs "
             "monitor-replay and against the direct reference semantics",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="master seed; the same seed reproduces the same "
                           "campaigns and verdicts exactly")
    fuzz.add_argument("--campaigns", type=_positive_int, default=50,
                      help="how many generated campaigns to run")
    fuzz.add_argument("--jobs", type=_positive_int, default=2, metavar="N",
                      help="pool width for the pooled/warm differential "
                           "paths (the serial reference always runs too)")
    fuzz.add_argument("--corpus", default=None, metavar="PATH",
                      help="append shrunk divergences and minimized "
                           "counterexamples to this JSONL file")
    fuzz.add_argument("--replay", default=None, metavar="PATH",
                      help="replay a corpus file instead of generating "
                           "campaigns; exits non-zero if a divergence "
                           "still reproduces or a counterexample no "
                           "longer does")
    fuzz.add_argument("--format", choices=("console", "json"),
                      default="console")

    monitor = sub.add_parser(
        "monitor",
        help="online monitoring: stream concurrent sessions through a "
             "spec's compiled formula engine",
    )
    monitor.add_argument("spec", help="path to the Specstrom file or a "
                                      "compiled artifact")
    monitor.add_argument("--property", dest="property_name", default=None,
                         help="monitor this property (default: the spec's "
                              "first check)")
    monitor.add_argument("--subscript", type=int, default=DEFAULT_SUBSCRIPT,
                         help="default temporal subscript (paper default: 100)")
    source = monitor.add_mutually_exclusive_group()
    source.add_argument("--input", default="-", metavar="PATH",
                        help="JSONL record stream to read ('-' for stdin, "
                             "the default); EOF resolves the run")
    source.add_argument("--listen", default=None, metavar="HOST:PORT",
                        help="accept newline-framed records over TCP "
                             "(port 0 picks a free port); runs until "
                             "interrupted")
    monitor.add_argument("--max-sessions", type=_positive_int, default=None,
                         metavar="N",
                         help="cap live sessions; admitting past the cap "
                              "evicts least-recently-active sessions as "
                              "inconclusive")
    monitor.add_argument("--idle-ttl", type=float, default=None,
                         metavar="SECONDS",
                         help="evict sessions silent this long as "
                              "inconclusive")
    monitor.add_argument("--queue-size", type=_positive_int, default=10_000,
                         metavar="N",
                         help="ingest queue bound (the backpressure point)")
    monitor.add_argument("--queue-policy", choices=("block", "drop"),
                         default="block",
                         help="full-queue behaviour: stall producers, or "
                              "shed (and count) incoming lines")
    monitor.add_argument("--batch-size", type=_positive_int, default=4096,
                         metavar="N",
                         help="records processed per round")
    monitor.add_argument("--shards", type=_positive_int, default=1,
                         metavar="N",
                         help="run N worker processes, each monitoring the "
                              "sessions a hash of the session id routes to "
                              "it; verdicts are merged and identical to a "
                              "single-process run (1 disables)")
    monitor.add_argument("--no-batch", action="store_true",
                         help="step each session individually instead of "
                              "batching same-(residual, state) cohorts "
                              "(verdicts are identical; this is the naive "
                              "baseline)")
    monitor.add_argument("--cache-entries", type=_positive_int, default=None,
                         metavar="N",
                         help="bound the shared progression caches to N "
                              "entries (trimmed wholesale when exceeded)")
    monitor.add_argument("--heartbeat", type=float, default=10.0,
                         metavar="SECONDS",
                         help="stderr heartbeat period (0 disables)")
    monitor.add_argument("--resolve-at-eof", action="store_true",
                         help="force-resolve sessions still open at EOF by "
                              "the polarity rule instead of reporting them "
                              "inconclusive")
    monitor.add_argument("--format", choices=("console", "json"),
                         default="console",
                         help="human-readable lines, or one JSON object per "
                              "verdict plus a monitor_end summary")
    monitor.add_argument("--checkpoint", default=None, metavar="DIR",
                         help="periodically snapshot the session table "
                              "there (atomic write-then-rename); EOF "
                              "suspends open sessions into the final "
                              "checkpoint instead of resolving them "
                              "inconclusive")
    monitor.add_argument("--checkpoint-period", type=float, default=5.0,
                         metavar="SECONDS",
                         help="how often to checkpoint (default: 5)")
    monitor.add_argument("--restore", action="store_true",
                         help="resume from the checkpoint in --checkpoint "
                              "DIR before ingesting; verdict counts pick "
                              "up exactly where the dead process stopped")

    worker = sub.add_parser(
        "worker",
        help="serve a distributed checking coordinator "
             "(a check/audit run with --transport tcp)",
    )
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="the coordinator's --listen address")
    worker.add_argument("--slots", type=_positive_int, default=1,
                        metavar="N",
                        help="parallel task slots to serve (each is its "
                             "own process with a private executor cache)")
    worker.add_argument("--connect-timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="keep retrying the dial this long (workers "
                             "are routinely launched before the "
                             "coordinator binds)")

    sub.add_parser("list-implementations",
                   help="list the 43 TodoMVC implementations")
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _jobs_value(text: str):
    """``--jobs N`` or ``--jobs auto`` (adaptive width from the previous
    batch's pool metrics; first batch = the CPU count)."""
    if text == "auto":
        return "auto"
    return _positive_int(text)


def _campaign_options(parser: argparse.ArgumentParser, jobs_help: str) -> None:
    parser.add_argument("--jobs", type=_jobs_value, default=1, metavar="N",
                        help=jobs_help + "; 'auto' picks the width from "
                             "recorded queue-depth/utilisation metrics")
    parser.add_argument("--format", choices=("console", "json", "junit"),
                        default="console",
                        help="console output, one JSON object per event, "
                             "or a JUnit XML test report")
    parser.add_argument("--report-file", default=None, metavar="PATH",
                        help="write the junit report here instead of stdout")
    parser.add_argument("--no-reuse", action="store_true",
                        help="construct a fresh executor for every test "
                             "instead of reusing a warm one (verdicts are "
                             "identical; this is the cold baseline)")
    parser.add_argument("--no-narrow", action="store_true",
                        help="capture the full dependency set in every "
                             "snapshot instead of narrowing to what the "
                             "progressed formula still reads (verdicts "
                             "are identical; this is the full baseline)")
    parser.add_argument("--transport", choices=("fork", "thread", "tcp"),
                        default=None,
                        help="task delivery: fork/thread pools on this "
                             "host (default: platform pick), or tcp -- "
                             "become a coordinator sharding tasks over "
                             "'repro worker' processes")
    parser.add_argument("--listen", default=None, metavar="HOST:PORT",
                        help="with --transport tcp: bind the coordinator "
                             "here (port 0 picks a free port, printed to "
                             "stderr for workers to connect to)")
    parser.add_argument("--min-workers", type=_positive_int, default=1,
                        metavar="N",
                        help="with --transport tcp: wait for N connected "
                             "workers before dispatching")


def _progress_reporters() -> list:
    """A live progress line, only when a human is watching stderr."""
    if sys.stderr.isatty():
        return [ProgressReporter()]
    return []


def _make_transport(args):
    """The transport named by ``--transport`` (``None`` = platform
    default).  ``tcp`` binds a live coordinator immediately so its
    address is printable before any worker dials in."""
    if args.transport != "tcp":
        if args.listen is not None:
            raise SystemExit("--listen requires --transport tcp")
        return args.transport
    from .api import TcpTransport

    host, port = _parse_listen(args.listen or "127.0.0.1:0")
    transport = TcpTransport(host=host, port=port,
                             min_workers=args.min_workers)
    print(f"[coordinator] listening on {transport.host}:{transport.port} "
          f"-- start workers with: repro worker "
          f"--connect {transport.host}:{transport.port}",
          file=sys.stderr, flush=True)
    return transport


def _session_config(args) -> SessionConfig:
    """The batch knobs shared by ``check`` and ``audit``."""
    return SessionConfig(
        jobs=args.jobs,
        transport=_make_transport(args),
        reuse_executors=not args.no_reuse,
    )


def _close_transport(cfg: SessionConfig) -> None:
    close = getattr(cfg.transport, "close", None)
    if close is not None:
        close()


def _validate_report_file(args) -> None:
    if args.report_file is not None and args.format != "junit":
        raise SystemExit(
            "--report-file only applies to --format junit "
            f"(got --format {args.format})"
        )


def _cmd_compile(args) -> int:
    from .artifact import compile_spec, default_artifact_path, save_artifact

    bundle = compile_spec(args.spec, default_subscript=args.subscript)
    output = args.output or default_artifact_path(args.spec)
    save_artifact(bundle, output)
    checks = ", ".join(check.name for check in bundle.module.checks)
    print(f"compiled {args.spec} -> {output} "
          f"({len(bundle.module.checks)} check(s): {checks})")
    return 0


def _cmd_inspect(args) -> int:
    from .artifact import ArtifactError, inspect_artifact

    try:
        header = inspect_artifact(args.artifact)
    except ArtifactError as error:
        raise SystemExit(f"{args.artifact}: {error}")
    print(json.dumps(header, indent=2, sort_keys=True))
    return 0


def _cmd_check(args) -> int:
    _validate_report_file(args)
    reporters = list(_progress_reporters())
    if args.format == "json":
        reporters.append(JsonlReporter())
    elif args.format == "junit":
        reporters.append(JUnitXmlReporter(path=args.report_file))
        if args.report_file is not None:
            reporters.append(ConsoleReporter())
    else:
        reporters.append(ConsoleReporter())
    session = CheckSession(_app_factory(args.app), reporters=reporters,
                           default_subscript=args.subscript)
    # The resolver accepts source and compiled-artifact paths alike
    # (and memoizes by content, so the remote descriptors below reuse
    # this compile instead of re-running the front end).
    bundle = session.resolver.load(args.spec)
    checks = bundle.module.checks
    if args.property_name is not None:
        checks = [bundle.module.check_named(args.property_name)]
    config = RunnerConfig(
        tests=args.tests,
        scheduled_actions=args.actions or args.subscript,
        demand_allowance=max(20, args.subscript // 5),
        seed=args.seed,
        shrink=not args.no_shrink,
        narrow_queries=not args.no_narrow,
    )
    cfg = _session_config(args)
    # A remote worker rebuilds each campaign from this descriptor: the
    # .strom path and app registry string must resolve on *its* host.
    remote = None
    if getattr(cfg.transport, "remote", False):
        remote = {"spec": args.spec, "app": args.app,
                  "subscript": args.subscript}
    # Every property rides the cross-campaign scheduler as its own
    # campaign against the one app: --jobs spans (property, test) tasks
    # on one pool, and warm executor reuse crosses property boundaries.
    try:
        batch = session.check_many(
            [CheckTarget(check.name, spec=bundle, property=check.name,
                         remote=remote)
             for check in checks],
            config=config,
            session=cfg,
        )
    finally:
        _close_transport(cfg)
    return 1 if batch.failures else 0


def _cmd_audit(args) -> int:
    _validate_report_file(args)
    from .specs import load_todomvc_spec

    spec = load_todomvc_spec(default_subscript=args.subscript).check_named("safety")
    if args.names:
        implementations = [implementation_named(name) for name in args.names]
    else:
        implementations = all_implementations()
    config = RunnerConfig(
        tests=args.tests,
        scheduled_actions=args.subscript,
        demand_allowance=20,
        seed=args.seed,
        shrink=False,
        narrow_queries=not args.no_narrow,
    )
    junit_to_stdout = args.format == "junit" and args.report_file is None
    stream_mode = None if junit_to_stdout else (
        "json" if args.format == "json" else "console"
    )
    stream = _AuditStreamReporter(implementations, stream_mode)
    reporters = list(_progress_reporters()) + [stream]
    if args.format == "junit":
        reporters.append(JUnitXmlReporter(path=args.report_file))
    session = CheckSession(reporters=reporters)
    cfg = _session_config(args)
    remote_spec = None
    if getattr(cfg.transport, "remote", False):
        from .specs import spec_path

        remote_spec = str(spec_path("todomvc.strom"))
    targets = [
        CheckTarget(
            impl.name,
            impl.app_factory(),
            remote=(None if remote_spec is None else
                    {"spec": remote_spec, "app": f"todomvc:{impl.name}",
                     "subscript": args.subscript}),
        )
        for impl in implementations
    ]
    try:
        batch = session.check_many(targets, spec=spec, config=config,
                                   session=cfg)
    finally:
        _close_transport(cfg)

    agreeing = len(implementations) - stream.disagreements
    if junit_to_stdout:
        pass  # stdout is pure XML (written by the JUnit reporter)
    elif stream_mode == "json":
        print(json.dumps(
            {"event": "audit_end", "implementations": len(implementations),
             "agreeing": agreeing,
             "pool": (batch.metrics.to_dict()
                      if batch.metrics is not None else None)},
            sort_keys=True,
        ))
    else:
        print(f"\n{agreeing}/{len(implementations)} "
              "agree with the paper's Table 1.")
    return 1 if stream.disagreements else 0


class _AuditStreamReporter(Reporter):
    """Streams the per-implementation audit line as each campaign ends.

    Campaigns finish (and hence report) in submission order, so pairing
    them positionally with the implementation list is safe -- and a
    43-implementation audit prints each verdict as it lands instead of
    buffering the whole batch.  ``mode=None`` only counts disagreements
    (used when stdout must stay pure JUnit XML).
    """

    def __init__(self, implementations, mode: Optional[str]) -> None:
        self._implementations = iter(implementations)
        self._mode = mode
        self.disagreements = 0

    def on_campaign_end(self, result) -> None:
        impl = next(self._implementations)
        expected = "fail" if impl.should_fail else "pass"
        got = "pass" if result.passed else "fail"
        if expected != got:
            self.disagreements += 1
        if self._mode == "json":
            print(json.dumps(
                {"implementation": impl.name, "result": got,
                 "paper": expected, "agrees": expected == got,
                 "tests_run": result.tests_run},
                sort_keys=True,
            ), flush=True)
        elif self._mode == "console":
            marker = "" if expected == got else "   <-- disagrees with paper"
            print(f"{impl.name:<22} {got:<5} (paper: {expected}){marker}",
                  flush=True)


def _cmd_fuzz(args) -> int:
    from .fuzz import read_corpus, replay_entry, run_fuzz

    if args.replay is not None:
        failures = 0
        replayed = 0
        for position, entry in enumerate(read_corpus(args.replay)):
            outcome = replay_entry(entry)
            replayed += 1
            if entry.kind == "divergence":
                # A divergence that still reproduces is a live bug.
                ok = outcome is not None
                status = ("fixed" if ok
                          else "STILL DIVERGES")
            else:
                # A counterexample must replay deterministically.
                ok = outcome is None
                status = "reproduces" if ok else f"BROKEN: {outcome}"
            if not ok:
                failures += 1
            record = {"index": position, "kind": entry.kind,
                      "detail": entry.detail, "ok": ok, "status": status}
            if args.format == "json":
                print(json.dumps(record, sort_keys=True))
            else:
                print(f"[{position}] {entry.kind} {entry.detail}: {status}")
        if args.format == "json":
            print(json.dumps(
                {"event": "replay_end", "corpus": args.replay,
                 "entries": replayed, "problems": failures},
                sort_keys=True,
            ))
        else:
            print(f"replayed corpus {args.replay}: "
                  f"{failures} problem(s)")
        return 1 if failures else 0

    show_progress = args.format == "console" and sys.stderr.isatty()

    def progress(index, outcome) -> None:
        if show_progress:
            print(f"\rcampaign {index + 1}/{args.campaigns}",
                  end="", file=sys.stderr, flush=True)

    report = run_fuzz(
        seed=args.seed,
        campaigns=args.campaigns,
        jobs=args.jobs,
        corpus_path=args.corpus,
        on_campaign=progress,
    )
    if show_progress:
        print(file=sys.stderr)
    if args.format == "json":
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.summary())
        rows = report.scoreboard_rows()
        if rows:
            print("\nfault-detection scoreboard (generated Table 2):")
            print(f"{'fault class':<22} {'detected':>8} {'injected':>8}")
            for kind, detected, injected in rows:
                print(f"{kind:<22} {detected:>8} {injected:>8}")
        for divergence in report.divergences:
            print(f"DIVERGENCE (campaign {divergence.campaign_index}, "
                  f"{divergence.target}, {divergence.kind}): "
                  f"{divergence.detail}")
        if report.divergences and args.corpus:
            print(f"shrunk reproductions appended to {args.corpus}")
    return 0 if report.ok else 1


def _parse_listen(text: str, flag: str = "--listen"):
    host, separator, port_text = text.rpartition(":")
    if not separator or not host:
        raise SystemExit(f"{flag} needs HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(f"{flag} port must be an integer, got {port_text!r}")
    if not 0 <= port <= 65535:
        raise SystemExit(f"{flag} port out of range: {port}")
    return host, port


def _cmd_monitor(args) -> int:
    from .monitor import (
        IngestQueue,
        Monitor,
        SocketIngestServer,
        StreamProducer,
    )

    from .artifact import SpecResolver

    if args.restore and args.checkpoint is None:
        raise SystemExit("--restore requires --checkpoint DIR")
    bundle = SpecResolver().load(args.spec,
                                 default_subscript=args.subscript)
    module = bundle.module
    if args.property_name is not None:
        check = module.check_named(args.property_name)
    elif module.checks:
        check = module.checks[0]
    else:
        raise SystemExit(f"{args.spec} defines no check properties")

    def emit(verdict) -> None:
        if args.format == "json":
            print(json.dumps(verdict.to_dict(), sort_keys=True), flush=True)
        else:
            label = verdict.verdict or verdict.disposition
            detail = f" ({verdict.reason})" if verdict.reason else ""
            forced = " [forced]" if verdict.forced else ""
            print(f"session {verdict.session_id}: {label}{forced} "
                  f"after {verdict.states} state(s)"
                  f" -- {verdict.disposition}{detail}", flush=True)

    if args.shards > 1:
        from .monitor import ShardedMonitor

        monitor = ShardedMonitor(
            bundle,
            shards=args.shards,
            property_name=check.name,
            max_sessions=args.max_sessions,
            idle_ttl_s=args.idle_ttl,
            batch=not args.no_batch,
            batch_size=args.batch_size,
            cache_entries=args.cache_entries,
            resolve_at_eof=args.resolve_at_eof,
            on_verdict=emit,
            channel_policy=args.queue_policy,
        )
    else:
        monitor = Monitor(
            check,
            compiled=bundle.property_named(check.name),
            max_sessions=args.max_sessions,
            idle_ttl_s=args.idle_ttl,
            batch=not args.no_batch,
            batch_size=args.batch_size,
            cache_entries=args.cache_entries,
            resolve_at_eof=args.resolve_at_eof,
            on_verdict=emit,
        )
    if args.restore:
        header = monitor.restore_from(args.checkpoint)
        print(f"[monitor] restored {header.get('sessions_live', 0)} live "
              f"session(s) from {args.checkpoint} "
              f"(stream position: {header.get('records_ingested', 0)} "
              "record(s))",
              file=sys.stderr, flush=True)
    queue = IngestQueue(maxsize=args.queue_size, policy=args.queue_policy)
    server = None
    stream = None
    if args.listen is not None:
        host, port = _parse_listen(args.listen)
        server = SocketIngestServer(host, port, queue)
        server.start()
        print(f"[monitor] listening on {server.host}:{server.port} "
              f"(property {check.name!r}; interrupt to finish)",
              file=sys.stderr, flush=True)
    else:
        if args.input == "-":
            stream = sys.stdin
        else:
            stream = open(args.input, "r", encoding="utf-8")
        StreamProducer(stream, queue,
                       close_stream=args.input != "-").start()

    heartbeat_s = args.heartbeat if args.heartbeat > 0 else None
    try:
        report = monitor.run_queue(
            queue, heartbeat_s=heartbeat_s, heartbeat_stream=sys.stderr,
            checkpoint_dir=args.checkpoint,
            checkpoint_period_s=args.checkpoint_period,
        )
    except KeyboardInterrupt:
        queue.close()
        if args.checkpoint is not None:
            report = monitor.suspend(args.checkpoint)
        else:
            report = monitor.finish()
    finally:
        if server is not None:
            server.stop()

    if args.format == "json":
        print(json.dumps(report.to_dict(), sort_keys=True), flush=True)
    else:
        metrics = report.metrics
        print(f"\nmonitored {metrics.sessions_started} session(s), "
              f"{metrics.states_applied} state(s) "
              f"({metrics.states_per_s:.0f}/s), "
              f"sharing {metrics.sharing_ratio:.2f}")
        for label, count in sorted(metrics.verdicts.items()):
            print(f"  {label:<20} {count}")
        if metrics.malformed_records:
            print(f"  malformed records    {metrics.malformed_records}")
            for line, error in report.quarantine:
                print(f"    {line[:80]!r}: {error}")
        if metrics.dropped_records:
            print(f"  dropped records      {metrics.dropped_records}")
    return 0 if report.ok else 1


def _cmd_worker(args) -> int:
    from .api.transport.worker import run_worker

    host, port = _parse_listen(args.connect, flag="--connect")
    return run_worker(host, port, slots=args.slots,
                      connect_timeout_s=args.connect_timeout)


def _cmd_list(_args) -> int:
    for impl in all_implementations():
        label = "beta  " if impl.beta else "mature"
        if impl.should_fail:
            numbers = ",".join(str(n) for n in impl.fault_numbers)
            print(f"{impl.name:<22} [{label}] fails (problems {numbers})")
        else:
            print(f"{impl.name:<22} [{label}] passes")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compile":
            return _cmd_compile(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        if args.command == "monitor":
            return _cmd_monitor(args)
        if args.command == "worker":
            return _cmd_worker(args)
        return _cmd_list(args)
    except BrokenPipeError:  # e.g. piping into `head`
        return 0


if __name__ == "__main__":
    sys.exit(main())
