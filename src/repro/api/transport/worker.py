"""The remote worker: ``repro worker --connect HOST:PORT``.

The worker is the other half of the :mod:`~repro.api.transport.tcp`
protocol.  It dials the coordinator, announces itself (``hello``), and
pulls tasks until told to stop::

    next -> task{id, epoch, body} -> result{id, epoch, payload}
         -> wait{for_s}           (nothing pending right now)
         -> shutdown              (batch fabric is closing)

A task ``body`` is the JSON descriptor built by
:func:`~repro.api.scheduler.campaign_tasks` on the coordinator: which
``.strom`` file, which property, which application (a registry string,
see :func:`resolve_app`), the full ``RunnerConfig``, and the test
index.  A remote process cannot inherit the coordinator's compiled
state by fork copy-on-write, so the descriptor ships the compiled
**artifact bytes** (``artifact_b64`` + ``source_hash``, see
:mod:`repro.artifact`) and the worker *loads* instead of re-running the
front end; descriptors without artifact bytes fall back to elaborating
the spec path locally, memoized by ``(path, content-hash, subscript)``
so a 1000-test campaign -- or a rebuilt campaign for the same unchanged
file -- compiles at most once per host, while an *edited* file under
the same path is never served stale.

Determinism: the worker seeds each test with the same
``f"{seed}/{index}"`` string every other transport uses, so a task's
:class:`~repro.checker.result.TestResult` -- streamed back as the very
pickle bytes a fork-pool worker would enqueue -- is byte-identical no
matter which host ran it.

Executor reuse is per-process (a private
:class:`~repro.api.lease.ExecutorCache`): warm executors never cross
the wire, matching the fork pool where they never cross process
boundaries.  Every test is leased -- from a disabled cache when the
batch turned reuse off -- and its result frame reports the lease's own
warm flag, so the coordinator's warm/cold counts match a local run's.
``--slots N`` forks N serving processes (threads where ``fork`` is
unavailable), each with its own connection, cache and runner cache.

Every slot is one pull loop on one connection: send ``next``, read the
reply frame, run the task (if it is one) to completion through
``Runner.run_single_test``, send its result, repeat.  Only a side
thread's liveness pings share the connection, behind a send lock.  The
coordinator's ``capacity()`` (and ``--jobs auto``) is the sum of the
connected slots.

This module is imported lazily (the CLI's ``worker`` command, tests):
it pulls in the spec front end and the session layer, which the
transport package itself must not.
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
import random
import socket
import sys
import threading
import time
from typing import Dict

from .wire import PROTOCOL_VERSION, FrameError, pack, recv_frame, send_frame

__all__ = ["resolve_app", "run_worker"]

#: Idle-liveness period.  Tasks can run for minutes; the coordinator's
#: heartbeat reaper only sees socket frames, so a side thread pings
#: well inside the coordinator's (default 10 s) timeout.
PING_PERIOD_S = 2.0


def resolve_app(spec: str):
    """Turn a registry string into an application / executor factory.

    * ``todomvc`` / ``todomvc:NAME`` -- the bundled TodoMVC app (or one
      of the 43 named implementations);
    * ``eggtimer`` -- the bundled egg-timer app;
    * ``import:MODULE:ATTR`` -- any importable factory (``ATTR`` may be
      dotted); the named attribute is the factory itself, coerced
      exactly like ``CheckSession``'s first argument.

    Strings, not callables, because this is the coordinator's only way
    to tell a remote process *what to test* -- the factory closure
    cannot travel over the wire.
    """
    kind, _, rest = spec.partition(":")
    if kind == "todomvc":
        from ...apps.todomvc import implementation_named, todomvc_app

        if rest:
            return implementation_named(rest).app_factory()
        return todomvc_app()
    if kind == "eggtimer":
        from ...apps.eggtimer import egg_timer_app

        return egg_timer_app()
    if kind == "import":
        module_name, _, attribute = rest.partition(":")
        if not module_name or not attribute:
            raise ValueError(
                f"app {spec!r} must look like import:MODULE:ATTR"
            )
        target = importlib.import_module(module_name)
        for part in attribute.split("."):
            target = getattr(target, part)
        return target
    raise ValueError(
        f"unknown app {spec!r}; use todomvc[:name], eggtimer or "
        "import:MODULE:ATTR"
    )


class _RunnerCache:
    """Per-process runner cache: the front end runs at most once per
    spec *content*, and never at all when artifact bytes arrive.

    The runner key is the canonical JSON of the descriptor minus the
    artifact payload (its ``source_hash`` stands in for the bytes), so
    two campaigns differing only in test count or seed still share
    nothing they shouldn't -- and the 43-target audit builds one runner
    per implementation, not one per test.  Spec resolution delegates to
    a :class:`~repro.artifact.SpecResolver`: inline ``artifact_b64``
    bytes are decoded once per ``source_hash``, and bare paths are
    elaborated once per ``(path, content-hash, subscript)`` -- a rebuilt
    campaign for the same unchanged file is a memo hit, an edited file
    is a recompile, never a stale serve.
    """

    def __init__(self) -> None:
        from ...artifact import SpecResolver

        self._resolver = SpecResolver()
        self._runners: Dict[str, object] = {}

    def resolver_stats(self):
        """``(hits, misses)`` of the spec-content memo (tests)."""
        return self._resolver.stats()

    def runner_for(self, descriptor: dict):
        import base64

        from ...checker.config import RunnerConfig
        from ...checker.runner import Runner
        from ...quickltl import DEFAULT_SUBSCRIPT
        from ..session import _coerce_executor_factory

        keyed = {
            name: value
            for name, value in descriptor.items()
            if name != "artifact_b64"
        }
        key = json.dumps(keyed, sort_keys=True)
        runner = self._runners.get(key)
        if runner is not None:
            return runner
        subscript = int(descriptor.get("subscript", DEFAULT_SUBSCRIPT))
        if descriptor.get("artifact_b64"):
            bundle = self._resolver.load_bytes(
                base64.b64decode(descriptor["artifact_b64"]),
                source_hash=descriptor.get("source_hash"),
                default_subscript=subscript,
            )
        else:
            bundle = self._resolver.load(
                descriptor["spec"], default_subscript=subscript
            )
        check = bundle.check_named(descriptor["property"])
        compiled = bundle.property_named(descriptor["property"])
        factory = _coerce_executor_factory(resolve_app(descriptor["app"]))
        config = RunnerConfig(**descriptor.get("config", {}))
        runner = Runner(check, factory, config, compiled=compiled)
        # Pay the per-runner warm-up now, outside any test's clock --
        # the same pre-fork warming the local pools do.
        runner.watched_events()
        runner.compiled_spec()
        self._runners[key] = runner
        return runner


def _connect(host: str, port: int, timeout_s: float) -> socket.socket:
    """Dial the coordinator, retrying briefly: workers are routinely
    launched before the coordinator finishes binding."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            return socket.create_connection((host, port), timeout=10.0)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.1)


def _serve_slot(host: str, port: int, connect_timeout_s: float, log) -> int:
    """One slot: one connection, one pull loop.  Returns an exit code."""
    from ..lease import ExecutorCache

    # The dial timeout stays armed through the handshake: a coordinator
    # that accepts but never welcomes (e.g. torn down mid-join) must
    # not park this process forever.  Blocking mode begins after.
    sock = _connect(host, port, connect_timeout_s)
    send_lock = threading.Lock()

    def send(message: dict) -> None:
        with send_lock:
            send_frame(sock, message)

    send({
        "type": "hello",
        "version": PROTOCOL_VERSION,
        "slots": 1,
        "host": socket.gethostname(),
        "pid": os.getpid(),
    })
    try:
        welcome = recv_frame(sock)
    except socket.timeout:
        log("coordinator accepted but never welcomed us")
        return 2
    if welcome.get("type") == "error":
        log(f"coordinator rejected us: {welcome.get('reason')}")
        return 2
    if welcome.get("type") == "shutdown":
        # We joined just as the fabric was closing; a clean goodbye.
        log("coordinator said shutdown")
        return 0
    if welcome.get("type") != "welcome":
        log(f"unexpected handshake reply: {welcome!r}")
        return 2
    sock.settimeout(None)
    worker_id = welcome.get("worker_id")
    log(f"connected as worker {worker_id}")

    stop_pinging = threading.Event()

    def ping_loop() -> None:
        while not stop_pinging.wait(PING_PERIOD_S):
            try:
                send({"type": "ping"})
            except OSError:
                return

    threading.Thread(target=ping_loop, daemon=True,
                     name=f"worker-{worker_id}-ping").start()

    runners = _RunnerCache()
    cache = ExecutorCache(enabled=True)
    try:
        while True:
            send({"type": "next"})
            frame = recv_frame(sock)
            ftype = frame.get("type")
            if ftype == "wait":
                time.sleep(float(frame.get("for_s", 0.2)))
                continue
            if ftype == "shutdown":
                log("coordinator said shutdown")
                return 0
            if ftype != "task":
                log(f"ignoring unexpected frame {ftype!r}")
                continue
            _run_one(frame, runners, cache, send)
    except (OSError, FrameError) as err:
        log(f"connection lost: {err!r}")
        return 1
    finally:
        stop_pinging.set()
        cache.close()
        try:
            sock.close()
        except OSError:
            pass


def _run_one(message: dict, runners: _RunnerCache, cache, send) -> None:
    """Execute one task frame and stream its outcome back, seeded like
    every other transport."""
    from ..lease import ExecutorCache
    from ..scheduler import _test_seed

    body = message.get("body") or {}
    started = time.perf_counter()
    try:
        runner = runners.runner_for(body["runner"])
        index = int(body["index"])
        rng = random.Random(_test_seed(runner.config.seed, index))
        # Leased even with reuse off (a disabled cache: every checkout
        # is a cold start), so the result frame can report the lease's
        # own warm flag either way.
        if body.get("reuse", True):
            lease = cache.lease(runner.executor_factory)
        else:
            lease = ExecutorCache(enabled=False).lease(runner.executor_factory)
        result = runner.run_single_test(rng, lease=lease)
    except Exception as err:
        try:
            payload = pack(err)
        except (pickle.PicklingError, TypeError, AttributeError):
            payload = pack(RuntimeError(repr(err)))
        send({
            "type": "failure",
            "id": message["id"],
            "epoch": message.get("epoch"),
            "elapsed": time.perf_counter() - started,
            "error": repr(err),
            "payload": payload,
        })
        return
    send({
        "type": "result",
        "id": message["id"],
        "epoch": message.get("epoch"),
        "elapsed": time.perf_counter() - started,
        "warm_hits": int(lease.warm),
        "cold_starts": int(not lease.warm),
        "payload": pack(result),
    })


def run_worker(
    host: str,
    port: int,
    slots: int = 1,
    connect_timeout_s: float = 30.0,
    log_stream=None,
) -> int:
    """Serve a coordinator at ``host:port`` with ``slots`` parallel
    slots until it says shutdown (or the connection dies).

    Each slot is its own process (forked; threads where ``fork`` is
    unavailable) with a private connection, executor cache and runner
    cache -- the same isolation discipline as the local fork pool.
    Returns a process exit code: 0 on clean shutdown, non-zero when any
    slot lost its connection or was rejected.
    """
    stream = log_stream if log_stream is not None else sys.stderr

    def log(text: str) -> None:
        print(f"[repro worker] {text}", file=stream, flush=True)

    if slots < 1:
        raise ValueError(f"slots must be at least 1, got {slots}")
    if slots == 1:
        try:
            return _serve_slot(host, port, connect_timeout_s, log)
        except KeyboardInterrupt:
            log("interrupted")
            return 130
        except OSError as err:
            log(f"cannot reach coordinator at {host}:{port}: {err}")
            return 1

    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = None
    if ctx is None:
        import concurrent.futures

        with concurrent.futures.ThreadPoolExecutor(max_workers=slots) as pool:
            codes = list(pool.map(
                lambda _: _serve_slot(host, port, connect_timeout_s, log),
                range(slots),
            ))
        return max(codes)

    def child() -> None:
        sys.exit(_serve_slot(host, port, connect_timeout_s, log))

    processes = [ctx.Process(target=child, daemon=True) for _ in range(slots)]
    for process in processes:
        process.start()
    try:
        for process in processes:
            process.join()
    except KeyboardInterrupt:
        log("interrupted")
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join()
        return 130
    return max((process.exitcode or 0) for process in processes)
