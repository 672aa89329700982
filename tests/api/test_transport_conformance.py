"""Transport conformance: every PoolTransport yields the serial truth.

The ``PoolTransport`` seam promises that *how* tasks reach workers --
forked processes, threads, or ``repro worker`` processes on the far end
of a TCP socket -- never changes *what* the batch reports: verdicts,
counterexamples (shrunk included) and the deterministic reporter event
stream must be byte-identical to the serial loop with the same seeds.

This suite runs one mixed batch (a passing campaign, a failing+shrunk
campaign via the ``import:`` app registry, and a failing TodoMVC
implementation) through every transport -- the inline one at one and
at four sessions in flight included -- and compares against serial.
The TCP half additionally pins the fabric's failure semantics with a
hand-rolled fake worker speaking the wire protocol:

* a worker that dies mid-task has exactly that ``(campaign, index)``
  requeued (and logged) -- surviving workers finish the batch with
  verdicts still identical to serial;
* when *every* worker dies, the batch aborts with a
  :class:`WorkerCrashed` naming the exact in-flight ``(campaign,
  index)`` ids;
* ``KeyboardInterrupt`` mid-batch tears the fabric down cleanly
  (workers exit 0, nothing hangs);
* one live transport serves many batches (the epoch logic).
"""

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import (
    CheckSession,
    CheckTarget,
    InlineTransport,
    Reporter,
    SessionConfig,
    TcpTransport,
    WorkerCrashed,
)
from repro.api.transport.wire import (
    PROTOCOL_VERSION,
    recv_frame,
    send_frame,
)
from repro.apps.eggtimer import egg_timer_app
from repro.apps.todomvc import implementation_named
from repro.checker import RunnerConfig
from repro.specs import load_eggtimer_spec, load_todomvc_spec, spec_path
from tests.api.test_scheduler import (
    RecordingReporter,
    assert_batches_identical,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def worker_env() -> dict:
    """Subprocess env where both ``repro`` and this test package (for
    the ``import:`` registry) resolve."""
    env = dict(os.environ)
    parts = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def start_worker(port: int, slots: int = 1) -> subprocess.Popen:
    argv = [sys.executable, "-m", "repro", "worker",
            "--connect", f"127.0.0.1:{port}", "--slots", str(slots)]
    return subprocess.Popen(
        argv, env=worker_env(), cwd=str(REPO_ROOT),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def conformance_targets():
    """A passing, a failing+shrinking, and a failing-TodoMVC campaign,
    each carrying the remote descriptor a ``repro worker`` needs."""
    egg = load_eggtimer_spec().check_named("safety")
    todo = load_todomvc_spec(default_subscript=40).check_named("safety")
    egg_path = spec_path("eggtimer.strom")
    todo_path = spec_path("todomvc.strom")
    return [
        CheckTarget(
            "egg-ok", egg_timer_app(), spec=egg,
            config=RunnerConfig(tests=4, scheduled_actions=15,
                                demand_allowance=10, seed=7, shrink=False),
            remote={"spec": egg_path, "app": "eggtimer"},
        ),
        CheckTarget(
            "egg-faulty", egg_timer_app(decrement=2), spec=egg,
            config=RunnerConfig(tests=5, scheduled_actions=20,
                                demand_allowance=10, seed=7, shrink=True),
            remote={"spec": egg_path,
                    "app": "import:tests.api.transport_apps:faulty_egg"},
        ),
        CheckTarget(
            "todomvc-failing",
            implementation_named("angularjs").app_factory(), spec=todo,
            config=RunnerConfig(tests=4, scheduled_actions=40,
                                demand_allowance=20, seed=2, shrink=True),
            remote={"spec": todo_path, "app": "todomvc:angularjs",
                    "subscript": 40},
        ),
    ]


def run_batch(session_cfg: SessionConfig):
    reporter = RecordingReporter()
    session = CheckSession(reporters=[reporter])
    batch = session.check_many(conformance_targets(), session=session_cfg)
    return batch, reporter.events


@pytest.fixture
def tcp_fabric():
    """Factory for a live TCP transport plus ``repro worker``
    subprocesses, torn down (and reaped) after the test."""
    transports, procs = [], []

    def make(workers: int = 2, slots: int = 1, **kwargs) -> TcpTransport:
        kwargs.setdefault("min_workers", workers * slots)
        transport = TcpTransport(**kwargs)
        transports.append(transport)
        for _ in range(workers):
            procs.append(start_worker(transport.port, slots))
        return transport

    yield make
    for transport in transports:
        transport.close()
    for proc in procs:
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
            proc.kill()
            proc.wait()


class FakeWorker:
    """A hand-rolled worker speaking just enough of the wire protocol
    to take a task and then die at a chosen moment."""

    def __init__(self, port: int, pid: int = 99999, host: str = "fake"):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.settimeout(30.0)
        self.label = f"{pid}@{host}"
        send_frame(self.sock, {
            "type": "hello", "version": PROTOCOL_VERSION,
            "slots": 1, "host": host, "pid": pid,
        })
        welcome = recv_frame(self.sock)
        assert welcome["type"] == "welcome"

    def take_task(self) -> dict:
        """Ask for work until a task frame arrives, then keep it."""
        send_frame(self.sock, {"type": "next"})
        while True:
            message = recv_frame(self.sock)
            if message["type"] == "task":
                return message
            assert message["type"] == "wait"
            send_frame(self.sock, {"type": "next"})

    def die(self) -> None:
        self.sock.close()


class TestTransportIdentity:
    """Acceptance bar: distributed == pooled == serial, byte for byte."""

    @pytest.fixture(scope="class")
    def serial(self):
        return run_batch(SessionConfig(jobs=1))

    @pytest.mark.parametrize("kind", ["fork", "thread"])
    def test_local_transports_match_serial(self, kind, serial):
        serial_batch, serial_events = serial
        batch, events = run_batch(SessionConfig(jobs=2, transport=kind))
        assert_batches_identical(serial_batch, batch)
        assert events == serial_events
        assert batch.metrics.transport == kind

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_inline_transport_matches_serial(self, jobs, serial):
        """An explicit InlineTransport keeps the batch in the caller's
        thread at any width."""
        serial_batch, serial_events = serial
        batch, events = run_batch(SessionConfig(
            jobs=jobs, transport=InlineTransport()
        ))
        assert_batches_identical(serial_batch, batch)
        assert events == serial_events
        assert batch.metrics.transport == "serial"

    def test_tcp_sharded_over_two_workers_matches_serial(
        self, serial, tcp_fabric
    ):
        serial_batch, serial_events = serial
        transport = tcp_fabric(workers=2)
        batch, events = run_batch(
            SessionConfig(jobs=2, transport=transport)
        )
        assert_batches_identical(serial_batch, batch)
        assert events == serial_events
        assert batch.metrics.transport == "tcp"
        # The batch genuinely sharded: both remote hosts ran tasks, and
        # every completed task is attributed to one of them.
        host_tasks = batch.metrics.host_tasks()
        assert len(host_tasks) == 2
        assert all(count > 0 for count in host_tasks.values())
        assert sum(host_tasks.values()) == batch.metrics.tasks_completed

    def test_one_transport_serves_many_batches(self, serial, tcp_fabric):
        serial_batch, _ = serial
        transport = tcp_fabric(workers=2)
        first, _ = run_batch(SessionConfig(jobs=2, transport=transport))
        second, _ = run_batch(SessionConfig(jobs=2, transport=transport))
        assert_batches_identical(serial_batch, first)
        assert_batches_identical(serial_batch, second)


class TestTcpExecutorCounts:
    """A remote worker counts executor starts as a local run does."""

    @staticmethod
    def _egg_batch(transport, reuse):
        target = CheckTarget(
            "egg", egg_timer_app(),
            spec=load_eggtimer_spec().check_named("safety"),
            config=RunnerConfig(tests=3, scheduled_actions=8,
                                demand_allowance=5, seed=3, shrink=False),
            remote={"spec": spec_path("eggtimer.strom"), "app": "eggtimer"},
        )
        return CheckSession().check_many([target], session=SessionConfig(
            transport=transport, reuse_executors=reuse,
        )).metrics

    @pytest.mark.parametrize(
        "reuse, counts", [(False, (0, 3)), (True, (2, 1))]
    )
    def test_warm_and_cold_counts_match_the_inline_transport(
        self, tcp_fabric, reuse, counts
    ):
        inline = self._egg_batch(InlineTransport(), reuse)
        assert (inline.warm_hits, inline.cold_starts) == counts
        remote = self._egg_batch(tcp_fabric(workers=1), reuse)
        assert remote.transport == "tcp"
        assert (remote.warm_hits, remote.cold_starts) == counts


class TestTcpFailureSemantics:
    def test_dead_worker_task_is_requeued_and_attributed(self, tcp_fabric):
        serial_batch, _ = run_batch(SessionConfig(jobs=1))
        transport = tcp_fabric(workers=0, min_workers=1,
                               heartbeat_timeout_s=30.0)
        fake = FakeWorker(transport.port)

        box = {}

        def drive():
            try:
                box["batch"], _ = run_batch(
                    SessionConfig(jobs=2, transport=transport)
                )
            except BaseException as err:  # pragma: no cover - surfaced below
                box["error"] = err

        thread = threading.Thread(target=drive)
        thread.start()
        taken = fake.take_task()
        fake.die()
        # A real worker picks up the requeued task and drains the batch.
        proc = start_worker(transport.port)
        thread.join(timeout=180)
        assert not thread.is_alive(), "batch never completed after requeue"
        assert "error" not in box, box.get("error")
        assert_batches_identical(serial_batch, box["batch"])
        # The loss is attributed to the exact (campaign, index) pair.
        assert transport.requeue_log == [(fake.label, ("egg-ok", 0))]
        assert int(taken["id"]) == 0
        transport.close()
        assert proc.wait(timeout=15) == 0

    def test_all_workers_dead_aborts_naming_in_flight_tasks(
        self, tcp_fabric
    ):
        transport = tcp_fabric(workers=0, min_workers=1,
                               connect_timeout_s=1.5)
        fake = FakeWorker(transport.port)

        box = {}

        def drive():
            try:
                run_batch(SessionConfig(jobs=2, transport=transport))
            except BaseException as err:
                box["error"] = err

        thread = threading.Thread(target=drive)
        thread.start()
        fake.take_task()
        fake.die()
        thread.join(timeout=60)
        assert not thread.is_alive()
        crash = box.get("error")
        assert isinstance(crash, WorkerCrashed)
        # The crash names exactly what died: the dispatched task by its
        # (campaign, index) id, and every never-reported task.
        assert crash.in_flight == [("egg-ok", 0)]
        assert ("egg-ok", 0) in crash.unreported
        assert len(crash.unreported) == sum(
            t.config.tests for t in conformance_targets()
        )

    def test_keyboard_interrupt_tears_the_fabric_down(self, tcp_fabric):
        transport = tcp_fabric(workers=1)

        class Bomb(Reporter):
            def on_test_end(self, property_name, index, result):
                raise KeyboardInterrupt()

        session = CheckSession(reporters=[Bomb()])
        with pytest.raises(KeyboardInterrupt):
            session.check_many(
                conformance_targets(),
                session=SessionConfig(jobs=2, transport=transport),
            )
        transport.close()
        # The worker saw a clean shutdown frame, not a dead socket.
        # (The fixture would kill a hung worker; exit 0 is the claim.)

    def test_clean_shutdown_exits_workers_zero(self):
        transport = TcpTransport(min_workers=1)
        proc = start_worker(transport.port)
        _await(lambda: transport._workers, timeout_s=30.0)
        transport.close()
        assert proc.wait(timeout=15) == 0


class TestTcpCapacity:
    def test_capacity_sums_connected_worker_slots(self):
        transport = TcpTransport(min_workers=1)
        try:
            assert transport.capacity() == 1  # floor before any join
            single = FakeWorker(transport.port)
            _await(lambda: len(transport._workers) == 1)
            assert transport.capacity() == 1
            # slots announced in hello are what capacity() sums.
            fat = socket.create_connection(("127.0.0.1", transport.port))
            fat.settimeout(10.0)
            send_frame(fat, {"type": "hello",
                             "version": PROTOCOL_VERSION,
                             "slots": 3, "host": "fat", "pid": 1})
            assert recv_frame(fat)["type"] == "welcome"
            _await(lambda: transport.capacity() == 4)
            fat.close()
            single.die()
        finally:
            transport.close()

    def test_version_mismatch_is_rejected(self):
        transport = TcpTransport(min_workers=1)
        try:
            sock = socket.create_connection(("127.0.0.1", transport.port))
            sock.settimeout(10.0)
            send_frame(sock, {"type": "hello", "version": 999,
                              "slots": 1, "host": "x", "pid": 1})
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert "version" in reply["reason"]
            sock.close()
        finally:
            transport.close()


class TestCoordinatorWakeup:
    def test_await_workers_wakes_on_join_not_on_a_poll_tick(self):
        """``_await_workers`` waits on the join condition: a worker
        landing half a second in must unblock the batch immediately,
        not after a sleep-poll period (the old loop dozed up to half a
        heartbeat -- seconds -- past the final join)."""
        transport = TcpTransport(min_workers=1, connect_timeout_s=30.0)
        workers = []
        try:
            def late_join():
                time.sleep(0.5)
                workers.append(FakeWorker(transport.port))

            thread = threading.Thread(target=late_join)
            thread.start()
            started = time.monotonic()
            transport._await_workers()
            elapsed = time.monotonic() - started
            thread.join()
            assert elapsed < 2.0, (
                f"_await_workers returned {elapsed:.2f}s after start; the "
                "join should have woken it at ~0.5s"
            )
        finally:
            for worker in workers:
                worker.die()
            transport.close()

    def test_handshake_completing_after_close_is_shut_down(self):
        """The join/close race: a connection whose handshake straddles
        ``close()`` must still be told to shut down -- a worker orphaned
        off the snapshot list would otherwise hang forever."""
        transport = TcpTransport(min_workers=1)
        sock = socket.create_connection(("127.0.0.1", transport.port))
        sock.settimeout(10.0)
        time.sleep(0.3)  # the handler is now blocked reading our hello
        transport.close()
        send_frame(sock, {"type": "hello", "version": PROTOCOL_VERSION,
                          "slots": 1, "host": "late", "pid": 3})
        assert recv_frame(sock)["type"] == "welcome"
        assert recv_frame(sock)["type"] == "shutdown"
        sock.close()


def _await(condition, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.05)
