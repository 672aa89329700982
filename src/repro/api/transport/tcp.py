"""The remote transport: a coordinator-side work queue over TCP.

:class:`TcpTransport` binds a listening socket and serves task batches
to ``repro worker --connect HOST:PORT`` processes.  The protocol is
pull-based: a worker announces itself (``hello``), then loops asking
for work (``next``) and streaming outcomes back (``result`` /
``failure``).  Frames are length-prefixed JSON
(:mod:`repro.api.transport.wire`).

Design points, in the order they bite:

* **Determinism is the coordinator's job.**  Workers get ``(campaign,
  index)`` descriptors and derive the same per-index seed the serial
  loop would; arrival order is scheduling noise that the caller's
  ordered merge erases.  Nothing here needs to care which host ran
  what.
* **Closures cannot travel.**  Remote tasks run from
  :attr:`PoolTask.payload` -- a JSON-able descriptor the worker
  rebuilds a runner from (re-running the spec front end once per host,
  since a remote process cannot inherit compiled state by fork
  copy-on-write).  Coordinator-side shared state (the stop-on-failure
  horizon) is updated by evaluating ``skip`` at dispatch time and
  calling :attr:`PoolTask.record` as each result lands.
* **Workers die.**  Any frame refreshes a worker's liveness (idle
  workers send ``ping``\\ s); a connection that goes quiet past the
  heartbeat timeout, or EOFs, is declared dead -- its in-flight task
  is requeued at the *front* of the queue so surviving workers retry
  it first, and the loss is attributed to the exact task id in
  :attr:`TcpTransport.requeue_log`.  Only when no worker remains (and
  none joins within the grace period) does the batch abort with
  :class:`WorkerCrashed` naming the in-flight and unreported ids.
* **Batches abort.**  Every ``run`` gets a fresh epoch, stamped into
  ``task`` frames and echoed in results; a straggler result from an
  interrupted batch is dropped instead of corrupting the next one.

The transport outlives individual ``run`` calls -- workers connect
once and serve every batch until :meth:`close` tells them to exit.
"""

from __future__ import annotations

import collections
import queue as queue_module
import socket
import threading
from typing import Callable, Deque, Dict, Hashable, List, Optional, Sequence

from .base import SKIPPED, PoolTask, PoolTransport, TaskFailure, WorkerCrashed
from .wire import PROTOCOL_VERSION, FrameError, recv_frame, send_frame, unpack

__all__ = ["TcpTransport"]


class _RemoteWorker:
    """Coordinator-side record of one connected worker."""

    __slots__ = ("sock", "worker_id", "host", "pid", "last_seen",
                 "in_flight", "alive")

    def __init__(self, sock, worker_id, host, pid, now) -> None:
        self.sock = sock
        self.worker_id = worker_id
        self.host = host
        self.pid = pid
        self.last_seen = now
        #: The wire id (batch position) dispatched but not yet
        #: reported: a worker asks for a task only after reporting its
        #: last one, so it has at most one.
        self.in_flight: Optional[int] = None
        self.alive = True

    @property
    def label(self) -> str:
        """Per-host attribution label surfaced in ``PoolMetrics``."""
        return f"{self.pid}@{self.host}"


class TcpTransport(PoolTransport):
    """Shard task batches across ``repro worker`` processes over TCP."""

    name = "tcp"
    remote = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        min_workers: int = 1,
        connect_timeout_s: float = 30.0,
        heartbeat_timeout_s: float = 10.0,
    ) -> None:
        self.min_workers = max(1, min_workers)
        self.connect_timeout_s = connect_timeout_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        #: ``(worker label, task id)`` pairs requeued after a death --
        #: the crash-attribution trail the conformance suite asserts on.
        self.requeue_log: List[tuple] = []
        self.last_workers: List[_RemoteWorker] = []
        self._workers: List[_RemoteWorker] = []
        self._events: "queue_module.Queue" = queue_module.Queue()
        self._next_worker_id = 0
        self._epoch = 0
        self._closing = False
        self._lock = threading.Lock()
        #: Wakes ``_await_workers`` the instant a worker joins (shares
        #: ``_lock``, so waiting drops it and notification is race-free).
        self._join_condition = threading.Condition(self._lock)
        # Bind eagerly so ``self.port`` is knowable before any worker
        # process is launched (port=0 asks the OS for a free one).
        self._listener = socket.create_server((host, port))
        self.host = host
        self.port = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="tcp-accept"
        )
        self._accept_thread.start()

    # ------------------------------------------------------------------
    # Connection handling (accept + per-worker reader threads)
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._serve_connection, args=(sock,), daemon=True
            ).start()

    def _serve_connection(self, sock: socket.socket) -> None:
        """Handshake, then pump this worker's frames into the event
        queue until it disconnects."""
        try:
            hello = recv_frame(sock)
            if hello.get("type") != "hello":
                raise FrameError(f"expected hello, got {hello.get('type')!r}")
            host, pid = hello.get("host", "?"), hello.get("pid", 0)
            if hello.get("version") != PROTOCOL_VERSION:
                reason = (f"protocol version {hello.get('version')} != "
                          f"{PROTOCOL_VERSION}")
            elif not isinstance(host, str):
                reason = f"hello 'host' must be a string, got {host!r}"
            elif not isinstance(pid, int) or isinstance(pid, bool):
                reason = f"hello 'pid' must be an integer, got {pid!r}"
            else:
                reason = None
            if reason is not None:
                send_frame(sock, {"type": "error", "reason": reason})
                sock.close()
                return
        except (OSError, FrameError):
            sock.close()
            return
        with self._lock:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
        worker = _RemoteWorker(sock, worker_id, host=host, pid=pid,
                               now=self._now())
        try:
            send_frame(sock, {"type": "welcome", "worker_id": worker_id})
        except OSError:
            sock.close()
            return
        with self._join_condition:
            # A worker completing its handshake after close() snapshot
            # the list would otherwise be orphaned: nothing ever sends
            # it a shutdown, and it hangs until this process dies.
            joined = not self._closing
            if joined:
                self._workers.append(worker)
                self._join_condition.notify_all()
        if not joined:
            try:
                send_frame(sock, {"type": "shutdown"})
            except OSError:
                pass
            sock.close()
            return
        self._events.put(("join", worker, None))
        try:
            while True:
                message = recv_frame(sock)
                worker.last_seen = self._now()
                if message.get("type") == "ping":
                    continue
                self._events.put(("frame", worker, message))
        except (OSError, FrameError) as err:
            self._events.put(("leave", worker, repr(err)))

    def _drop_worker(self, worker: _RemoteWorker) -> None:
        worker.alive = False
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
        try:
            worker.sock.close()
        except OSError:
            pass

    def _send(self, worker: _RemoteWorker, message: dict) -> bool:
        try:
            send_frame(worker.sock, message)
            return True
        except OSError as err:
            self._events.put(("leave", worker, repr(err)))
            return False

    # ------------------------------------------------------------------
    # PoolTransport surface
    # ------------------------------------------------------------------

    def capacity(self) -> int:
        """How many workers are connected now -- how many tests this
        transport runs at once (each worker runs one)."""
        with self._lock:
            return len(self._workers)

    def run(
        self,
        tasks: Sequence[PoolTask],
        jobs: int,
        on_result: Optional[Callable[[Hashable, object, float], None]] = None,
        metrics=None,
        worker_exit: Optional[Callable[[], None]] = None,
    ) -> Dict[Hashable, object]:
        # ``jobs`` bounds nothing here -- width is however many workers
        # are connected; ``worker_exit`` is a local-cache hook
        # with no remote meaning (workers close their own caches).
        del jobs, worker_exit
        for task in tasks:
            if task.payload is None:
                raise ValueError(
                    f"task {task.id!r} has no wire payload; remote "
                    "transports need scheduler-built task descriptors"
                )
        self._epoch += 1
        epoch = self._epoch
        with self._lock:
            for worker in self._workers:
                worker.in_flight = None  # stale from an abort

        pending: Deque[int] = collections.deque(range(len(tasks)))
        outcomes: Dict[Hashable, object] = {}
        self._await_workers()

        def settle(position: int, outcome: object, worker, elapsed: float) -> None:
            task = tasks[position]
            if task.record is not None:
                task.record(outcome)
            outcomes[task.id] = outcome
            if metrics is not None:
                metrics.record_task(
                    worker.worker_id, elapsed, outcome == SKIPPED,
                    host=worker.label,
                )
            if on_result is not None:
                on_result(task.id, outcome, elapsed)

        def dispatch(worker: _RemoteWorker) -> None:
            """Answer a ``next``: send one task, or ``wait``."""
            if worker.in_flight is not None:
                # Asking again before reporting drops the task: it is
                # retried first, like a dead worker's.
                pending.appendleft(worker.in_flight)
                worker.in_flight = None
            while pending:
                position = pending.popleft()
                task = tasks[position]
                if task.id in outcomes:
                    continue
                # Stop-on-failure skip, decided here: remote workers
                # cannot read the coordinator's shared counters.
                if task.skip is not None and task.skip():
                    settle(position, SKIPPED, worker, 0.0)
                    continue
                worker.in_flight = position
                # A failed send queues a leave event, which requeues it.
                self._send(worker, {
                    "type": "task",
                    "id": position,
                    "epoch": epoch,
                    "body": task.payload,
                })
                return
            self._send(worker, {"type": "wait", "for_s": self._heartbeat_wait()})

        def reap(worker: _RemoteWorker, reason: str) -> None:
            """Bury a dead worker, requeueing its in-flight task."""
            if not worker.alive:
                return
            self._drop_worker(worker)
            position, worker.in_flight = worker.in_flight, None
            if position is not None and tasks[position].id not in outcomes:
                self.requeue_log.append((worker.label, tasks[position].id))
                pending.appendleft(position)

        no_worker_since: Optional[float] = None
        while len(outcomes) < len(tasks):
            if metrics is not None:
                metrics.sample_queue_depth(len(tasks) - len(outcomes))
            try:
                kind, worker, body = self._events.get(
                    timeout=self._heartbeat_wait()
                )
            except queue_module.Empty:
                self._check_heartbeats(reap)
                no_worker_since = self._check_starvation(
                    tasks, outcomes, no_worker_since
                )
                continue
            no_worker_since = None
            if kind == "join":
                continue  # it will ask for work itself
            if kind == "leave":
                reap(worker, body)
                continue
            message = body
            mtype = message.get("type")
            if mtype == "next":
                if worker.alive:
                    dispatch(worker)
            elif mtype in ("result", "failure"):
                if message.get("epoch") != epoch:
                    continue  # straggler from an aborted batch
                position = int(message["id"])
                if worker.in_flight == position:
                    worker.in_flight = None
                if tasks[position].id in outcomes:
                    continue  # completed by a requeue race
                if mtype == "result":
                    outcome = unpack(message["payload"])
                    if metrics is not None:
                        metrics.warm_hits += int(message.get("warm_hits", 0))
                        metrics.cold_starts += int(message.get("cold_starts", 0))
                else:
                    outcome = TaskFailure(unpack(message["payload"]))
                settle(position, outcome, worker,
                       float(message.get("elapsed", 0.0)))
        self.last_workers = list(self._workers)
        return outcomes

    def _await_workers(self) -> None:
        """Block until at least ``min_workers`` workers have joined.

        Joins notify ``_join_condition`` directly, so the wait returns
        the instant the quorum lands -- batch start-up pays the TCP
        handshake, not a sleep-poll period (the old loop dozed up to
        half a heartbeat past the final join).
        """
        deadline = self._now() + self.connect_timeout_s
        with self._join_condition:
            while True:
                joined = len(self._workers)
                if joined >= self.min_workers:
                    return
                remaining = deadline - self._now()
                if remaining <= 0:
                    raise WorkerCrashed(
                        f"only {joined} of {self.min_workers} remote "
                        f"worker(s) connected to {self.host}:{self.port} "
                        f"within {self.connect_timeout_s:.0f}s"
                    )
                self._join_condition.wait(timeout=remaining)

    def _check_heartbeats(self, reap) -> None:
        now = self._now()
        with self._lock:
            stale = [
                w for w in self._workers
                if now - w.last_seen > self.heartbeat_timeout_s
            ]
        for worker in stale:
            reap(worker, "heartbeat timeout")

    def _check_starvation(self, tasks, outcomes, no_worker_since):
        """All workers gone mid-batch: give replacements a grace
        period, then abort naming the lost work."""
        with self._lock:
            if self._workers:
                return None
        now = self._now()
        if no_worker_since is None:
            return now
        if now - no_worker_since <= self.connect_timeout_s:
            return no_worker_since
        unreported = [t.id for t in tasks if t.id not in outcomes]
        in_flight = [task_id for _, task_id in self.requeue_log
                     if task_id in unreported]
        raise WorkerCrashed(
            "every remote worker disconnected; "
            f"task(s) {unreported} never reported "
            f"(last in-flight: {in_flight})",
            in_flight=in_flight,
            unreported=unreported,
        )

    def close(self) -> None:
        """Tell every worker to exit, then tear the sockets down."""
        with self._lock:
            # Under the lock: a handshake is either in the snapshot
            # (shut down below) or sees ``_closing`` and self-rejects.
            self._closing = True
            workers = list(self._workers)
            self._workers = []
        for worker in workers:
            try:
                send_frame(worker.sock, {"type": "shutdown"})
            except OSError:
                pass
            try:
                worker.sock.close()
            except OSError:
                pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=1.0)
