"""Distributed fabric benchmark: workers-vs-throughput over TCP.

QuickerCheck (Krook & Svensson, 2024) reports the parallel testing
curve every PBT fan-out shows: throughput climbs with workers until a
shared bottleneck flattens it.  For the TCP fabric the bottleneck is
the coordinator -- one process feeding tasks over localhost sockets --
so the curve here is the honest cost sheet for ``repro worker``: the
same batch runs serially, then sharded over 1, 2 and 4 local worker
processes, recording tasks/second per width and the *flattening point*
(the first width whose marginal gain over the previous one is below
10%).

Two hard assertions ride along:

* **identity** -- every distributed batch's verdicts, per-test results
  and (shrunk) counterexamples are equal to serial's; the fabric is
  not allowed to buy throughput with nondeterminism;
* **tolerance** -- the best distributed wall-clock must not lose to
  serial beyond ``REPRO_BENCH_DISTRIBUTED_TOLERANCE`` (default 4.0; a
  single-core runner pays pickling, sockets and worker warm-up with no
  parallelism to show for it, so the default is deliberately generous
  -- multi-core CI can pin it down).

Results land in ``benchmarks/out/distributed_curve.json`` for the
workflow's artifact upload.

Environment knobs: ``REPRO_BENCH_DIST_WORKERS`` (comma-separated curve
widths, default ``1,2,4``), ``REPRO_BENCH_DIST_CAMPAIGNS`` (passing
egg-timer campaigns per batch, default 6), ``REPRO_BENCH_DIST_TESTS``
(tests per campaign, default 4), ``REPRO_BENCH_DISTRIBUTED_TOLERANCE``
(best-distributed/serial wall-clock ratio, default 4.0).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import CheckSession, CheckTarget, SessionConfig, TcpTransport
from repro.apps.eggtimer import egg_timer_app
from repro.apps.todomvc import implementation_named
from repro.checker import RunnerConfig
from repro.specs import load_eggtimer_spec, load_todomvc_spec, spec_path

from .harness import write_json

REPO_ROOT = Path(__file__).resolve().parents[1]

WORKER_CURVE = tuple(
    int(x)
    for x in os.environ.get("REPRO_BENCH_DIST_WORKERS", "1,2,4").split(",")
)
CAMPAIGNS = int(os.environ.get("REPRO_BENCH_DIST_CAMPAIGNS", "6"))
TESTS = int(os.environ.get("REPRO_BENCH_DIST_TESTS", "4"))
TOLERANCE = float(
    os.environ.get("REPRO_BENCH_DISTRIBUTED_TOLERANCE", "4.0")
)

#: Marginal-gain threshold under which the curve counts as flat.
FLAT_GAIN = 0.10


def _targets():
    """``CAMPAIGNS`` passing egg-timer campaigns (distinct seeds, so no
    two tasks are byte-identical) plus one failing, shrinking TodoMVC
    campaign -- the identity assertion has to cover the interesting
    path, not just green runs."""
    egg = load_eggtimer_spec().check_named("safety")
    todo = load_todomvc_spec(default_subscript=40).check_named("safety")
    egg_path = spec_path("eggtimer.strom")
    targets = [
        CheckTarget(
            f"egg-{i}", egg_timer_app(), spec=egg,
            config=RunnerConfig(tests=TESTS, scheduled_actions=15,
                                demand_allowance=10, seed=7 + i,
                                shrink=False),
            remote={"spec": egg_path, "app": "eggtimer"},
        )
        for i in range(CAMPAIGNS)
    ]
    targets.append(
        CheckTarget(
            "todomvc-angularjs",
            implementation_named("angularjs").app_factory(), spec=todo,
            config=RunnerConfig(tests=4, scheduled_actions=40,
                                demand_allowance=20, seed=2, shrink=True),
            remote={"spec": spec_path("todomvc.strom"),
                    "app": "todomvc:angularjs", "subscript": 40},
        )
    )
    return targets


def _assert_identical(serial, distributed, label):
    assert len(serial) == len(distributed), label
    for left, right in zip(serial, distributed):
        assert left.target == right.target, label
        a, b = left.result, right.result
        assert a.passed == b.passed, (label, left.target)
        assert a.tests_run == b.tests_run, (label, left.target)
        assert [r.verdict for r in a.results] == [
            r.verdict for r in b.results
        ], (label, left.target)
        for attr in ("counterexample", "shrunk_counterexample"):
            sa, sb = getattr(a, attr), getattr(b, attr)
            if sa is None:
                assert sb is None, (label, left.target, attr)
            else:
                assert sa.actions == sb.actions, (label, left.target, attr)


def _worker_env():
    env = dict(os.environ)
    parts = [str(REPO_ROOT / "src")]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def _run_inline():
    start = time.perf_counter()
    batch = CheckSession().check_many(
        _targets(), session=SessionConfig(jobs=1)
    )
    return batch, time.perf_counter() - start


def _run_distributed(workers: int):
    """One batch over ``workers`` localhost ``repro worker`` processes.

    The transport blocks until every worker has joined before timing
    starts, so the recorded wall-clock is steady-state fabric
    throughput, not python-interpreter start-up.
    """
    transport = TcpTransport(min_workers=workers)
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", f"127.0.0.1:{transport.port}"],
            env=_worker_env(), cwd=str(REPO_ROOT),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        for _ in range(workers)
    ]
    try:
        deadline = time.monotonic() + 60.0
        while transport.capacity() < workers:
            assert time.monotonic() < deadline, "workers never connected"
            time.sleep(0.05)
        start = time.perf_counter()
        batch = CheckSession().check_many(
            _targets(),
            session=SessionConfig(jobs=workers, transport=transport),
        )
        elapsed = time.perf_counter() - start
    finally:
        transport.close()
        for proc in procs:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait()
    return batch, elapsed


def _flattening_point(curve):
    """First width whose marginal throughput gain over the previous
    curve point is below ``FLAT_GAIN`` (the last width if the curve is
    still climbing everywhere measured)."""
    for prev, point in zip(curve, curve[1:]):
        if point["tasks_per_s"] < prev["tasks_per_s"] * (1.0 + FLAT_GAIN):
            return point["workers"]
    return curve[-1]["workers"]


@pytest.mark.benchmark(group="distributed")
def test_distributed_throughput_curve():
    serial_batch, serial_s = _run_inline()
    total_tasks = serial_batch.metrics.tasks_completed

    curve = []
    for workers in WORKER_CURVE:
        batch, elapsed = _run_distributed(workers)
        _assert_identical(serial_batch, batch, f"workers={workers}")
        assert batch.metrics.transport == "tcp"
        host_tasks = batch.metrics.host_tasks()
        assert sum(host_tasks.values()) == batch.metrics.tasks_completed
        curve.append({
            "workers": workers,
            "wall_s": round(elapsed, 3),
            "tasks_per_s": round(total_tasks / elapsed, 3),
            "hosts": len(host_tasks),
        })

    best = min(point["wall_s"] for point in curve)
    ratio = best / serial_s if serial_s else float("inf")
    flattening = _flattening_point(curve)
    cores = os.cpu_count() or 1

    report = {
        "campaigns": CAMPAIGNS + 1,
        "tests_per_campaign": TESTS,
        "total_tasks": total_tasks,
        "cores": cores,
        "serial_s": round(serial_s, 3),
        "serial_tasks_per_s": round(total_tasks / serial_s, 3),
        "curve": curve,
        "flattening_point_workers": flattening,
        "best_distributed_s": round(best, 3),
        "best_vs_serial_ratio": round(ratio, 3),
        "tolerance": TOLERANCE,
        "verdicts_identical": True,
    }
    write_json("distributed_curve.json", report)

    # Regression guard: the fabric's overhead on this batch must stay
    # inside the tolerance envelope relative to the serial loop.
    assert ratio <= TOLERANCE, (
        f"distributed wall-clock {best:.2f}s vs serial {serial_s:.2f}s "
        f"(ratio {ratio:.2f}) exceeds tolerance {TOLERANCE}"
    )
