"""Per-layer metrics and the self-time table of a traced run.

Layers are named by the program's modules.  Each metric, and the
end-to-end metric and workloads it should move, is listed in
``perfbench/layers.json``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

import tracing

_EXECUTOR_CALLS = tuple(
    f"domexec.DomExecutor.{method}"
    for method in ("start", "reset", "act", "pass_time", "await_events")
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class ShrinkObserver:
    """Counts replays that still fail."""

    def __init__(self) -> None:
        self.accepted = 0

    def __call__(self, args, result) -> None:
        if result is not None:
            self.accepted += bool(result.failed)


def per_layer(tracer: tracing.Tracer, rounds: list, loads: List[float],
              overhead: float, shrink: ShrinkObserver,
              full_width: int) -> Dict[str, float]:
    """Every per-layer metric's value, by name."""
    calls = tracer.calls
    self_ms = {name: s * 1000 for name, s in tracer.self_s.items()}
    layer_ms = {layer: s * 1000
                for layer, s in tracing.layer_self_s(tracer).items()}
    states = sum(r.states for r in rounds)
    records = sum(r.records for r in rounds)
    tests = sum(r.facts.get("tests", 0) for r in rounds)
    facts: Dict[str, float] = {}
    for r in rounds:
        for key, value in r.facts.items():
            if key == "max_formula_size":
                facts[key] = max(facts.get(key, 0), value)
            else:
                facts[key] = facts.get(key, 0) + value
    replays = calls.get("runner.Runner.replay", 0)
    shrinks = calls.get("shrink.shrink_counterexample", 0)
    return {
        "dom.query_calls_per_state":
            _ratio(calls.get("document.Document.query_all", 0), states),
        "dom.query_ms_per_state": _ratio(layer_ms.get("dom", 0), states),
        "executors.self_ms_per_state":
            _ratio(layer_ms.get("executors", 0), states),
        "executors.calls_per_state":
            _ratio(sum(calls.get(n, 0) for n in _EXECUTOR_CALLS), states),
        "executors.element_snapshots_per_state":
            _ratio(calls.get("state.ElementSnapshot.of_element", 0), states),
        "executors.warm_hit_ratio": _ratio(
            facts.get("warm_hits", 0),
            facts.get("warm_hits", 0) + facts.get("cold_starts", 0)),
        "specstrom.guard_evals_per_state":
            _ratio(calls.get("runner.evaluate", 0), states),
        "specstrom.guard_ms_per_state":
            _ratio(layer_ms.get("specstrom.guard", 0), states),
        "specstrom.defer_forces_per_state":
            _ratio(calls.get("syntax.Defer.force", 0), states),
        "specstrom.defer_ms_per_state":
            _ratio(layer_ms.get("specstrom.defer", 0), states),
        "quickltl.progress_self_ms_per_state":
            _ratio(layer_ms.get("quickltl", 0), states),
        "quickltl.intern_hit_ratio": _ratio(
            facts.get("intern_hits", 0),
            facts.get("intern_hits", 0) + facts.get("intern_misses", 0)),
        "quickltl.max_formula_size": facts.get("max_formula_size", 0),
        "checker.self_ms_per_state":
            _ratio(layer_ms.get("checker", 0), states),
        "checker.narrow_ms_per_state":
            _ratio(layer_ms.get("checker.narrow", 0), states),
        "checker.query_width_ratio": _ratio(
            facts.get("query_width_sum", 0),
            (states - facts.get("shrink_states", 0)) * full_width),
        "checker.shrink_replays": _ratio(replays, shrinks),
        "checker.shrink_accept_ratio": _ratio(shrink.accepted, replays),
        "checker.shrink_s": _ratio(
            tracer.total_s.get("shrink.shrink_counterexample", 0), shrinks),
        "api.self_ms_per_test": _ratio(layer_ms.get("api", 0), tests),
        "monitor.parse_ms_per_record":
            _ratio(self_ms.get("service.parse_record", 0), records),
        "monitor.round_ms_per_record": _ratio(
            tracer.total_s.get("batch.BatchProgressor.run_round", 0) * 1000,
            records),
        "monitor.sharing_ratio": 1.0 - _ratio(
            facts.get("cohort_steps", 0), facts.get("session_steps", 0))
        if facts.get("session_steps") else 0.0,
        "monitor.ingest_wait_ms": _ratio(
            layer_ms.get("monitor.ingest_wait", 0), len(rounds))
        if records else 0.0,
        "artifact.spec_load_ms": statistics.median(loads) * 1000,
        "trace.overhead_pct": overhead * 100,
    }


def print_table(name: str, tracer: tracing.Tracer, rounds: list,
                loads: List[float], overhead: float) -> None:
    """Self time per layer, largest first, as a share of traced wall."""
    layers = tracing.layer_self_s(tracer)
    wall = sum(r.wall_s for r in rounds) + sum(loads)
    calls: Dict[str, int] = {}
    for boundary, count in tracer.calls.items():
        layer = tracing.layer_of(boundary)
        calls[layer] = calls.get(layer, 0) + count
    print(f"# per-layer self time, {name} ({len(rounds)} traced rounds, "
          f"{wall:.2f} s traced wall)")
    print(f"# {'layer':<22}{'self s':>10}{'share':>9}{'calls':>11}")
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"# {layer:<22}{seconds:>10.3f}{seconds / wall:>9.1%}"
              f"{calls.get(layer, 0):>11}")
    rest = wall - sum(layers.values())
    print(f"# {'(outside any layer)':<22}{rest:>10.3f}{rest / wall:>9.1%}")
    print(f"# tracing overhead: {overhead:+.1%} wall time, traced vs "
          "untraced rounds of identical input")
