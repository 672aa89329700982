"""Results of checker runs: per-test outcomes and campaign summaries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..protocol.session import TraceEntry
from ..quickltl import Verdict
from ..specstrom.actions import ResolvedAction

__all__ = ["TestResult", "Counterexample", "CampaignResult"]


@dataclass
class Counterexample:
    """A failing trace: the actions that led there and the states seen."""

    actions: List[Tuple[str, ResolvedAction]]
    trace: List[TraceEntry]
    verdict: Verdict

    @property
    def length(self) -> int:
        return len(self.trace)

    def describe(self) -> str:
        lines = [f"counterexample ({self.verdict.name}, {self.length} states):"]
        for name, action in self.actions:
            lines.append(f"  {name} -> {action.describe()}")
        return "\n".join(lines)


@dataclass
class TestResult:
    """Outcome of one generated test (one trace).

    The trailing engine-statistics fields feed
    :class:`~repro.api.pool.PoolMetrics`: ``max_formula_size`` is the
    peak progressed-formula size over the trace, ``intern_hits`` /
    ``intern_misses`` count the hash-cons table lookups the test (or
    replay) made, and ``query_width_sum`` totals the per-state captured
    query counts (``/ states_observed`` = the mean width query
    narrowing achieved).  The intern counters are the process-wide
    delta around the test or replay
    (:func:`~repro.quickltl.intern_delta`); a worker runs one test at a
    time, so they count only its constructions.  ``steps_reused``
    counts the steps the property's step table served.
    """

    verdict: Verdict
    forced: bool  # verdict obtained via the budget-exhaustion polarity rule
    states_observed: int
    actions_taken: int
    stale_rejections: int
    elapsed_virtual_ms: float
    trace: List[TraceEntry] = field(default_factory=list)
    actions: List[Tuple[str, ResolvedAction]] = field(default_factory=list)
    stall_reason: Optional[str] = None
    max_formula_size: int = 0
    intern_hits: int = 0
    intern_misses: int = 0
    query_width_sum: int = 0
    steps_reused: int = 0

    @property
    def passed(self) -> bool:
        """The paper's pass criterion: a test fails only when the verdict
        is (definitely or presumptively) false."""
        return not self.verdict.is_negative

    @property
    def failed(self) -> bool:
        return self.verdict.is_negative

    @property
    def mean_query_width(self) -> float:
        """Mean number of captured queries per observed state."""
        if not self.states_observed:
            return 0.0
        return self.query_width_sum / self.states_observed


@dataclass
class CampaignResult:
    """Outcome of checking one property across many generated tests."""

    property_name: str
    results: List[TestResult]
    counterexample: Optional[Counterexample] = None
    shrunk_counterexample: Optional[Counterexample] = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    @property
    def tests_run(self) -> int:
        return len(self.results)

    @property
    def total_virtual_ms(self) -> float:
        return sum(r.elapsed_virtual_ms for r in self.results)

    @property
    def total_actions(self) -> int:
        return sum(r.actions_taken for r in self.results)

    def summary(self) -> str:
        status = "PASSED" if self.passed else "FAILED"
        seconds = self.total_virtual_ms / 1000.0
        return (
            f"{self.property_name}: {status} after {self.tests_run} test(s), "
            f"{self.total_actions} action(s), {seconds:.1f}s simulated"
        )
