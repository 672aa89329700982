"""Reporter hooks: pluggable observers of a checking campaign.

A :class:`Reporter` receives the lifecycle events of every batch the
campaign loop runs (see :mod:`repro.api.scheduler`):

* :meth:`~Reporter.on_session_start` / :meth:`~Reporter.on_session_end`
  -- bracket a batch (``check``, ``check_many``, ``check_all``, the CLI
  run),
* :meth:`~Reporter.on_campaign_start` -- before a property's campaign,
  with the target label when many systems are audited at once,
* :meth:`~Reporter.on_test_start` -- before a generated test runs,
* :meth:`~Reporter.on_test_end` -- after it produced a
  :class:`~repro.checker.result.TestResult`,
* :meth:`~Reporter.on_counterexample` -- when a failing trace has been
  recorded (and, when shrinking is enabled, minimised),
* :meth:`~Reporter.on_campaign_end` -- with the final
  :class:`~repro.checker.result.CampaignResult`.

Events always arrive in campaign-submission order and, within a
campaign, in *test-index order*, even when work runs in parallel, so a reporter never needs locking and its output is
deterministic for a given seed.

Four implementations ship with the reproduction: the human-readable
:class:`ConsoleReporter` (what the CLI prints), the machine-readable
:class:`JsonlReporter` (one JSON object per event, for dashboards and
CI artifacts), the CI-grade :class:`JUnitXmlReporter` (one testsuite
per campaign, consumable by every CI test-report viewer), and the live
:class:`ProgressReporter` (a self-rewriting TTY status line, degrading
to plain lines when piped).
"""

from __future__ import annotations

import json
import sys
from typing import IO, List, Optional, Sequence, Tuple
from xml.etree import ElementTree

from ..checker.result import CampaignResult, Counterexample, TestResult

__all__ = [
    "Reporter",
    "ConsoleReporter",
    "JsonlReporter",
    "JUnitXmlReporter",
    "ProgressReporter",
]

#: A finished campaign with its target label; what
#: :meth:`Reporter.on_session_end` receives.
SessionOutcome = Tuple[Optional[str], CampaignResult]


class Reporter:
    """Base reporter: every hook is a no-op, override what you need."""

    def on_session_start(self, campaigns: int) -> None:
        """A batch of ``campaigns`` campaigns is about to run."""

    def on_campaign_start(
        self, property_name: str, tests: int, target: Optional[str] = None
    ) -> None:
        """A campaign of up to ``tests`` generated tests is starting.

        ``target`` labels the system under test when a batch audits
        several (e.g. a TodoMVC implementation name); it is ``None``
        for single-target campaigns.
        """

    def on_test_start(self, property_name: str, index: int, seed: object) -> None:
        """A generated test is about to run."""

    def on_test_end(self, property_name: str, index: int, result: TestResult) -> None:
        """A generated test finished."""

    def on_counterexample(
        self,
        property_name: str,
        counterexample: Counterexample,
        shrunk: Optional[Counterexample],
    ) -> None:
        """A failing trace was recorded (``shrunk`` when minimised)."""

    def on_campaign_end(self, result: CampaignResult) -> None:
        """The campaign is over."""

    def on_session_end(
        self, outcomes: Sequence[SessionOutcome], metrics=None
    ) -> None:
        """The whole batch is over (fires once, after every campaign).

        ``metrics`` is the batch's :class:`~repro.api.pool.PoolMetrics`
        (queue depth, worker utilisation, warm-hit/cold-start counts),
        passed by keyword.
        """


class ConsoleReporter(Reporter):
    """Human-readable progress: per-test lines (verbose) and the final
    summary line that ``CampaignResult.summary()`` used to hand-print."""

    def __init__(self, stream: Optional[IO[str]] = None, verbose: bool = False) -> None:
        self.stream = stream if stream is not None else sys.stdout
        self.verbose = verbose

    def _print(self, text: str) -> None:
        print(text, file=self.stream)

    def on_test_end(self, property_name: str, index: int, result: TestResult) -> None:
        if not self.verbose:
            return
        status = "ok" if result.passed else "FAIL"
        forced = " (forced)" if result.forced else ""
        self._print(
            f"  test {index}: {status} {result.verdict.name}{forced} "
            f"[{result.actions_taken} action(s), {result.states_observed} state(s)]"
        )

    def on_counterexample(
        self,
        property_name: str,
        counterexample: Counterexample,
        shrunk: Optional[Counterexample],
    ) -> None:
        best = shrunk if shrunk is not None else counterexample
        for line in best.describe().splitlines():
            self._print(f"  {line}")

    def on_campaign_end(self, result: CampaignResult) -> None:
        self._print(result.summary())


class JsonlReporter(Reporter):
    """One JSON object per event (JSON Lines), for machine consumption."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self.stream = stream if stream is not None else sys.stdout

    def _emit(self, record: dict) -> None:
        print(json.dumps(record, sort_keys=True), file=self.stream)

    def on_campaign_start(
        self, property_name: str, tests: int, target: Optional[str] = None
    ) -> None:
        self._emit(
            {"event": "campaign_start", "property": property_name,
             "tests": tests, "target": target}
        )

    def on_test_start(self, property_name: str, index: int, seed: object) -> None:
        self._emit(
            {"event": "test_start", "property": property_name,
             "index": index, "seed": seed}
        )

    def on_test_end(self, property_name: str, index: int, result: TestResult) -> None:
        self._emit(
            {
                "event": "test_end",
                "property": property_name,
                "index": index,
                "verdict": result.verdict.name,
                "passed": result.passed,
                "forced": result.forced,
                "actions_taken": result.actions_taken,
                "states_observed": result.states_observed,
                "stale_rejections": result.stale_rejections,
                "elapsed_virtual_ms": result.elapsed_virtual_ms,
                "stall_reason": result.stall_reason,
            }
        )

    def on_counterexample(
        self,
        property_name: str,
        counterexample: Counterexample,
        shrunk: Optional[Counterexample],
    ) -> None:
        self._emit(
            {
                "event": "counterexample",
                "property": property_name,
                "verdict": counterexample.verdict.name,
                "actions": _action_records(counterexample),
                "shrunk_actions": (
                    _action_records(shrunk) if shrunk is not None else None
                ),
            }
        )

    def on_campaign_end(self, result: CampaignResult) -> None:
        self._emit(
            {
                "event": "campaign_end",
                "property": result.property_name,
                "passed": result.passed,
                "tests_run": result.tests_run,
                "total_actions": result.total_actions,
                "total_virtual_ms": result.total_virtual_ms,
            }
        )

    def on_session_end(
        self, outcomes: Sequence[SessionOutcome], metrics=None
    ) -> None:
        self._emit(
            {
                "event": "session_end",
                "campaigns": len(outcomes),
                "passed": sum(1 for _, r in outcomes if r.passed),
                "failed": sum(1 for _, r in outcomes if not r.passed),
                "pool": metrics.to_dict() if metrics is not None else None,
            }
        )


class JUnitXmlReporter(Reporter):
    """CI-grade JUnit XML: one ``<testsuite>`` per campaign.

    Every generated test becomes a ``<testcase>`` (classname = the
    target label, or the property name for single-target runs); a
    failing test carries a ``<failure>`` element with the (shrunk)
    counterexample.  Times are the checker's *simulated* seconds -- the
    deterministic cost model the paper reports -- so the XML is
    bit-for-bit reproducible for a given seed.

    Indices a campaign never reached because ``stop_on_failure`` ended
    it early are reported as ``<skipped>`` testcases, so every suite
    accounts for its full planned test budget (CI dashboards show
    "3 of 8 skipped" instead of silently shrinking the suite).

    The document is written when the session ends (``on_session_end``),
    or explicitly via :meth:`write`.  Pass ``path`` to write to a file
    (what CI uploads as the test-report artifact) or ``stream`` to write
    elsewhere; the default is stdout.
    """

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        path: Optional[str] = None,
        suite_name: str = "quickstrom-repro",
    ) -> None:
        if stream is not None and path is not None:
            raise ValueError("pass either stream= or path=, not both")
        self.stream = stream
        self.path = path
        self.suite_name = suite_name
        self._suites: List[dict] = []
        self._current: Optional[dict] = None
        self._written = False

    # -- lifecycle -----------------------------------------------------

    def on_campaign_start(
        self, property_name: str, tests: int, target: Optional[str] = None
    ) -> None:
        self._current = {
            "property": property_name,
            "target": target,
            "planned": tests,
            "cases": [],
        }

    def _ensure_suite(self, property_name: str) -> dict:
        if self._current is None:
            self.on_campaign_start(property_name, 0)
        return self._current

    def on_test_end(self, property_name: str, index: int, result: TestResult) -> None:
        suite = self._ensure_suite(property_name)
        suite["cases"].append(
            {
                "index": index,
                "result": result,
                "failure": None,
                "skipped": False,
            }
        )

    def on_counterexample(
        self,
        property_name: str,
        counterexample: Counterexample,
        shrunk: Optional[Counterexample],
    ) -> None:
        suite = self._ensure_suite(property_name)
        # The campaign loop fires on_test_end for the failing index just
        # before recording its counterexample, so it annotates the last
        # case.
        if suite["cases"]:
            best = shrunk if shrunk is not None else counterexample
            suite["cases"][-1]["failure"] = best.describe()

    def on_campaign_end(self, result: CampaignResult) -> None:
        suite = self._ensure_suite(result.property_name)
        # Skipped-index accounting: stop_on_failure ends the campaign
        # before later indices run; report them explicitly instead of
        # letting the suite silently shrink below its planned budget.
        for index in range(len(suite["cases"]), suite.get("planned", 0)):
            suite["cases"].append(
                {
                    "index": index,
                    "result": None,
                    "failure": None,
                    "skipped": True,
                }
            )
        suite["result"] = result
        self._suites.append(suite)
        self._current = None

    def on_session_end(
        self, outcomes: Sequence[SessionOutcome], metrics=None
    ) -> None:
        self.write()

    # -- output --------------------------------------------------------

    def write(self) -> None:
        """Serialise the collected campaigns as one JUnit document."""
        if self._written:
            return
        self._written = True
        text = self.to_xml()
        if self.path is not None:
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.write(text)
            return
        stream = self.stream if self.stream is not None else sys.stdout
        stream.write(text)

    def to_xml(self) -> str:
        root = ElementTree.Element("testsuites", name=self.suite_name)
        total = failures = skipped_total = 0
        total_time = 0.0
        for suite in self._suites:
            campaign: CampaignResult = suite.get("result") or CampaignResult(
                property_name=suite["property"], results=[]
            )
            suite_time = campaign.total_virtual_ms / 1000.0
            suite_failures = sum(
                1
                for case in suite["cases"]
                if not case["skipped"] and case["result"].failed
            )
            suite_skipped = sum(1 for case in suite["cases"] if case["skipped"])
            label = suite["target"] or suite["property"]
            element = ElementTree.SubElement(
                root,
                "testsuite",
                name=label,
                tests=str(len(suite["cases"])),
                failures=str(suite_failures),
                errors="0",
                skipped=str(suite_skipped),
                time=f"{suite_time:.3f}",
            )
            for case in suite["cases"]:
                if case["skipped"]:
                    testcase = ElementTree.SubElement(
                        element,
                        "testcase",
                        classname=label,
                        name=f"{suite['property']}[{case['index']}]",
                        time="0.000",
                    )
                    ElementTree.SubElement(
                        testcase,
                        "skipped",
                        message="not run: campaign stopped at an earlier "
                                "failure (stop_on_failure)",
                    )
                    continue
                result: TestResult = case["result"]
                testcase = ElementTree.SubElement(
                    element,
                    "testcase",
                    classname=label,
                    name=f"{suite['property']}[{case['index']}]",
                    time=f"{result.elapsed_virtual_ms / 1000.0:.3f}",
                )
                # Per-test detail as testcase <properties> (the modern
                # JUnit schema allows them below testcase; viewers that
                # predate it ignore the block): how much work the
                # generated test actually did, which is what you want
                # when triaging a slow or flaky campaign from CI alone.
                properties = ElementTree.SubElement(testcase, "properties")
                for name, value in (
                    ("actions", str(result.actions_taken)),
                    ("states", str(result.states_observed)),
                    ("verdict", result.verdict.name),
                ):
                    ElementTree.SubElement(
                        properties, "property", name=name, value=value
                    )
                if result.failed:
                    failure = ElementTree.SubElement(
                        testcase,
                        "failure",
                        message=f"verdict {result.verdict.name}",
                    )
                    failure.text = case["failure"] or ""
            total += len(suite["cases"])
            failures += suite_failures
            skipped_total += suite_skipped
            total_time += suite_time
        root.set("tests", str(total))
        root.set("failures", str(failures))
        root.set("errors", "0")
        root.set("skipped", str(skipped_total))
        root.set("time", f"{total_time:.3f}")
        ElementTree.indent(root)  # 3.9+: pretty-print for humans and diffs
        body = ElementTree.tostring(root, encoding="unicode")
        return '<?xml version="1.0" encoding="utf-8"?>\n' + body + "\n"


class ProgressReporter(Reporter):
    """A live one-line progress display for long multi-campaign audits.

    On a TTY the line rewrites itself in place (``\\r``); when the
    stream is piped (CI logs) it degrades to one plain line per
    finished campaign, so logs stay readable either way.  Events arrive
    in deterministic campaign/index order from the schedulers, so the
    display needs no locking.
    """

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._campaigns_total = 0
        self._campaigns_done = 0
        self._failed = 0
        self._label = ""
        self._tests = 0
        self._tests_done = 0
        self._line_width = 0

    def _is_tty(self) -> bool:
        isatty = getattr(self.stream, "isatty", None)
        return bool(isatty and isatty())

    def _render(self, text: str) -> None:
        if self._is_tty():
            padded = text.ljust(self._line_width)
            self._line_width = max(self._line_width, len(text))
            self.stream.write("\r" + padded)
            self.stream.flush()
        else:
            self.stream.write(text + "\n")

    def on_session_start(self, campaigns: int) -> None:
        self._campaigns_total = campaigns

    def on_campaign_start(
        self, property_name: str, tests: int, target: Optional[str] = None
    ) -> None:
        self._label = target or property_name
        self._tests = tests
        self._tests_done = 0

    def on_test_end(self, property_name: str, index: int, result: TestResult) -> None:
        self._tests_done += 1
        if self._is_tty():
            position = (
                f"[{self._campaigns_done + 1}/{self._campaigns_total}] "
                if self._campaigns_total
                else ""
            )
            self._render(
                f"{position}{self._label}: test {self._tests_done}/{self._tests}"
            )

    def on_campaign_end(self, result: CampaignResult) -> None:
        self._campaigns_done += 1
        if not result.passed:
            self._failed += 1
        status = "ok" if result.passed else "FAIL"
        position = (
            f"[{self._campaigns_done}/{self._campaigns_total}] "
            if self._campaigns_total
            else ""
        )
        self._render(
            f"{position}{self._label or result.property_name}: {status} "
            f"({result.tests_run} tests)"
        )
        if not self._is_tty():
            return
        # Keep failures visible: freeze the line with a newline so the
        # next campaign starts fresh below it.
        if not result.passed:
            self.stream.write("\n")
            self._line_width = 0

    def on_session_end(
        self, outcomes: Sequence[SessionOutcome], metrics=None
    ) -> None:
        summary = (
            f"{len(outcomes)} campaign(s): "
            f"{len(outcomes) - self._failed} passed, {self._failed} failed"
        )
        if self._is_tty():
            self.stream.write("\r" + summary.ljust(self._line_width) + "\n")
        else:
            self.stream.write(summary + "\n")


def _action_records(counterexample: Counterexample) -> list:
    return [
        {"name": name, "action": resolved.describe()}
        for name, resolved in counterexample.actions
    ]
