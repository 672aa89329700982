"""The CCS executor: the checker drives a process-calculus model.

Nothing about the checker is WebDriver-specific (paper, Section 3.4);
this executor proves it.  The "application" is a CCS process; its
observable state exposes, for every label in the model's alphabet, a
pseudo-selector of the same name that matches exactly when the label is
currently enabled.  Specifications therefore read naturally::

    action coin!  = ccs!("coin")  when present(`coin`);
    action tea!   = ccs!("tea")   when present(`tea`);
    let ~canTea   = present(`tea`);
    check always{20} (coin! in happened ==> next (canTea || ...));

Internal ``tau`` steps are the model's autonomous activity: they fire on
a configurable virtual-time period while time passes, producing
``tau?`` events -- the analogue of a web page's asynchronous updates
(and they make the Figure 10 staleness path reachable here too).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..protocol.messages import Acted, Act, Event, Narrow, Reset, Start, Timeout
from ..protocol.session import TraceRecorder
from ..specstrom.state import ElementSnapshot, StateSnapshot
from .base import Executor
from .ccs import CCSDefinitions, Process, TAU, enabled_labels, transitions
from .base import ActionFailed

__all__ = ["CCSExecutor"]


class CCSExecutor(Executor):
    """Executor over a CCS model.

    ``tau_period_ms`` controls how often an enabled internal step fires
    while virtual time passes (0 disables autonomous activity).
    ``tau_seed`` makes the choice among several enabled tau-successors
    deterministic.
    """

    def __init__(
        self,
        initial: Process,
        definitions: Optional[CCSDefinitions] = None,
        tau_period_ms: float = 500.0,
        tau_seed: int = 0,
    ) -> None:
        self.definitions = definitions or CCSDefinitions()
        self.initial = initial
        self.process = initial
        self.tau_period_ms = tau_period_ms
        self.tau_seed = tau_seed
        self.recorder = TraceRecorder()
        self._outbox: List[object] = []
        self._dependencies: Tuple[str, ...] = ()
        self._active: Tuple[str, ...] = ()
        self._now_ms = 0.0
        self._next_tau_ms = tau_period_ms if tau_period_ms > 0 else None
        self._rng = random.Random(tau_seed)

    # ------------------------------------------------------------------
    # Executor interface
    # ------------------------------------------------------------------

    def start(self, start: Start) -> None:
        self._dependencies = tuple(sorted(start.dependencies))
        self._active = self._dependencies
        self.process = self.initial
        self._report("event", ("loaded?",))

    def reset(self, reset: Reset) -> bool:
        """Warm restart: back to the initial process, time zero, a fresh
        tau RNG -- observationally identical to a cold ``start`` on a
        newly constructed executor with the same parameters."""
        self._dependencies = tuple(sorted(reset.dependencies))
        self._active = self._dependencies
        self.process = self.initial
        self.recorder = TraceRecorder()
        self._outbox = []
        self._now_ms = 0.0
        self._next_tau_ms = self.tau_period_ms if self.tau_period_ms > 0 else None
        self._rng = random.Random(self.tau_seed)
        self._report("event", ("loaded?",))
        return True

    def narrow(self, narrow: Narrow) -> bool:
        """Capture only the requested pseudo-selectors (labels) in
        subsequent snapshots; ``start``/``reset`` restore full capture."""
        self._active = tuple(
            sorted(set(narrow.dependencies) & set(self._dependencies))
        )
        return True

    def drain(self) -> List[object]:
        messages, self._outbox = self._outbox, []
        return messages

    def act(self, act: Act) -> bool:
        if self.recorder.is_stale(act.version):
            self.recorder.note_stale_rejection()
            return False
        action = act.action
        if action.kind != "ccs":
            raise ActionFailed(
                f"CCS executor cannot perform primitive {action.kind!r}"
            )
        label = action.selector
        successors = [
            successor
            for step_label, successor in transitions(self.process, self.definitions)
            if step_label == label
        ]
        if not successors:
            raise ActionFailed(f"label {label!r} is not enabled in {self.process}")
        index = min(action.index or 0, len(successors) - 1)
        self.process = successors[index]
        self._report("acted", (act.name,))
        return True

    def pass_time(self, delta_ms: float) -> None:
        self._advance(self._now_ms + delta_ms)

    def await_events(self, timeout_ms: float) -> None:
        deadline = self._now_ms + timeout_ms
        if self._advance(deadline, stop_on_event=True):
            return
        self._report("timeout", ())

    @property
    def version(self) -> int:
        return self.recorder.length

    @property
    def now_ms(self) -> float:
        return self._now_ms

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _advance(self, target_ms: float, stop_on_event: bool = False) -> bool:
        """Advance virtual time, firing tau steps on their period."""
        fired = False
        while (
            self._next_tau_ms is not None
            and self._next_tau_ms <= target_ms
        ):
            self._now_ms = self._next_tau_ms
            self._next_tau_ms += self.tau_period_ms
            tau_successors = [
                successor
                for label, successor in transitions(self.process, self.definitions)
                if label == TAU
            ]
            if not tau_successors:
                continue
            self.process = tau_successors[self._rng.randrange(len(tau_successors))]
            self._report("event", ("tau?",))
            fired = True
            if stop_on_event:
                return True
        self._now_ms = max(self._now_ms, target_ms)
        return fired

    def _snapshot(self, happened: Tuple[str, ...]) -> StateSnapshot:
        enabled = set(enabled_labels(self.process, self.definitions))
        queries = {}
        for selector in self._active:
            if selector in enabled:
                queries[selector] = (
                    ElementSnapshot(tag="action", text=selector),
                )
            else:
                queries[selector] = ()
        return StateSnapshot(
            queries=queries,
            happened=happened,
            version=self.recorder.length + 1,
            timestamp_ms=self._now_ms,
        )

    def _report(self, kind: str, happened: Tuple[str, ...]) -> None:
        state = self._snapshot(happened)
        self.recorder.append()
        if kind == "acted":
            self._outbox.append(Acted(happened[0], state))
        elif kind == "timeout":
            self._outbox.append(Timeout(state))
        else:
            self._outbox.append(Event(happened[0] if happened else "event?", state))
