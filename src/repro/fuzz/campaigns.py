"""The fuzz driver: generated campaigns, differential paths, scoreboard.

One *fuzz campaign* is a generated machine, a generated specification
and a family of twins -- the correct app plus up to a few faulty
mutants.  :func:`run_campaign` runs the family as one batch on four
legs, rows of one ``(jobs, reuse_executors, narrow_queries)`` table:

* ``serial``  -- ``jobs=1``, cold executors (the reference schedule;
  residual-driven query narrowing on, like production defaults),
* ``pooled``  -- a forked worker pool, cold executors,
* ``warm``    -- the pooled schedule with warm executor reuse
  (the ``Reset`` protocol path),
* ``full``    -- ``jobs=1``, cold, with query narrowing *off*: every
  snapshot captures the whole dependency set (the narrowed-observation
  oracle's reference, and the leg the direct-semantics trace oracle
  reads, since the reference evaluator may touch queries the residual
  provably cannot).

All four must agree -- verdicts, per-test results, counterexamples,
reporter event streams -- the narrowed traces must be exactly the full
traces restricted to their capture sets
(:func:`~repro.fuzz.oracles.narrowing_mismatch`), and every test of the
full run must agree with the direct-semantics trace oracle.  A further
differential leg then replays the full leg's recorded traces through
the *online monitor* (:func:`~repro.fuzz.oracles.monitor_oracle_mismatch`):
each test becomes one concurrent monitor session, and the per-session
verdicts must equal the offline per-test verdicts.  Model-spec
campaigns additionally feed the fault-detection scoreboard (the generated
analogue of the paper's Table 2): the correct twin must pass, and a
failing faulty twin counts as a detection whose minimized
counterexample is persisted to the corpus.

Any disagreement is *shrunk* (fewer tests, shorter action budget, while
it still reproduces) and persisted as a replayable JSONL corpus entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..api.config import SessionConfig
from ..api.scheduler import CampaignSetResult, CheckTarget
from ..api.session import CheckSession
from ..checker.config import RunnerConfig
from ..specstrom.module import CheckSpec, load_module
from .corpus import CorpusEntry, append_entry
from .machine import (
    MachineFault,
    MachineSpec,
    fault_candidates,
    generate_machine,
    machine_app,
)
from .oracles import (
    RecordingReporter,
    compare_campaigns,
    direct_oracle_mismatch,
    monitor_oracle_mismatch,
    narrowing_mismatch,
)
from .specgen import model_spec_source, random_spec_source

__all__ = [
    "FuzzCampaign",
    "Divergence",
    "FuzzReport",
    "generate_campaign",
    "generate_campaigns",
    "run_campaign",
    "run_fuzz",
    "replay_divergence",
]

#: Extra actions granted past the schedule while the formula demands
#: states; small, so the forced-verdict path is exercised often.
DEMAND_ALLOWANCE = 6


@dataclass(frozen=True)
class FuzzCampaign:
    """One generated scenario, fully determined by ``(seed, index)``."""

    seed: int
    index: int
    machine: MachineSpec
    faults: Tuple[MachineFault, ...]
    spec_kind: str  # "model" | "random"
    spec_source: str
    tests: int
    scheduled_actions: int
    default_subscript: int

    def config(self) -> RunnerConfig:
        return RunnerConfig(
            tests=self.tests,
            scheduled_actions=self.scheduled_actions,
            demand_allowance=DEMAND_ALLOWANCE,
            seed=f"fuzz/{self.seed}/{self.index}",
            shrink=True,
        )

    def check_property(self) -> CheckSpec:
        module = load_module(
            self.spec_source, default_subscript=self.default_subscript
        )
        return module.checks[0]

    def targets(self) -> List[Tuple[str, Optional[MachineFault]]]:
        named = [("correct", None)]
        named.extend(
            (f"fault{i}:{fault.kind}", fault)
            for i, fault in enumerate(self.faults)
        )
        return named


def generate_campaign(seed: int, index: int) -> FuzzCampaign:
    """Draw campaign ``index`` of master seed ``seed`` (deterministic)."""
    rng = random.Random(f"fuzz-campaign/{seed}/{index}")
    machine = generate_machine(rng.randrange(2**31))
    spec_kind = "model" if rng.random() < 0.65 else "random"
    if spec_kind == "model":
        spec_source = model_spec_source(machine)
        candidates = fault_candidates(machine)
        twins = min(len(candidates), rng.randint(1, 2))
        faults = tuple(rng.sample(candidates, twins)) if twins else ()
    else:
        spec_source = random_spec_source(machine, rng.randrange(2**31))
        candidates = fault_candidates(machine)
        faults = (rng.choice(candidates),) if candidates else ()
    scheduled_actions = rng.randint(6, 10)
    return FuzzCampaign(
        seed=seed,
        index=index,
        machine=machine,
        faults=faults,
        spec_kind=spec_kind,
        spec_source=spec_source,
        tests=rng.randint(2, 3),
        scheduled_actions=scheduled_actions,
        default_subscript=scheduled_actions,
    )


def generate_campaigns(seed: int, count: int) -> List[FuzzCampaign]:
    return [generate_campaign(seed, index) for index in range(count)]


# ----------------------------------------------------------------------
# Running one campaign
# ----------------------------------------------------------------------


@dataclass
class Divergence:
    """One differential-oracle failure, tied to a single target."""

    campaign_index: int
    target: str
    kind: str  # "path" | "oracle" | "false_positive" | "event_stream"
    detail: str
    entry: CorpusEntry


@dataclass
class CampaignOutcomeSummary:
    """What one fuzz campaign contributed."""

    campaign: FuzzCampaign
    divergences: List[Divergence]
    detections: List[Tuple[MachineFault, bool]]  # model-spec twins only
    counterexamples: List[CorpusEntry]
    tests_run: int
    #: Detections whose minimized counterexample did not reproduce under
    #: replay (stale rejections make the dispatched-action sequence
    #: timing-sensitive).  Not corpus material, but never silent either.
    nonreplayable: int = 0


def _run_paths(
    machine: MachineSpec,
    named_faults,
    check: CheckSpec,
    config: RunnerConfig,
    jobs: int,
) -> Dict[str, Tuple[CampaignSetResult, RecordingReporter]]:
    """The same batch on the legs under comparison."""
    runs: Dict[str, Tuple[CampaignSetResult, RecordingReporter]] = {}
    full_config = (
        config if not config.narrow_queries
        else replace(config, narrow_queries=False)
    )
    for path, path_jobs, reuse, path_config in (
        ("serial", 1, False, config),
        ("pooled", jobs, False, config),
        ("warm", jobs, True, config),
        ("full", 1, False, full_config),
    ):
        recorder = RecordingReporter()
        session = CheckSession(reporters=[recorder])
        targets = [
            CheckTarget(name, machine_app(machine, fault))
            for name, fault in named_faults
        ]
        batch = session.check_many(
            targets,
            spec=check,
            config=path_config,
            session=SessionConfig(jobs=path_jobs, reuse_executors=reuse),
        )
        runs[path] = (batch, recorder)
    return runs


def _campaign_divergences(
    campaign: FuzzCampaign,
    named_faults,
    check: CheckSpec,
    runs,
    jobs: int,
) -> List[Divergence]:
    """Path and trace-oracle disagreements of one batch run."""
    divergences: List[Divergence] = []
    serial_batch, serial_recorder = runs["serial"]
    fault_by_target = dict(named_faults)

    def record(target: str, kind: str, detail: str) -> None:
        divergences.append(
            Divergence(
                campaign_index=campaign.index,
                target=target,
                kind=kind,
                detail=detail,
                entry=_divergence_entry(
                    campaign, fault_by_target.get(target), kind, detail, jobs
                ),
            )
        )

    for path in ("pooled", "warm"):
        batch, recorder = runs[path]
        for baseline, candidate in zip(serial_batch, batch):
            difference = compare_campaigns(
                f"{path} vs serial on {baseline.target!r}",
                baseline.result,
                candidate.result,
            )
            if difference is not None:
                record(baseline.target, "path", difference)
        if recorder.events != serial_recorder.events:
            record(
                "correct",
                "event_stream",
                f"{path} reporter event stream differs from serial",
            )
    # The narrowed-observation leg: narrowing (the default on the other
    # three legs) must be invisible -- same verdicts/actions/events as
    # the full-capture run, and every narrowed state must be the full
    # state restricted to its capture set.
    full_batch, full_recorder = runs["full"]
    for full_outcome, narrowed_outcome in zip(full_batch, serial_batch):
        difference = compare_campaigns(
            f"narrowed vs full capture on {full_outcome.target!r}",
            full_outcome.result,
            narrowed_outcome.result,
        )
        if difference is not None:
            record(full_outcome.target, "narrow", difference)
            continue
        for test_index, (full_result, narrowed_result) in enumerate(
            zip(full_outcome.result.results, narrowed_outcome.result.results)
        ):
            mismatch = narrowing_mismatch(full_result, narrowed_result)
            if mismatch is not None:
                record(
                    full_outcome.target,
                    "narrow",
                    f"test {test_index}: {mismatch}",
                )
    if full_recorder.events != serial_recorder.events:
        record(
            "correct",
            "narrow",
            "full-capture reporter event stream differs from narrowed",
        )
    # The trace oracle reads the *full* leg: the reference semantics may
    # evaluate queries the residual provably cannot, which narrowed
    # states legitimately omit.
    for outcome in full_batch:
        for test_index, result in enumerate(outcome.result.results):
            mismatch = direct_oracle_mismatch(check, result)
            if mismatch is not None:
                record(
                    outcome.target,
                    "oracle",
                    f"test {test_index}: {mismatch}",
                )
    # The fifth leg: the full leg's recorded traces replayed through the
    # online monitor as interleaved concurrent sessions.
    for outcome in full_batch:
        mismatch = monitor_oracle_mismatch(check, outcome.result.results)
        if mismatch is not None:
            record(outcome.target, "monitor", mismatch)
    return divergences


def _divergence_entry(
    campaign: FuzzCampaign,
    fault: Optional[MachineFault],
    kind: str,
    detail: str,
    jobs: int,
) -> CorpusEntry:
    config = campaign.config()
    return CorpusEntry(
        kind="divergence",
        detail=f"[{kind}] {detail}",
        machine=campaign.machine,
        fault=fault,
        spec_source=campaign.spec_source,
        spec_kind=campaign.spec_kind,
        config={
            "tests": config.tests,
            "scheduled_actions": config.scheduled_actions,
            "demand_allowance": config.demand_allowance,
            "seed": config.seed,
            "shrink": config.shrink,
        },
        default_subscript=campaign.default_subscript,
        campaign_seed=campaign.seed,
        extra={
            "campaign_index": campaign.index,
            "divergence_kind": kind,
            # Replay fidelity: a pooled/event-stream divergence can
            # depend on the whole batch shape and the pool width, so the
            # entry records every twin of the original batch and the
            # jobs it ran with -- the replay rebuilds that batch, not a
            # one-target approximation of it.
            "jobs": jobs,
            "twins": [f.to_dict() for f in campaign.faults],
        },
    )


def _entry_batch(entry: CorpusEntry) -> List[Tuple[str, Optional[MachineFault]]]:
    """The original batch's (label, fault) twins, as recorded."""
    twins = entry.extra.get("twins")
    if twins is None:
        # Entries from before the batch shape was recorded: fall back
        # to the single target the divergence was attributed to.
        return [("target", entry.fault)]
    named = [("correct", None)]
    named.extend(
        (f"fault{i}:{fault['kind']}", MachineFault.from_dict(fault))
        for i, fault in enumerate(twins)
    )
    return named


def _target_diverges(entry: CorpusEntry, jobs: Optional[int] = None) -> bool:
    """Re-run one corpus entry's batch through all oracles.  Used by
    divergence shrinking and by corpus replay."""
    if jobs is None:
        jobs = int(entry.extra.get("jobs", 2))
    check = load_module(
        entry.spec_source, default_subscript=entry.default_subscript
    ).checks[0]
    config = RunnerConfig(**entry.config)
    named = _entry_batch(entry)
    runs = _run_paths(entry.machine, named, check, config, jobs)
    serial_batch, serial_recorder = runs["serial"]
    for path in ("pooled", "warm", "full"):
        batch, recorder = runs[path]
        for baseline, candidate in zip(serial_batch, batch):
            if compare_campaigns("replay", baseline.result,
                                 candidate.result) is not None:
                return True
        if recorder.events != serial_recorder.events:
            return True
    full_batch, _ = runs["full"]
    for full_outcome, narrowed_outcome in zip(full_batch, serial_batch):
        for full_result, narrowed_result in zip(
            full_outcome.result.results, narrowed_outcome.result.results
        ):
            if narrowing_mismatch(full_result, narrowed_result) is not None:
                return True
    for outcome in full_batch:
        for result in outcome.result.results:
            if direct_oracle_mismatch(check, result) is not None:
                return True
    for outcome in full_batch:
        if monitor_oracle_mismatch(check, outcome.result.results) is not None:
            return True
    # A false positive is the model spec failing its correct twin.
    if (
        entry.extra.get("divergence_kind") == "false_positive"
        and not serial_batch[0].result.passed
    ):
        return True
    return False


def _shrink_divergence(entry: CorpusEntry, jobs: int) -> CorpusEntry:
    """Greedy campaign-level shrink: fewest tests, then the shortest
    action budget, that still reproduce the divergence."""
    best = entry
    for tests in (1, 2):
        if tests >= best.config["tests"]:
            break
        candidate = _with_config(best, tests=tests)
        if _target_diverges(candidate, jobs):
            best = candidate
            break
    budget = best.config["scheduled_actions"]
    while budget > 1:
        candidate = _with_config(best, scheduled_actions=budget // 2)
        if not _target_diverges(candidate, jobs):
            break
        best = candidate
        budget //= 2
    return best


def _with_config(entry: CorpusEntry, **overrides) -> CorpusEntry:
    config = dict(entry.config)
    config.update(overrides)
    return CorpusEntry(
        kind=entry.kind,
        detail=entry.detail,
        machine=entry.machine,
        fault=entry.fault,
        spec_source=entry.spec_source,
        spec_kind=entry.spec_kind,
        config=config,
        default_subscript=entry.default_subscript,
        campaign_seed=entry.campaign_seed,
        extra=entry.extra,
    )


def replay_divergence(entry: CorpusEntry) -> Optional[str]:
    """Corpus replay hook: ``None`` when the divergence still
    reproduces, else a description (it was fixed).  The batch shape and
    pool width recorded in the entry are reused verbatim."""
    if _target_diverges(entry):
        return None
    return "the recorded divergence no longer reproduces"


def run_campaign(
    campaign: FuzzCampaign,
    jobs: int = 2,
    shrink_divergences: bool = True,
) -> CampaignOutcomeSummary:
    """Run one fuzz campaign through every oracle."""
    check = campaign.check_property()
    config = campaign.config()
    named_faults = [
        (name, fault)
        for name, fault in campaign.targets()
    ]
    runs = _run_paths(campaign.machine, named_faults, check, config, jobs)
    divergences = _campaign_divergences(campaign, named_faults, check, runs,
                                        jobs)

    serial_batch, _ = runs["serial"]
    detections: List[Tuple[MachineFault, bool]] = []
    counterexamples: List[CorpusEntry] = []
    nonreplayable = 0
    tests_run = sum(o.result.tests_run for o in serial_batch)
    if campaign.spec_kind == "model":
        by_target = {o.target: o.result for o in serial_batch}
        correct = by_target["correct"]
        if not correct.passed:
            detail = (
                "the generated model specification failed its own correct "
                f"twin: {correct.summary()}"
            )
            divergences.append(
                Divergence(
                    campaign_index=campaign.index,
                    target="correct",
                    kind="false_positive",
                    detail=detail,
                    entry=_divergence_entry(campaign, None,
                                            "false_positive", detail, jobs),
                )
            )
        for name, fault in named_faults:
            if fault is None:
                continue
            result = by_target[name]
            detected = not result.passed
            detections.append((fault, detected))
            if detected:
                best = result.shrunk_counterexample or result.counterexample
                entry = CorpusEntry(
                    kind="counterexample",
                    detail=(
                        f"fault {fault.describe()} detected on machine "
                        f"#{campaign.machine.seed}"
                    ),
                    machine=campaign.machine,
                    fault=fault,
                    spec_source=campaign.spec_source,
                    spec_kind=campaign.spec_kind,
                    config={
                        "tests": config.tests,
                        "scheduled_actions": config.scheduled_actions,
                        "demand_allowance": config.demand_allowance,
                        "seed": config.seed,
                        "shrink": config.shrink,
                    },
                    default_subscript=campaign.default_subscript,
                    actions=list(best.actions),
                    verdict=best.verdict.name,
                    campaign_seed=campaign.seed,
                    extra={"campaign_index": campaign.index},
                )
                # A corpus record must replay deterministically.  The
                # live trace can differ from its own replay when stale
                # rejections consumed extra virtual time (the replayed
                # sequence only carries *dispatched* actions), so the
                # entry is validated -- and its verdict re-recorded --
                # through the same path `repro fuzz --replay` will use.
                replayed = entry.runner().replay(list(best.actions))
                if replayed is not None and replayed.failed:
                    entry.verdict = replayed.verdict.name
                    counterexamples.append(entry)
                else:
                    # Not corpus material, but counted and reported:
                    # the detection stands (the live run failed), only
                    # its action sequence is timing-sensitive.
                    nonreplayable += 1
    if shrink_divergences:
        for divergence in divergences:
            divergence.entry = _shrink_divergence(divergence.entry, jobs)
    return CampaignOutcomeSummary(
        campaign=campaign,
        divergences=divergences,
        detections=detections,
        counterexamples=counterexamples,
        tests_run=tests_run,
        nonreplayable=nonreplayable,
    )


# ----------------------------------------------------------------------
# The batch driver
# ----------------------------------------------------------------------


@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzz run (what the CLI prints)."""

    seed: int
    campaigns: int
    tests_run: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    #: fault kind -> [detected flags], the generated Table 2.
    scoreboard: Dict[str, List[bool]] = field(default_factory=dict)
    counterexamples: int = 0
    #: Detections whose minimized counterexample was timing-sensitive
    #: under replay and therefore not persisted (see run_campaign).
    nonreplayable_counterexamples: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def scoreboard_rows(self) -> List[Tuple[str, int, int]]:
        """``(fault kind, detected, injected)`` rows, sorted by kind."""
        return [
            (kind, sum(flags), len(flags))
            for kind, flags in sorted(self.scoreboard.items())
        ]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "campaigns": self.campaigns,
            "tests_run": self.tests_run,
            "divergences": [
                {
                    "campaign": d.campaign_index,
                    "target": d.target,
                    "kind": d.kind,
                    "detail": d.detail,
                }
                for d in self.divergences
            ],
            "scoreboard": {
                kind: {"detected": sum(flags), "injected": len(flags)}
                for kind, flags in sorted(self.scoreboard.items())
            },
            "counterexamples": self.counterexamples,
            "nonreplayable_counterexamples": (
                self.nonreplayable_counterexamples
            ),
        }

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.divergences)} DIVERGENCE(S)"
        detected = sum(r[1] for r in self.scoreboard_rows())
        injected = sum(r[2] for r in self.scoreboard_rows())
        note = (
            f" ({self.nonreplayable_counterexamples} counterexample(s) "
            "timing-sensitive, not persisted)"
            if self.nonreplayable_counterexamples
            else ""
        )
        return (
            f"fuzz seed {self.seed}: {self.campaigns} campaign(s), "
            f"{self.tests_run} test(s), faults detected {detected}/{injected}, "
            f"{status}{note}"
        )


def run_fuzz(
    seed: int,
    campaigns: int,
    jobs: int = 2,
    corpus_path: Optional[str] = None,
    on_campaign: Optional[Callable[[int, CampaignOutcomeSummary], None]] = None,
) -> FuzzReport:
    """Run ``campaigns`` generated campaigns and aggregate the report.

    Divergences (shrunk) and detected-fault counterexamples are appended
    to ``corpus_path`` when given.  ``on_campaign`` observes progress.
    """
    report = FuzzReport(seed=seed, campaigns=campaigns)
    for index in range(campaigns):
        campaign = generate_campaign(seed, index)
        # Shrinking a divergence re-runs the three-schedule batch per
        # candidate; that effort only pays off when the shrunk entry is
        # persisted for later replay.
        outcome = run_campaign(campaign, jobs=jobs,
                               shrink_divergences=corpus_path is not None)
        report.tests_run += outcome.tests_run
        report.divergences.extend(outcome.divergences)
        for fault, detected in outcome.detections:
            report.scoreboard.setdefault(fault.kind, []).append(detected)
        report.counterexamples += len(outcome.counterexamples)
        report.nonreplayable_counterexamples += outcome.nonreplayable
        if corpus_path is not None:
            for divergence in outcome.divergences:
                append_entry(corpus_path, divergence.entry)
            for entry in outcome.counterexamples:
                append_entry(corpus_path, entry)
        if on_campaign is not None:
            on_campaign(index, outcome)
    return report
