"""Differential fuzzing of the whole checking pipeline.

The paper's headline claim is that one LTL specification catches whole
families of faults (Table 2) -- but a reproduction validated only
against the two hand-written applications it ships with has never faced
an input it wasn't written for.  This package turns the checker into
its own adversary, QuickLTL-style (see "From Temporal Models to
Property-Based Testing" in PAPERS.md):

* :mod:`repro.fuzz.machine` -- seeded synthetic state-machine
  applications (random states, buttons, timers, storage) mounted in the
  simulated browser like any real app, plus a fault-injection mutator
  generalising :mod:`repro.apps.todomvc.faults`: every generated app has
  a *correct twin* and N *faulty twins*.
* :mod:`repro.fuzz.specgen` -- generated Specstrom specifications: a
  sound model spec derived from the machine's transition system (must
  pass on the correct twin, should catch the injected faults -- the
  Table 2 scoreboard, machine-generated) and random temporal properties
  over the machine's observables (exercising the front end and the
  progression engine on formulas nobody hand-wrote).
* :mod:`repro.fuzz.oracles` -- differential oracles: every recorded
  trace is re-evaluated with the independent reference semantics
  (:func:`repro.quickltl.direct_eval` over trace prefixes) and the
  end-to-end verdict must match; every campaign is run serial vs pooled
  vs warm-reuse vs async-multiplexed and verdicts, counterexamples and
  reporter event streams must be identical.
* :mod:`repro.fuzz.corpus` -- any divergence is shrunk and persisted as
  a replayable JSONL corpus entry (`repro fuzz --replay` re-runs it).
* :mod:`repro.fuzz.campaigns` -- the campaign generator and the
  ``repro fuzz`` driver, running batches on the
  :class:`~repro.api.scheduler.PooledScheduler` over several transports.
"""

from .machine import (
    ButtonSpec,
    MachineApp,
    MachineFault,
    MachineSpec,
    TimerSpec,
    fault_candidates,
    generate_machine,
    machine_app,
)
from .specgen import model_spec_source, random_spec_source
from .oracles import (
    RecordingReporter,
    compare_campaigns,
    direct_oracle_mismatch,
    expected_outcome,
)
from .corpus import CorpusEntry, append_entry, read_corpus, replay_entry
from .campaigns import (
    Divergence,
    FuzzCampaign,
    FuzzReport,
    generate_campaign,
    generate_campaigns,
    run_campaign,
    run_fuzz,
)

__all__ = [
    "ButtonSpec",
    "MachineApp",
    "MachineFault",
    "MachineSpec",
    "TimerSpec",
    "fault_candidates",
    "generate_machine",
    "machine_app",
    "model_spec_source",
    "random_spec_source",
    "RecordingReporter",
    "compare_campaigns",
    "direct_oracle_mismatch",
    "expected_outcome",
    "CorpusEntry",
    "append_entry",
    "read_corpus",
    "replay_entry",
    "Divergence",
    "FuzzCampaign",
    "FuzzReport",
    "generate_campaign",
    "generate_campaigns",
    "run_campaign",
    "run_fuzz",
]
