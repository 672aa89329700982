"""Quickstrom reproduction: property-based acceptance testing with
QuickLTL specifications (O'Connor & Wickstrom, PLDI 2022).

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.api`        -- the checking API (CheckSession, transports, reporters),
* :mod:`repro.quickltl`   -- the QuickLTL temporal logic,
* :mod:`repro.specstrom`  -- the Specstrom specification language,
* :mod:`repro.checker`    -- the test loop (runner, shrinking),
* :mod:`repro.executors`  -- the DOM (simulated WebDriver) and CCS executors,
* :mod:`repro.dom` / :mod:`repro.browser` -- the browser substrate,
* :mod:`repro.apps`       -- applications under test (egg timer, TodoMVC),
* :mod:`repro.specs`      -- bundled .strom specifications.
"""

from .quickltl import Verdict, FormulaChecker, parse_formula, DEFAULT_SUBSCRIPT
from .specstrom import load_module, load_module_file, CheckSpec, SpecModule
from .checker import Runner, RunnerConfig, CampaignResult
from .executors import DomExecutor, CCSExecutor
from .api import (
    CheckSession,
    Reporter,
    ConsoleReporter,
    JsonlReporter,
)

__version__ = "1.0.0"

__all__ = [
    "CheckSession",
    "Reporter",
    "ConsoleReporter",
    "JsonlReporter",
    "Verdict",
    "FormulaChecker",
    "parse_formula",
    "DEFAULT_SUBSCRIPT",
    "load_module",
    "load_module_file",
    "CheckSpec",
    "SpecModule",
    "Runner",
    "RunnerConfig",
    "CampaignResult",
    "DomExecutor",
    "CCSExecutor",
    "__version__",
]
