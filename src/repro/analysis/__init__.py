"""Correctness tooling for the testbed: determinism linter + sanitizers.

The paper's evaluation (per-second accuracy timelines, resource tables)
is only meaningful when the same seed reproduces the same packet
schedule.  This subpackage defends that property on three fronts:

* **static** — :mod:`repro.analysis.rules` / :mod:`repro.analysis.walker`
  implement an AST determinism linter (``ddoshield lint``) that flags
  unseeded global RNG use, wall-clock reads, unordered ``set`` iteration,
  float equality against simulation time, mutable default arguments and
  ``id()``-based tie-breaking, with ``# repro: lint-ok[rule-id]``
  suppressions and a committed baseline (:mod:`repro.analysis.baseline`);
* **parity** — :mod:`repro.analysis.parity` / :mod:`repro.analysis.effects`
  implement the event-commutativity analyzer (``ddoshield
  check-parity``): AST effect summaries flag same-bucket handlers whose
  state writes do not commute (ORD002);
* **dynamic** — :mod:`repro.analysis.sanitizers` provides opt-in runtime
  invariant checkers (``Simulator(sanitize=True)`` / ``REPRO_SANITIZE=1``)
  for event-time monotonicity, the kernel's cancel ledger, queue/channel
  packet conservation and socket/port leaks at teardown, plus the
  bucket-shuffle race detector seed (``REPRO_SHUFFLE`` /
  ``Simulator(shuffle_buckets=…)``) that dynamically stresses what
  ORD002 reasons about statically.
"""

from repro.analysis.baseline import Baseline, diff_findings
from repro.analysis.effects import (
    ClassEffects,
    EffectSummary,
    collect_class_effects,
)
from repro.analysis.parity import (
    DEFAULT_PARITY_PATHS,
    PARITY_RULE_IDS,
    check_parity_paths,
)
from repro.analysis.report import Finding, LintReport, format_json, format_text
from repro.analysis.rules import RULES, Rule, iter_rules, rule
from repro.analysis.sanitizers import (
    Sanitizer,
    SanitizerError,
    Violation,
    sanitize_mode_from_env,
    shuffle_seed_from_env,
)
from repro.analysis.walker import (
    PARSE_RULE_ID,
    LintContext,
    lint_paths,
    lint_source,
    parse_failure_finding,
)

__all__ = [
    "Baseline",
    "ClassEffects",
    "DEFAULT_PARITY_PATHS",
    "EffectSummary",
    "Finding",
    "LintContext",
    "LintReport",
    "PARITY_RULE_IDS",
    "PARSE_RULE_ID",
    "RULES",
    "Rule",
    "Sanitizer",
    "SanitizerError",
    "Violation",
    "check_parity_paths",
    "collect_class_effects",
    "diff_findings",
    "format_json",
    "format_text",
    "iter_rules",
    "lint_paths",
    "lint_source",
    "parse_failure_finding",
    "rule",
    "sanitize_mode_from_env",
    "shuffle_seed_from_env",
]
