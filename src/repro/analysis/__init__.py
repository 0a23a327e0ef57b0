"""Static enforcement of the repo's determinism and resource contracts.

Every load-bearing guarantee in this codebase — bit-identical
fleet-of-one parity, seed-derived fault draws, the two-class heap-key
total order, the closed ``EVENT_KINDS`` trace taxonomy, the O(1)-memory
streaming contract — is otherwise enforced only *dynamically*, by parity
and property suites that catch a violation hours after it is written and
only on the inputs they happen to exercise.  This package encodes those
contracts as AST checks that fail CI at the offending line instead.

The framework is deliberately dependency-free: :mod:`ast` plus a small
visitor core (:mod:`repro.analysis.core`) with parent links, scope
tracking, and import-alias resolution.  Checkers live in
:mod:`repro.analysis.checkers`; their scopes and allowlists are the
:class:`~repro.analysis.config.AnalysisConfig` defaults, the linter's
whole contract (:mod:`repro.analysis.config`).

Run it as a CLI (nonzero exit on findings)::

    python -m repro.analysis src benchmarks examples
    python -m repro.analysis src --format=json

or programmatically::

    from repro.analysis import run_analysis
    findings = run_analysis(["src"], root=".")

Suppress a single finding inline with a trailing
``# repro-analysis: ignore[rule-name]`` comment — reserved, like any
allowlist entry, for sites where the contract genuinely does not apply
(e.g. a measured-overhead wall-clock read).
"""

from repro.analysis.config import AnalysisConfig
from repro.analysis.core import Finding, ModuleContext, parse_module
from repro.analysis.driver import collect_files, run_analysis
from repro.analysis.checkers import ALL_CHECKERS

__all__ = [
    "ALL_CHECKERS",
    "AnalysisConfig",
    "Finding",
    "ModuleContext",
    "collect_files",
    "parse_module",
    "run_analysis",
]
