"""CLI: ``python -m repro.analysis [paths] [--format=text|json]``.

Exit status: 0 clean, 1 findings, 2 bad invocation (an unknown
``--select`` rule, or an argument argparse rejects).  The scopes and
allowlists are the :class:`~repro.analysis.config.AnalysisConfig`
defaults; there is no configuration file.  This module is the one place
in ``src/`` allowed to print — reporting to stdout is its whole job (see
the ruff per-file-ignores note in pyproject.toml).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.checkers import ALL_CHECKERS
from repro.analysis.config import AnalysisConfig
from repro.analysis.driver import run_analysis

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "AST-based determinism-and-contracts linter for this repo "
            "(see README: 'Determinism contract & static analysis')"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repo root that module names and the taxonomy module path "
        "are resolved against",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="findings as editor-clickable lines (text) or a JSON report",
    )
    parser.add_argument(
        "--select",
        default="",
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for checker in ALL_CHECKERS:
            print(f"{checker.name}: {checker.description}")
        return 0

    known = {checker.name for checker in ALL_CHECKERS}
    names = tuple(s.strip() for s in args.select.split(",") if s.strip())
    unknown = [name for name in names if name not in known]
    if unknown:
        print(
            f"error: unknown rule(s) {unknown}; known: {sorted(known)}",
            file=sys.stderr,
        )
        return 2

    findings = run_analysis(
        args.paths, root=args.root, config=AnalysisConfig(select=names)
    )

    if args.format == "json":
        report = {
            "findings": [f.to_dict() for f in findings],
            "count": len(findings),
            "rules": sorted({f.rule for f in findings}),
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())
        summary = (
            f"{len(findings)} finding(s)" if findings else "clean: no findings"
        )
        print(summary, file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
