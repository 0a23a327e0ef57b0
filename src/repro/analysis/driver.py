"""Run every selected checker over a file set and collect findings."""

from __future__ import annotations

import os

from repro.analysis.checkers import ALL_CHECKERS
from repro.analysis.config import AnalysisConfig
from repro.analysis.core import Finding, parse_module

__all__ = ["collect_files", "run_analysis"]

#: Directory basenames never worth parsing.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", "output"})


def collect_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen: set[str] = set()
    out: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path not in seen:
                seen.add(path)
                out.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d
                for d in dirnames
                if d not in _SKIP_DIRS and not d.startswith(".")
            )
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                full = os.path.join(dirpath, filename)
                if full not in seen:
                    seen.add(full)
                    out.append(full)
    return out


def run_analysis(
    paths: list[str],
    root: str = ".",
    config: AnalysisConfig | None = None,
) -> list[Finding]:
    """Analyze ``paths`` and return findings sorted by location.

    A file that fails to parse becomes a ``parse-error`` finding rather
    than an exception: the gate must report the broken file's name, not
    die on it.
    """
    cfg = config or AnalysisConfig()
    selected = [
        checker_cls(cfg, root)
        for checker_cls in ALL_CHECKERS
        if not cfg.select or checker_cls.name in cfg.select
    ]
    findings: list[Finding] = []
    for path in collect_files(paths):
        try:
            ctx = parse_module(path, root=root)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="parse-error",
                    path=path,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        for checker in selected:
            findings.extend(checker.check_module(ctx))
    for checker in selected:
        findings.extend(checker.finalize())
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
