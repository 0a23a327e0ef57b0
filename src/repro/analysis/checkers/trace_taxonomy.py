"""``trace-taxonomy``: the closed ``EVENT_KINDS`` table, enforced both ways.

The trace vocabulary is a *closed* taxonomy: every event an engine emits
uses a kind declared in ``repro.obs.trace.EVENT_KINDS``, with exactly the
payload that kind declares, and every declared kind is actually emitted
somewhere.  The first direction keeps consumers (``TraceAnalyzer``,
replay tooling) total over real logs; the second keeps the taxonomy
honest — a kind nothing emits is documentation drift wearing a table.

An emit site has one shape: a tuple literal
``(time, kind, pool, query, query_id, *payload)`` passed to an ``*emit``
callable (``tracer.emit((...))``, ``trace_emit((...))``).  Its kind must
be a string literal in the table and its length must be five plus the
kind's field count.  A ``TraceEvent(...)`` construction in the census
scope is flagged: engines hand the tracer the flat tuple and
:func:`repro.obs.trace.materialize` is the one decoder.
"""

from __future__ import annotations

import ast
import os

from repro.analysis.checkers.base import Checker
from repro.analysis.config import AnalysisConfig, module_matches
from repro.analysis.core import Finding, ModuleContext, module_name_for

__all__ = ["TraceTaxonomyChecker", "emit_site_census", "load_taxonomy"]

#: ``(time, kind, pool, query, query_id)`` lead every emitted tuple.
_IDENTITY_WIDTH = 5


def load_taxonomy(path: str) -> dict[str, tuple[int, int]]:
    """Extract the ``EVENT_KINDS`` table: kind → (declaration line,
    payload field count).

    Purely static, so the analyzer never imports the code it is judging.
    """
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    kinds: dict[str, tuple[int, int]] = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "EVENT_KINDS"
            and isinstance(node.value, ast.Dict)
        ):
            for key, fields in zip(node.value.keys, node.value.values):
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(fields, ast.Tuple)
                ):
                    kinds[key.value] = (key.lineno, len(fields.elts))
    return kinds


def _callable_name(func: ast.AST) -> str | None:
    """Terminal name of the called expression (``a.b.emit`` → ``emit``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class TraceTaxonomyChecker(Checker):
    name = "trace-taxonomy"
    description = (
        "every trace emission is a flat tuple of a declared EVENT_KINDS "
        "kind with its declared payload, and every declared kind has at "
        "least one emit site"
    )

    def __init__(self, config: AnalysisConfig, root: str = ".") -> None:
        super().__init__(config, root)
        taxonomy_path = os.path.join(root, config.taxonomy_module)
        self.taxonomy_path = taxonomy_path
        # No taxonomy in reach (e.g. analyzing a lone script): the rule
        # has nothing to enforce against.
        self.kinds = (
            load_taxonomy(taxonomy_path) if os.path.exists(taxonomy_path) else {}
        )
        self.taxonomy_module_name = module_name_for(config.taxonomy_module)
        #: kind → emit sites seen across the run, for finalize() and
        #: for the taxonomy-agreement test's census.
        self.census: dict[str, list[tuple[str, int]]] = {}
        self.saw_census_module = False
        self.saw_taxonomy_module = False

    # --- per-module pass --------------------------------------------------
    def check_module(self, ctx: ModuleContext) -> list[Finding]:
        if not self.kinds:
            return []
        if not module_matches(ctx.module, self.config.taxonomy_census_modules):
            return []
        self.saw_census_module = True
        if ctx.module == self.taxonomy_module_name:
            self.saw_taxonomy_module = True
            return []  # the table, the decoder and the deserializer
        findings: list[Finding] = []
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            message = self._check_call(ctx, node)
            if message is not None:
                findings.append(self.finding(ctx, node, message))
        return findings

    def _check_call(self, ctx: ModuleContext, call: ast.Call) -> str | None:
        """The finding message for one call, ``None`` when it is fine."""
        name = _callable_name(call.func)
        if name == "TraceEvent":
            return (
                "TraceEvent(...) emission — hand the tracer the flat tuple "
                "(time, kind, pool, query, query_id, *payload); "
                "materialize() decodes it"
            )
        if (
            name is None
            or not name.endswith("emit")
            or len(call.args) != 1
            or not isinstance(call.args[0], ast.Tuple)
            or len(call.args[0].elts) < 2
        ):
            return None
        elts = call.args[0].elts
        kind_node = elts[1]
        if not (
            isinstance(kind_node, ast.Constant) and isinstance(kind_node.value, str)
        ):
            return (
                "trace emission whose kind is not a string literal — the "
                "closed-taxonomy rule cannot verify it; emit a literal kind"
            )
        kind = kind_node.value
        self.census.setdefault(kind, []).append((ctx.path, call.lineno))
        if kind not in self.kinds:
            return (
                f"trace emission with kind {kind!r} not in the closed "
                f"EVENT_KINDS taxonomy ({self.config.taxonomy_module}); "
                "declare it there or fix the emit site"
            )
        width = _IDENTITY_WIDTH + self.kinds[kind][1]
        if len(elts) != width:
            return (
                f"trace emission of {kind!r} has {len(elts)} elements; "
                f"EVENT_KINDS declares {width} (5 identity + "
                f"{width - _IDENTITY_WIDTH} payload)"
            )
        return None

    # --- cross-module pass ------------------------------------------------
    def finalize(self) -> list[Finding]:
        # Dead kinds are only judgeable when the run actually covered
        # the emitting library (someone linting a lone benchmark script
        # should not be told every kind is dead).
        if not (self.saw_census_module and self.saw_taxonomy_module):
            return []
        return [
            Finding(
                rule=self.name,
                path=self.taxonomy_path,
                line=line,
                col=0,
                message=(
                    f"dead trace kind {kind!r}: declared in EVENT_KINDS but "
                    "no emit site in the analyzed tree produces it"
                ),
            )
            for kind, (line, _) in sorted(self.kinds.items())
            if kind not in self.census
        ]


def emit_site_census(
    paths: list[str], root: str = ".", config: AnalysisConfig | None = None
) -> dict[str, list[tuple[str, int]]]:
    """Static emit-site census over ``paths`` — kind → [(path, line)].

    The taxonomy-agreement test uses this to assert the static view,
    ``EVENT_KINDS``, and the runtime serialization all agree.
    """
    from repro.analysis.driver import collect_files
    from repro.analysis.core import parse_module

    checker = TraceTaxonomyChecker(config or AnalysisConfig(), root)
    for path in collect_files(paths):
        checker.check_module(parse_module(path, root=root))
    return checker.census
