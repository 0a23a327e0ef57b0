"""``trace-taxonomy``: the closed ``EVENT_KINDS`` set, enforced both ways.

The trace vocabulary is a *closed* taxonomy: every event an engine emits
uses a kind declared in ``repro.obs.trace.EVENT_KINDS``, and every
declared kind is actually emitted somewhere.  The first direction keeps
consumers (``TraceAnalyzer``, replay tooling) total over real logs; the
second keeps the taxonomy honest — a kind nothing emits is documentation
drift wearing a frozenset.

Emit sites come in the three shapes the engines actually use, all
handled here:

* typed construction — ``TraceEvent(now, "kind", ...)`` (positional or
  ``kind=`` keyword), including the ``tuple.__new__(TraceEvent, (...))``
  fast path;
* raw hot-path tuples — ``tracer.emit((now, "kind", ...))`` /
  ``trace_emit((...))``, where the kind is element 1 of a tuple literal
  passed to an ``*emit`` callable;
* emit helpers — ``self._trace(now, "kind", ...)`` forwarding functions
  named in :attr:`~repro.analysis.config.AnalysisConfig.emit_helpers`
  (kind is always their second argument).

Constructions whose kind is a variable are flagged as unverifiable —
except inside the declared emit helpers themselves and inside the
taxonomy module (whose deserializers rebuild events from parsed data by
construction).
"""

from __future__ import annotations

import ast
import os

from repro.analysis.checkers.base import Checker
from repro.analysis.config import AnalysisConfig, module_matches
from repro.analysis.core import Finding, ModuleContext, module_name_for

__all__ = ["TraceTaxonomyChecker", "emit_site_census", "load_taxonomy"]


def load_taxonomy(path: str) -> tuple[dict[str, int], dict[str, int]]:
    """Extract ``EVENT_KINDS`` and ``RAW_DATA_FIELDS`` declarations.

    Returns ``(kinds, raw_kinds)``, each mapping a kind name to the line
    it is declared on — purely static, so the analyzer never imports the
    code it is judging.
    """
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    kinds: dict[str, int] = {}
    raw_kinds: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if target.id == "EVENT_KINDS":
            value = node.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "frozenset"
                and value.args
            ):
                value = value.args[0]
            if isinstance(value, ast.Set):
                for elt in value.elts:
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                        kinds[elt.value] = elt.lineno
        elif target.id == "RAW_DATA_FIELDS" and isinstance(node.value, ast.Dict):
            for key in node.value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    raw_kinds[key.value] = key.lineno
    return kinds, raw_kinds


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
        "every trace emission uses a declared EVENT_KINDS kind, and every "
        "declared kind has at least one emit site"
    )

    def __init__(self, config: AnalysisConfig, root: str = ".") -> None:
        super().__init__(config, root)
        taxonomy_path = os.path.join(root, config.taxonomy_module)
        self.taxonomy_path = taxonomy_path
        if os.path.exists(taxonomy_path):
            self.kinds, self.raw_kinds = load_taxonomy(taxonomy_path)
        else:
            # No taxonomy in reach (e.g. analyzing a lone script): the
            # rule has nothing to enforce against.
            self.kinds, self.raw_kinds = {}, {}
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
            return []  # declarations + deserializers, not emit sites
        findings: list[Finding] = []
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            for kind_node in self._kind_exprs(node):
                finding = self._record(ctx, node, kind_node)
                if finding is not None:
                    findings.append(finding)
        return findings

    def _kind_exprs(self, node: ast.Call) -> list[ast.AST]:
        """The expressions holding this call's event kind, if any."""
        name = _callable_name(node.func)
        out: list[ast.AST] = []
        # Typed construction: TraceEvent(now, kind, ...) / kind=...
        if name == "TraceEvent":
            if len(node.args) >= 2:
                out.append(node.args[1])
            else:
                for kw in node.keywords:
                    if kw.arg == "kind":
                        out.append(kw.value)
        # Fast path: tuple.__new__(TraceEvent, (now, kind, ...)).
        elif (
            name == "__new__"
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "tuple"
            and len(node.args) == 2
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "TraceEvent"
            and isinstance(node.args[1], ast.Tuple)
            and len(node.args[1].elts) >= 2
        ):
            out.append(node.args[1].elts[1])
        # Emit helper: self._trace(now, kind, ...).
        elif name in self.config.emit_helpers:
            if len(node.args) >= 2:
                out.append(node.args[1])
        # Raw hot-path tuple handed to an *emit callable.
        elif (
            name is not None
            and name.endswith("emit")
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Tuple)
            and len(node.args[0].elts) >= 2
        ):
            out.append(node.args[0].elts[1])
        return out

    def _record(
        self, ctx: ModuleContext, call: ast.Call, kind_node: ast.AST
    ) -> Finding | None:
        if isinstance(kind_node, ast.Constant) and isinstance(kind_node.value, str):
            kind = kind_node.value
            self.census.setdefault(kind, []).append((ctx.path, call.lineno))
            if kind not in self.kinds:
                return self.finding(
                    ctx,
                    call,
                    f"trace emission with kind {kind!r} not in the closed "
                    "EVENT_KINDS taxonomy "
                    f"({self.config.taxonomy_module}); declare it there or "
                    "fix the emit site",
                )
            return None
        # Variable kind: fine inside the declared forwarding helpers
        # (their parameter *is* the kind), unverifiable anywhere else.
        scope = ctx.scope_of(call).split(".")[-1]
        if scope in self.config.emit_helpers:
            return None
        return self.finding(
            ctx,
            call,
            "trace emission whose kind is not a string literal — the "
            "closed-taxonomy rule cannot verify it; emit a literal kind "
            "or route through a declared emit helper",
        )

    # --- cross-module pass ------------------------------------------------
    def finalize(self) -> list[Finding]:
        findings: list[Finding] = []
        for kind, line in sorted(self.raw_kinds.items()):
            if kind not in self.kinds:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=self.taxonomy_path,
                        line=line,
                        col=0,
                        message=(
                            f"RAW_DATA_FIELDS declares hot-path kind "
                            f"{kind!r} that EVENT_KINDS does not contain"
                        ),
                    )
                )
        # Dead kinds are only judgeable when the run actually covered
        # the emitting library (someone linting a lone benchmark script
        # should not be told every kind is dead).
        if not (self.saw_census_module and self.saw_taxonomy_module):
            return findings
        for kind, line in sorted(self.kinds.items()):
            if kind not in self.census:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=self.taxonomy_path,
                        line=line,
                        col=0,
                        message=(
                            f"dead trace kind {kind!r}: declared in "
                            "EVENT_KINDS but no emit site in the analyzed "
                            "tree produces it"
                        ),
                    )
                )
        return findings


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
