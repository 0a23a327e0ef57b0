"""``unbounded-growth``: streaming accumulators must stay O(1) per pool.

The streaming serve's contract is that memory is independent of stream
length: per-query state is freed at finish and everything that survives
folds into bounded accumulators (exact sums, ``QuantileSketch`` bucket
histograms, ``SkylineTracker`` scalars).  The contract dies one innocent
line at a time — an ``append`` to a debug list inside ``observe()`` is
invisible until the million-query bench trips the RSS ceiling hours
later.  This rule guards the fold path itself: inside the configured
streaming accumulator classes
(:attr:`~repro.analysis.config.AnalysisConfig.streaming_classes`), any
container-growth call reachable from ``self`` — ``append``, ``extend``,
``insert``, ``appendleft``, ``extendleft``, ``add`` — any
``self.x += [...]`` and any keyed store ``self.x[k] = v`` is a finding,
unless the grown attribute is declared bounded as a ``Class.attr`` entry
in :attr:`~repro.analysis.config.AnalysisConfig.streaming_bounded_attrs`
(the sketch attributes, whose ``add`` is a histogram fold, not growth;
an LRU dict that evicts past its bound).  An entry covers its own class
only: ``PredictionService._cache`` says nothing about a ``_cache`` of
any other scoped class.

Growth on locals is fine (temporaries die with the frame); only state
that survives the call can leak.  A local bound to a ``self`` attribute
(``cache = self._cache``) is that attribute, so growth through it counts.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import Checker
from repro.analysis.core import Finding, ModuleContext

__all__ = ["StreamingRetentionChecker"]

_GROWTH_METHODS = frozenset(
    {"append", "extend", "insert", "appendleft", "extendleft", "add"}
)


def _self_root_attr(node: ast.AST, aliases: dict[str, str] | None) -> str | None:
    """First attribute name on a ``self.…`` receiver chain, else None.

    Handles nesting through attributes, subscripts, and calls:
    ``self._counts.setdefault(k, []).append`` roots at ``_counts``.  A
    chain starting at a local in ``aliases`` roots at the attribute the
    local was bound to.
    """
    last_attr: str | None = None
    current = node
    while True:
        if isinstance(current, ast.Attribute):
            last_attr = current.attr
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        elif isinstance(current, ast.Call):
            current = current.func
        elif isinstance(current, ast.Name):
            if current.id == "self":
                return last_attr
            return aliases.get(current.id) if aliases else None
        else:
            return None


def _grows_a_list(value: ast.AST) -> bool:
    """Whether an ``+=`` right-hand side syntactically appends elements."""
    if isinstance(value, (ast.List, ast.ListComp)):
        return True
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "list"
    )


class StreamingRetentionChecker(Checker):
    name = "unbounded-growth"
    description = (
        "no unbounded per-query container growth inside the streaming "
        "accumulator classes (the O(1)-memory serve contract)"
    )

    def _scoped_classes(self, module: str) -> frozenset[str]:
        names = set()
        for spec in self.config.streaming_classes:
            mod, _, cls = spec.partition(":")
            if cls and mod == module:
                names.add(cls)
        return frozenset(names)

    def check_module(self, ctx: ModuleContext) -> list[Finding]:
        classes = self._scoped_classes(ctx.module)
        if not classes:
            return []
        bounded = frozenset(self.config.streaming_bounded_attrs)
        # scope -> {local: attr} for locals bound as ``cache = self._cache``
        aliases: dict[str, dict[str, str]] = {}
        for node in ctx.walk():
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "self"
            ):
                scope = aliases.setdefault(ctx.scope_of(node), {})
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        scope[target.id] = node.value.attr
        findings: list[Finding] = []
        for node in ctx.walk():
            grown: list[tuple[ast.AST, str]] = []
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _GROWTH_METHODS
            ):
                grown.append((node.func.value, f".{node.func.attr}()"))
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, ast.Add
            ):
                if _grows_a_list(node.value):
                    grown.append((node.target, "+= [...]"))
            elif isinstance(node, ast.Assign):
                grown.extend(
                    (target.value, "[k] = v")
                    for target in node.targets
                    if isinstance(target, ast.Subscript)
                )
            if not grown:
                continue
            enclosing = ctx.enclosing_class(node)
            if enclosing is None or enclosing.name not in classes:
                continue
            for receiver, verb in grown:
                attr = _self_root_attr(receiver, aliases.get(ctx.scope_of(node)))
                if attr is None or f"{enclosing.name}.{attr}" in bounded:
                    continue
                item = self.finding(
                    ctx,
                    node,
                    f"container growth {verb} on self.{attr} inside "
                    f"streaming accumulator {enclosing.name}: per-query "
                    "state must fold into bounded accumulators (O(1)-memory "
                    f"contract); if self.{attr} is provably bounded, declare "
                    f"{enclosing.name}.{attr} in streaming_bounded_attrs",
                )
                if item is not None:
                    findings.append(item)
        return findings
