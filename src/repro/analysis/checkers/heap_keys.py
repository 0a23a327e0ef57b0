"""``heap-key``: event heaps push the documented two-class key tuple.

The drivers' total event order is ``(time, class-rank, counter)``:
class 0 is an arrival keyed by stream position, class 1 everything else
keyed by the push counter.  That tuple is *the* determinism boundary —
it is what makes same-instant ties break identically whether arrivals
enter the heap eagerly (record mode), lazily (streaming mode), or from
a multiprocess feed.  A ``heappush`` that pushes a raw float, or a tuple
whose second element is a float expression, reintroduces
interleaving-dependent tie order: two events at the same instant compare
by whatever payload happens to sit next, which can differ between
otherwise-identical runs (and raises ``TypeError`` on unorderable
payloads only when a tie actually happens — the worst kind of latent).

The rule, for every ``heapq.heappush`` in the configured modules: the
pushed key must be a tuple literal of at least three elements whose
second element is an integer class rank and whose third is a counter —
``next(...)`` or a named stream position.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import Checker
from repro.analysis.config import module_matches
from repro.analysis.core import Finding, ModuleContext

__all__ = ["HeapKeyChecker"]


def _is_next_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "next"
    )


def _is_int_literal(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    )


class HeapKeyChecker(Checker):
    name = "heap-key"
    description = (
        "heapq.heappush in the event-heap module must push the two-class "
        "(time, class-rank, counter, ...) key tuple"
    )

    def check_module(self, ctx: ModuleContext) -> list[Finding]:
        if not module_matches(ctx.module, self.config.heap_key_modules):
            return []
        findings: list[Finding] = []
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            qualname = ctx.resolve(node.func)
            if qualname != "heapq.heappush":
                continue
            message = self._violation(node)
            if message is None:
                continue
            item = self.finding(ctx, node, message)
            if item is not None:
                findings.append(item)
        return findings

    def _violation(self, node: ast.Call) -> str | None:
        if len(node.args) != 2:
            return None  # malformed call; leave it to the interpreter
        key = node.args[1]
        if not isinstance(key, ast.Tuple):
            return (
                "heappush key must be the documented (time, class-rank, "
                "counter, ...) tuple literal, not a bare expression — "
                "same-instant ties would compare by payload"
            )
        elts = key.elts
        if len(elts) < 2:
            return (
                "heappush key tuple needs a deterministic tie-breaker "
                "after the time element"
            )
        second = elts[1]
        if _is_int_literal(second):
            if len(elts) < 3:
                return (
                    "two-class heap key is missing its counter: after the "
                    "class rank the third element must be next(counter) "
                    "or the stream position"
                )
            third = elts[2]
            if _is_next_call(third) or isinstance(third, ast.Name):
                return None
            return (
                "two-class heap key's counter element must be "
                "next(counter) or a named stream position, not "
                f"{ast.dump(third)[:40]}… — anything else makes tie "
                "order interleaving-dependent"
            )
        return (
            "heap key's second element must be an integer class rank; "
            "anything else makes same-instant tie order depend on event "
            "interleaving"
        )
