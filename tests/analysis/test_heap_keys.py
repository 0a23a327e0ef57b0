"""Fixture spec for the ``heap-key`` rule.

The drivers' event heap pushes ``(time, class-rank, counter, ...)`` so
that same-instant ties break by event class then insertion order — never
by whatever payload happens to sit in the tuple.
"""

import ast
import textwrap
from pathlib import Path

from repro.analysis.checkers import HeapKeyChecker
from repro.analysis.config import AnalysisConfig

SRC = Path(__file__).resolve().parents[2] / "src"

KNOWN_BAD = textwrap.dedent(
    """
    import heapq

    def schedule(events, finish, runtime):
        heapq.heappush(events, finish)                  # raw float key
        heapq.heappush(events, (finish, runtime))       # float tiebreak
        heapq.heappush(events, (finish, 0))             # rank, no counter
        heapq.heappush(events, (finish, 1, 2.5, "t"))   # float counter
        heapq.heappush(events, (finish, next(counter), "t", None))  # one class
    """
)

KNOWN_GOOD = textwrap.dedent(
    """
    import heapq
    import itertools

    def schedule(events, now, pos, arrival):
        counter = itertools.count()
        # Two-class form: arrivals at class 0 keyed by stream position...
        heapq.heappush(events, (now, 0, pos, "arrive", pos, arrival))
        # ...everything else at class 1 keyed by the push counter.
        heapq.heappush(events, (now, 1, next(counter), "tick", -1, None))
    """
)


class TestHeapKeys:
    def test_flags_known_bad(self, check_source):
        findings = check_source(HeapKeyChecker, KNOWN_BAD, "repro.engine.driver")
        assert len(findings) == 5
        assert {f.rule for f in findings} == {"heap-key"}
        assert "bare expression" in findings[0].message

    def test_passes_known_good(self, check_source):
        assert check_source(HeapKeyChecker, KNOWN_GOOD, "repro.engine.driver") == []

    def test_scope_is_the_event_heap_module(self, check_source):
        assert AnalysisConfig().heap_key_modules == ("repro.engine.driver",)
        assert check_source(HeapKeyChecker, KNOWN_BAD, "repro.engine.driver")
        # The drivers push through EventHeap and keep no heap of their own.
        for module in (
            "repro.engine.scheduler",
            "repro.fleet.cluster",
            "repro.fleet.parallel",
            "repro.fleet.engine",
            # The vectorized sweep's wave heap is internal to one
            # function and out of scope by design.
            "repro.engine.sweep",
        ):
            assert check_source(HeapKeyChecker, KNOWN_BAD, module) == [], module

    def test_every_heappush_is_in_scope_or_a_documented_exception(self):
        """No module slips out of the rule: a heappush outside the
        scoped module is one of the two documented out-of-scope heaps —
        the sweep's wave heaps and the core's free-core ``int`` heap."""
        allowed = {"repro/engine/driver.py", "repro/engine/sweep.py"}
        sites: dict[str, int] = {}
        for path in sorted(SRC.joinpath("repro").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and (
                    getattr(node.func, "attr", None) == "heappush"
                    or getattr(node.func, "id", None) == "heappush"
                ):
                    rel = path.relative_to(SRC).as_posix()
                    sites[rel] = sites.get(rel, 0) + 1
                    if rel == "repro/engine/execution.py":
                        # Only ever an executor id onto the free-core heap.
                        assert ast.unparse(node.args[1]) == "eid", ast.unparse(node)
                    else:
                        assert rel in allowed, (rel, node.lineno)
        assert sites.keys() == allowed | {"repro/engine/execution.py"}, sites

    def test_heappop_is_not_a_push(self, check_source):
        src = "import heapq\n\ndef f(h):\n    return heapq.heappop(h)\n"
        assert check_source(HeapKeyChecker, src, "repro.engine.driver") == []
