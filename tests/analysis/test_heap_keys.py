"""Fixture spec for the ``heap-key`` rule.

Serve-loop heaps push ``(time, class-rank, counter, ...)`` so that
same-instant ties break by event class then insertion order — never by
whatever payload happens to sit in the tuple.
"""

import textwrap

from repro.analysis.checkers import HeapKeyChecker

KNOWN_BAD = textwrap.dedent(
    """
    import heapq

    def schedule(events, finish, runtime):
        heapq.heappush(events, finish)                  # raw float key
        heapq.heappush(events, (finish, runtime))       # float tiebreak
        heapq.heappush(events, (finish, 0))             # rank, no counter
        heapq.heappush(events, (finish, 1, 2.5, "t"))   # float counter
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
        # Single-class degenerate form (the per-query scheduler).
        heapq.heappush(events, (now, next(counter), "task_done", None))
    """
)


class TestHeapKeys:
    def test_flags_known_bad(self, check_source):
        findings = check_source(HeapKeyChecker, KNOWN_BAD, "repro.fleet.cluster")
        assert len(findings) == 4
        assert {f.rule for f in findings} == {"heap-key"}
        assert "bare expression" in findings[0].message

    def test_passes_known_good(self, check_source):
        assert check_source(HeapKeyChecker, KNOWN_GOOD, "repro.fleet.cluster") == []

    def test_scope_is_the_three_serve_loop_modules(self, check_source):
        for module in (
            "repro.engine.scheduler",
            "repro.fleet.cluster",
            "repro.fleet.parallel",
        ):
            assert check_source(HeapKeyChecker, KNOWN_BAD, module), module
        # FleetEngine drives a one-pool ShardedFleet: no heap of its own.
        assert check_source(HeapKeyChecker, KNOWN_BAD, "repro.fleet.engine") == []
        # The vectorized sweep's wave heap is internal to one function
        # and out of scope by design.
        assert check_source(HeapKeyChecker, KNOWN_BAD, "repro.engine.sweep") == []

    def test_heappop_is_not_a_push(self, check_source):
        src = "import heapq\n\ndef f(h):\n    return heapq.heappop(h)\n"
        assert check_source(HeapKeyChecker, src, "repro.fleet.cluster") == []
