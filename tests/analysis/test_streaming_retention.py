"""Fixture spec for the ``unbounded-growth`` rule.

Inside the streaming accumulator classes, per-query state must fold
into bounded accumulators — any surviving container growth is the
O(1)-memory contract dying one line at a time.
"""

import textwrap

from repro.analysis.checkers import StreamingRetentionChecker
from repro.analysis.config import AnalysisConfig

KNOWN_BAD = textwrap.dedent(
    """
    class PoolStreamStats:
        def observe(self, record):
            self.seen.append(record)               # unbounded list
            self.ids.add(record.query_id)          # unbounded set
            self.history += [record.latency]       # unbounded via +=
            self.by_pool.setdefault(0, []).append(record)  # nested
    """
)

KNOWN_GOOD = textwrap.dedent(
    """
    class PoolStreamStats:
        def observe(self, record):
            # Exact accumulators and sketch folds only.
            self.n_queries += 1
            self.total_seconds += record.run_seconds
            self.latency.add(record.latency)       # bounded sketch fold
            scratch = []
            scratch.append(record.latency)         # local temporary
    """
)


class TestStreamingRetention:
    def test_flags_known_bad(self, check_source):
        findings = check_source(
            StreamingRetentionChecker, KNOWN_BAD, "repro.fleet.metrics"
        )
        assert len(findings) == 4
        assert {f.rule for f in findings} == {"unbounded-growth"}
        assert "O(1)-memory" in findings[0].message

    def test_passes_known_good(self, check_source):
        assert (
            check_source(StreamingRetentionChecker, KNOWN_GOOD, "repro.fleet.metrics")
            == []
        )

    def test_only_declared_classes_are_in_scope(self, check_source):
        # Same growth in a record-mode class is legal: FleetMetrics
        # holding records IS record mode's contract.
        src = KNOWN_BAD.replace("PoolStreamStats", "FleetMetrics")
        assert check_source(StreamingRetentionChecker, src, "repro.fleet.metrics") == []

    def test_module_must_match_too(self, check_source):
        assert (
            check_source(StreamingRetentionChecker, KNOWN_BAD, "repro.engine.metrics")
            == []
        )

    def test_bounded_attr_allowlist_extends(self, check_source):
        config = AnalysisConfig.from_mapping(
            {"streaming-bounded-attrs": ["seen", "ids", "history", "by_pool"]}
        )
        assert (
            check_source(
                StreamingRetentionChecker,
                KNOWN_BAD,
                "repro.fleet.metrics",
                config=config,
            )
            == []
        )


class TestKeyedStores:
    """``self.x[k] = v`` grows a dict as surely as ``append`` grows a
    list, including through a local bound to the attribute."""

    def check(self, check_source, body, config=None):
        src = textwrap.dedent(
            """
            class PoolStreamStats:
                def observe(self, record):
            """
        ) + textwrap.indent(textwrap.dedent(body), " " * 8)
        return check_source(
            StreamingRetentionChecker, src, "repro.fleet.metrics", config=config
        )

    def test_direct_store_is_flagged(self, check_source):
        findings = self.check(
            check_source, "self.by_query[record.query_id] = record\n"
        )
        assert len(findings) == 1
        assert "self.by_query" in findings[0].message
        assert "[k] = v" in findings[0].message

    def test_aliased_store_is_flagged(self, check_source):
        findings = self.check(
            check_source,
            """
            cache = self._cache
            cache.pop(record.query_id, None)
            cache[record.query_id] = record
            """,
        )
        assert len(findings) == 1
        assert "self._cache" in findings[0].message

    def test_local_dict_is_fine(self, check_source):
        body = """
        scratch = {}
        scratch[record.query_id] = record
        latest = self.history.get(0)  # a call's result is not an alias
        latest[0] = record
        """
        assert self.check(check_source, body) == []

    def test_allowlisted_attribute_is_fine(self, check_source):
        config = AnalysisConfig.from_mapping(
            {"streaming-bounded-attrs": ["_lru"]}
        )
        body = """
        self._lru[record.query_id] = record
        lru = self._lru
        lru[record.query_id] = record
        """
        assert self.check(check_source, body, config=config) == []
