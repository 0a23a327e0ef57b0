"""Fixture spec for the ``unbounded-growth`` rule.

Inside the streaming accumulator classes, per-query state must fold
into bounded accumulators — any surviving container growth is the
O(1)-memory contract dying one line at a time.
"""

import textwrap
from dataclasses import replace

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

def bounded(*entries):
    """The default config with extra ``Class.attr`` entries declared."""
    defaults = AnalysisConfig()
    return replace(
        defaults,
        streaming_bounded_attrs=defaults.streaming_bounded_attrs + entries,
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
            check_source(
                StreamingRetentionChecker,
                KNOWN_GOOD,
                "repro.fleet.metrics",
                config=bounded("PoolStreamStats.latency"),
            )
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
        config = bounded(
            "PoolStreamStats.seen",
            "PoolStreamStats.ids",
            "PoolStreamStats.history",
            "PoolStreamStats.by_pool",
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


class TestClassQualifiedAllowlist:
    """A ``Class.attr`` entry declares one class's attribute bounded;
    the same attribute name in another scoped class is still checked."""

    SRC = textwrap.dedent(
        """
        class PoolStreamStats:
            def observe(self, record):
                self._cache[record.query_id] = record

        class SkylineTracker:
            def record(self, t, level):
                self._cache[t] = level
        """
    )

    def test_bound_for_one_class_does_not_cover_another(self, check_source):
        # PredictionService._cache is declared bounded by default; a
        # _cache of a streaming accumulator is not.
        findings = check_source(
            StreamingRetentionChecker, self.SRC, "repro.fleet.metrics"
        )
        assert "PredictionService._cache" in AnalysisConfig().streaming_bounded_attrs
        assert len(findings) == 2
        assert all("self._cache" in f.message for f in findings)

    def test_qualified_entry_suppresses_only_its_class(self, check_source):
        findings = check_source(
            StreamingRetentionChecker,
            self.SRC,
            "repro.fleet.metrics",
            config=bounded("SkylineTracker._cache"),
        )
        assert len(findings) == 1
        assert "PoolStreamStats" in findings[0].message
        assert "PoolStreamStats._cache" in findings[0].message


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
        config = bounded("PoolStreamStats._lru")
        body = """
        self._lru[record.query_id] = record
        lru = self._lru
        lru[record.query_id] = record
        """
        assert self.check(check_source, body, config=config) == []
