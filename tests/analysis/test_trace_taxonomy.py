"""Fixture spec for the ``trace-taxonomy`` rule.

Both directions of the closed-taxonomy contract: no emission outside
``EVENT_KINDS`` (nor with another payload length), and no declared kind
without an emit site.
"""

import textwrap

import pytest

from repro.analysis.checkers import TraceTaxonomyChecker
from repro.analysis.config import AnalysisConfig
from repro.analysis.core import ModuleContext

MINI_TAXONOMY = textwrap.dedent(
    """
    EVENT_KINDS = {
        "query_arrive": (),
        "task_assign": ("stage", "task", "eid", "duration_s"),
        "serve_end": ("queries",),
    }
    """
)

KNOWN_BAD = textwrap.dedent(
    """
    def serve(tracer, now):
        tracer.emit((now, "query_arive", 0, 1, "q1"))       # typo'd kind
        tracer.emit((now, "task_teleport", 0, 1, None, 3))  # unknown kind
    """
)

KNOWN_GOOD = textwrap.dedent(
    """
    class Engine:
        def serve(self, now, trace_emit):
            self.tracer.emit((now, "query_arrive", 0, 1, "q1"))
            trace_emit((now, "task_assign", 0, 1, "q1", 3, 0, 2, 1.5))
            self.tracer.emit((now, "serve_end", -1, -1, None, 7))
    """
)


@pytest.fixture
def repo_root(tmp_path):
    """A throwaway repo whose taxonomy is the three-kind mini set."""
    trace = tmp_path / "src" / "repro" / "obs" / "trace.py"
    trace.parent.mkdir(parents=True)
    trace.write_text(MINI_TAXONOMY)
    return str(tmp_path)


def run_checker(root, *modules):
    """Run one checker instance over (module_name, source) pairs."""
    checker = TraceTaxonomyChecker(AnalysisConfig(), root)
    findings = []
    for name, source in modules:
        ctx = ModuleContext.build(f"{name.replace('.', '/')}.py", source, name)
        findings.extend(checker.check_module(ctx))
    findings.extend(checker.finalize())
    return checker, findings


class TestTraceTaxonomy:
    def test_flags_known_bad_kinds(self, repo_root):
        _, findings = run_checker(
            repo_root, ("repro.fleet.engine", KNOWN_BAD)
        )
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "query_arive" in messages
        assert "task_teleport" in messages

    def test_passes_known_good_and_censuses_every_shape(self, repo_root):
        checker, findings = run_checker(
            repo_root,
            ("repro.obs.trace", MINI_TAXONOMY),
            ("repro.fleet.engine", KNOWN_GOOD),
        )
        assert findings == []
        # Both *emit callables' tuples land in the census.
        assert set(checker.census) == {"query_arrive", "task_assign", "serve_end"}

    def test_dead_kind_is_reported_with_its_declaration_line(self, repo_root):
        only_arrive = 'def serve(t, now):\n    t.emit((now, "query_arrive", 0, 1, 2))\n'
        _, findings = run_checker(
            repo_root,
            ("repro.obs.trace", MINI_TAXONOMY),
            ("repro.fleet.engine", only_arrive),
        )
        dead = [f for f in findings if "dead trace kind" in f.message]
        assert {f.message.split("'")[1] for f in dead} == {
            "serve_end",
            "task_assign",
        }
        assert all(f.path.endswith("trace.py") for f in dead)
        assert all(f.line > 0 for f in dead)

    def test_dead_kinds_need_the_library_in_the_run(self, repo_root):
        # Linting a lone script must not report the whole taxonomy dead.
        _, findings = run_checker(
            repo_root, ("repro.fleet.engine", KNOWN_GOOD)
        )
        assert [f for f in findings if "dead" in f.message] == []

    def test_wrong_arity_is_one_finding(self, repo_root):
        # task_assign declares four fields: nine elements, not eight.
        src = (
            "def serve(t, now):\n"
            '    t.emit((now, "task_assign", 0, 1, "q1", 3, 0, 2))\n'
        )
        checker, findings = run_checker(repo_root, ("repro.fleet.engine", src))
        assert len(findings) == 1
        assert "has 8 elements" in findings[0].message
        assert "declares 9" in findings[0].message
        assert set(checker.census) == {"task_assign"}

    def test_trace_event_emission_is_one_finding(self, repo_root):
        src = (
            "def serve(t, now):\n"
            '    t.emit(TraceEvent(now, "query_arrive", 0, 1, "q1"))\n'
        )
        _, findings = run_checker(repo_root, ("repro.fleet.engine", src))
        assert len(findings) == 1
        assert "TraceEvent(...)" in findings[0].message

    def test_variable_kind_outside_helpers_is_unverifiable(self, repo_root):
        src = "def serve(t, now, k):\n    t.emit((now, k, 0, 1, None))\n"
        _, findings = run_checker(repo_root, ("repro.fleet.engine", src))
        assert len(findings) == 1
        assert "not a string literal" in findings[0].message

    def test_missing_taxonomy_file_makes_the_rule_inert(self, tmp_path):
        _, findings = run_checker(
            str(tmp_path), ("repro.fleet.engine", KNOWN_BAD)
        )
        assert findings == []
