"""End-to-end spec for the CLI — including the acceptance gate that the
shipped tree itself is clean."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import run_analysis
from repro.analysis.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def bad_repo(tmp_path):
    """A repo with one violation of each locally-checkable rule."""
    pkg = tmp_path / "src" / "repro" / "engine"
    pkg.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "obs").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "obs" / "trace.py").write_text(
        'EVENT_KINDS = {"tick": ()}\n'
    )
    (pkg / "execution.py").write_text(
        textwrap.dedent(
            """
            import time
            import heapq

            def handle(events, finish):
                now = time.time()
                heapq.heappush(events, finish)
                for x in {1, 2}:
                    now += x
                return now
            """
        )
    )
    return tmp_path


class TestMain:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        code = main([str(tmp_path), "--root", str(tmp_path)])
        assert code == 0
        assert "clean" in capsys.readouterr().err

    def test_findings_exit_one_with_clickable_lines(self, bad_repo, capsys):
        code = main([str(bad_repo / "src"), "--root", str(bad_repo)])
        assert code == 1
        out = capsys.readouterr().out
        assert "[wall-clock]" in out
        assert "[set-iteration]" in out
        assert "execution.py:6" in out  # path:line:col format

    def test_heap_key_scope_applies_in_tmp_repo(self, bad_repo, capsys):
        # engine/execution.py is not a heap-key module; the raw-float
        # push there must NOT be flagged (scope discipline end to end).
        main([str(bad_repo / "src"), "--root", str(bad_repo)])
        assert "[heap-key]" not in capsys.readouterr().out

    def test_json_format(self, bad_repo, capsys):
        code = main(
            [str(bad_repo / "src"), "--root", str(bad_repo), "--format=json"]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == len(report["findings"]) > 0
        assert "wall-clock" in report["rules"]
        first = report["findings"][0]
        assert {"rule", "path", "line", "col", "message"} <= set(first)

    def test_select_narrows_the_run(self, bad_repo, capsys):
        code = main(
            [
                str(bad_repo / "src"),
                "--root",
                str(bad_repo),
                "--select",
                "set-iteration",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "[set-iteration]" in out
        assert "[wall-clock]" not in out

    def test_unknown_select_is_usage_error(self, capsys):
        assert main(["--select", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "wall-clock",
            "unseeded-rng",
            "heap-key",
            "trace-taxonomy",
            "set-iteration",
            "unbounded-growth",
        ):
            assert rule in out

    def test_parse_error_is_a_finding_not_a_crash(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        code = main([str(tmp_path), "--root", str(tmp_path)])
        assert code == 1
        assert "[parse-error]" in capsys.readouterr().out


class TestShippedTreeIsClean:
    def test_src_benchmarks_examples_have_no_findings(self):
        # The acceptance criterion, run in-process: the analyzer ships
        # green on its own tree.
        root = str(REPO_ROOT)
        findings = run_analysis(
            [str(REPO_ROOT / d) for d in ("src", "benchmarks", "examples")],
            root=root,
        )
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_module_entrypoint_exits_zero(self):
        # Once per suite, prove the real invocation CI uses.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src"],
            capture_output=True,
            text=True,
            check=False,
            cwd=str(REPO_ROOT),
            env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
