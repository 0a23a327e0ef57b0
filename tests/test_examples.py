"""Every script under ``examples/`` runs to completion.

Each example runs in its own subprocess from an empty temporary
directory (so anything it writes lands there) with the repository's
``src/`` on ``PYTHONPATH``, and must exit 0.  The examples are the
user-facing entry points: an API change that breaks one fails here
rather than in a user's terminal.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES, "no example scripts found"


@pytest.mark.parametrize("script", EXAMPLES, ids=[p.name for p in EXAMPLES])
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, (
        f"{script.name} exited {done.returncode}\n"
        f"--- stdout ---\n{done.stdout[-2000:]}\n"
        f"--- stderr ---\n{done.stderr[-4000:]}"
    )
