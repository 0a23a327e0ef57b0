#!/usr/bin/env python3
"""Re-record ``perfbench/golden.json``: the fleet check streams' digests.

    python3 perfbench/record_golden.py

Only for a change that alters the simulated outputs on purpose; a change
that should leave them alone must pass against the recorded values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.common import use_source_tree  # noqa: E402


def main() -> int:
    use_source_tree()
    from perfbench import fleet

    golden = {}
    for name in fleet.WORKLOADS:
        workload = fleet.setup(name)
        workload.train(None)
        golden[name] = fleet.check_stream(workload, traced=False)
        print(f"{name}: {golden[name]}")
    fleet.GOLDEN_PATH.write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
