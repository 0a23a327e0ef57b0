#!/usr/bin/env python3
"""Determinism self-check of the benchmark on the fleet workloads.

    python3 perfbench/selfcheck.py [--seed 5] [--seconds 2]

For each fleet workload it makes two traced runs and one untraced run
with the same seed, then checks that

- the two traced runs report identical deterministic per-layer values
  (call counts per query, resizes, hit rates, simulated-clock figures);
- the traced and untraced runs served streams with identical output
  digests (the ``pass 0`` log line), so wrapping changes nothing.

Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"

#: Per-layer metrics whose value is a simulated count or simulated-clock
#: figure, never a wall-clock reading.
DETERMINISTIC = re.compile(
    r".*(_calls_per_q|_calls|\.resizes|hit_rate)$"
    r"|sim_p95_latency_s|sim_dollar_cost|admission\.mean_queue_delay_s"
)


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    digests = next(line for line in out if "pass 0:" in line).split("digests ", 1)[1]
    return json.loads(out[-1]), digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)
    ok = True
    for workload in ("fleet-stream", "fleet-tpcds"):
        first, traced_digest = run(workload, args.seed, args.seconds, 1)
        second, _ = run(workload, args.seed, args.seconds, 1)
        _, plain_digest = run(workload, args.seed, args.seconds, 0)
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if DETERMINISTIC.fullmatch(k)}
            for r in (first, second)
        ]
        same_counts = counts[0] == counts[1]
        same_digest = traced_digest == plain_digest
        print(
            f"{workload}: {len(counts[0])} deterministic per-layer values "
            f"{'identical' if same_counts else 'DIFFER'} across traced runs; "
            f"traced digest {'equals' if same_digest else 'DIFFERS FROM'} untraced"
        )
        if not same_counts:
            for key in sorted(counts[0]):
                if counts[0][key] != counts[1].get(key):
                    print(f"  {key}: {counts[0][key]} != {counts[1].get(key)}")
        ok = ok and same_counts and same_digest and first["correct"] and second["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
