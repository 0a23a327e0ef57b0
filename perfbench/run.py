#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload fleet-stream --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps each layer's public functions and reports the
per-layer metrics instead (and writes the first pass's spans to
``perfbench/out/<workload>.spans.npz``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``, each metric
``{"value", "unit"}`` with the unit from ``BENCHMARK.json``.  A run
whose outputs fail a correctness check prints ``"correct": false`` and
exits 1.  See ``perfbench/README.md`` for what each workload and metric
means.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.common import OUT_DIR, median, use_source_tree  # noqa: E402

WORKLOADS = ("fleet-stream", "fleet-tpcds", "serve-http")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 5


def log(message: str) -> None:
    print(f"[perfbench] {message}", flush=True)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until its fleet set-up is
    ready (interpreter start, imports, plan generation)."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--probe-setup"],
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed")
    return elapsed


def expected_metrics(traced: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    entries = spec["per_layer"] if traced else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in entries}


def write_spans(workload: str, spans: dict | None) -> None:
    if not spans:
        return
    import numpy as np

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{workload}.spans.npz"  # the latest traced run only
    np.savez(
        path,
        names=np.array(spans["names"]),
        name=np.asarray(spans["name"], dtype=np.int32),
        start=np.asarray(spans["start"]),
        end=np.asarray(spans["end"]),
        parent=np.asarray(spans["parent"], dtype=np.int64),
        id=np.asarray(spans["id"], dtype=np.int64),
    )
    log(f"wrote {len(spans['start'])} spans to {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_source_tree()
    traced = bool(args.trace)

    if args.workload == "serve-http":
        from perfbench import serve

        outcome = serve.run(args.seed, args.seconds, traced, log)
        metrics = serve.per_layer(outcome) if traced else serve.end_to_end(outcome)
    else:
        from perfbench import fleet

        if args.probe_setup:
            fleet.setup(args.workload)
            print("ready", flush=True)
            return 0
        setups = []
        if not traced:
            setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
            log(f"set-up samples (s): {setups}")
        outcome = fleet.run(args.workload, args.seed, args.seconds, traced, log)
        if traced:
            metrics = fleet.per_layer(outcome)
        else:
            metrics = fleet.end_to_end(outcome)
            metrics["setup_s"] = median(setups)

    units = expected_metrics(traced)
    if traced:
        # A layer the workload never calls reports zero work.
        metrics = {name: 0.0 for name in units} | metrics
    if set(metrics) != set(units):
        raise SystemExit(
            "perfbench: reported metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}"
        )
    if traced:
        write_spans(args.workload, outcome.get("spans"))
    correct = bool(outcome["correct"])
    result = {
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
