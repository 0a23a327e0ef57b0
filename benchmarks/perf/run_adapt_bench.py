#!/usr/bin/env python
"""Continual-learning benchmark: adaptive vs frozen serving across a
mid-stream input-size shift.

The paper's input-size-change scenario (fig. 14; reproduced in
``benchmarks/test_fig14_input_size_change.py``) is the motivating
failure for ``repro.fleet.adaptive``: the model is trained on one input
regime and the regime changes mid-stream.  This bench serves the same
shifted arrival stream twice, on the same contended pool:

1. **frozen** — the paper's deployment: a ``PredictionService`` wrapping
   the offline model, never updated.  Trained on the large-input regime,
   it keeps over-provisioning once the stream shifts to small inputs —
   paying for executors the queries cannot use *and* starving the
   admission queue, so both the dollar bill and the p95 suffer;
2. **adaptive** — the same service with an ``AdaptiveController``
   attached (``FleetConfig.feedback``): finished-query outcomes fill the
   replay buffer, the drift detector raises its alarm once post-shift
   errors dominate its window, retraining fits a candidate on the
   buffer, and shadow validation promotes it behind the service.  Every
   retraining pass is billed into ``total_dollar_cost`` (the modeled
   executor-second cost per training point), so the comparison charges
   adaptation for what it costs.

Checks recorded for the CI gate (``compare.py``):

- **wins** — the adaptive serve must beat the frozen serve on p95
  latency AND on total dollar cost, retraining bill included;
- **drift** — at least one ``drift_alarm`` must fire, and the first
  alarm must land *after* the shift (the in-regime prefix must not
  trip it);
- **zero-retrain parity** — a controller whose thresholds can never
  trigger must serve the stream bit-identically to no controller at
  all (records with the measured ``prediction_seconds`` zeroed,
  skyline, and the frozen summary key set): observing costs nothing.

Both serves run with ``charge_prediction_overhead=False`` so every
reported number is simulation-clock deterministic: same seed, same
stream, same machine-independent result.  The result is written as
``BENCH_adapt.json`` (schema ``repro-bench-adapt/v1``); CI uploads it
as an artifact and gates against the checked-in ``baseline_adapt.json``
via ``compare.py``.

Run from the repository root:

    python benchmarks/perf/run_adapt_bench.py
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.autoexecutor import AutoExecutor  # noqa: E402
from repro.fleet.adaptive import AdaptiveConfig, AdaptiveController  # noqa: E402
from repro.fleet.arrivals import QueryArrival  # noqa: E402
from repro.fleet.engine import FleetConfig, FleetEngine  # noqa: E402
from repro.fleet.prediction import PredictionService  # noqa: E402
from repro.obs import RingBufferTracer  # noqa: E402
from repro.workloads.generator import Workload  # noqa: E402

SCHEMA = "repro-bench-adapt/v1"

# A size-diverse TPC-DS slice (subset of the fleet bench's).
DEFAULT_QUERY_IDS = tuple("q1 q3 q5 q9 q17 q25 q82 q94".split())

#: The shifted stream marks post-shift queries with this id prefix.
SHIFT_PREFIX = "small:"


class ShiftedWorkload:
    """One workload before the shift, another after.

    Query ids carrying :data:`SHIFT_PREFIX` route to the post-shift
    regime; everything else routes to the regime the model was trained
    on.  Duck-typed like every fleet workload: ``optimized_plan`` +
    ``stage_graph``.
    """

    def __init__(self, pre: Workload, post: Workload) -> None:
        self.pre = pre
        self.post = post

    def _route(self, query_id):
        if query_id.startswith(SHIFT_PREFIX):
            return self.post, query_id[len(SHIFT_PREFIX):]
        return self.pre, query_id

    def optimized_plan(self, query_id):
        workload, qid = self._route(query_id)
        return workload.optimized_plan(qid)

    def stage_graph(self, query_id):
        workload, qid = self._route(query_id)
        return workload.stage_graph(qid)


def shifted_arrivals(query_ids, n_pre, n_post, rate_pre, rate_post, seed):
    """A Poisson stream whose input regime shifts after ``n_pre``.

    The pre-shift phase arrives slowly (big queries, long runs); the
    post-shift phase arrives at the rate the right-sized fleet can
    absorb but the over-provisioned one cannot.  Returns the stream and
    the shift instant (the first post-shift arrival time).
    """
    rng = np.random.default_rng(seed)
    arrivals, t = [], 0.0
    for i in range(n_pre + n_post):
        rate = rate_pre if i < n_pre else rate_post
        if i:
            t += float(rng.exponential(1.0 / rate))
        qid = query_ids[int(rng.integers(0, len(query_ids)))]
        if i >= n_pre:
            qid = SHIFT_PREFIX + qid
        arrivals.append(QueryArrival(i, qid, int(rng.integers(0, 4)), t))
    return arrivals, arrivals[n_pre].arrival_time


def stable_records(metrics):
    """Records with the one wall-clock field zeroed (measured overhead)."""
    return [replace(r, prediction_seconds=0.0) for r in metrics.records]


def adaptive_config(args, **overrides):
    knobs = dict(
        seed=args.seed,
        buffer_capacity=args.buffer_capacity,
        min_retrain_points=args.min_retrain_points,
        drift_window=args.drift_window,
        drift_threshold=args.drift_threshold,
        shadow_window=args.shadow_window,
        n_estimators=args.n_estimators,
    )
    knobs.update(overrides)
    return AdaptiveConfig(**knobs)


def check_zero_retrain_parity(workload, system, arrivals, args):
    """An inert controller must serve bit-identically to none at all."""
    config = FleetConfig(charge_prediction_overhead=False)
    frozen = PredictionService.from_autoexecutor(system)
    reference = FleetEngine(
        workload, capacity=args.capacity, allocator=frozen.allocate, config=config
    ).serve(arrivals)

    service = PredictionService.from_autoexecutor(system)
    inert = AdaptiveController(
        service,
        adaptive_config(args, drift_threshold=1e9, min_retrain_points=10**6),
    )
    candidate = FleetEngine(
        workload,
        capacity=args.capacity,
        allocator=service.allocate,
        config=replace(config, feedback=inert),
    ).serve(arrivals)

    ref_summary = reference.summary()
    cand_summary = candidate.summary()
    return bool(
        stable_records(candidate) == stable_records(reference)
        and candidate.pool_skyline.points == reference.pool_skyline.points
        and {k: cand_summary[k] for k in ref_summary} == ref_summary
        and inert.retrains == 0
        and service.generation == 0
    )


def summarize(metrics):
    return {
        "p50_latency_s": round(float(metrics.p50_latency), 3),
        "p95_latency_s": round(float(metrics.p95_latency), 3),
        "p99_latency_s": round(float(metrics.p99_latency), 3),
        "mean_queue_delay_s": round(float(metrics.mean_queue_delay), 3),
        "makespan_s": round(float(metrics.makespan), 3),
        "utilization": round(float(metrics.utilization()), 4),
        "total_executor_seconds": round(float(metrics.total_executor_seconds), 1),
        "total_dollar_cost": round(float(metrics.total_dollar_cost), 4),
        "capacity_respected": bool(metrics.capacity_respected),
    }


def run(args):
    query_ids = DEFAULT_QUERY_IDS[: args.queries]
    pre = Workload(scale_factor=args.pre_scale_factor, query_ids=query_ids)
    post = Workload(scale_factor=args.post_scale_factor, query_ids=query_ids)
    workload = ShiftedWorkload(pre, post)

    print(
        f"adapt bench: {len(query_ids)} TPC-DS plans, "
        f"SF={args.pre_scale_factor} -> SF={args.post_scale_factor}, "
        f"{args.n_pre}+{args.n_post} arrivals"
    )
    arrivals, shift_time = shifted_arrivals(
        query_ids, args.n_pre, args.n_post, args.rate_pre, args.rate_post,
        args.seed,
    )
    print(f"training AutoExecutor on the SF={args.pre_scale_factor} regime ...")
    system = AutoExecutor(family="power_law").train(pre)

    print("checking zero-retrain parity ...")
    zero_retrain = check_zero_retrain_parity(workload, system, arrivals, args)

    config = FleetConfig(charge_prediction_overhead=False)

    print("serving frozen ...")
    frozen_service = PredictionService.from_autoexecutor(system)
    frozen = FleetEngine(
        workload,
        capacity=args.capacity,
        allocator=frozen_service.allocate,
        config=config,
    ).serve(arrivals)

    print("serving adaptive ...")
    tracer = RingBufferTracer()
    service = PredictionService.from_autoexecutor(system)
    controller = AdaptiveController(service, adaptive_config(args), tracer=tracer)
    adaptive = FleetEngine(
        workload,
        capacity=args.capacity,
        allocator=service.allocate,
        config=replace(config, feedback=controller),
    ).serve(arrivals)

    stats = adaptive.adaptive
    adaptive_summary = adaptive.summary()
    frozen_summary = frozen.summary()
    alarm_times = [e.time for e in tracer.events if e.kind == "drift_alarm"]
    first_alarm = alarm_times[0] if alarm_times else None
    drift = {
        "alarms": int(stats.drift_alarms),
        "shift_time_s": round(float(shift_time), 3),
        "first_alarm_time_s": (
            None if first_alarm is None else round(float(first_alarm), 3)
        ),
        "fired_after_shift": bool(
            first_alarm is not None and first_alarm > shift_time
        ),
    }
    wins = {
        "p95": bool(
            adaptive_summary["p95_latency_s"] < frozen_summary["p95_latency_s"]
        ),
        "cost": bool(
            adaptive_summary["total_dollar_cost"]
            < frozen_summary["total_dollar_cost"]
        ),
    }
    improvement = {
        # Frozen-over-adaptive ratios: >1 means adaptation helped.  Both
        # serves are simulation-clock deterministic, so these gate
        # exactly, not as hardware-normalized noise.
        "p95_ratio": round(
            frozen_summary["p95_latency_s"] / adaptive_summary["p95_latency_s"], 4
        ),
        "cost_ratio": round(
            frozen_summary["total_dollar_cost"]
            / adaptive_summary["total_dollar_cost"],
            4,
        ),
    }

    result = {
        "schema": SCHEMA,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "params": {
            "queries": list(query_ids),
            "pre_scale_factor": args.pre_scale_factor,
            "post_scale_factor": args.post_scale_factor,
            "n_pre": args.n_pre,
            "n_post": args.n_post,
            "rate_pre": args.rate_pre,
            "rate_post": args.rate_post,
            "capacity": args.capacity,
            "seed": args.seed,
            "buffer_capacity": args.buffer_capacity,
            "min_retrain_points": args.min_retrain_points,
            "drift_window": args.drift_window,
            "drift_threshold": args.drift_threshold,
            "shadow_window": args.shadow_window,
            "n_estimators": args.n_estimators,
        },
        "frozen": summarize(frozen),
        "adaptive": {
            **summarize(adaptive),
            "drift_alarms": int(stats.drift_alarms),
            "retrains": int(stats.retrains),
            "promotions": int(stats.promotions),
            "rejections": int(stats.rejections),
            "model_generation": int(stats.model_generation),
            "retrain_points": int(stats.retrain_points),
            "retrain_executor_seconds": round(
                float(stats.retrain_executor_seconds), 1
            ),
            "retrain_dollar_cost": round(
                float(adaptive_summary["retrain_dollar_cost"]), 4
            ),
        },
        "drift": drift,
        "improvement": improvement,
        "wins": wins,
        "parity": {"zero_retrain_bit_identical": zero_retrain},
    }

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"zero-retrain parity: bit_identical={zero_retrain}")
    print(
        f"p95: frozen {frozen_summary['p95_latency_s']:8.1f}s -> adaptive "
        f"{adaptive_summary['p95_latency_s']:8.1f}s "
        f"({improvement['p95_ratio']:.2f}x)"
    )
    print(
        f"cost: frozen ${frozen_summary['total_dollar_cost']:7.2f} -> adaptive "
        f"${adaptive_summary['total_dollar_cost']:7.2f} "
        f"({improvement['cost_ratio']:.2f}x, retrain bill "
        f"${result['adaptive']['retrain_dollar_cost']:.2f} included)"
    )
    print(
        f"loop: {stats.drift_alarms} alarms, {stats.retrains} retrains "
        f"({stats.promotions} promoted, {stats.rejections} rejected), "
        f"generation {stats.model_generation}"
    )
    print(
        f"drift: shift at t={drift['shift_time_s']}s, first alarm at "
        f"t={drift['first_alarm_time_s']}s "
        f"(fired_after_shift={drift['fired_after_shift']})"
    )
    print(f"wins: p95={wins['p95']} cost={wins['cost']}")
    print(f"wrote {out}")
    ok = (
        zero_retrain
        and all(wins.values())
        and drift["fired_after_shift"]
        and result["frozen"]["capacity_respected"]
        and result["adaptive"]["capacity_respected"]
    )
    return 0 if ok else 1


def main(argv=None):
    default_out = REPO_ROOT / "benchmarks" / "perf" / "output" / "BENCH_adapt.json"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(default_out), help="output JSON path")
    parser.add_argument(
        "--queries",
        type=int,
        default=len(DEFAULT_QUERY_IDS),
        help="number of TPC-DS queries in the workload (default: all 8)",
    )
    parser.add_argument(
        "--pre-scale-factor",
        type=int,
        default=100,
        help="input scale the model is trained on (the pre-shift regime)",
    )
    parser.add_argument(
        "--post-scale-factor",
        type=int,
        default=10,
        help="input scale the stream shifts to mid-serve",
    )
    parser.add_argument(
        "--n-pre", type=int, default=24, help="arrivals before the shift"
    )
    parser.add_argument(
        "--n-post", type=int, default=120, help="arrivals after the shift"
    )
    parser.add_argument(
        "--rate-pre",
        type=float,
        default=0.08,
        help="pre-shift arrival rate (qps): big queries, slow stream",
    )
    parser.add_argument(
        "--rate-post",
        type=float,
        default=0.5,
        help="post-shift arrival rate (qps): the load a right-sized "
        "fleet absorbs but an over-provisioned one queues on",
    )
    parser.add_argument(
        "--capacity", type=int, default=48, help="the shared pool's size"
    )
    parser.add_argument("--seed", type=int, default=0, help="stream + reservoir seed")
    parser.add_argument("--buffer-capacity", type=int, default=128)
    parser.add_argument("--min-retrain-points", type=int, default=16)
    parser.add_argument("--drift-window", type=int, default=12)
    parser.add_argument("--drift-threshold", type=float, default=0.5)
    parser.add_argument("--shadow-window", type=int, default=10)
    parser.add_argument(
        "--n-estimators",
        type=int,
        default=24,
        help="forest size for retrained candidates (smaller than the "
        "offline 100: online cadence beats a few extra trees)",
    )
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
