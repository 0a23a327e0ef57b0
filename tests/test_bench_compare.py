"""The CI benchmark-regression gate (``benchmarks/perf/compare.py``).

The gate is executed the way CI executes it — as a script — against
synthetic BENCH JSON files, so the exit codes the workflow depends on
are pinned here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
COMPARE = REPO_ROOT / "benchmarks" / "perf" / "compare.py"


def bench_json(
    speedup=10.0,
    bit_identical=True,
    parity=True,
    schema="repro-bench-sweep/v2",
):
    return {
        "schema": schema,
        "machine": {"python": "3.11", "numpy": "2.0", "platform": "test"},
        "params": {"scale_factor": 100, "queries": ["q1"], "counts": [1, 48]},
        "loop": {"seconds": 1.0, "sims": 48, "sims_per_second": 48.0},
        "sweep": {
            "seconds": 1.0 / speedup,
            "sims": 48,
            "sims_per_second": 48.0 * speedup,
        },
        "speedup": speedup,
        "equivalence": {"checked_sims": 48, "bit_identical": bit_identical},
        "parity": {"checked_plans": 16, "bit_identical": parity},
        "fleet": None,
    }


def run_gate(tmp_path, baseline, candidate, *extra):
    base = tmp_path / "baseline.json"
    cand = tmp_path / "candidate.json"
    base.write_text(json.dumps(baseline), encoding="utf-8")
    cand.write_text(json.dumps(candidate), encoding="utf-8")
    return subprocess.run(
        [
            sys.executable,
            str(COMPARE),
            "--baseline",
            str(base),
            "--candidate",
            str(cand),
            *extra,
        ],
        capture_output=True,
        text=True,
    )


def test_equal_speedup_passes(tmp_path):
    proc = run_gate(tmp_path, bench_json(10.0), bench_json(10.0))
    assert proc.returncode == 0, proc.stderr
    assert "no benchmark regression" in proc.stdout


def test_small_regression_within_tolerance_passes(tmp_path):
    proc = run_gate(tmp_path, bench_json(10.0), bench_json(8.5))
    assert proc.returncode == 0, proc.stderr


def test_regression_beyond_tolerance_fails(tmp_path):
    proc = run_gate(tmp_path, bench_json(10.0), bench_json(7.9))
    assert proc.returncode == 1
    assert "regressed" in proc.stderr


def test_speedup_below_acceptance_floor_fails(tmp_path):
    # within 20% of a slow baseline, but below the absolute 5x bar
    proc = run_gate(tmp_path, bench_json(5.0), bench_json(4.2))
    assert proc.returncode == 1
    assert "acceptance floor" in proc.stderr


def test_lost_bit_identity_fails(tmp_path):
    proc = run_gate(
        tmp_path, bench_json(10.0), bench_json(10.0, bit_identical=False)
    )
    assert proc.returncode == 1
    assert "bit-for-bit" in proc.stderr


def test_lost_fleet_parity_fails(tmp_path):
    proc = run_gate(
        tmp_path, bench_json(10.0), bench_json(10.0, parity=False)
    )
    assert proc.returncode == 1
    assert "parity" in proc.stderr


def test_bench_params_drift_fails(tmp_path):
    drifted = bench_json(10.0)
    drifted["params"]["queries"] = ["q2", "q3"]
    proc = run_gate(tmp_path, bench_json(10.0), drifted)
    assert proc.returncode == 1
    assert "params drifted" in proc.stderr


def test_repeats_difference_is_not_param_drift(tmp_path):
    candidate = bench_json(10.0)
    candidate["params"]["repeats"] = 5
    proc = run_gate(tmp_path, bench_json(10.0), candidate)
    assert proc.returncode == 0, proc.stderr


def test_unknown_schema_rejected(tmp_path):
    proc = run_gate(
        tmp_path, bench_json(10.0), bench_json(10.0, schema="bogus/v9")
    )
    assert proc.returncode != 0
    assert "unexpected schema" in proc.stderr


def test_schema_mismatch_between_files_rejected(tmp_path):
    proc = run_gate(tmp_path, bench_json(10.0), fleet_json())
    assert proc.returncode == 1
    assert "schema mismatch" in proc.stderr


def test_custom_tolerance_flag(tmp_path):
    proc = run_gate(
        tmp_path,
        bench_json(10.0),
        bench_json(6.0),
        "--max-regression",
        "0.5",
    )
    assert proc.returncode == 0, proc.stderr


def fleet_json(
    ratio=1.1,
    parity=True,
    zero_fault_parity=True,
    p95_win=True,
    cost_win=True,
    spot_win=True,
    capacity_respected=True,
    spot_capacity_respected=True,
    trace_ratio=1.03,
    traced_bit_identical=True,
):
    scenario = {
        "rate_qps": 2.0,
        "static_single_pool": {"p95_latency_s": 100.0, "capacity_respected": True},
        "sharded_autoscaled": {
            "p95_latency_s": 50.0,
            "capacity_respected": capacity_respected,
        },
    }
    return {
        "schema": "repro-bench-fleet/v3",
        "machine": {"python": "3.11", "numpy": "2.0", "platform": "test"},
        "params": {
            "scale_factor": 100,
            "queries": ["q1"],
            "arrivals": 96,
            "rates": [0.5, 2.0],
            "static_capacity": 96,
            "pools": 4,
            "pool_min": 8,
            "pool_max": 48,
            "seed": 0,
        },
        "parity": {
            "checked_plans": 17,
            "bit_identical": parity,
            "zero_fault_bit_identical": zero_fault_parity,
        },
        "overhead": {
            "fleet_seconds": 1.0,
            "sharded_seconds": ratio,
            "ratio": ratio,
        },
        "tracing": {
            "off_seconds": 1.0,
            "on_seconds": trace_ratio,
            "ratio": trace_ratio,
            "events": 9000,
            "traced_bit_identical": traced_bit_identical,
        },
        "scenarios": [scenario],
        "faults": {
            "rate_qps": 0.3,
            "spot_discount": 0.35,
            "p95_tolerance": 1.05,
            "on_demand": {"p95_latency_s": 100.0, "total_dollar_cost": 8.0},
            "sweep": [
                {
                    "reclaim_rate_per_s": 1.0 / 1200.0,
                    "spot": {
                        "p95_latency_s": 101.0,
                        "total_dollar_cost": 3.0,
                        "capacity_respected": spot_capacity_respected,
                    },
                    "cost_win": True,
                    "matched_p95": True,
                }
            ],
        },
        "wins": {
            "p95_at_peak": p95_win,
            "cost_at_peak": cost_win,
            "spot_at_matched_p95": spot_win,
        },
    }


class TestFleetGate:
    def test_equal_run_passes(self, tmp_path):
        proc = run_gate(tmp_path, fleet_json(), fleet_json())
        assert proc.returncode == 0, proc.stderr
        assert "no benchmark regression" in proc.stdout

    def test_lost_sharded_parity_fails(self, tmp_path):
        proc = run_gate(tmp_path, fleet_json(), fleet_json(parity=False))
        assert proc.returncode == 1
        assert "cluster layer parity lost" in proc.stderr

    def test_lost_zero_fault_parity_fails(self, tmp_path):
        proc = run_gate(
            tmp_path, fleet_json(), fleet_json(zero_fault_parity=False)
        )
        assert proc.returncode == 1
        assert "zero-fault parity lost" in proc.stderr

    def test_lost_spot_win_fails(self, tmp_path):
        proc = run_gate(tmp_path, fleet_json(), fleet_json(spot_win=False))
        assert proc.returncode == 1
        assert "matched p95" in proc.stderr

    def test_spot_capacity_violation_fails(self, tmp_path):
        proc = run_gate(
            tmp_path, fleet_json(), fleet_json(spot_capacity_respected=False)
        )
        assert proc.returncode == 1
        assert "spot pool" in proc.stderr

    def test_lost_p95_win_fails(self, tmp_path):
        proc = run_gate(tmp_path, fleet_json(), fleet_json(p95_win=False))
        assert proc.returncode == 1
        assert "p95 latency" in proc.stderr

    def test_lost_cost_win_fails(self, tmp_path):
        proc = run_gate(tmp_path, fleet_json(), fleet_json(cost_win=False))
        assert proc.returncode == 1
        assert "provisioned $ cost" in proc.stderr

    def test_overhead_within_tolerance_passes(self, tmp_path):
        proc = run_gate(tmp_path, fleet_json(ratio=1.0), fleet_json(ratio=1.15))
        assert proc.returncode == 0, proc.stderr

    def test_overhead_regression_fails(self, tmp_path):
        proc = run_gate(tmp_path, fleet_json(ratio=1.0), fleet_json(ratio=1.3))
        assert proc.returncode == 1
        assert "overhead regressed" in proc.stderr

    def test_lost_traced_parity_fails(self, tmp_path):
        proc = run_gate(
            tmp_path, fleet_json(), fleet_json(traced_bit_identical=False)
        )
        assert proc.returncode == 1
        assert "zero-cost tracing contract lost" in proc.stderr

    def test_tracing_overhead_beyond_ceiling_fails(self, tmp_path):
        proc = run_gate(tmp_path, fleet_json(), fleet_json(trace_ratio=1.2))
        assert proc.returncode == 1
        assert "tracing overhead too high" in proc.stderr

    def test_tracing_overhead_custom_ceiling(self, tmp_path):
        proc = run_gate(
            tmp_path,
            fleet_json(),
            fleet_json(trace_ratio=1.2),
            "--max-trace-overhead",
            "1.25",
        )
        assert proc.returncode == 0, proc.stderr

    def test_params_drift_fails(self, tmp_path):
        drifted = fleet_json()
        drifted["params"]["pools"] = 8
        proc = run_gate(tmp_path, fleet_json(), drifted)
        assert proc.returncode == 1
        assert "params drifted" in proc.stderr

    def test_capacity_invariant_violation_fails(self, tmp_path):
        proc = run_gate(
            tmp_path, fleet_json(), fleet_json(capacity_respected=False)
        )
        assert proc.returncode == 1
        assert "capacity invariant violated" in proc.stderr


def scale_json(
    throughput=4000.0,
    under_rss=True,
    under_heap=True,
    exact=True,
    within_bound=True,
    mp_identical=True,
):
    return {
        "schema": "repro-bench-scale/v1",
        "machine": {"python": "3.11", "numpy": "2.0", "platform": "test"},
        "params": {
            "n_queries": 1_000_000,
            "tracemalloc_queries": 100_000,
            "parity_queries": 50_000,
            "multiprocess_queries": 20_000,
            "rate_qps": 30.0,
            "pools": 4,
            "pool_capacity": 48,
            "budget": 2,
            "seed": 0,
            "rss_ceiling_mb": 192.0,
            "heap_ceiling_mb": 16.0,
        },
        "scale": {
            "n_queries": 1_000_000,
            "wall_seconds": 1_000_000 / throughput,
            "throughput_qps": throughput,
            "peak_rss_mb": 44.0,
            "peak_rss_before_mb": 30.0,
            "rss_ceiling_mb": 192.0,
            "under_rss_ceiling": under_rss,
            "makespan_s": 33_000.0,
        },
        "tracemalloc": {
            "n_queries": 100_000,
            "peak_heap_mb": 0.6,
            "heap_ceiling_mb": 16.0,
            "under_heap_ceiling": under_heap,
        },
        "parity": {
            "streaming": {
                "n_queries": 50_000,
                "exact_fields_equal": exact,
                "percentiles_within_bound": within_bound,
                "relative_accuracy": 0.01,
            },
            "multiprocess": {
                "n_queries": 20_000,
                "bit_identical": mp_identical,
            },
        },
    }


class TestScaleGate:
    def test_equal_run_passes(self, tmp_path):
        proc = run_gate(tmp_path, scale_json(), scale_json())
        assert proc.returncode == 0, proc.stderr
        assert "no benchmark regression" in proc.stdout

    def test_rss_ceiling_break_fails(self, tmp_path):
        proc = run_gate(tmp_path, scale_json(), scale_json(under_rss=False))
        assert proc.returncode == 1
        assert "O(1)-memory contract lost" in proc.stderr

    def test_heap_ceiling_break_fails(self, tmp_path):
        proc = run_gate(tmp_path, scale_json(), scale_json(under_heap=False))
        assert proc.returncode == 1
        assert "Python-heap leak" in proc.stderr

    def test_lost_exact_parity_fails(self, tmp_path):
        proc = run_gate(tmp_path, scale_json(), scale_json(exact=False))
        assert proc.returncode == 1
        assert "exact (non-percentile) field" in proc.stderr

    def test_percentile_out_of_bound_fails(self, tmp_path):
        proc = run_gate(tmp_path, scale_json(), scale_json(within_bound=False))
        assert proc.returncode == 1
        assert "rank-error" in proc.stderr

    def test_lost_multiprocess_identity_fails(self, tmp_path):
        proc = run_gate(tmp_path, scale_json(), scale_json(mp_identical=False))
        assert proc.returncode == 1
        assert "determinism contract lost" in proc.stderr

    def test_throughput_regression_fails(self, tmp_path):
        proc = run_gate(tmp_path, scale_json(4000.0), scale_json(3000.0))
        assert proc.returncode == 1
        assert "throughput regressed" in proc.stderr

    def test_loose_tolerance_passes_slow_machine(self, tmp_path):
        # CI invokes the scale gate with a loose --max-regression because
        # wall clock is not hardware-normalized for this schema.
        proc = run_gate(
            tmp_path,
            scale_json(4000.0),
            scale_json(1800.0),
            "--max-regression",
            "0.6",
        )
        assert proc.returncode == 0, proc.stderr

    def test_params_drift_fails(self, tmp_path):
        drifted = scale_json()
        drifted["params"]["rate_qps"] = 60.0
        proc = run_gate(tmp_path, scale_json(), drifted)
        assert proc.returncode == 1
        assert "params drifted" in proc.stderr


def serve_json(
    throughput=3000.0,
    n_requests=2000,
    errors=0,
    under_p99=True,
    batching_active=True,
    bit_identical=True,
):
    return {
        "schema": "repro-bench-serve/v1",
        "machine": {"python": "3.11", "numpy": "2.0", "platform": "test"},
        "params": {
            "n_requests": n_requests,
            "distinct_queries": 50,
            "concurrency": 32,
            "rate_qps": 500.0,
            "max_batch_size": 32,
            "max_wait_ms": 2.0,
            "timeout_ms": 5000.0,
            "p99_budget_ms": 250.0,
            "seed": 0,
        },
        "serve": {
            "n_requests": n_requests,
            "n_ok": n_requests - errors,
            "errors": errors,
            "wall_seconds": n_requests / throughput,
            "throughput_rps": throughput,
            "p50_ms": 9.0,
            "p95_ms": 14.0,
            "p99_ms": 24.0,
            "max_ms": 25.0,
            "p99_budget_ms": 250.0,
            "under_p99_budget": under_p99,
        },
        "batch": {
            "batches": 63,
            "items": n_requests,
            "mean_size": 31.7 if batching_active else 1.0,
            "peak_size": 32,
            "batching_active": batching_active,
        },
        "cache": {
            "hits": n_requests - 50,
            "misses": 50,
            "hit_rate": (n_requests - 50) / n_requests,
        },
        "parity": {
            "n_checked": n_requests,
            "mismatches": 0 if bit_identical else 3,
            "bit_identical": bit_identical,
        },
    }


class TestServeGate:
    def test_equal_run_passes(self, tmp_path):
        proc = run_gate(tmp_path, serve_json(), serve_json())
        assert proc.returncode == 0, proc.stderr
        assert "no benchmark regression" in proc.stdout

    def test_too_few_requests_fails(self, tmp_path):
        # both sides at the small size so the params-drift check (which
        # runs first) stays quiet and the volume gate itself fires
        proc = run_gate(
            tmp_path,
            serve_json(n_requests=800),
            serve_json(n_requests=800),
        )
        assert proc.returncode == 1
        assert "at least 1,000" in proc.stderr

    def test_errors_fail(self, tmp_path):
        proc = run_gate(tmp_path, serve_json(), serve_json(errors=3))
        assert proc.returncode == 1
        assert "not answered 200" in proc.stderr

    def test_p99_budget_break_fails(self, tmp_path):
        proc = run_gate(
            tmp_path, serve_json(), serve_json(under_p99=False)
        )
        assert proc.returncode == 1
        assert "budget" in proc.stderr

    def test_inactive_batching_fails(self, tmp_path):
        proc = run_gate(
            tmp_path, serve_json(), serve_json(batching_active=False)
        )
        assert proc.returncode == 1
        assert "coalescing contract lost" in proc.stderr

    def test_lost_parity_fails(self, tmp_path):
        proc = run_gate(
            tmp_path, serve_json(), serve_json(bit_identical=False)
        )
        assert proc.returncode == 1
        assert "serving fidelity" in proc.stderr

    def test_throughput_regression_fails(self, tmp_path):
        proc = run_gate(tmp_path, serve_json(3000.0), serve_json(2000.0))
        assert proc.returncode == 1
        assert "throughput regressed" in proc.stderr

    def test_loose_tolerance_passes_slow_machine(self, tmp_path):
        # CI invokes the serve gate with a loose --max-regression: wall
        # clock is not hardware-normalized, so the real guards are the
        # in-document budget flags, not the throughput ratio.
        proc = run_gate(
            tmp_path,
            serve_json(3000.0),
            serve_json(1300.0),
            "--max-regression",
            "0.6",
        )
        assert proc.returncode == 0, proc.stderr

    def test_params_drift_fails(self, tmp_path):
        drifted = serve_json()
        drifted["params"]["concurrency"] = 8
        proc = run_gate(tmp_path, serve_json(), drifted)
        assert proc.returncode == 1
        assert "params drifted" in proc.stderr


def adapt_json(
    p95_ratio=1.55,
    cost_ratio=1.05,
    p95_win=True,
    cost_win=True,
    alarms=4,
    fired_after_shift=True,
    zero_retrain=True,
    frozen_capacity=True,
    adaptive_capacity=True,
):
    return {
        "schema": "repro-bench-adapt/v1",
        "machine": {"python": "3.11", "numpy": "2.0", "platform": "test"},
        "params": {
            "queries": ["q1", "q94"],
            "pre_scale_factor": 100,
            "post_scale_factor": 10,
            "n_pre": 24,
            "n_post": 120,
            "rate_pre": 0.08,
            "rate_post": 0.5,
            "capacity": 48,
            "seed": 0,
            "buffer_capacity": 128,
            "min_retrain_points": 16,
            "drift_window": 12,
            "drift_threshold": 0.5,
            "shadow_window": 10,
            "n_estimators": 24,
        },
        "frozen": {
            "p95_latency_s": 149.0,
            "total_dollar_cost": 3.41,
            "capacity_respected": frozen_capacity,
        },
        "adaptive": {
            "p95_latency_s": 149.0 / p95_ratio,
            "total_dollar_cost": 3.41 / cost_ratio,
            "capacity_respected": adaptive_capacity,
            "drift_alarms": alarms,
            "retrains": 4,
            "promotions": 3,
            "rejections": 1,
            "model_generation": 3,
        },
        "drift": {
            "alarms": alarms,
            "shift_time_s": 300.0,
            "first_alarm_time_s": 346.0 if fired_after_shift else 120.0,
            "fired_after_shift": fired_after_shift,
        },
        "improvement": {"p95_ratio": p95_ratio, "cost_ratio": cost_ratio},
        "wins": {"p95": p95_win, "cost": cost_win},
        "parity": {"zero_retrain_bit_identical": zero_retrain},
    }


class TestAdaptGate:
    def test_equal_run_passes(self, tmp_path):
        proc = run_gate(tmp_path, adapt_json(), adapt_json())
        assert proc.returncode == 0, proc.stderr
        assert "no benchmark regression" in proc.stdout

    def test_lost_zero_retrain_parity_fails(self, tmp_path):
        proc = run_gate(
            tmp_path, adapt_json(), adapt_json(zero_retrain=False)
        )
        assert proc.returncode == 1
        assert "no longer serves bit-identically" in proc.stderr

    def test_lost_p95_win_fails(self, tmp_path):
        proc = run_gate(tmp_path, adapt_json(), adapt_json(p95_win=False))
        assert proc.returncode == 1
        assert "p95" in proc.stderr

    def test_lost_cost_win_fails(self, tmp_path):
        proc = run_gate(tmp_path, adapt_json(), adapt_json(cost_win=False))
        assert proc.returncode == 1
        assert "retraining bill" in proc.stderr

    def test_no_drift_alarm_fails(self, tmp_path):
        proc = run_gate(tmp_path, adapt_json(), adapt_json(alarms=0))
        assert proc.returncode == 1
        assert "no drift alarm fired" in proc.stderr

    def test_alarm_before_shift_fails(self, tmp_path):
        proc = run_gate(
            tmp_path, adapt_json(), adapt_json(fired_after_shift=False)
        )
        assert proc.returncode == 1
        assert "fired before the shift" in proc.stderr

    def test_p95_improvement_regression_fails(self, tmp_path):
        proc = run_gate(tmp_path, adapt_json(), adapt_json(p95_ratio=1.10))
        assert proc.returncode == 1
        assert "p95 improvement regressed" in proc.stderr

    def test_cost_improvement_within_tolerance_passes(self, tmp_path):
        # the cost win is narrow by design (the retrain bill is real);
        # the ratio gate tolerates --max-regression drift around it
        proc = run_gate(tmp_path, adapt_json(), adapt_json(cost_ratio=1.01))
        assert proc.returncode == 0, proc.stderr

    def test_cost_improvement_regression_fails(self, tmp_path):
        proc = run_gate(
            tmp_path,
            adapt_json(),
            adapt_json(cost_ratio=0.80, cost_win=False),
        )
        assert proc.returncode == 1
        assert "cost improvement regressed" in proc.stderr

    def test_capacity_violation_fails(self, tmp_path):
        proc = run_gate(
            tmp_path, adapt_json(), adapt_json(adaptive_capacity=False)
        )
        assert proc.returncode == 1
        assert "capacity invariant violated" in proc.stderr

    def test_params_drift_fails(self, tmp_path):
        drifted = adapt_json()
        drifted["params"]["capacity"] = 96
        proc = run_gate(tmp_path, adapt_json(), drifted)
        assert proc.returncode == 1
        assert "params drifted" in proc.stderr


def test_checked_in_scale_baseline_is_valid():
    data = json.loads(
        (REPO_ROOT / "benchmarks" / "perf" / "baseline_scale.json").read_text(
            encoding="utf-8"
        )
    )
    assert data["schema"] == "repro-bench-scale/v1"
    assert data["scale"]["n_queries"] == 1_000_000
    assert data["scale"]["under_rss_ceiling"] is True
    assert data["scale"]["peak_rss_mb"] <= data["scale"]["rss_ceiling_mb"]
    assert data["tracemalloc"]["under_heap_ceiling"] is True
    assert data["parity"]["streaming"]["exact_fields_equal"] is True
    assert data["parity"]["streaming"]["percentiles_within_bound"] is True
    assert data["parity"]["multiprocess"]["bit_identical"] is True


@pytest.mark.parametrize("file", ["baseline.json"])
def test_checked_in_baseline_is_valid(file):
    data = json.loads(
        (REPO_ROOT / "benchmarks" / "perf" / file).read_text(encoding="utf-8")
    )
    assert data["schema"] == "repro-bench-sweep/v2"
    assert data["speedup"] >= 5.0
    assert data["equivalence"]["bit_identical"] is True
    assert data["parity"]["bit_identical"] is True


def test_checked_in_serve_baseline_is_valid():
    data = json.loads(
        (REPO_ROOT / "benchmarks" / "perf" / "baseline_serve.json").read_text(
            encoding="utf-8"
        )
    )
    assert data["schema"] == "repro-bench-serve/v1"
    assert data["serve"]["n_requests"] >= 1000
    assert data["serve"]["errors"] == 0
    assert data["serve"]["under_p99_budget"] is True
    assert data["serve"]["p99_ms"] <= data["serve"]["p99_budget_ms"]
    assert data["batch"]["batching_active"] is True
    assert data["batch"]["mean_size"] > 1.0
    assert data["parity"]["bit_identical"] is True
    assert data["parity"]["mismatches"] == 0


def test_checked_in_adapt_baseline_is_valid():
    data = json.loads(
        (REPO_ROOT / "benchmarks" / "perf" / "baseline_adapt.json").read_text(
            encoding="utf-8"
        )
    )
    assert data["schema"] == "repro-bench-adapt/v1"
    assert data["parity"]["zero_retrain_bit_identical"] is True
    assert data["wins"]["p95"] is True
    assert data["wins"]["cost"] is True
    assert data["improvement"]["p95_ratio"] > 1.0
    assert data["improvement"]["cost_ratio"] > 1.0
    assert data["drift"]["alarms"] >= 1
    assert data["drift"]["fired_after_shift"] is True
    assert data["drift"]["first_alarm_time_s"] > data["drift"]["shift_time_s"]
    assert data["frozen"]["capacity_respected"] is True
    assert data["adaptive"]["capacity_respected"] is True
    # the wins are backed by the recorded serves, retrain bill included
    assert data["adaptive"]["p95_latency_s"] < data["frozen"]["p95_latency_s"]
    assert (
        data["adaptive"]["total_dollar_cost"]
        < data["frozen"]["total_dollar_cost"]
    )
    assert data["adaptive"]["retrain_dollar_cost"] > 0.0
    assert data["adaptive"]["promotions"] >= 1
    assert data["adaptive"]["model_generation"] >= 1


def test_checked_in_fleet_baseline_is_valid():
    data = json.loads(
        (REPO_ROOT / "benchmarks" / "perf" / "baseline_fleet.json").read_text(
            encoding="utf-8"
        )
    )
    assert data["schema"] == "repro-bench-fleet/v3"
    assert data["parity"]["bit_identical"] is True
    assert data["parity"]["zero_fault_bit_identical"] is True
    assert data["wins"]["p95_at_peak"] is True
    assert data["wins"]["cost_at_peak"] is True
    assert data["wins"]["spot_at_matched_p95"] is True
    assert data["overhead"]["ratio"] < 2.0
    # the observability layer's zero-cost contract, as measured
    assert data["tracing"]["traced_bit_identical"] is True
    assert data["tracing"]["ratio"] <= 1.10
    assert data["tracing"]["events"] > 0
    # the recorded peak-rate scenario backs the wins block
    peak = data["scenarios"][-1]
    assert (
        peak["sharded_autoscaled"]["p95_latency_s"]
        < peak["static_single_pool"]["p95_latency_s"]
    )
    assert (
        peak["sharded_autoscaled"]["provisioned_dollar_cost"]
        < peak["static_single_pool"]["provisioned_dollar_cost"]
    )
    assert peak["sharded_autoscaled"]["capacity_respected"] is True
    # the recorded fault sweep backs the spot win: cheaper at matched p95
    # at the base reclamation rate, with real retry churn ledgered
    base_spot = data["faults"]["sweep"][0]
    assert base_spot["cost_win"] is True
    assert base_spot["matched_p95"] is True
    assert (
        base_spot["spot"]["total_dollar_cost"]
        < data["faults"]["on_demand"]["total_dollar_cost"]
    )
    assert base_spot["spot"]["task_retries"] > 0
