"""Every config dataclass rejects what the simulator cannot simulate.

The config classes are found by introspection — every public frozen
dataclass in ``repro.engine`` and ``repro.fleet`` whose fields all have
defaults, or whose name ends in ``Config`` or ``Spec`` — so a new one
fails here until its numeric fields are in :data:`TABLE`.  Each numeric
field must reject NaN, ±inf and an out-of-range value with a
``ValueError`` that names it, and accept its boundary values.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import pkgutil

import pytest

import repro.engine
import repro.fleet

#: class name -> (required constructor arguments, {numeric field:
#: (an out-of-range value, accepted boundary values)}).
TABLE: dict[str, tuple[dict, dict[str, tuple[float, tuple]]]] = {
    "NodeSpec": ({}, {"cores": (0, (1,)), "memory_gb": (0.0, (1e-9,))}),
    "ExecutorSpec": ({}, {"cores": (0, (1,)), "memory_gb": (-1.0, (1e-9,))}),
    "Cluster": (
        {},
        {
            "max_nodes": (0, (1,)),
            "max_executors_per_node": (0, (1,)),
            "base_grant_lag": (-5.0, (0.0,)),
            "grant_batch": (0, (1,)),
            "grant_interval": (0.0, (1e-9,)),
        },
    ),
    "SchedulerConfig": (
        {},
        {
            "spill_coefficient": (-0.1, (0.0,)),
            "max_spill_factor": (0.5, (1.0,)),
            "coordination_coefficient": (-0.1, (0.0,)),
            "tick_interval": (0.0, (1e-9,)),
        },
    ),
    "StageCompilerConfig": (
        {},
        {
            "split_bytes": (0.0, (1.0,)),
            "rows_per_shuffle_partition": (0.0, (1.0,)),
            "max_tasks_per_stage": (0, (1,)),
            "min_task_seconds": (0.0, (1e-9,)),
            "skew_fraction": (1.5, (0.0, 1.0)),
            "skew_factor": (0.5, (1.0,)),
            "skew_work_share": (-0.1, (0.0, 1.0)),
            "working_set_fraction": (-1.0, (0.0,)),
        },
    ),
    "SpotMarket": (
        {},
        {
            "fraction": (1.5, (0.0, 1.0)),
            "discount": (-0.5, (0.0, 1.0)),
            "reclaim_rate": (-1.0, (0.0,)),
        },
    ),
    "FaultPlan": (
        {},
        {
            "seed": (-1, (0,)),
            "crash_rate": (-1.0, (0.0,)),
            "straggler_rate": (2.0, (0.0, 1.0)),
            "straggler_factor": (0.5, (1.0,)),
        },
    ),
    "AutoscalerConfig": (
        {"min_capacity": 4, "max_capacity": 32},
        {
            "min_capacity": (0, (1, 32)),
            "max_capacity": (3, (4,)),
            "scale_up_step": (0, (1,)),
            "scale_down_step": (0, (1,)),
            "scale_up_lag_s": (-1.0, (0.0,)),
            "scale_down_cooldown_s": (-1.0, (0.0,)),
            "queue_delay_threshold_s": (-1.0, (0.0,)),
            "high_utilization": (1.5, (1.0,)),
            "low_utilization": (-0.1, (0.0,)),
        },
    ),
    "PoolSpec": ({"capacity": 4}, {"capacity": (0, (1,))}),
    "FleetConfig": (
        {},
        {
            "tick_interval": (0.0, (1e-9,)),
            "idle_release_timeout": (-5.0, (0.0, None)),
            "min_executors_per_query": (0, (1,)),
        },
    ),
    "StreamingConfig": ({}, {"relative_accuracy": (1.0, (1e-9, 0.999))}),
    "AdaptiveConfig": (
        {},
        {
            "seed": (-1, (0,)),
            "buffer_capacity": (0, (1,)),
            "min_retrain_points": (0, (1,)),
            "retrain_interval": (0, (1, None)),
            "drift_window": (0, (1,)),
            "drift_threshold": (0.0, (1e-9,)),
            "shadow_window": (0, (1,)),
            "promote_margin": (0.0, (1e-9,)),
            "n_estimators": (0, (1,)),
            "retrain_cost_executor_seconds_per_point": (-0.1, (0.0,)),
        },
    ),
}


def _config_classes() -> dict[str, type]:
    found = {}
    for package in (repro.engine, repro.fleet):
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{package.__name__}.{info.name}")
            for name in getattr(module, "__all__", ()):
                cls = getattr(module, name)
                if not (
                    isinstance(cls, type)
                    and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__
                    and cls.__dataclass_params__.frozen
                ):
                    continue
                defaulted = all(
                    f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING
                    for f in dataclasses.fields(cls)
                )
                if defaulted or name.endswith(("Config", "Spec")):
                    found[name] = cls
    return found


CLASSES = _config_classes()


def _numeric_fields(cls: type) -> list[str]:
    """Fields annotated ``int`` or ``float`` (optionally ``| None``)."""
    numeric = {"int", "float", "int | None", "float | None"}
    return [f.name for f in dataclasses.fields(cls) if f.type in numeric]


CASES = [
    (name, field)
    for name in sorted(TABLE)
    for field in sorted(TABLE[name][1])
]


def test_the_table_covers_every_config_class_and_numeric_field():
    assert set(CLASSES) == set(TABLE)
    for name, cls in CLASSES.items():
        assert set(_numeric_fields(cls)) == set(TABLE[name][1]), name


@pytest.mark.parametrize(("name", "field"), CASES)
def test_rejects_non_finite_and_out_of_range(name, field):
    required, fields = TABLE[name]
    out_of_range, _ = fields[field]
    for bad in (math.nan, math.inf, -math.inf, out_of_range):
        with pytest.raises(ValueError, match=field):
            CLASSES[name](**{**required, field: bad})


@pytest.mark.parametrize(("name", "field"), CASES)
def test_accepts_defaults_and_boundaries(name, field):
    required, fields = TABLE[name]
    CLASSES[name](**required)
    for good in fields[field][1]:
        CLASSES[name](**{**required, field: good})
