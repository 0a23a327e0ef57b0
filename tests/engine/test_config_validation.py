"""Every config dataclass and allocation policy rejects what the
simulator cannot simulate.

The config classes are found by introspection — every public frozen
dataclass in ``repro.engine`` and ``repro.fleet`` whose fields all have
defaults, or whose name ends in ``Config`` or ``Spec`` — so a new one
fails here until its numeric fields are in :data:`TABLE`.  Each numeric
field must reject NaN, ±inf, an int too large for a float and an
out-of-range value with a ``ValueError`` that names it, and accept its
boundary values; an ``int`` field must also reject ``2.5`` and ``True``.
The allocation policies are plain classes, so their numeric arguments
are listed by hand in :data:`POLICIES` and held to the same rules.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import pkgutil

import pytest

import repro.engine
import repro.fleet
from repro.engine.allocation import (
    BudgetAllocation,
    DynamicAllocation,
    PredictiveAllocation,
    StaticAllocation,
)

#: Values every numeric field rejects, whatever its range: an int beyond
#: float range used to raise ``OverflowError`` instead.
NON_FINITE = (math.nan, math.inf, -math.inf, 10**400)
#: Values every ``int`` field rejects as well.
NON_INTEGERS = (2.5, True)

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
    "FleetConfig": ({}, {"idle_release_timeout": (-5.0, (0.0, None))}),
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


def _numeric_fields(
    cls: type, numeric: tuple[str, ...] = ("int", "float")
) -> list[str]:
    """Fields annotated with one of ``numeric`` (optionally ``| None``)."""
    types = set(numeric) | {f"{t} | None" for t in numeric}
    return [f.name for f in dataclasses.fields(cls) if f.type in types]


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
    for bad in (*NON_FINITE, out_of_range):
        with pytest.raises(ValueError, match=field):
            CLASSES[name](**{**required, field: bad})


INT_CASES = [
    (name, field)
    for name, field in CASES
    if field in _numeric_fields(CLASSES[name], ("int",))
]


@pytest.mark.parametrize(("name", "field"), INT_CASES)
def test_int_fields_reject_non_integers(name, field):
    required, _ = TABLE[name]
    for bad in NON_INTEGERS:
        with pytest.raises(ValueError, match=field):
            CLASSES[name](**{**required, field: bad})


@pytest.mark.parametrize(("name", "field"), CASES)
def test_accepts_defaults_and_boundaries(name, field):
    required, fields = TABLE[name]
    CLASSES[name](**required)
    for good in fields[field][1]:
        CLASSES[name](**{**required, field: good})


#: policy -> (required arguments, {numeric argument: (is an int, an
#: out-of-range value, accepted boundary values)}).
POLICIES: dict[type, tuple[dict, dict[str, tuple[bool, float, tuple]]]] = {
    StaticAllocation: ({"n": 4}, {"n": (True, 0, (1,))}),
    DynamicAllocation: (
        {},
        {
            "min_executors": (True, -1, (0,)),
            "max_executors": (True, 0, (1,)),
            "backlog_timeout": (False, 0.0, (1e-9,)),
            "sustained_timeout": (False, 0.0, (1e-9,)),
            "idle_timeout": (False, -5.0, (0.0, None)),
        },
    ),
    BudgetAllocation: (
        {"n": 4},
        {
            "n": (True, 0, (1,)),
            "idle_timeout": (False, -5.0, (0.0, None)),
            "min_executors": (True, -1, (0,)),
        },
    ),
    PredictiveAllocation: (
        {"predicted_executors": 8},
        {
            "predicted_executors": (True, 0, (1,)),
            "initial_executors": (True, -1, (0,)),
            "request_delay": (False, -0.1, (0.0,)),
            "idle_timeout": (False, -5.0, (0.0, None)),
            "min_executors": (True, -1, (0,)),
        },
    ),
}

POLICY_CASES = [
    pytest.param(cls, arg, id=f"{cls.__name__}-{arg}")
    for cls, (_, args) in POLICIES.items()
    for arg in sorted(args)
]


@pytest.mark.parametrize(("cls", "arg"), POLICY_CASES)
def test_policy_rejects_what_it_cannot_simulate(cls, arg):
    required, args = POLICIES[cls]
    is_int, out_of_range, _ = args[arg]
    for bad in (*NON_FINITE, out_of_range, *(NON_INTEGERS if is_int else ())):
        with pytest.raises(ValueError, match=arg):
            cls(**{**required, arg: bad})


@pytest.mark.parametrize(("cls", "arg"), POLICY_CASES)
def test_policy_accepts_defaults_and_boundaries(cls, arg):
    required, args = POLICIES[cls]
    cls(**required)
    for good in args[arg][2]:
        cls(**{**required, arg: good})
