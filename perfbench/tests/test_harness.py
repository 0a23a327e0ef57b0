"""Tests of the benchmark harness itself (not of ``repro``).

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.common import use_source_tree  # noqa: E402

use_source_tree()

from perfbench import layers  # noqa: E402
from perfbench.tracing import Patch, SpanRecorder, install, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    """A clock tests advance by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def all_patches() -> list[Patch]:
    recorder = SpanRecorder()
    return [*layers.FLEET_PATCHES, *layers.serve_patches(recorder, layers.ServeTrace())]


def test_install_restores_every_patched_attribute():
    patches = all_patches()
    before = {(p.owner, p.attr): vars(p.owner)[p.attr] for p in patches}
    with install(SpanRecorder(), patches):
        for key, original in before.items():
            assert vars(key[0])[key[1]] is not original, key
    for key, original in before.items():
        assert vars(key[0])[key[1]] is original, key


def test_install_restores_when_the_body_raises():
    patches = all_patches()
    before = {(p.owner, p.attr): vars(p.owner)[p.attr] for p in patches}
    with pytest.raises(RuntimeError):
        with install(SpanRecorder(), patches):
            raise RuntimeError("boom")
    for key, original in before.items():
        assert vars(key[0])[key[1]] is original, key


def test_wrappers_keep_descriptor_kinds_and_results():
    class Owner:
        factor = 3

        def method(self, x):
            return x * self.factor

        @classmethod
        def build(cls, x):
            return cls.factor + x

        @property
        def value(self):
            return self.factor * 2

    recorder = SpanRecorder()
    patches = [
        Patch(Owner, "method", "m"),
        Patch(Owner, "build", "b"),
        Patch(Owner, "value", "v"),
    ]
    with install(recorder, patches):
        assert isinstance(vars(Owner)["build"], classmethod)
        assert isinstance(vars(Owner)["value"], property)
        owner = Owner()
        assert (owner.method(2), Owner.build(1), owner.value) == (6, 4, 6)
    assert recorder.calls == {"m": 1, "b": 1, "v": 1}


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6].
    outer = recorder.enter("outer", 7)
    clock.now = 1.0
    a = recorder.enter("a")
    clock.now = 3.0
    recorder.exit(a)
    clock.now = 4.0
    b = recorder.enter("b")
    clock.now = 5.0
    c = recorder.enter("c")
    clock.now = 6.0
    recorder.exit(c)
    clock.now = 8.0
    recorder.exit(b)
    clock.now = 10.0
    recorder.exit(outer)

    assert recorder.total == {"outer": 10.0, "a": 2.0, "b": 4.0, "c": 1.0}
    assert recorder.self_total == {"outer": 4.0, "a": 2.0, "b": 3.0, "c": 1.0}
    spans = recorder.raw_spans()
    assert spans["id"] == [7, 7, 7, 7]  # children inherit the query id
    offline = self_times(spans["start"], spans["end"], spans["parent"])
    by_name = dict(zip((spans["names"][i] for i in spans["name"]), offline))
    assert by_name == recorder.self_total


def test_offline_self_time_merges_overlapping_children():
    # Two children of an asyncio parent overlap in [2, 3]; the covered
    # time is their union, 3 seconds, not 4.
    assert self_times([0.0, 1.0, 2.0], [5.0, 3.0, 4.0], [-1, 0, 0]) == [2.0, 2.0, 2.0]


def test_async_spans_nest_per_task():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    async def request(name: str, gate: asyncio.Event) -> None:
        outer = recorder.enter(name)
        await gate.wait()
        inner = recorder.enter(f"{name}.inner")
        recorder.exit(inner)
        recorder.exit(outer)

    async def main() -> None:
        gate = asyncio.Event()
        tasks = [asyncio.create_task(request(n, gate)) for n in ("x", "y")]
        await asyncio.sleep(0)
        gate.set()
        await asyncio.gather(*tasks)

    asyncio.run(main())
    spans = recorder.raw_spans()
    names = [spans["names"][i] for i in spans["name"]]
    parent_of = {names[i]: spans["parent"][i] for i in range(len(names))}
    assert names[parent_of["x.inner"]] == "x"
    assert names[parent_of["y.inner"]] == "y"


def test_benchmark_metric_names_and_units_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    entries = [*spec["end_to_end"], *spec["per_layer"]]
    names = [e["name"] for e in [*entries, *spec["workloads"]]]
    assert len(names) == len(set(names))
    for entry in entries:
        assert NAME.fullmatch(entry["name"]), entry["name"]
        assert UNIT.fullmatch(entry["unit"]), entry["unit"]
        assert entry["better"] in ("higher", "lower")
    for entry in spec["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(e["bound"] for e in spec["end_to_end"])


def test_every_layer_metric_is_computed_by_some_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {e["name"] for e in spec["per_layer"]}
    empty = {"calls": {}, "total": {}, "self": {}, "samples": {}}
    serve_trace = {**empty, "handle": [], "queue_waits": [], "rows": 0}
    computed = {
        *layers.fleet_metrics([empty], empty, 1, 1),
        *layers.training_metrics(empty),
        *layers.serve_metrics(serve_trace),
    }
    assert computed <= declared
