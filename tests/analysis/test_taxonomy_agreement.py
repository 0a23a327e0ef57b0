"""Three-way agreement: ``EVENT_KINDS`` ≡ static census ≡ runtime trace.

The closed taxonomy only means something if all three views of it
coincide: the declared frozenset, the analyzer's static emit-site
census over ``src/``, and what a real traced serve actually emits and
serializes.  A kind any one of them has that another lacks is either a
dead declaration, an invisible emit path, or an undeclared emission —
all bugs.
"""

from pathlib import Path

import pytest

from repro.analysis.checkers.trace_taxonomy import emit_site_census
from repro.engine.faults import FaultPlan
from repro.fleet import (
    AutoscalerConfig,
    FleetConfig,
    PoolSpec,
    ShardedFleet,
    poisson_arrivals,
    static_allocator,
)
from repro.obs import EVENT_KINDS, RingBufferTracer, TraceEvent, materialize

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def census():
    return emit_site_census([str(REPO_ROOT / "src")], root=str(REPO_ROOT))


class TestStaticAgreement:
    def test_census_and_event_kinds_are_identical(self, census):
        # No kind serializable that the static pass cannot see (a dead
        # declaration), and no emit site the taxonomy does not declare.
        assert set(census) == set(EVENT_KINDS)

    def test_every_kind_has_at_least_one_real_emit_site(self, census):
        for kind, sites in census.items():
            assert sites, f"kind {kind!r} censused without sites"
            for path, line in sites:
                assert path.endswith(".py") and line > 0


class TestRuntimeAgreement:
    def test_traced_serve_emits_only_declared_kinds(self, workload_small):
        # A busy sharded serve — faults, autoscaling, routing — so the
        # runtime side of the agreement covers as much of the taxonomy
        # as one run can reach.
        arrivals = poisson_arrivals(
            workload_small.query_ids[:6], n_queries=30, rate_qps=1.2, seed=11
        )
        tracer = RingBufferTracer()
        pools = [
            PoolSpec(
                capacity=10,
                autoscaler=AutoscalerConfig(min_capacity=10, max_capacity=16),
            ),
            PoolSpec(capacity=10),
        ]
        fleet = ShardedFleet(
            workload_small,
            pools,
            static_allocator(4),
            config=FleetConfig(
                faults=FaultPlan(seed=3, crash_rate=1 / 600.0)
            ),
            tracer=tracer,
        )
        fleet.serve(arrivals)
        runtime_kinds = set(tracer.counts())
        assert runtime_kinds <= EVENT_KINDS.keys()
        # The serve is rich enough to hit the lifecycle spine at least.
        assert {
            "serve_begin",
            "query_arrive",
            "query_route",
            "query_admit",
            "task_assign",
            "query_finish",
            "serve_end",
        } <= runtime_kinds

    def test_every_declared_kind_decodes_its_fields(self):
        # The flat form's payload zips onto the table's fields, in
        # order; a kind without fields decodes to data=None.
        for kind, fields in EVENT_KINDS.items():
            payload = tuple(range(len(fields)))
            event = materialize((1.5, kind, 0, 2, "q1", *payload))
            assert event[:5] == (1.5, kind, 0, 2, "q1")
            if fields:
                assert event.data == dict(zip(fields, payload))
            else:
                assert event.data is None
            with pytest.raises(ValueError):
                materialize((1.5, kind, 0, 2, "q1", *payload, "extra"))

    def test_serialization_round_trips_every_declared_kind(self):
        for kind in sorted(EVENT_KINDS):
            event = TraceEvent(1.5, kind, 0, 2, "q1", {"x": 1})
            assert TraceEvent.from_json(event.to_json()) == event
