"""Query arrival processes for the fleet simulator.

Two modes, both seeded and fully deterministic:

- **Poisson**: queries arrive as a memoryless stream at a configured rate,
  each tagged with an application drawn from a small app population — the
  classic open-loop serving model, used to sweep arrival rates in the
  concurrency benchmarks.
- **Trace replay**: applications are sampled from a
  :class:`repro.workloads.production.ProductionTrace` — the synthetic
  stand-in for the paper's Microsoft telemetry — so the stream inherits
  the production shape: most apps issue several queries back to back
  (Figure 2a), producing the bursty, app-correlated load the admission
  policies have to arbitrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.workloads.production import ProductionTrace

__all__ = [
    "QueryArrival",
    "poisson_arrival_stream",
    "poisson_arrivals",
    "trace_arrivals",
]


@dataclass(frozen=True)
class QueryArrival:
    """One query entering the shared pool.

    Attributes:
        index: position in the arrival stream (0-based, time order).
        query_id: workload query to run (a ``repro.workloads`` id).
        app_id: owning application — the unit fair-share arbitrates over.
        arrival_time: submission time on the fleet clock (seconds).
    """

    index: int
    query_id: str
    app_id: int
    arrival_time: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival_time):
            raise ValueError("arrival times must be finite")
        if self.arrival_time < 0:
            raise ValueError("arrival times cannot be negative")


def _finalize(
    times: np.ndarray, query_ids: list[str], app_ids: np.ndarray
) -> list[QueryArrival]:
    """Sort by time and re-index into a clean stream."""
    order = np.argsort(times, kind="stable")
    return [
        QueryArrival(
            index=i,
            query_id=query_ids[j],
            app_id=int(app_ids[j]),
            arrival_time=float(times[j]),
        )
        for i, j in enumerate(order)
    ]


def poisson_arrivals(
    query_ids: Sequence[str],
    n_queries: int,
    rate_qps: float,
    n_apps: int = 16,
    seed: int = 0,
) -> list[QueryArrival]:
    """A Poisson stream of ``n_queries`` arrivals at ``rate_qps``.

    Args:
        query_ids: candidate workload queries, sampled uniformly.
        n_queries: stream length.
        rate_qps: mean arrival rate (queries per second).
        n_apps: size of the application population queries are attributed
            to (fair-share needs more than one owner to matter).
        seed: RNG seed; the stream is deterministic given the seed.
    """
    if n_queries < 1:
        raise ValueError("need at least one query")
    if rate_qps <= 0:
        raise ValueError("arrival rate must be positive")
    if not query_ids:
        raise ValueError("query_ids must be non-empty")
    if n_apps < 1:
        raise ValueError("need at least one application")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0 / rate_qps, size=n_queries)
    times = np.cumsum(gaps)
    times -= times[0]  # the first query opens the stream at t = 0
    picks = rng.integers(0, len(query_ids), size=n_queries)
    apps = rng.integers(0, n_apps, size=n_queries)
    return _finalize(times, [query_ids[p] for p in picks], apps)


def poisson_arrival_stream(
    query_ids: Sequence[str],
    n_queries: int,
    rate_qps: float,
    n_apps: int = 16,
    seed: int = 0,
) -> Iterator[QueryArrival]:
    """Generator form of a Poisson stream, for streaming-mode serving.

    Yields ``n_queries`` time-ordered :class:`QueryArrival` objects one
    at a time in O(1) memory — the shape million-query serves need.
    Draws are interleaved per arrival (gap, query pick, app pick), so a
    given seed produces a *different* stream than the batch-drawing
    :func:`poisson_arrivals`; the two functions are distinct processes,
    not two materializations of one.  Deterministic given the seed.

    Args:
        query_ids: candidate workload queries, sampled uniformly.
        n_queries: stream length.
        rate_qps: mean arrival rate (queries per second).
        n_apps: size of the application population queries are
            attributed to.
        seed: RNG seed.
    """
    if n_queries < 1:
        raise ValueError("need at least one query")
    if rate_qps <= 0:
        raise ValueError("arrival rate must be positive")
    if not query_ids:
        raise ValueError("query_ids must be non-empty")
    if n_apps < 1:
        raise ValueError("need at least one application")
    rng = np.random.default_rng(seed)
    scale = 1.0 / rate_qps
    t = 0.0
    for i in range(n_queries):
        if i:  # the first query opens the stream at t = 0
            t += float(rng.exponential(scale=scale))
        yield QueryArrival(
            index=i,
            query_id=query_ids[int(rng.integers(0, len(query_ids)))],
            app_id=int(rng.integers(0, n_apps)),
            arrival_time=t,
        )


def trace_arrivals(
    trace: ProductionTrace,
    query_ids: Sequence[str],
    n_queries: int,
    horizon_seconds: float = 600.0,
    mean_intra_app_gap: float = 5.0,
    max_queries_per_app: int = 64,
    seed: int = 0,
) -> list[QueryArrival]:
    """Replay the production trace's application shape as an arrival stream.

    Applications are drawn (uniformly, with replacement) from the trace;
    each sampled app starts at a uniform point in the horizon and issues
    ``queries_per_app`` queries back to back with exponential think time —
    reproducing the bursty multi-query sessions of Figure 2a.  Sampling
    stops once ``n_queries`` arrivals have accumulated; the stream is then
    truncated to exactly ``n_queries``.

    Args:
        trace: the production telemetry trace to replay.
        query_ids: candidate workload queries, sampled uniformly per query.
        n_queries: stream length after truncation.
        horizon_seconds: window application start times are spread over.
        mean_intra_app_gap: mean seconds between one app's queries.
        max_queries_per_app: cap on a single app's burst (the trace's tail
            reaches thousands of queries; one such app would be the whole
            stream).
        seed: RNG seed; the stream is deterministic given the seed.
    """
    if n_queries < 1:
        raise ValueError("need at least one query")
    if horizon_seconds <= 0 or mean_intra_app_gap <= 0:
        raise ValueError("horizon and think time must be positive")
    if not query_ids:
        raise ValueError("query_ids must be non-empty")
    rng = np.random.default_rng(seed)
    times: list[float] = []
    qids: list[str] = []
    apps: list[int] = []
    while len(times) < n_queries:
        app = int(rng.integers(0, trace.n_applications))
        burst = int(min(trace.queries_per_app[app], max_queries_per_app))
        start = float(rng.uniform(0.0, horizon_seconds))
        gaps = rng.exponential(scale=mean_intra_app_gap, size=burst)
        gaps[0] = 0.0
        for t in start + np.cumsum(gaps):
            times.append(float(t))
            qids.append(query_ids[int(rng.integers(0, len(query_ids)))])
            apps.append(app)
    arrivals = _finalize(
        np.asarray(times), qids, np.asarray(apps, dtype=int)
    )[:n_queries]
    # Re-anchor so the stream still opens at t = 0 after truncation.
    t0 = arrivals[0].arrival_time
    return [
        QueryArrival(a.index, a.query_id, a.app_id, a.arrival_time - t0)
        for a in arrivals
    ]
