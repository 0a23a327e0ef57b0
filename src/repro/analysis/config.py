"""Configuration: the linter's scopes and allowlists.

The :class:`AnalysisConfig` defaults are the repo's whole contract, so
``python -m repro.analysis src`` enforces it with no configuration file.
Widening an allowlist is a diff to this module, with a one-line reason
beside the entry.

Scope patterns are dotted module names with ``fnmatch`` wildcards
(``repro.engine.*`` matches the package root and everything below it;
a pattern without wildcards matches that module exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase

__all__ = ["AnalysisConfig", "module_matches"]


def module_matches(module: str, patterns: tuple[str, ...]) -> bool:
    """Whether a dotted module name falls under any scope pattern.

    ``repro.engine.*`` is understood the way an import path reads: it
    covers ``repro.engine`` itself *and* every submodule.
    """
    for pattern in patterns:
        if fnmatchcase(module, pattern):
            return True
        if pattern.endswith(".*") and module == pattern[:-2]:
            return True
    return False


@dataclass(frozen=True)
class AnalysisConfig:
    """Every knob the checkers read, with the repo contract as default.

    Attributes:
        select: rule names to run (all registered rules when empty).
        wall_clock_modules: scope of the ``wall-clock`` rule — the
            simulation core, where the only legal clock is the event
            loop's.
        wall_clock_allow_modules: measured-overhead modules where real
            wall-clock reads are the documented exception (prediction
            service timings, export runtime, trainer fit times,
            AutoExecutor stopwatch).
        rng_modules: scope of the ``unseeded-rng`` rule (library code;
            drivers and tests draw their own seeds explicitly anyway).
        heap_key_modules: modules whose ``heapq.heappush`` calls must
            push the two-class ``(time, class-rank, counter, ...)`` key:
            the one module owning the drivers' ``EventHeap``.
        taxonomy_module: repo-relative path of the file declaring
            ``EVENT_KINDS``.
        taxonomy_census_modules: scope whose emit sites make up the
            taxonomy census (library code only — a bench script
            replaying a trace is not an emitter).
        set_iteration_modules: scope of the ``set-iteration`` rule —
            the event-handling / float-accumulation core where
            iteration order feeds arithmetic.
        streaming_classes: ``module:ClassName`` scopes holding state
            that lives for a whole serve (the O(1)-memory streaming
            accumulators, the continual-learning loop, the serving
            path); growth inside them is a finding unless the attribute
            is declared bounded.
        streaming_bounded_attrs: ``Class.attr`` entries, each an
            attribute of one scoped class that is provably bounded
            (sketch folds, LRUs that evict, fixed-key registries).  An
            entry covers its own class only.
    """

    select: tuple[str, ...] = ()
    wall_clock_modules: tuple[str, ...] = (
        "repro.engine.*",
        "repro.fleet.*",
        "repro.core.*",
        "repro.export.*",
        "repro.obs.*",
        "repro.sparklens.*",
        "repro.serve.*",
    )
    wall_clock_allow_modules: tuple[str, ...] = (
        "repro.fleet.prediction",
        "repro.export.runtime",
        "repro.core.training",
        "repro.core.autoexecutor",
        # The serving layer's one measured-overhead module: service
        # latency sketches read real elapsed time there.  The rest of
        # repro.serve (protocol framing, batching, the server loop) is
        # clock-free by contract.
        "repro.serve.app",
    )
    rng_modules: tuple[str, ...] = (
        # Library code and the drivers that feed gated numbers: a bench
        # whose inputs come from global RNG state is unreproducible in
        # exactly the way its baselines cannot tolerate.
        "repro.*",
        "benchmarks.*",
        "examples.*",
    )
    heap_key_modules: tuple[str, ...] = ("repro.engine.driver",)
    taxonomy_module: str = "src/repro/obs/trace.py"
    taxonomy_census_modules: tuple[str, ...] = ("repro.*",)
    set_iteration_modules: tuple[str, ...] = (
        "repro.engine.*",
        "repro.fleet.*",
    )
    streaming_classes: tuple[str, ...] = (
        "repro.fleet.metrics:PoolStreamStats",
        "repro.fleet.metrics:SkylineTracker",
        "repro.obs.metrics:StreamingFleetStats",
        "repro.obs.sketch:QuantileSketch",
        # The continual-learning loop lives for a whole serve.
        "repro.fleet.adaptive:ReplayBuffer",
        "repro.fleet.adaptive:DriftDetector",
        "repro.fleet.adaptive:AdaptiveController",
        # The serving path lives for the whole life of a server process.
        "repro.fleet.prediction:PredictionService",
        "repro.serve.app:RecommendApp",
        "repro.serve.server:RecommendationServer",
        "repro.serve.batching:MicroBatcher",
        "repro.export.runtime:PortableModelRuntime",
        "repro.core.autoexecutor:AutoExecutorRule",
    )
    streaming_bounded_attrs: tuple[str, ...] = (
        # Sketch attributes: their .add() is a bounded histogram fold,
        # not container growth.
        "StreamingFleetStats.latency",
        "StreamingFleetStats.queue_delay",
        "StreamingFleetStats.run_seconds",
        # The fault ledger: FaultStats.add sums a fixed set of counters
        # in place.
        "PoolStreamStats.fault",
        # One key per log-spaced bucket, so the key count grows with
        # log(max/min), not with the stream.
        "QuantileSketch._counts",
        # Settled at each of the pool's finishes, it keeps only the
        # steps since the latest one: the grants and releases of the
        # queries still live, or the resizes of a pool that has served
        # nothing.
        "SkylineTracker.steps",
        # Bounded by the replay buffer's capacity.
        "ReplayBuffer._points",
        # The drift window is a deque with a maxlen.
        "DriftDetector._errors",
        # A ReplayBuffer; its add() is bounded by the capacity.
        "AdaptiveController.buffer",
        # A MetricsRegistry whose names come from a fixed set (the three
        # routes plus "other", the status codes the service emits, the
        # batch-size sketch) and whose sketches are bounded histograms.
        "RecommendApp.metrics",
        # The per-phase timing sketches, and one compiled model per
        # registry file.
        "PortableModelRuntime.timings",
        "PortableModelRuntime._cache",
        "AutoExecutorRule.timings",
        # The decision LRU, evicted past decision_cache_size.
        "PredictionService._cache",
        # The featurization LRU, evicted past features_memo_size.
        "PredictionService._features_by_query",
        # One writer per open connection, discarded when it closes.
        "RecommendationServer._writers",
    )
