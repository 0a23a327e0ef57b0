"""Physical staging: logical plan → DAG of stages with tasks.

Spark executes a SQL query as a DAG of *stages* separated by shuffle
(exchange) boundaries; each stage runs a set of parallel *tasks*, one per
partition.  The per-stage task counts and durations — together with the
executor slot count ``n × ec`` — determine the run-time curve ``t(n)`` the
paper models.

The compiler here mirrors that structure:

- a stage is a maximal exchange-free region of the plan;
- a stage that contains scans gets its task count from the bytes it reads
  (one task per input split); shuffle stages get theirs from the rows that
  cross the exchange (shuffle partitions);
- per-task durations come from a simple per-operator cost model plus a
  deterministic skew profile (a few straggler tasks per stage, which is
  what makes critical paths — and hence Amdahl's-law serial fractions —
  non-trivial).

Everything is deterministic: the same plan always compiles to the same
stage DAG with the same task durations.  Run-to-run noise is layered on
top by the experiment harness, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.checks import check_int, check_range
from repro.engine.plan import LogicalPlan, OperatorKind, PlanNode

__all__ = ["StageCompilerConfig", "Stage", "StageGraph", "compile_stages"]


#: Cost (task-seconds) per million rows processed, by operator kind.  These
#: constants are calibrated so that TPC-DS-like queries at SF=100 have total
#: work in the hundreds-to-thousands of core-seconds, matching the scale of
#: the paper's Figure 1 (AUC 507–2575 executor-seconds for q94).
_COST_PER_MROWS: dict[OperatorKind, float] = {
    OperatorKind.SCAN: 4.4,
    OperatorKind.FILTER: 2.4,
    OperatorKind.PROJECT: 2.0,
    OperatorKind.JOIN: 6.4,
    OperatorKind.AGGREGATE: 5.6,
    OperatorKind.SORT: 6.0,
    OperatorKind.UNION: 2.0,
    OperatorKind.EXCHANGE: 4.0,
    OperatorKind.LIMIT: 1.2,
    OperatorKind.WINDOW: 6.8,
    OperatorKind.EXPAND: 4.8,
    OperatorKind.GENERATE: 4.0,
    OperatorKind.INTERSECT: 5.2,
    OperatorKind.EXCEPT: 5.2,
}

#: Additional scan cost per GiB read (IO-bound component).
_COST_PER_GIB = 3.2


@dataclass(frozen=True)
class StageCompilerConfig:
    """Knobs of the plan → stage compiler.

    Attributes:
        split_bytes: input bytes per scan task (one task per split).
        rows_per_shuffle_partition: rows per shuffle-read task.
        max_tasks_per_stage: cap on stage width (keeps simulation cheap
            while preserving wave structure; Spark caps via
            ``spark.sql.shuffle.partitions`` similarly).
        min_task_seconds: floor on per-task duration (task launch overhead).
        skew_fraction: fraction of tasks that are stragglers.
        skew_factor: duration multiplier for straggler tasks.
        skew_work_share: fraction of the stage's work concentrated in the
            single slowest task (Zipf-style partition skew: the hottest
            key-group holds a data-proportional share, so the straggler
            grows with stage volume).
        working_set_fraction: fraction of input bytes that must be resident
            across the executors to avoid spilling.
    """

    split_bytes: float = 64 * 1024**2
    rows_per_shuffle_partition: float = 4.0e5
    max_tasks_per_stage: int = 96
    min_task_seconds: float = 0.05
    skew_fraction: float = 0.05
    skew_factor: float = 1.3
    skew_work_share: float = 0.0
    working_set_fraction: float = 2.0

    def __post_init__(self) -> None:
        check_range("split_bytes", self.split_bytes, 0.0, open_low=True)
        rows = self.rows_per_shuffle_partition
        check_range("rows_per_shuffle_partition", rows, 0.0, open_low=True)
        check_int("max_tasks_per_stage", self.max_tasks_per_stage, 1)
        # A zero floor would compile a zero-work stage to zero-length tasks.
        check_range("min_task_seconds", self.min_task_seconds, 0.0, open_low=True)
        check_range("skew_fraction", self.skew_fraction, 0.0, 1.0)
        check_range("skew_factor", self.skew_factor, 1.0)
        check_range("skew_work_share", self.skew_work_share, 0.0, 1.0)
        check_range("working_set_fraction", self.working_set_fraction, 0.0)


DEFAULT_COMPILER_CONFIG = StageCompilerConfig()


@dataclass
class Stage:
    """One stage of physical execution.

    Attributes:
        stage_id: index within the owning :class:`StageGraph`.
        num_tasks: number of parallel tasks.
        task_seconds: base per-task duration before skew.
        dependencies: stage ids that must finish before this stage starts.
        skew_fraction / skew_factor / skew_work_share: straggler profile.
    """

    stage_id: int
    num_tasks: int
    task_seconds: float
    dependencies: list[int] = field(default_factory=list)
    skew_fraction: float = 0.0
    skew_factor: float = 1.0
    skew_work_share: float = 0.0

    def __post_init__(self) -> None:
        if self.num_tasks < 1:
            raise ValueError("stages must have at least one task")
        if self.task_seconds <= 0:
            raise ValueError("task duration must be positive")

    def task_durations(self) -> np.ndarray:
        """Deterministic per-task durations including the skew profile.

        Two skew mechanisms combine (both real): a fraction of tasks run
        ``skew_factor`` longer (stragglers), and the single slowest task
        additionally holds ``skew_work_share`` of the whole stage's base
        work (Zipf-style hot-key skew, which grows with data volume).
        """
        durations = np.full(self.num_tasks, self.task_seconds)
        n_skewed = int(np.ceil(self.skew_fraction * self.num_tasks))
        if n_skewed > 0 and self.skew_factor > 1.0:
            durations[-n_skewed:] *= self.skew_factor
        if self.skew_work_share > 0.0 and self.num_tasks > 1:
            base_work = self.task_seconds * self.num_tasks
            durations[-1] = max(
                durations[-1], self.skew_work_share * base_work
            )
        return durations

    @property
    def total_work(self) -> float:
        """Sum of task durations (core-seconds of work)."""
        return float(self.task_durations().sum())

    @property
    def max_task_seconds(self) -> float:
        """Longest single task — the stage's parallelism-independent floor."""
        return float(self.task_durations().max())


@dataclass
class StageGraph:
    """The stage DAG for one query.

    Attributes:
        stages: stages indexed by ``stage_id``.
        driver_seconds: serial driver/setup time outside any stage.
        working_set_bytes: memory the query wants resident; when the
            executor fleet provides less, tasks slow down (spill model).
        query_id: source query identifier.
    """

    stages: list[Stage]
    driver_seconds: float = 0.0
    working_set_bytes: float = 0.0
    query_id: str = ""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        ids = {s.stage_id for s in self.stages}
        if ids != set(range(len(self.stages))):
            raise ValueError("stage ids must be 0..len-1")
        for stage in self.stages:
            for dep in stage.dependencies:
                if dep not in ids:
                    raise ValueError(f"unknown dependency {dep}")
                if dep >= stage.stage_id:
                    raise ValueError(
                        "dependencies must point to earlier stages (DAG "
                        "must be topologically ordered by id)"
                    )

    @property
    def total_work(self) -> float:
        """Total core-seconds across all stages."""
        return sum(stage.total_work for stage in self.stages)

    @property
    def total_tasks(self) -> int:
        return sum(stage.num_tasks for stage in self.stages)

    @property
    def max_stage_width(self) -> int:
        """Widest stage — beyond ``n·ec`` slots ≥ this, waves collapse."""
        return max(stage.num_tasks for stage in self.stages)

    def critical_path_seconds(self) -> float:
        """Lower bound on run time at infinite parallelism.

        Along the longest dependency chain each stage still costs at least
        its longest task; the driver time is always serial.
        """
        finish = [0.0] * len(self.stages)
        for stage in self.stages:
            start = max(
                (finish[d] for d in stage.dependencies), default=0.0
            )
            finish[stage.stage_id] = start + stage.max_task_seconds
        return self.driver_seconds + max(finish, default=0.0)


def _rows_to_tasks(rows: float, config: StageCompilerConfig) -> int:
    tasks = int(np.ceil(rows / config.rows_per_shuffle_partition))
    return int(np.clip(tasks, 1, config.max_tasks_per_stage))


def _bytes_to_tasks(nbytes: float, config: StageCompilerConfig) -> int:
    tasks = int(np.ceil(nbytes / config.split_bytes))
    return int(np.clip(tasks, 1, config.max_tasks_per_stage))


def compile_stages(
    plan: LogicalPlan,
    config: StageCompilerConfig = DEFAULT_COMPILER_CONFIG,
) -> StageGraph:
    """Compile a logical plan into its stage DAG.

    Stages are split at ``EXCHANGE`` operators: the exchange's subtree
    (shuffle write side) forms one or more upstream stages; the operators
    above it join the downstream stage.  Each stage's work is the summed
    operator cost of its member operators; its width comes from the bytes
    scanned (leaf stages) or rows shuffled in (downstream stages).
    """
    stages: list[Stage] = []

    def op_cost(node: PlanNode) -> float:
        cost = _COST_PER_MROWS[node.kind] * node.rows_processed / 1e6
        if node.kind == OperatorKind.SCAN and node.source is not None:
            cost += _COST_PER_GIB * node.source.bytes / 1024**3
        return cost

    def build(
        node: PlanNode,
    ) -> tuple[float, float, float, float, list[int], bool]:
        """Walk the exchange-free region rooted at ``node``.

        Returns ``(work, scan_bytes, region_rows, boundary_rows, deps,
        has_scan)`` for the region: accumulated operator cost, bytes
        scanned inside the region, the largest per-operator row volume
        processed inside the region, rows entering the region across
        exchanges, upstream stage ids, and whether the region reads base
        data directly.
        """
        work = op_cost(node)
        scan_bytes = 0.0
        region_rows = node.rows_processed
        boundary_rows = 0.0
        deps: list[int] = []
        has_scan = node.kind == OperatorKind.SCAN
        if has_scan and node.source is not None:
            scan_bytes += node.source.bytes
        for child in node.children:
            if child.kind == OperatorKind.EXCHANGE:
                child_stage = finish_region(child)
                deps.append(child_stage)
                boundary_rows += child.rows_out
            else:
                c_work, c_bytes, c_rows, c_brows, c_deps, c_scan = build(child)
                work += c_work
                scan_bytes += c_bytes
                region_rows = max(region_rows, c_rows)
                boundary_rows += c_brows
                deps.extend(c_deps)
                has_scan |= c_scan
        return work, scan_bytes, region_rows, boundary_rows, deps, has_scan

    def finish_region(exchange: PlanNode) -> int:
        """Close the stage below an exchange (including the shuffle write)."""
        work = op_cost(exchange)
        scan_bytes = 0.0
        region_rows = 0.0
        boundary_rows = 0.0
        deps: list[int] = []
        has_scan = False
        for child in exchange.children:
            c_work, c_bytes, c_rows, c_brows, c_deps, c_scan = build(child)
            work += c_work
            scan_bytes += c_bytes
            region_rows = max(region_rows, c_rows)
            boundary_rows += c_brows
            deps.extend(c_deps)
            has_scan |= c_scan
        return emit_stage(
            work, scan_bytes, region_rows, boundary_rows, deps, has_scan
        )

    def emit_stage(
        work: float,
        scan_bytes: float,
        region_rows: float,
        boundary_rows: float,
        deps: list[int],
        has_scan: bool,
    ) -> int:
        # Width follows the data the stage actually processes: scans are
        # split by bytes; shuffle stages by the larger of the rows crossing
        # the boundary and the rows any internal operator (window, expand,
        # multi-way join) materializes — Spark's AQE sizes partitions for
        # the processed volume the same way.
        width_rows = max(boundary_rows, region_rows, 1.0)
        num_tasks = _rows_to_tasks(width_rows, config)
        if has_scan and scan_bytes > 0:
            num_tasks = max(num_tasks, _bytes_to_tasks(scan_bytes, config))
        task_seconds = max(work / num_tasks, config.min_task_seconds)
        stage = Stage(
            stage_id=len(stages),
            num_tasks=num_tasks,
            task_seconds=task_seconds,
            dependencies=sorted(set(deps)),
            skew_fraction=config.skew_fraction,
            skew_factor=config.skew_factor,
            skew_work_share=config.skew_work_share,
        )
        stages.append(stage)
        return stage.stage_id

    work, scan_bytes, region_rows, boundary_rows, deps, has_scan = build(
        plan.root
    )
    emit_stage(work, scan_bytes, region_rows, boundary_rows, deps, has_scan)

    total_bytes = plan.total_input_bytes()
    # Driver time: plan/setup overhead plus a small per-stage scheduling
    # cost; this is the always-serial component of the Amdahl model.
    driver = 2.0 + 1.0 * len(stages)
    return StageGraph(
        stages=stages,
        driver_seconds=driver,
        working_set_bytes=total_bytes * config.working_set_fraction,
        query_id=plan.query_id,
    )
