"""Cluster manager: node shapes, executor placement, provisioning lag.

The paper's testbed is Azure Synapse Spark pools with medium nodes (8 cores,
64 GB) hosting at most two executors each, with executors of ``ec = 4``
cores and 28 GB.  Two behaviours of the cluster manager matter to the
results and are modeled here:

- **capacity**: how many executors fit, given node shape and the two-per-node
  placement constraint (Section 5.1);
- **provisioning lag**: granted executors arrive *gradually* — the paper
  measures ~20–30 s before a Rule request for 25–48 executors is fully
  allocated (Section 5.4, Figure 12) — so short queries may finish before
  their full allocation lands.

How many executors a request actually gets is the caller's
:class:`~repro.engine.driver.GrantPort`'s call: a dedicated cluster
grants every request up to :attr:`Cluster.max_executors`, while a shared
serverless pool (``repro.fleet``'s pool runtime) may grant fewer —
whatever fits in the pool at that instant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.checks import check_int, check_range

__all__ = ["NodeSpec", "ExecutorSpec", "Cluster"]


@dataclass(frozen=True)
class NodeSpec:
    """Shape of one cluster node (paper: medium = 8 cores / 64 GB)."""

    cores: int = 8
    memory_gb: float = 64.0

    def __post_init__(self) -> None:
        check_int("cores", self.cores, 1)
        check_range("memory_gb", self.memory_gb, 0.0, open_low=True)


@dataclass(frozen=True)
class ExecutorSpec:
    """Shape of one executor (paper: ec = 4 cores, 28 GB)."""

    cores: int = 4
    memory_gb: float = 28.0

    def __post_init__(self) -> None:
        check_int("cores", self.cores, 1)
        check_range("memory_gb", self.memory_gb, 0.0, open_low=True)


@dataclass(frozen=True)
class Cluster:
    """A pool of identical nodes with a gradual provisioning model.

    Attributes:
        node: node shape.
        executor: executor shape.
        max_nodes: pool size cap.
        max_executors_per_node: placement constraint (paper: 2).
        base_grant_lag: seconds from a request to the first grant batch.
        grant_batch: executors granted per provisioning batch.
        grant_interval: seconds between provisioning batches.
    """

    node: NodeSpec = NodeSpec()
    executor: ExecutorSpec = ExecutorSpec()
    max_nodes: int = 32
    max_executors_per_node: int = 2
    base_grant_lag: float = 2.0
    grant_batch: int = 4
    grant_interval: float = 4.0

    def __post_init__(self) -> None:
        check_int("max_nodes", self.max_nodes, 1)
        check_int("max_executors_per_node", self.max_executors_per_node, 1)
        if self.executors_per_node < 1:
            raise ValueError(
                "executor spec does not fit on the node spec at all"
            )
        # A negative lag would schedule grants before their request.
        check_range("base_grant_lag", self.base_grant_lag, 0.0)
        # The grant schedule must make progress.
        check_int("grant_batch", self.grant_batch, 1)
        check_range("grant_interval", self.grant_interval, 0.0, open_low=True)

    @property
    def executors_per_node(self) -> int:
        """Executors that fit one node under cores, memory, and placement."""
        by_cores = self.node.cores // self.executor.cores
        by_memory = int(self.node.memory_gb // self.executor.memory_gb)
        return max(0, min(by_cores, by_memory, self.max_executors_per_node))

    @property
    def max_executors(self) -> int:
        """Total executor capacity of the pool."""
        return self.max_nodes * self.executors_per_node

    @property
    def cores_per_executor(self) -> int:
        return self.executor.cores

    @property
    def executor_memory_bytes(self) -> float:
        return self.executor.memory_gb * 1024**3

    def clamp_request(self, n: int) -> int:
        """Cap an executor request at pool capacity (requests are
        non-binding; the manager may grant fewer — Section 4.5)."""
        return max(0, min(int(n), self.max_executors))

    def grant_schedule(self, request_time: float, count: int) -> list[float]:
        """Arrival times for exactly ``count`` newly granted executors.

        Executors arrive in batches of ``grant_batch`` starting
        ``base_grant_lag`` after the request, one batch every
        ``grant_interval`` seconds — reproducing the gradual ~20–30 s ramp
        the paper measures for 25–48-executor requests.  It does not
        clamp: the caller (a :class:`~repro.engine.driver.GrantPort`)
        has already decided how many executors are actually granted.
        """
        times: list[float] = []
        for i in range(max(0, int(count))):
            batch = i // self.grant_batch
            times.append(
                request_time + self.base_grant_lag + batch * self.grant_interval
            )
        return times
