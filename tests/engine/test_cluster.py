"""Unit tests for the cluster manager."""

import pytest

from repro.engine.cluster import Cluster, ExecutorSpec, NodeSpec


class TestSpecs:
    def test_defaults_match_paper_testbed(self):
        """Medium nodes: 8 cores / 64 GB; executors: 4 cores / 28 GB."""
        node, executor = NodeSpec(), ExecutorSpec()
        assert node.cores == 8 and node.memory_gb == 64.0
        assert executor.cores == 4 and executor.memory_gb == 28.0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            NodeSpec(cores=0)
        with pytest.raises(ValueError):
            ExecutorSpec(memory_gb=0)


class TestPlacement:
    def test_default_two_executors_per_node(self):
        """The paper: at most two executors can be placed on each node."""
        assert Cluster().executors_per_node == 2

    def test_memory_can_constrain_placement(self):
        cluster = Cluster(
            node=NodeSpec(cores=16, memory_gb=40),
            executor=ExecutorSpec(cores=4, memory_gb=28),
            max_executors_per_node=4,
        )
        assert cluster.executors_per_node == 1  # 2*28 > 40

    def test_cores_can_constrain_placement(self):
        cluster = Cluster(
            node=NodeSpec(cores=8, memory_gb=640),
            executor=ExecutorSpec(cores=4, memory_gb=28),
            max_executors_per_node=8,
        )
        assert cluster.executors_per_node == 2

    def test_capacity(self):
        cluster = Cluster(max_nodes=24)
        assert cluster.max_executors == 48  # the paper's n range cap

    def test_impossible_fit_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            Cluster(
                node=NodeSpec(cores=2, memory_gb=8),
                executor=ExecutorSpec(cores=4, memory_gb=28),
            )


class TestRequests:
    def test_clamp_request_at_capacity(self):
        cluster = Cluster(max_nodes=4)  # capacity 8
        assert cluster.clamp_request(100) == 8
        assert cluster.clamp_request(3) == 3
        assert cluster.clamp_request(-1) == 0

    def test_grant_times_batched_ramp(self):
        cluster = Cluster(base_grant_lag=2.0, grant_batch=8, grant_interval=4.0)
        times = cluster.grant_schedule(10.0, cluster.clamp_request(20))
        assert len(times) == 20
        assert times[0] == pytest.approx(12.0)
        assert times[7] == pytest.approx(12.0)   # first batch of 8
        assert times[8] == pytest.approx(16.0)   # second batch
        assert times[16] == pytest.approx(20.0)  # third batch

    def test_full_48_grant_takes_tens_of_seconds(self):
        """Paper Section 5.4: the runtime takes ~20-30 s to allocate the
        requested count."""
        cluster = Cluster()
        times = cluster.grant_schedule(0.0, cluster.clamp_request(48))
        assert 15.0 <= times[-1] <= 50.0
        # a 25-executor request (Figure 12's example) lands in ~27 s
        ramp_25 = cluster.grant_schedule(0.0, cluster.clamp_request(25))
        assert 20.0 <= ramp_25[-1] <= 32.0

    def test_grant_times_monotone(self):
        cluster = Cluster()
        times = cluster.grant_schedule(5.0, cluster.clamp_request(30))
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_grant_clamps_to_capacity(self):
        cluster = Cluster(max_nodes=2)
        assert len(cluster.grant_schedule(0.0, cluster.clamp_request(100))) == 4

    def test_invalid_grant_schedule_rejected(self):
        with pytest.raises(ValueError):
            Cluster(grant_batch=0)
        with pytest.raises(ValueError):
            Cluster(grant_interval=0.0)
