"""DesktopGrid wiring: construction, membership, end-to-end integration."""

import pytest

from repro.grid.job import Job, JobProfile, JobState
from repro.grid.system import DesktopGrid, GridConfig
from repro.match import MATCHMAKERS, make_matchmaker

from tests.conftest import make_small_grid


class TestConstruction:
    def test_nodes_registered_on_network(self):
        grid = make_small_grid(n_nodes=8)
        assert len(grid.nodes) == 8
        for node in grid.node_list:
            assert grid.network.endpoint(node.node_id) is node

    def test_invalid_capability_rejected(self):
        with pytest.raises(ValueError):
            DesktopGrid(GridConfig(), make_matchmaker("centralized"),
                        [("bad", (0.0, 5.0, 5.0))])

    def test_invalid_queue_discipline_rejected(self):
        with pytest.raises(ValueError):
            GridConfig(queue_discipline="lifo")

    @pytest.mark.parametrize("field, value", [
        ("heartbeat_interval", 0.0),
        ("client_check_interval", float("inf")),
        ("client_timeout", -1.0),
        ("probe_timeout", float("nan")),
        ("heartbeat_miss_limit", 0.0),
        ("client_max_attempts", 0),
        ("match_retries", -1),
        ("match_retry_backoff", -1.0),
        # The watchdog's liveness signal rides on heartbeats.
        ("client_resubmit_enabled", True),
        ("heartbeat_miss_limit", float("inf")),
        ("match_retry_backoff", float("inf")),
        ("speculative_threshold", 0.0),
        ("replicate_threshold", 0),
        ("admission_quota", 0),
    ])
    def test_bad_protocol_value_rejected_at_construction(self, field, value):
        # Validated whatever the enabling flag: heartbeats, resubmission,
        # speculation, replication and admission are all off in this config.
        with pytest.raises(ValueError, match=field):
            GridConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("probe_mode", "push"),
        ("selection_policy", "no-such-policy"),
        ("probe_fanout", 0),
    ])
    def test_bad_selection_value_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            GridConfig(**{field: value})

    def test_matchmaker_bound(self):
        grid = make_small_grid()
        assert grid.matchmaker.grid is grid


class TestMembership:
    def test_crash_and_recover_roundtrip(self):
        grid = make_small_grid(n_nodes=8)
        node = grid.node_list[3]
        grid.crash_node(node.node_id)
        assert not node.alive
        assert node not in grid.live_nodes()
        grid.recover_node(node.node_id)
        assert node.alive
        assert node in grid.live_nodes()

    def test_crash_loses_queue(self):
        grid = make_small_grid(n_nodes=1)
        client = grid.client("c")
        for i in range(3):
            job = Job(profile=JobProfile(name=f"lost-{i}",
                                         client_id=client.node_id,
                                         requirements=(0.0, 0.0, 0.0),
                                         work=100.0))
            grid.submit_at(0.0, client, job)
        grid.run(until=5.0)
        node = grid.node_list[0]
        assert node.queue_len == 3
        grid.crash_node(node.node_id)
        assert node.queue_len == 0
        assert node.running is None

    def test_partition_preserves_state(self):
        grid = make_small_grid(n_nodes=2)
        node = grid.node_list[0]
        node.owned[123] = "sentinel"  # type: ignore[assignment]
        grid.partition_node(node.node_id)
        assert not node.alive
        assert node.owned[123] == "sentinel"
        grid.heal_node(node.node_id)
        assert node.alive

    def test_partition_vs_crash_semantics(self):
        # Same starting point, opposite volatile-state outcomes: a
        # partition keeps the queue and the running job's completion
        # timer; a crash wipes everything.
        def loaded_node():
            grid = make_small_grid(n_nodes=1)
            client = grid.client("c")
            for i in range(3):
                job = Job(profile=JobProfile(name=f"vol-{i}",
                                             client_id=client.node_id,
                                             requirements=(0.0, 0.0, 0.0),
                                             work=100.0))
                grid.submit_at(0.0, client, job)
            grid.run(until=5.0)
            return grid, grid.node_list[0]

        grid, node = loaded_node()
        grid.partition_node(node.node_id)
        assert not node.alive
        assert node.queue_len == 3          # queue survives
        assert node.running is not None     # execution continues
        assert node._completion is not None
        grid.heal_node(node.node_id)
        assert node.alive and node.queue_len == 3

        grid, node = loaded_node()
        grid.crash_node(node.node_id)
        assert not node.alive
        assert node.queue_len == 0          # volatile state lost
        assert node.running is None
        assert node._completion is None

    def test_partitioned_node_unreachable(self):
        grid = make_small_grid(n_nodes=2)
        node = grid.node_list[0]
        other = grid.node_list[1]
        grid.partition_node(node.node_id)
        job = Job(profile=JobProfile(name="undeliverable", client_id=1,
                                     requirements=(0.0, 0.0, 0.0), work=5.0))
        job.run_node_id = node.node_id
        grid.network.send("assign", other.node_id, node.node_id, job)
        grid.run(until=5.0)
        assert node.queue_len == 0  # the network dropped the message

    def test_crash_is_idempotent(self):
        grid = make_small_grid(n_nodes=4)
        nid = grid.node_list[0].node_id
        grid.crash_node(nid)
        grid.crash_node(nid)
        grid.recover_node(nid)
        grid.recover_node(nid)
        assert grid.nodes[nid].alive


class TestEndToEnd:
    @pytest.mark.parametrize("mm_name", sorted(MATCHMAKERS))
    def test_small_workload_completes_under_every_matchmaker(self, mm_name):
        grid = make_small_grid(mm_name, n_nodes=20)
        client = grid.client("c")
        jobs = []
        for i in range(30):
            job = Job(profile=JobProfile(name=f"e2e-{mm_name}-{i}",
                                         client_id=client.node_id,
                                         requirements=(0.0, 0.0, 0.0),
                                         work=5.0))
            grid.submit_at(float(i) * 0.5, client, job)
            jobs.append(job)
        assert grid.run_until_done(max_time=10000)
        assert all(j.state is JobState.COMPLETED for j in jobs)
        waits = grid.metrics.wait_times()
        assert len(waits) == 30
        assert (waits >= 0).all()

    def test_constrained_jobs_land_on_satisfying_nodes(self):
        from repro.grid.resources import satisfies

        grid = make_small_grid("rn-tree", n_nodes=24)
        client = grid.client("c")
        req = (7.0, 0.0, 4.0)
        jobs = []
        for i in range(20):
            job = Job(profile=JobProfile(name=f"picky-{i}",
                                         client_id=client.node_id,
                                         requirements=req, work=5.0))
            grid.submit_at(float(i), client, job)
            jobs.append(job)
        assert grid.run_until_done(max_time=10000)
        for job in jobs:
            assert job.state is JobState.COMPLETED
            run_node = grid.nodes[job.run_node_id]
            assert satisfies(run_node.capability, req)

    def test_determinism_same_seed_same_trace(self):
        def run_once():
            grid = make_small_grid("can", n_nodes=16, seed=11)
            client = grid.client("c")
            jobs = []
            for i in range(20):
                job = Job(profile=JobProfile(name=f"det-{i}",
                                             client_id=client.node_id,
                                             requirements=(0.0, 0.0, 0.0),
                                             work=10.0))
                grid.submit_at(float(i) * 0.3, client, job)
                jobs.append(job)
            grid.run_until_done(max_time=10000)
            return [(j.name, j.start_time, j.finish_time, j.run_node_id)
                    for j in jobs]

        assert run_once() == run_once()

    def test_node_execution_counts_sum_to_jobs(self):
        grid = make_small_grid(n_nodes=10)
        client = grid.client("c")
        for i in range(25):
            job = Job(profile=JobProfile(name=f"cnt-{i}",
                                         client_id=client.node_id,
                                         requirements=(0.0, 0.0, 0.0),
                                         work=2.0))
            grid.submit_at(0.0, client, job)
        grid.run_until_done(max_time=10000)
        assert sum(grid.node_execution_counts()) == 25
