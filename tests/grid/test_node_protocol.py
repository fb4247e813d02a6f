"""Run-node/owner protocol: FIFO execution, heartbeats, failure recovery.

These are the §2 behaviours: jobs execute one at a time in FIFO order;
heartbeats cover every queued job; the owner re-matches when the run node
dies; the run node recruits a replacement owner when the owner dies; the
client resubmits only when both die.
"""

import pytest

from repro.grid.job import Job, JobProfile, JobState
from repro.grid.sandbox import SandboxPolicy
from repro.grid.system import GridConfig

from tests.conftest import make_small_grid


def submit_job(grid, client, name, work=10.0, req=(0.0, 0.0, 0.0), at=0.0,
               **extra):
    job = Job(profile=JobProfile(name=name, client_id=client.node_id,
                                 requirements=req, work=work))
    job.extra.update(extra)
    grid.submit_at(at, client, job)
    return job


class TestFIFOExecution:
    def test_jobs_complete(self):
        grid = make_small_grid()
        client = grid.client("c")
        jobs = [submit_job(grid, client, f"fifo-{i}", work=5.0, at=float(i))
                for i in range(5)]
        assert grid.run_until_done(max_time=1000)
        assert all(j.state is JobState.COMPLETED for j in jobs)

    def test_one_at_a_time_fifo_order(self):
        # Force every job onto one node: a 1-node grid.
        grid = make_small_grid(n_nodes=1)
        client = grid.client("c")
        jobs = [submit_job(grid, client, f"serial-{i}", work=10.0, at=0.0)
                for i in range(4)]
        assert grid.run_until_done(max_time=1000)
        starts = sorted(j.start_time for j in jobs)
        for a, b in zip(starts, starts[1:]):
            assert b - a >= 10.0 - 1e-6  # strictly serialized
        # FIFO: start order == enqueue order.
        by_enqueue = sorted(jobs, key=lambda j: j.enqueue_time)
        by_start = sorted(jobs, key=lambda j: j.start_time)
        assert [j.name for j in by_enqueue] == [j.name for j in by_start]

    def test_wait_time_measures_queueing(self):
        grid = make_small_grid(n_nodes=1)
        client = grid.client("c")
        first = submit_job(grid, client, "front", work=20.0, at=0.0)
        second = submit_job(grid, client, "behind", work=5.0, at=0.0)
        grid.run_until_done(max_time=1000)
        assert first.wait_time < 1.0  # just network + matchmaking latency
        assert second.wait_time == pytest.approx(20.0, abs=1.0)

    def test_queue_len_counts_running_and_queued(self):
        grid = make_small_grid(n_nodes=1)
        node = grid.node_list[0]
        client = grid.client("c")
        for i in range(3):
            submit_job(grid, client, f"qlen-{i}", work=100.0, at=0.0)
        grid.run(until=10.0)
        assert node.queue_len == 3
        assert node.running is not None
        assert len(node.queue) == 2

    def test_turnaround_includes_execution(self):
        grid = make_small_grid()
        client = grid.client("c")
        job = submit_job(grid, client, "solo", work=30.0)
        grid.run_until_done(max_time=1000)
        assert job.turnaround == pytest.approx(30.0, abs=1.0)

    def test_execution_time_scales_with_cpu(self):
        cfg = GridConfig(seed=7, scale_runtime_by_cpu=True,
                         reference_cpu_level=10.0,
                         sandbox=SandboxPolicy(max_runtime_factor=None))
        grid = make_small_grid(cfg=cfg)
        node = grid.node_list[0]
        job = Job(profile=JobProfile(name="scaled", client_id=1,
                                     requirements=(0.0, 0.0, 0.0), work=10.0))
        expected = 10.0 / (node.capability[0] / 10.0)
        assert node.execution_time(job) == pytest.approx(expected)


class TestHeartbeatProtocol:
    def make_hb_grid(self, **overrides):
        defaults = dict(seed=7, heartbeats_enabled=True,
                        heartbeat_interval=1.0, heartbeat_miss_limit=2.5)
        defaults.update(overrides)
        return make_small_grid("rn-tree", n_nodes=12, cfg=GridConfig(**defaults))

    def test_heartbeats_flow_while_running(self):
        grid = self.make_hb_grid()
        client = grid.client("c")
        submit_job(grid, client, "hb-job", work=30.0)
        grid.run(until=20.0)
        assert grid.network.stats.by_kind.get("heartbeat", 0) > 5
        # Heartbeats are one-way: owner loss shows as failed delivery.
        assert "hb-ack" not in grid.network.stats.by_kind

    def test_no_heartbeats_when_disabled(self):
        grid = make_small_grid("rn-tree", n_nodes=12,
                               cfg=GridConfig(seed=7, heartbeats_enabled=False))
        client = grid.client("c")
        submit_job(grid, client, "quiet", work=30.0)
        grid.run_until_done(max_time=1000)
        assert grid.network.stats.by_kind.get("heartbeat", 0) == 0

    def test_run_node_crash_triggers_rematch(self):
        grid = self.make_hb_grid()
        client = grid.client("c")
        job = submit_job(grid, client, "survivor", work=60.0)
        grid.run(until=10.0)
        assert job.state is JobState.RUNNING
        grid.crash_node(job.run_node_id)
        assert grid.run_until_done(max_time=5000)
        assert job.state is JobState.COMPLETED
        assert job.run_node_failures >= 1
        assert job.executions >= 2  # restarted from scratch
        assert grid.metrics.recoveries["run-node"] >= 1
        assert job.attempt == 1  # no client resubmission needed

    def test_owner_crash_recruits_replacement(self):
        grid = self.make_hb_grid()
        client = grid.client("c")
        job = submit_job(grid, client, "orphan", work=60.0)
        grid.run(until=10.0)
        assert job.state is JobState.RUNNING
        original_owner = job.owner_id
        assert original_owner != job.run_node_id  # owner != runner here
        grid.crash_node(original_owner)
        assert grid.run_until_done(max_time=5000)
        assert job.state is JobState.COMPLETED
        assert job.owner_failures >= 1
        assert job.owner_id != original_owner
        assert grid.metrics.recoveries["owner"] >= 1
        assert job.attempt == 1

    def test_both_crash_forces_client_resubmission(self):
        grid = self.make_hb_grid(client_resubmit_enabled=True,
                                 client_check_interval=5.0,
                                 client_timeout=20.0,
                                 client_max_attempts=5)
        client = grid.client("c")
        job = submit_job(grid, client, "doomed-once", work=60.0)
        grid.run(until=10.0)
        assert job.state is JobState.RUNNING
        owner_id, run_id = job.owner_id, job.run_node_id
        grid.crash_node(owner_id)
        if run_id != owner_id:
            grid.crash_node(run_id)
        assert grid.run_until_done(max_time=20000)
        assert job.state is JobState.COMPLETED
        assert job.attempt >= 2
        assert client.resubmissions >= 1


class TestOwnerLossByFailedDelivery:
    """§2: the run node learns its job's owner died because "heartbeat
    delivery fails" — no ack traffic, detection at the next heartbeat."""

    INTERVAL = 1.0
    HOP = 0.05

    def _running_job(self, matchmaker="rn-tree", **mm_kwargs):
        # Zero latency jitter: every hop takes exactly HOP seconds.
        grid = make_small_grid(matchmaker, n_nodes=12, cfg=GridConfig(
            seed=7, heartbeats_enabled=True, heartbeat_interval=self.INTERVAL,
            heartbeat_miss_limit=2.5, mean_latency=self.HOP,
            latency_jitter=0.0), **mm_kwargs)
        client = grid.client("c")
        job = submit_job(grid, client, "long", work=60.0)
        grid.run(until=10.0)
        assert job.state is JobState.RUNNING
        assert job.owner_id != job.run_node_id
        return grid, client, job

    def _completed_once(self, grid, client, job):
        assert grid.run_until_done(max_time=5000)
        assert job.state is JobState.COMPLETED
        assert job.executions == 1 and job.attempt == 1
        assert [j.guid for j in client.completed] == [job.guid]
        assert client.duplicate_results == 0
        assert "hb-ack" not in grid.network.stats.by_kind

    def test_owner_crash_recruits_within_one_heartbeat(self):
        grid, client, job = self._running_job()
        dead = job.owner_id
        grid.crash_node(dead)
        # The next heartbeat leaves within 1.1 intervals (timer jitter)
        # and is dropped one hop later, at the dead owner's address.
        grid.run(until=grid.sim.now + 1.1 * self.INTERVAL + self.HOP + 1e-9)
        assert job.owner_failures == 1
        assert job.owner_id not in (None, dead)
        assert grid.metrics.recoveries["owner"] == 1
        self._completed_once(grid, client, job)
        assert job.owner_failures == 1  # the recruit answered; no re-recruit

    def test_partitioned_owner_is_replaced_and_heals_stale(self):
        grid, client, job = self._running_job()
        old = job.owner_id
        grid.partition_node(old)
        # A partitioned owner looks exactly like a dead one to the sender.
        grid.run(until=grid.sim.now + 1.1 * self.INTERVAL + self.HOP + 1e-9)
        assert job.owner_failures == 1 and job.owner_id != old
        grid.heal_node(old)
        self._completed_once(grid, client, job)
        # The healed node's monitor drops its stale record, never acting
        # on a job some other node now owns.
        grid.run(until=grid.sim.now + 2 * self.INTERVAL)
        assert job.guid not in grid.nodes[old].owned

    def test_irreplaceable_owner_counts_no_recovery(self):
        # Client-server mode: only the server may own a job, so while it
        # is down every failed heartbeat finds no replacement.  Those
        # attempts are not recoveries.
        grid, client, job = self._running_job("centralized",
                                              server_mode=True)
        server = job.owner_id
        grid.partition_node(server)
        grid.run(until=grid.sim.now + 10 * self.INTERVAL)
        assert grid.network.stats.dropped_dead_dst >= 9
        assert job.owner_failures == 0 and job.owner_id == server
        grid.heal_node(server)
        self._completed_once(grid, client, job)
        assert grid.metrics.recoveries["owner"] == 0


class TestSupersededAssignments:
    def test_stale_assignment_is_dropped(self):
        grid = make_small_grid(n_nodes=4)
        node = grid.node_list[0]
        other = grid.node_list[1]
        job = Job(profile=JobProfile(name="stale", client_id=1,
                                     requirements=(0.0, 0.0, 0.0), work=5.0))
        job.run_node_id = other.node_id  # owner re-matched elsewhere
        from repro.sim.network import Message

        node.handle_message(Message("assign", src=2, dst=node.node_id,
                                    payload=job))
        assert node.queue_len == 0


class TestSandboxIntegration:
    def test_network_needing_job_fails(self):
        grid = make_small_grid()
        client = grid.client("c")
        job = submit_job(grid, client, "rogue", work=5.0, needs_network=True)
        grid.run_until_done(max_time=1000)
        assert job.state is JobState.FAILED
        assert "network" in job.failure_reason

    def test_oversized_output_fails_at_completion(self):
        cfg = GridConfig(seed=7, sandbox=SandboxPolicy(output_quota_kb=1.0))
        grid = make_small_grid(cfg=cfg)
        client = grid.client("c")
        job = Job(profile=JobProfile(name="chatty", client_id=client.node_id,
                                     requirements=(0.0, 0.0, 0.0), work=5.0,
                                     output_size_kb=100.0))
        grid.submit_at(0.0, client, job)
        grid.run_until_done(max_time=1000)
        assert job.state is JobState.FAILED
        assert "output-quota" in job.failure_reason

    def test_runaway_killed_at_limit(self):
        # A slow node stretches execution past the runaway factor.
        cfg = GridConfig(seed=7, scale_runtime_by_cpu=True,
                         sandbox=SandboxPolicy(max_runtime_factor=2.0))
        grid = make_small_grid(cfg=cfg, n_nodes=1)
        node = grid.node_list[0]
        node.capability = (1.0,) + tuple(node.capability[1:])  # cpu level 1
        client = grid.client("c")
        job = submit_job(grid, client, "runaway", work=10.0)
        grid.run_until_done(max_time=1000)
        assert job.state is JobState.FAILED
        assert "runtime limit" in job.failure_reason


class TestFairShare:
    def test_fair_share_interleaves_clients(self):
        cfg = GridConfig(seed=7, queue_discipline="fair-share")
        grid = make_small_grid(cfg=cfg, n_nodes=1)
        heavy = grid.client("heavy")
        light = grid.client("light")
        heavy_jobs = [submit_job(grid, heavy, f"h-{i}", work=10.0, at=0.0)
                      for i in range(5)]
        light_job = submit_job(grid, light, "l-0", work=10.0, at=1.0)
        grid.run_until_done(max_time=1000)
        # The light client's job runs after at most one heavy job finishes
        # (plus the in-flight one), never behind the whole burst.
        finished_before_light = sum(
            1 for j in heavy_jobs if j.finish_time <= light_job.start_time + 1e-9)
        assert finished_before_light <= 2

    def test_fifo_starves_late_client(self):
        cfg = GridConfig(seed=7, queue_discipline="fifo")
        grid = make_small_grid(cfg=cfg, n_nodes=1)
        heavy = grid.client("heavy")
        light = grid.client("light")
        heavy_jobs = [submit_job(grid, heavy, f"h-{i}", work=10.0, at=0.0)
                      for i in range(5)]
        light_job = submit_job(grid, light, "l-0", work=10.0, at=1.0)
        grid.run_until_done(max_time=1000)
        finished_before_light = sum(
            1 for j in heavy_jobs if j.finish_time <= light_job.start_time + 1e-9)
        assert finished_before_light >= 4  # waits out the whole burst
