"""Client behaviour: submission, result collection, resubmission watchdog."""

import pytest

from repro.grid.job import Job, JobProfile, JobState
from repro.grid.system import GridConfig

from tests.conftest import make_small_grid


def make_job(client, name, work=5.0):
    return Job(profile=JobProfile(name=name, client_id=client.node_id,
                                  requirements=(0.0, 0.0, 0.0), work=work))


class TestSubmission:
    def test_submit_sets_timestamps_and_state(self):
        grid = make_small_grid()
        client = grid.client("c")
        job = make_job(client, "t1")
        grid.submit_at(5.0, client, job)
        grid.run(until=6.0)
        assert job.submit_time == pytest.approx(5.0)
        assert job.attempt == 1
        assert job.guid in grid.jobs

    def test_result_collection(self):
        grid = make_small_grid()
        client = grid.client("c")
        job = make_job(client, "t2")
        grid.submit_at(0.0, client, job)
        grid.run_until_done(max_time=1000)
        assert job in client.completed
        assert job.guid not in client.pending
        assert job.result == "output:t2"
        assert job.finish_time > job.start_time

    def test_duplicate_result_ignored(self):
        grid = make_small_grid()
        client = grid.client("c")
        job = make_job(client, "t3")
        grid.submit_at(0.0, client, job)
        grid.run_until_done(max_time=1000)
        from repro.sim.network import Message

        client.handle_message(Message("result", src=1, dst=client.node_id,
                                      payload=job))
        assert client.duplicate_results == 1
        assert len(client.completed) == 1

    def test_metrics_record_once_per_job(self):
        grid = make_small_grid()
        client = grid.client("c")
        jobs = [make_job(client, f"m-{i}") for i in range(3)]
        for j in jobs:
            grid.submit_at(0.0, client, j)
        grid.run_until_done(max_time=1000)
        assert len(grid.metrics.done) == 3

    def test_result_callbacks_invoked(self):
        grid = make_small_grid()
        client = grid.client("c")
        seen = []
        client.result_callbacks.append(lambda j: seen.append(j.name))
        job = make_job(client, "cb")
        grid.submit_at(0.0, client, job)
        grid.run_until_done(max_time=1000)
        assert seen == ["cb"]

    def test_duplicate_client_name_rejected(self):
        grid = make_small_grid()
        grid.client("dup")
        with pytest.raises(ValueError):
            grid.client("dup")


class TestResubmissionWatchdog:
    def test_abandons_after_max_attempts(self):
        # Silence from faults (§2's last-resort case): on every attempt the
        # owner and the run node both crash once the job is dispatched, so
        # neither recovery path survives and no status reaches the client.
        # The grid keeps enough live nodes that each resubmission still
        # routes to a fresh owner.
        cfg = GridConfig(seed=7, heartbeats_enabled=True,
                         heartbeat_interval=1.0,
                         client_resubmit_enabled=True,
                         client_check_interval=2.0,
                         client_timeout=5.0,
                         client_max_attempts=2,
                         match_retries=0,
                         match_retry_backoff=1.0)
        grid = make_small_grid("rn-tree", cfg=cfg, n_nodes=12)
        client = grid.client("c")
        job = make_job(client, "doomed", work=500.0)
        grid.submit_at(0.0, client, job)
        crashed_attempts = set()
        now = 0.0
        while now < 100.0 and job.state is not JobState.LOST:
            now += 0.25
            grid.run(until=now)
            if job.run_node_id is not None \
                    and job.attempt not in crashed_attempts:
                crashed_attempts.add(job.attempt)
                grid.crash_node(job.owner_id)
                grid.crash_node(job.run_node_id)
        assert crashed_attempts == {1, 2, 3}
        assert job.state is JobState.LOST
        assert job.attempt > 2
        assert job.guid not in client.pending
        assert job in grid.metrics.lost()

    def test_dead_grid_fails_fast_not_silently(self):
        # Routing failure is *reported*: with every node dead, injection
        # exhausts its retries and the job comes back FAILED promptly —
        # not stuck in SUBMITTED until the watchdog gives up.
        cfg = GridConfig(seed=7, heartbeats_enabled=True,
                         heartbeat_interval=1.0,
                         client_resubmit_enabled=True,
                         client_check_interval=2.0,
                         client_timeout=5.0,
                         client_max_attempts=2,
                         match_retries=0,
                         match_retry_backoff=1.0)
        grid = make_small_grid(cfg=cfg, n_nodes=4)
        for node in list(grid.node_list):
            grid.crash_node(node.node_id)
        client = grid.client("c")
        job = make_job(client, "hopeless", work=30.0)
        grid.submit_at(0.0, client, job)
        grid.run(until=60.0)
        assert job.state is JobState.FAILED
        assert job.failure_reason == "owner routing failed"
        assert job.guid not in client.pending
        assert job in grid.metrics.failed()

    def test_status_after_result_is_ignored(self):
        # A status racing the result must not leave a watchdog entry
        # behind for a job that is no longer pending.
        grid = make_small_grid()
        client = grid.client("c")
        job = make_job(client, "late-status")
        grid.submit_at(0.0, client, job)
        grid.run_until_done(max_time=1000)
        grid.network.send("status", grid.node_list[0].node_id,
                          client.node_id, job.guid)
        grid.run(until=grid.sim.now + 1.0)
        assert job.guid not in client.pending
        assert job.guid not in client._last_seen

    def test_no_resubmission_while_status_flows(self):
        cfg = GridConfig(seed=7, heartbeats_enabled=True,
                         heartbeat_interval=1.0,
                         client_resubmit_enabled=True,
                         client_check_interval=2.0,
                         client_timeout=6.0)
        grid = make_small_grid("rn-tree", n_nodes=12, cfg=cfg)
        client = grid.client("c")
        job = make_job(client, "steady", work=40.0)
        grid.submit_at(0.0, client, job)
        grid.run_until_done(max_time=1000)
        assert job.state is JobState.COMPLETED
        assert client.resubmissions == 0
        assert job.attempt == 1
