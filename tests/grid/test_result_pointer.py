"""Result-pointer return path (§2) and input-staging cost."""

import pytest

from repro.grid.job import Job, JobProfile, JobState
from repro.grid.system import GridConfig

from tests.conftest import make_small_grid


def submit(grid, client, name, work=10.0, **profile_kwargs):
    job = Job(profile=JobProfile(name=name, client_id=client.node_id,
                                 requirements=(0.0, 0.0, 0.0), work=work,
                                 **profile_kwargs))
    grid.submit_at(0.0, client, job)
    return job


class TestResultPointer:
    @pytest.mark.parametrize("mm_name", ["rn-tree", "can", "can-push",
                                         "ttl-walk"])
    def test_pointer_mode_completes_with_fetched_value(self, mm_name):
        cfg = GridConfig(seed=7, result_return="pointer")
        grid = make_small_grid(mm_name, n_nodes=20, cfg=cfg)
        client = grid.client("c")
        jobs = [submit(grid, client, f"ptr-{mm_name}-{i}") for i in range(10)]
        assert grid.run_until_done(max_time=10000)
        for job in jobs:
            assert job.state is JobState.COMPLETED
            assert job.result == f"output:{job.name}"
            assert job.extra.get("result_store_hops", 0) >= 0
        assert grid.network.stats.by_kind.get("result-pointer", 0) == 10
        assert grid.network.stats.by_kind.get("result", 0) == 0

    def test_result_replicated_in_overlay(self):
        cfg = GridConfig(seed=7, result_return="pointer")
        grid = make_small_grid("rn-tree", n_nodes=20, cfg=cfg)
        client = grid.client("c")
        job = submit(grid, client, "replicated-result")
        grid.run_until_done(max_time=10000)
        from repro.match.storage import result_key

        holders = [n for n in grid.matchmaker.chord.live_nodes()
                   if result_key(job) in n.store]
        assert len(holders) == grid.matchmaker.result_replicas

    def test_centralized_falls_back_to_inline(self):
        cfg = GridConfig(seed=7, result_return="pointer")
        grid = make_small_grid("centralized", n_nodes=10, cfg=cfg)
        client = grid.client("c")
        job = submit(grid, client, "inline-fallback")
        assert grid.run_until_done(max_time=10000)
        assert job.state is JobState.COMPLETED
        assert grid.network.stats.by_kind.get("result-pointer", 0) == 0
        assert grid.network.stats.by_kind.get("result", 0) == 1

    def test_lost_replicas_trigger_resubmission(self):
        cfg = GridConfig(seed=7, result_return="pointer",
                         heartbeats_enabled=True, heartbeat_interval=1.0,
                         client_resubmit_enabled=True,
                         client_check_interval=5.0, client_timeout=15.0)
        grid = make_small_grid("rn-tree", n_nodes=16, cfg=cfg)
        client = grid.client("c")
        job = submit(grid, client, "fragile-result", work=20.0)

        # Sabotage: make every fetch fail once, then behave.
        real_fetch = grid.matchmaker.fetch_result
        state = {"fail": True}

        def flaky_fetch(j):
            if state["fail"]:
                return None, 2
            return real_fetch(j)

        grid.matchmaker.fetch_result = flaky_fetch
        grid.run(until=40.0)
        assert job.state is not JobState.COMPLETED  # pointer unresolved
        state["fail"] = False
        assert grid.run_until_done(max_time=20000)
        assert job.state is JobState.COMPLETED
        assert job.attempt >= 2  # the watchdog resubmitted

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            GridConfig(result_return="telepathy")


class TestInputStaging:
    def test_staging_extends_service_time(self):
        cfg = GridConfig(seed=7, staging_bandwidth_kbps=10.0)
        grid = make_small_grid(cfg=cfg, n_nodes=1)
        client = grid.client("c")
        # 100 KB in + 100 KB out at 10 KB/s = 20 s of staging on a 5 s job.
        job = submit(grid, client, "heavy-io", work=5.0,
                     input_size_kb=100.0, output_size_kb=100.0)
        grid.run_until_done(max_time=10000)
        service = job.finish_time - job.start_time
        assert service == pytest.approx(25.0, abs=1.0)

    def test_default_staging_negligible(self):
        grid = make_small_grid(n_nodes=1)
        client = grid.client("c")
        job = submit(grid, client, "tiny-io", work=5.0)
        grid.run_until_done(max_time=10000)
        assert job.finish_time - job.start_time == pytest.approx(5.0, abs=0.5)

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            GridConfig(staging_bandwidth_kbps=0.0)
