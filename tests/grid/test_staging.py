"""Input and output staging cost (``grid.node.STAGING_KBPS``)."""

import pytest

from repro.grid.job import Job, JobProfile, JobState
from repro.grid.node import STAGING_KBPS
from repro.grid.sandbox import SandboxPolicy
from repro.grid.system import GridConfig

from tests.conftest import make_small_grid


def submit(grid, client, name, work=10.0, **profile_kwargs):
    job = Job(profile=JobProfile(name=name, client_id=client.node_id,
                                 requirements=(0.0, 0.0, 0.0), work=work,
                                 **profile_kwargs))
    grid.submit_at(0.0, client, job)
    return job


class TestInputStaging:
    def test_staging_extends_service_time(self):
        # Quotas that admit the job's footprint.
        cfg = GridConfig(seed=7, sandbox=SandboxPolicy(
            disk_quota_kb=10_000.0, output_quota_kb=5_000.0))
        grid = make_small_grid(cfg=cfg, n_nodes=1)
        client = grid.client("c")
        # 5000 KB in + 5000 KB out at STAGING_KBPS = 10 s on a 5 s job.
        assert STAGING_KBPS == 1000.0
        job = submit(grid, client, "heavy-io", work=5.0,
                     input_size_kb=5_000.0, output_size_kb=5_000.0)
        grid.run_until_done(max_time=10000)
        assert job.state is JobState.COMPLETED
        service = job.finish_time - job.start_time
        assert service == pytest.approx(15.0, abs=1.0)

    def test_default_staging_negligible(self):
        grid = make_small_grid(n_nodes=1)
        client = grid.client("c")
        job = submit(grid, client, "tiny-io", work=5.0)
        grid.run_until_done(max_time=10000)
        assert job.finish_time - job.start_time == pytest.approx(5.0, abs=0.5)

    @pytest.mark.parametrize("in_kb, out_kb", [
        (1_000.0, 0.0), (0.0, 1_000.0), (2_500.0, 2_500.0)])
    def test_served_time_is_work_plus_staging(self, in_kb, out_kb):
        # Input is staged before the run and output after it; the node
        # is busy for both, at STAGING_KBPS whichever way the data goes.
        cfg = GridConfig(seed=7, sandbox=SandboxPolicy(
            disk_quota_kb=5_000.0, output_quota_kb=5_000.0))
        grid = make_small_grid(cfg=cfg, n_nodes=1)
        client = grid.client("c")
        job = submit(grid, client, "io", work=5.0,
                     input_size_kb=in_kb, output_size_kb=out_kb)
        grid.run_until_done(max_time=10000)
        assert job.state is JobState.COMPLETED
        (node,) = grid.node_list
        assert node.client_service[client.node_id] == pytest.approx(
            5.0 + (in_kb + out_kb) / STAGING_KBPS)

    def test_input_over_quota_is_refused_before_staging(self):
        # Admission checks the input against the disk quota before any
        # of it is staged: the job never runs and the node serves nothing.
        grid = make_small_grid(n_nodes=1)
        client = grid.client("c")
        quota = grid.cfg.sandbox.disk_quota_kb
        job = submit(grid, client, "bulky", work=5.0,
                     input_size_kb=2 * quota)
        grid.run_until_done(max_time=10000)
        assert job.state is JobState.FAILED
        assert "disk-quota" in job.failure_reason
        assert job.executions == 0
        (node,) = grid.node_list
        assert node.client_service == {}
