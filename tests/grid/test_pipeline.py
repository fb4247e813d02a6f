"""The two-phase matchmaking pipeline's protocol paths.

Covers the rpc probe mode (timeouts drop dead candidates), acknowledged
dispatch (ack timeout falls back to the next-ranked candidate long before
the heartbeat monitor sweep would react), and the determinism guarantee
that ``probe_mode="oracle"`` reproduces pre-pipeline results exactly.
"""

import pytest

from repro.experiments.figure2 import FIGURE2_SCENARIOS
from repro.experiments.runner import run_workload
from repro.grid.job import Job, JobProfile, JobState
from repro.grid.node import JobRecord
from repro.grid.system import GridConfig
from repro.match.select import CandidateSet

from tests.conftest import make_small_grid


def rpc_cfg(**overrides):
    defaults = dict(seed=7, probe_mode="rpc", probe_timeout=1.0)
    defaults.update(overrides)
    return GridConfig(**defaults)


def adopt_job(grid, owner, name="pipeline-job", work=5.0):
    """Fabricate a MATCHING job already owned by ``owner``."""
    client = grid.client(f"client-{name}")
    job = Job(profile=JobProfile(name=name, client_id=client.node_id,
                                 requirements=(0.0, 0.0, 0.0), work=work))
    job.owner_id = owner.node_id
    job.state = JobState.MATCHING
    grid.jobs[job.guid] = job
    client.pending[job.guid] = job  # so the result delivery completes it
    owner.owned[job.guid] = JobRecord(job, None, grid.sim.now)
    return job


class TestRpcProbes:
    def test_probe_timeout_drops_dead_candidate(self):
        grid = make_small_grid(cfg=rpc_cfg())
        owner, dead, live = grid.node_list[:3]
        job = adopt_job(grid, owner)
        dead.crash()
        # Phase 1 happened before the crash: the dead node is still listed.
        owner._probe_candidates(
            job, CandidateSet(candidates=[dead.node_id, live.node_id]),
            retries_left=0)
        grid.run(until=30.0)
        assert job.run_node_id == live.node_id
        assert grid.rpc.stats.timeouts >= 1
        assert job.state in (JobState.QUEUED, JobState.RUNNING,
                             JobState.COMPLETED)

    def test_probe_replies_pick_least_loaded(self):
        grid = make_small_grid(cfg=rpc_cfg())
        owner, busy, idle = grid.node_list[:3]
        busy.queue.append(Job(profile=JobProfile(
            name="ballast", client_id=1, requirements=(0.0, 0.0, 0.0),
            work=1e9)))
        job = adopt_job(grid, owner)
        owner._probe_candidates(
            job, CandidateSet(candidates=[busy.node_id, idle.node_id]),
            retries_left=0)
        grid.run(until=30.0)
        assert job.run_node_id == idle.node_id

    def test_all_candidates_dead_falls_back_to_retry(self):
        grid = make_small_grid(cfg=rpc_cfg(match_retries=0,
                                           match_retry_backoff=1.0))
        owner, dead = grid.node_list[:2]
        job = adopt_job(grid, owner)
        dead.crash()
        owner._probe_candidates(
            job, CandidateSet(candidates=[dead.node_id]), retries_left=0)
        grid.run(until=30.0)
        assert job.state is JobState.FAILED
        assert job.failure_reason == "no satisfying node found"


class TestAckDispatch:
    def test_ack_timeout_falls_back_within_one_rpc_timeout(self):
        cfg = rpc_cfg(dispatch_ack=True, heartbeats_enabled=True,
                      heartbeat_interval=5.0, heartbeat_miss_limit=3)
        sweep_timeout = cfg.heartbeat_interval * cfg.heartbeat_miss_limit
        grid = make_small_grid(cfg=cfg)
        owner, target, fallback = grid.node_list[:3]
        job = adopt_job(grid, owner)
        rec = owner.owned[job.guid]
        job.run_node_id = target.node_id
        rec.run_node_id = target.node_id
        target.crash()  # dies between probe and assign
        start = grid.sim.now
        owner._dispatch(job, [target.node_id, fallback.node_id])
        grid.run(until=start + sweep_timeout)
        # Recovered via the ack timeout, not the monitor sweep:
        assert job.run_node_id == fallback.node_id
        assert job.state is JobState.COMPLETED
        assert grid.metrics.recoveries["dispatch"] == 1
        latencies = grid.metrics.recovery_latencies["dispatch"]
        assert len(latencies) == 1
        assert latencies[0] < 0.25 * sweep_timeout
        # The whole fallback fit inside one rpc timeout (plus delivery).
        assert job.enqueue_time - start < cfg.probe_timeout + 1.0

    def test_ack_timeout_with_no_fallback_rematches(self):
        grid = make_small_grid(cfg=rpc_cfg(dispatch_ack=True))
        owner, target = grid.node_list[:2]
        job = adopt_job(grid, owner)
        rec = owner.owned[job.guid]
        job.run_node_id = target.node_id
        rec.run_node_id = target.node_id
        target.crash()
        owner._dispatch(job, [target.node_id])
        grid.run(until=60.0)
        # Re-entered matchmaking from scratch and completed elsewhere.
        assert job.state is JobState.COMPLETED
        assert job.run_node_id not in (None, target.node_id)
        assert grid.metrics.recoveries["dispatch"] == 1

    def test_ack_confirms_liveness(self):
        grid = make_small_grid(cfg=rpc_cfg(dispatch_ack=True))
        owner, target = grid.node_list[:2]
        job = adopt_job(grid, owner)
        rec = owner.owned[job.guid]
        job.run_node_id = target.node_id
        rec.run_node_id = target.node_id
        rec.last_heartbeat = -100.0
        owner._dispatch(job, [target.node_id])
        grid.run(until=30.0)
        assert job.state is JobState.COMPLETED
        assert rec.last_heartbeat > -100.0  # the ack refreshed it


class TestEndToEndRpcMode:
    def test_full_protocol_under_rpc_mode(self):
        cfg = rpc_cfg(dispatch_ack=True, heartbeats_enabled=True,
                      heartbeat_interval=2.0)
        grid = make_small_grid("rn-tree", n_nodes=12, cfg=cfg)
        client = grid.client("c")
        jobs = []
        for i in range(6):
            job = Job(profile=JobProfile(name=f"rpc-{i}",
                                         client_id=client.node_id,
                                         requirements=(0.0, 0.0, 0.0),
                                         work=10.0))
            grid.submit_at(float(i), client, job)
            jobs.append(job)
        assert grid.run_until_done(max_time=5000)
        assert all(j.state is JobState.COMPLETED for j in jobs)
        assert grid.rpc.stats.calls > 0
        assert grid.rpc.stats.replies > 0

    def test_monitor_sweep_uses_rpc_liveness_probe(self):
        cfg = rpc_cfg(dispatch_ack=False, heartbeats_enabled=True,
                      heartbeat_interval=1.0, heartbeat_miss_limit=2.5)
        grid = make_small_grid("rn-tree", n_nodes=12, cfg=cfg)
        client = grid.client("c")
        job = Job(profile=JobProfile(name="probed", client_id=client.node_id,
                                     requirements=(0.0, 0.0, 0.0), work=60.0))
        grid.submit_at(0.0, client, job)
        grid.run(until=10.0)
        assert job.state is JobState.RUNNING
        grid.crash_node(job.run_node_id)
        assert grid.run_until_done(max_time=5000)
        assert job.state is JobState.COMPLETED
        assert grid.metrics.recoveries["run-node"] >= 1
        # Confirmed by a has-job rpc, not an oracle peek.
        assert grid.rpc.stats.by_method.get("has-job", 0) >= 1


def recovery_cfg(**overrides):
    """rpc pipeline + heartbeats + tight recovery timers."""
    defaults = dict(dispatch_ack=True, heartbeats_enabled=True,
                    heartbeat_interval=2.0, heartbeat_miss_limit=2.0)
    defaults.update(overrides)
    return rpc_cfg(**defaults)


def submit_one(grid, work=60.0, name="df-job"):
    client = grid.client("c")
    job = Job(profile=JobProfile(name=name, client_id=client.node_id,
                                 requirements=(0.0, 0.0, 0.0), work=work))
    grid.submit_at(0.0, client, job)
    return client, job


class TestDoubleFailure:
    """§2's adversarial case: the owner *and* the run node go dark inside
    one probe round, so neither watchdog of the owner/runner pair can
    cover for the other."""

    def test_short_outage_recovers_from_stale_state(self):
        """Both partitioned, both heal before the client would give up:
        the healed owner's record and the healed runner's queue state are
        stale but self-consistent, and the protocol drains normally."""
        grid = make_small_grid("rn-tree", n_nodes=12, cfg=recovery_cfg())
        client, job = submit_one(grid, work=60.0)
        grid.run(until=8.0)
        assert job.state is JobState.RUNNING
        owner_id, run_id = job.owner_id, job.run_node_id
        assert owner_id != run_id
        # One probe round apart (0.25s << heartbeat_interval), per the
        # DoubleFailureInjector's schedule, then a short shared outage.
        grid.partition_node(owner_id)
        grid.sim.schedule(0.25, grid.partition_node, run_id)
        grid.sim.schedule(10.0, grid.heal_node, owner_id)
        grid.sim.schedule(10.25, grid.heal_node, run_id)
        assert grid.run_until_done(max_time=5000)
        assert job.state is JobState.COMPLETED
        done = [j.guid for j in grid.metrics.done]
        assert done.count(job.guid) == 1

    def test_long_outage_recovers_via_client_resubmission(self):
        """Both dark past the client timeout: only the client watchdog is
        left, and it must re-inject without double-accounting once the
        stale pair heals and its copy's result races the fresh one."""
        cfg = recovery_cfg(client_resubmit_enabled=True,
                           client_check_interval=5.0, client_timeout=20.0)
        grid = make_small_grid("rn-tree", n_nodes=12, cfg=cfg)
        client, job = submit_one(grid, work=60.0)
        grid.run(until=8.0)
        assert job.state is JobState.RUNNING
        owner_id, run_id = job.owner_id, job.run_node_id
        assert owner_id != run_id
        grid.partition_node(owner_id)
        grid.sim.schedule(0.25, grid.partition_node, run_id)
        grid.sim.schedule(90.0, grid.heal_node, owner_id)
        grid.sim.schedule(90.25, grid.heal_node, run_id)
        assert grid.run_until_done(max_time=5000)
        assert job.state is JobState.COMPLETED
        assert job.attempt >= 2          # the resubmission drove recovery
        assert grid.metrics.resubmissions >= 1
        # Exactly-once terminal accounting despite the duplicate copy.
        done = [j.guid for j in grid.metrics.done]
        assert done.count(job.guid) == 1
        # Let the healed pair's stale timers all fire; nothing may
        # un-complete the job.
        grid.run(until=grid.sim.now + 120.0)
        assert job.state is JobState.COMPLETED
        assert done.count(job.guid) == 1


class TestStaleOwnerHealRace:
    """Regression: a heal racing the heartbeat re-registration path let a
    stale owner's monitor sweep FAIL a job its replacement owner had
    already completed — the job was counted done twice (COMPLETED at the
    client, then FAILED by the zombie record)."""

    def test_healed_owner_discards_stale_record(self):
        grid = make_small_grid("rn-tree", n_nodes=12, cfg=recovery_cfg())
        client, job = submit_one(grid, work=30.0, name="stale-owner")
        grid.run(until=8.0)
        assert job.state is JobState.RUNNING
        owner_id = job.owner_id
        assert owner_id != job.run_node_id
        owner = grid.nodes[owner_id]
        # Deterministic schedule: partition the owner mid-run; the runner
        # recruits a replacement; the job completes under it; then the
        # old owner heals with its pre-outage record intact.
        grid.partition_node(owner_id)
        grid.sim.schedule(90.0, grid.heal_node, owner_id)
        assert grid.run_until_done(max_time=5000)
        assert job.state is JobState.COMPLETED
        assert job.owner_id != owner_id        # ownership moved
        assert grid.metrics.recoveries["owner"] >= 1
        # Past the heal plus several sweep periods: the stale record must
        # be discarded, not acted on.
        grid.run(until=200.0)
        assert job.state is JobState.COMPLETED, (
            "healed stale owner re-failed a completed job")
        assert job.guid not in owner.owned
        done = [j.guid for j in grid.metrics.done]
        assert done.count(job.guid) == 1
        assert grid.metrics.summary()["failed"] == 0.0

    def test_owner_fail_is_noop_on_terminal_job(self):
        """The terminal-transition guard itself: no path may flip a
        COMPLETED job to FAILED."""
        grid = make_small_grid(cfg=rpc_cfg())
        owner = grid.node_list[0]
        job = adopt_job(grid, owner)
        job.state = JobState.COMPLETED
        owner._owner_fail_job(job, "stale sweep")
        assert job.state is JobState.COMPLETED
        assert job.failure_reason is None
        assert job.guid not in owner.owned

    def test_owner_fail_is_noop_after_ownership_moved(self):
        grid = make_small_grid(cfg=rpc_cfg())
        old_owner, new_owner = grid.node_list[:2]
        job = adopt_job(grid, old_owner)
        job.owner_id = new_owner.node_id   # adoption moved the job
        old_owner._owner_fail_job(job, "stale sweep")
        assert job.state is not JobState.FAILED
        assert job.guid not in old_owner.owned


class TestOracleDeterminism:
    # Pre-pipeline reference values (mixed-heavy figure2 scenario at scale
    # 0.06, seed 1), captured before the refactor: the oracle pipeline
    # must reproduce the monolithic matchmakers bit-for-bit.
    GOLDEN = {
        "rn-tree": (76.67279548143944, 123.42356382890964,
                    16.926666666666666, 3.9466666666666668),
        "can": (52.286107279996855, 97.94099048173442,
                11.113333333333333, 8.713333333333333),
        "can-push": (31.340012950060547, 66.04078409865006,
                     11.879598662207357, 9.173913043478262),
        "centralized": (32.204981445840595, 68.98563308142036, 0.0, 0.0),
        "ttl-walk": (83.25811896114573, 121.93902743260028,
                     8.656666666666666, 0.0),
    }

    @pytest.mark.parametrize("matchmaker", sorted(GOLDEN))
    def test_oracle_mode_reproduces_prepipeline_numbers(self, matchmaker):
        scenario = FIGURE2_SCENARIOS["mixed-heavy"].scaled(0.06)
        out = run_workload(scenario, matchmaker, seed=1)
        s = out.summary
        wait_mean, wait_std, cost, probes = self.GOLDEN[matchmaker]
        assert s["wait_mean"] == wait_mean
        assert s["wait_std"] == wait_std
        assert s["match_cost_mean"] == cost
        assert s["probes_mean"] == probes
