"""Hot-path optimizations must not move a single bit of any experiment.

Two families of guarantees:

* **Golden fingerprints** — sha256 digests of full run outcomes captured
  on the *pre-optimization* tree (before batched RNG, slotted messages,
  cached counters, and heap compaction landed).  Matching them proves the
  optimized simulator replays the exact event history the original did.
* **Wheel == heap** — the timer wheel is checked against a heap-only
  reference kernel (``tests.conftest.HeapOnlySimulator``) that lives only
  in the test suite.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.experiments.runner import run_workload
from repro.grid.system import GridConfig
from repro.workloads.spec import FIGURE2_SCENARIOS

from tests.conftest import install_heap_only_kernel


def fingerprint(out) -> str:
    """sha256 over every numeric output a run produces."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(out.wait_times).tobytes())
    h.update(np.ascontiguousarray(out.match_costs).tobytes())
    h.update(json.dumps(out.node_exec_counts).encode())
    h.update(repr(out.sim_time).encode())
    h.update(repr(sorted(out.summary.items())).encode())
    return h.hexdigest()


def _workload():
    return FIGURE2_SCENARIOS["clustered-light"].scaled(0.04)


class TestPreOptimizationGoldens:
    """Digests captured on this repo immediately before the hot-path
    overhaul (same host/python/numpy as CI).  If one of these moves, an
    'optimization' changed simulated behavior — that is a bug, not a
    baseline refresh.

    One deliberate exception on record: the resubmission-enabled golden
    was re-pinned when LOST became a protocol-terminal state.  Under the
    old semantics a client-abandoned (LOST) job's stale queued copy
    could still *start*, overwriting LOST with RUNNING; the job then
    never settled and the pinned run silently burned to ``max_time``
    (sim_time 1e6, 19 zombie jobs).  That was a correctness bug, not
    behavior worth preserving; the re-pinned digest drains at
    sim_time 1000 with every job settled, and the test now asserts
    ``finished`` so the zombie regime cannot quietly return.  The other
    two goldens never exercise LOST (no client resubmission) and did
    not move.

    A second deliberate exception, in two steps so each digest change
    has one cause (ISSUE 16, DESIGN.md "Protocol timers").  Both
    heartbeat-on goldens moved; the bare-oracle golden (``3741fad4…``,
    no periodic task runs) did not.

    1. *Keyed jitter.*  Every node/client protocol timer used to draw
       its phase from one shared ``rng_protocol`` block sampler, so each
       timer's phase depended on how often every other timer had fired.
       Each now draws from its own ``KeyedUniform(seed, "protocol",
       GUID, role)`` stream: same distribution, different variates.
       heartbeats+rpc+ack ``c59ae088…`` → ``4e361f24…`` (kernel events
       56 859 → 57 813); centralized fair-share ``1efe1eca…`` →
       ``fbe302b2…`` (35 812 → 35 872).
    2. *Parking.*  A heartbeat/monitor/watchdog timer with nothing to
       do is no longer rescheduled, and the next job, owned record or
       submission re-arms it with a fresh stagger draw in
       ``[0, interval)`` instead of the phase it would have kept by
       ticking through the idle spell.  Heartbeat cadence per job is
       unchanged (``tests/grid/test_protocol_timers.py``); the idle
       firings are gone.  heartbeats+rpc+ack ``4e361f24…`` →
       ``2dd2110e…`` (57 813 → 52 689 events); centralized fair-share
       ``fbe302b2…`` → ``618740a3…`` (35 872 → 20 880).

    A third deliberate exception, again one digest change per cause
    (DESIGN.md "Reconstruction decisions", owner-failure detection).
    The bare-oracle golden (``3741fad4…``) runs no heartbeat and did
    not move.

    1. *No owner recovery for finished jobs.*  Client resubmission
       reuses the ``Job`` object, so a stale copy of an already
       COMPLETED job can stay queued on its old run node.  Its owner
       never acks it, and the run node's ack watch re-recruited an owner
       for it every ``miss_limit`` intervals: 1 113 owner recoveries in
       the heartbeats+rpc+ack run, none for a failed owner.  Finished
       jobs are now skipped.  heartbeats+rpc+ack ``2dd2110e…`` →
       ``187180b5…`` (52 689 → 51 019 events); the fair-share run had
       no such recovery and did not move.
    2. *Owner failure detected by failed heartbeat delivery.*  The owner
       no longer answers each heartbeat with an ``hb-ack``; the run node
       recruits a new owner when the network reports a heartbeat to the
       old one undeliverable.  Every run with heartbeats loses the ack
       half of its heartbeat traffic and those messages' latency draws.
       heartbeats+rpc+ack ``187180b5…`` → ``383a38de…`` (51 019 →
       36 479 events); centralized fair-share ``618740a3…`` →
       ``d961751a…`` (20 880 → 15 204).

    A fourth deliberate exception (DESIGN.md "Reconstruction decisions",
    the client's liveness signal).  The watchdog used to hear from a job
    only through an opt-in per-heartbeat ``status`` relay, so with
    resubmission on and the relay off it resubmitted healthy jobs: 417
    resubmissions and 18 LOST jobs in a fault-free run.  The owner now
    relays ``status`` at most once per ``client_check_interval`` per job
    whenever resubmission is on.  heartbeats+rpc+ack ``383a38de…`` →
    ``ead88868…`` (36 479 → 16 902 events; 0 resubmissions, 0 LOST).
    The bare-oracle and fair-share goldens do not enable resubmission
    and did not move."""

    def test_bare_oracle_run(self):
        out = run_workload(_workload(), "rn-tree", seed=7)
        assert fingerprint(out) == (
            "3741fad47dbd298adca98a3a805dd151f18995c49c34e7371e53f620c17c07bb")

    def test_heartbeats_rpc_ack_run(self):
        wl = _workload()
        cfg = GridConfig(seed=7, spec=wl.spec, heartbeats_enabled=True,
                         probe_mode="rpc", dispatch_ack=True,
                         client_resubmit_enabled=True)
        out = run_workload(wl, "rn-tree", seed=7, grid_cfg=cfg)
        assert out.finished  # the zombie-LOST regime burned to max_time
        assert fingerprint(out) == (
            "ead8886804662914fbd0fd6a17f0ba8fa7158dfd3aaa60a9c2cf772f059d9e6f")

    def test_heartbeats_rpc_ack_run_with_tracing(self):
        """Causal tracing must not move the golden either: trace-context
        propagation rides the same messages and draws no randomness."""
        from repro.telemetry import Telemetry

        wl = _workload()
        cfg = GridConfig(seed=7, spec=wl.spec, heartbeats_enabled=True,
                         probe_mode="rpc", dispatch_ack=True,
                         client_resubmit_enabled=True)
        tel = Telemetry(sample_interval=10.0)
        out = run_workload(wl, "rn-tree", seed=7, grid_cfg=cfg,
                           telemetry=tel)
        assert fingerprint(out) == (
            "ead8886804662914fbd0fd6a17f0ba8fa7158dfd3aaa60a9c2cf772f059d9e6f")
        assert len(tel.bus) > 0

    def test_centralized_fair_share_run(self):
        wl = _workload()
        cfg = GridConfig(seed=3, spec=wl.spec, queue_discipline="fair-share",
                         heartbeats_enabled=True)
        out = run_workload(wl, "centralized", seed=3, grid_cfg=cfg)
        assert fingerprint(out) == (
            "d961751ab7181f5c52da9d8e050a908fac3c097f96281391f6a7948cbe8d1840")


class TestMitigationKnobsDefaultOff:
    """The three mitigation knobs (speculative re-execution, hot-owner
    replication, admission control) must be bit-identical no-ops when
    off: their code paths draw no RNG and send no messages unless the
    flag is set.  Running the pinned golden configs with every knob
    *explicitly* disabled must reproduce the exact digests — the A/B
    proof that adding the knobs changed nothing by default."""

    KNOBS_OFF = {"speculative": False, "replicate": False,
                 "admission": False}

    def test_bare_oracle_with_knobs_explicitly_off(self):
        out = run_workload(_workload(), "rn-tree", seed=7,
                           grid_overrides=dict(self.KNOBS_OFF))
        assert fingerprint(out) == (
            "3741fad47dbd298adca98a3a805dd151f18995c49c34e7371e53f620c17c07bb")

    def test_recovery_protocol_with_knobs_explicitly_off(self):
        wl = _workload()
        cfg = GridConfig(seed=7, spec=wl.spec, heartbeats_enabled=True,
                         probe_mode="rpc", dispatch_ack=True,
                         client_resubmit_enabled=True, **self.KNOBS_OFF)
        out = run_workload(wl, "rn-tree", seed=7, grid_cfg=cfg)
        assert fingerprint(out) == (
            "ead8886804662914fbd0fd6a17f0ba8fa7158dfd3aaa60a9c2cf772f059d9e6f")

    def test_fair_share_with_knobs_explicitly_off(self):
        wl = _workload()
        cfg = GridConfig(seed=3, spec=wl.spec, queue_discipline="fair-share",
                         heartbeats_enabled=True, **self.KNOBS_OFF)
        out = run_workload(wl, "centralized", seed=3, grid_cfg=cfg)
        assert fingerprint(out) == (
            "d961751ab7181f5c52da9d8e050a908fac3c097f96281391f6a7948cbe8d1840")


class TestTimerWheelEquivalence:
    """The wheel is a data-structure swap, not a semantics change: wheel
    timers carry the same global sequence numbers as heap events, so the
    (time, seq) firing order — and with it every RNG draw — is identical
    on the heap-only reference kernel."""

    def test_wheel_disabled_matches_committed_golden(self, monkeypatch):
        """The heap-only path must still reproduce the pre-optimization
        golden — the strongest statement that the wheel changed nothing."""
        install_heap_only_kernel(monkeypatch)
        wl = _workload()
        cfg = GridConfig(seed=7, spec=wl.spec,
                         heartbeats_enabled=True, probe_mode="rpc",
                         dispatch_ack=True, client_resubmit_enabled=True)
        out = run_workload(wl, "rn-tree", seed=7, grid_cfg=cfg)
        assert fingerprint(out) == (
            "ead8886804662914fbd0fd6a17f0ba8fa7158dfd3aaa60a9c2cf772f059d9e6f")

    def test_heartbeat_aggregation_golden_n150(self, monkeypatch):
        """Batched per-node heartbeat sweeps under churn at N=150: the
        traced wheel run and the plain-heap run must agree bit-for-bit on
        every job's fate — including which jobs FAILED — and on the full
        metrics summary.  This is the lazy-aggregation golden: per-job
        ``last_heartbeat`` semantics survive the batch sweep exactly."""
        from repro.experiments.runner import build_population, drive
        from repro.grid.job import JobState
        from repro.grid.system import DesktopGrid
        from repro.match import make_matchmaker
        from repro.sim.failure import CrashRecoveryProcess
        from repro.telemetry import Telemetry
        from repro.workloads.spec import WorkloadConfig

        # Heavily constrained mixed workload + deep churn: some matches
        # exhaust their retries while the rare satisfying nodes are down,
        # so the run produces genuine FAILED jobs alongside COMPLETED.
        wl = WorkloadConfig(n_nodes=150, n_jobs=250, mean_interarrival=1.0,
                            mean_work=120.0, node_mode="mixed",
                            job_mode="mixed", constraint_prob=0.95)

        def states() -> tuple[str, list[tuple[str, str]], int]:
            nodes, stream = build_population(wl, seed=11)
            cfg = GridConfig(seed=11, spec=wl.spec,
                             heartbeats_enabled=True,
                             client_resubmit_enabled=True,
                             client_max_attempts=2, match_retries=1,
                             match_retry_backoff=5.0)
            tel = Telemetry(sample_interval=25.0)
            grid = DesktopGrid(cfg, make_matchmaker("rn-tree"), nodes,
                               telemetry=tel)
            CrashRecoveryProcess(grid.sim, grid.streams["churn"],
                                 [n.node_id for n in grid.node_list],
                                 crash_fn=grid.crash_node,
                                 recover_fn=grid.recover_node,
                                 mean_uptime=100.0, mean_downtime=150.0)
            drive(grid, wl, stream, max_time=5000.0)
            fates = sorted((j.guid, j.state.name)
                           for j in grid.jobs.values())
            summary = repr(sorted(grid.metrics.summary().items()))
            assert len(tel.bus) > 0
            return summary, fates, grid.sim._wheel.timers_scheduled

        wheel_summary, wheel_fates, wheel_timers = states()
        install_heap_only_kernel(monkeypatch)
        heap_summary, heap_fates, heap_timers = states()
        assert wheel_timers > 0 and heap_timers == 0
        assert wheel_fates == heap_fates
        assert wheel_summary == heap_summary
        # The run must actually exercise both terminal paths, or the
        # equivalence claim is vacuous.
        outcomes = {state for _, state in wheel_fates}
        assert JobState.COMPLETED.name in outcomes
        assert JobState.FAILED.name in outcomes
