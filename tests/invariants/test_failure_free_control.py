"""Failure-free control: with every recovery mechanism armed and no
fault injected, no recovery may fire.

PAPER.md §2 names one recovery mechanism per failure — the owner
re-matches when a run node dies, the run node recruits a new owner when
the owner dies, and the client resubmits only when both die before
either recovers — so a recovery, resubmission or LOST job counted in a
run where nothing failed is a protocol bug, not a result.  The cell is
the ``rack_faults`` bench population scaled down, with the
``correlated_failure`` scenario's protocol settings plus rpc probes and
acked dispatch, but without its fault plan.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro.experiments.runner import build_population, drive
from repro.grid.system import DesktopGrid, GridConfig
from repro.match import make_matchmaker
from repro.scenarios import get_scenario
from repro.workloads.spec import WorkloadConfig

pytestmark = pytest.mark.invariants


def _rack_population(n_nodes: int = 64, n_jobs: int = 320) -> WorkloadConfig:
    """``rack_faults``' workload shape at a smaller size."""
    return WorkloadConfig(
        n_nodes=n_nodes, n_jobs=n_jobs, node_mode="mixed", job_mode="mixed",
        constraint_prob=0.4, mean_work=60.0,
        mean_interarrival=60.0 / (0.5 * n_nodes))


def _control_cell(seed: int, **overrides):
    """The control cell, built but not yet driven: ``(grid, wl, stream)``."""
    scenario = get_scenario("correlated_failure")
    wl = _rack_population()
    nodes, stream = build_population(wl, seed)
    stream = scenario.shaped_stream(stream, seed)
    cfg = GridConfig(seed=seed, spec=wl.spec, **{
        **scenario.grid_overrides, "probe_mode": "rpc",
        "dispatch_ack": True, **overrides})
    grid = DesktopGrid(cfg, make_matchmaker("rn-tree"), nodes)
    # No scenario.install_faults(grid): this is the fault-free control.
    return grid, wl, stream


@pytest.mark.parametrize("seed", range(1, 11))
def test_no_recovery_without_a_fault(seed):
    grid, wl, stream = _control_cell(seed)
    assert drive(grid, wl, stream, max_time=60_000.0)
    s = grid.metrics.summary()
    assert s["recoveries_owner"] == 0, s
    assert s["recoveries_run_node"] == 0, s
    assert s["resubmissions"] == 0, s
    assert s["lost"] == 0, s


@pytest.mark.parametrize("seed", [1, 2])
def test_status_rate_bounded_by_check_interval(seed):
    """The owner relays ``status`` at most once per check interval, so a
    job hears at most ⌈(wait + run) / client_check_interval⌉ + 1 of
    them, not one per heartbeat."""
    grid, wl, stream = _control_cell(seed)
    sent: Counter[int] = Counter()
    send = grid.network.send

    def counting_send(kind, src, dst, payload=None, **kw):
        if kind == "status":
            sent[payload] += 1
        return send(kind, src, dst, payload, **kw)

    grid.network.send = counting_send
    assert drive(grid, wl, stream, max_time=60_000.0)
    assert sent, "resubmission is on, yet no status was relayed"
    interval = grid.cfg.client_check_interval
    for job in grid.jobs.values():
        turnaround = job.finish_time - job.submit_time  # wait + run
        assert sent[job.guid] <= math.ceil(turnaround / interval) + 1, job


def test_no_status_without_resubmission():
    grid, wl, stream = _control_cell(1, client_resubmit_enabled=False)
    assert drive(grid, wl, stream, max_time=60_000.0)
    assert "status" not in grid.network.stats.by_kind
