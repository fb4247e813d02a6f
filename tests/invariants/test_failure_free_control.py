"""Failure-free control: with every recovery mechanism armed and no
fault injected, no recovery may fire.

PAPER.md §2 names one recovery mechanism per failure — the owner
re-matches when a run node dies, the run node recruits a new owner when
the owner dies — so a recovery counted in a run where nothing failed is
a protocol bug, not a result.  The cell is the ``rack_faults`` bench
population scaled down, with the ``correlated_failure`` scenario's
protocol settings plus rpc probes and acked dispatch, but without its
fault plan.

Resubmissions are deliberately not asserted: the client watchdog still
fires on healthy jobs whose liveness it cannot see (ROADMAP item 1).
"""

from __future__ import annotations

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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_recovery_without_a_fault(seed):
    scenario = get_scenario("correlated_failure")
    wl = _rack_population()
    nodes, stream = build_population(wl, seed)
    stream = scenario.shaped_stream(stream, seed)
    cfg = GridConfig(seed=seed, spec=wl.spec, **scenario.grid_overrides,
                     probe_mode="rpc", dispatch_ack=True)
    grid = DesktopGrid(cfg, make_matchmaker("rn-tree"), nodes)
    # No scenario.install_faults(grid): this is the fault-free control.
    assert drive(grid, wl, stream, max_time=60_000.0)
    s = grid.metrics.summary()
    assert s["recoveries_owner"] == 0, s
    assert s["recoveries_run_node"] == 0, s
