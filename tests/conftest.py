"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.system import DesktopGrid, GridConfig
from repro.match import make_matchmaker
from repro.sim.kernel import Simulator
from repro.sim.network import LatencyModel, Network
from repro.workloads.nodes import generate_nodes
from repro.workloads.spec import WorkloadConfig


class HeapOnlySimulator(Simulator):
    """Reference kernel with no timer wheel: every timer waits on the
    plain event heap.

    Wheel timers take the same global sequence numbers as heap events,
    so this kernel must fire everything in the same (time, seq) order as
    the real one; the equivalence tests run workloads on both and compare
    the bits.
    """

    def schedule_timer(self, delay, fn, *args):
        return self.schedule(delay, fn, *args)

    def reschedule_timer(self, timer, delay, fn):
        return self.schedule(delay, fn)


def install_heap_only_kernel(monkeypatch) -> None:
    """Build every subsequent :class:`DesktopGrid` on :class:`HeapOnlySimulator`."""
    monkeypatch.setattr("repro.grid.system.Simulator", HeapOnlySimulator)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def network(sim, rng) -> Network:
    # Deterministic latency keeps protocol-timing tests exact.
    return Network(sim, rng, LatencyModel(mean=0.01, jitter=0.0))


def make_small_grid(matchmaker_name: str = "centralized", n_nodes: int = 16,
                    seed: int = 7, node_mode: str = "mixed",
                    cfg: GridConfig | None = None, **mm_kwargs) -> DesktopGrid:
    """A small ready-to-use grid for protocol tests."""
    workload = WorkloadConfig(n_nodes=n_nodes, node_mode=node_mode)
    nodes = generate_nodes(workload, np.random.default_rng(seed))
    grid_cfg = cfg if cfg is not None else GridConfig(seed=seed)
    return DesktopGrid(grid_cfg, make_matchmaker(matchmaker_name, **mm_kwargs),
                       nodes)


@pytest.fixture
def small_grid() -> DesktopGrid:
    return make_small_grid()
