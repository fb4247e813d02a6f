"""Property-based invariant harness over the adversarial scenario packs.

Instead of pinning one golden trajectory, these tests run *randomized*
(scenario, seed, mitigation) cells through the full protocol stack and
assert properties that must hold on **every** trajectory:

* **Terminal-state totality** — a drained run leaves every job in a
  terminal state (COMPLETED / FAILED / LOST); a truncated run is flagged
  loudly (``finished`` False) rather than silently reported.
* **Terminal exclusivity** — no job is accounted done twice: the client
  delivers each job to the metrics layer exactly once, so a job can
  never be counted both FAILED and COMPLETED (the double-count bug the
  heal/heartbeat race used to cause).
* **Registry consistency** — the columnar :class:`NodeRegistry` mirrors
  (alive / queue_len / jobs_executed / busy_time) agree with a per-node
  scan after arbitrary crash/partition/heal interleavings.
* **Span-tree well-formedness** — the telemetry timeline reconstructs
  with no orphan spans, and on a drained run every traced job carries a
  terminal event.
* **Wheel == heap** — the timer-wheel kernel and the heap-only
  reference kernel (``tests.conftest.HeapOnlySimulator``) produce
  identical per-job fates under correlated fault patterns.

The cell grid is sampled from a fixed-seed RNG at collection time, so
"randomized" is still reproducible run to run.  Everything here is
marked ``invariants``; cells are sized so the whole module stays in the
single-digit seconds and tier-1 stays fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runner import build_population, drive
from repro.grid.job import JobState
from repro.grid.system import DesktopGrid, GridConfig
from repro.match import make_matchmaker
from repro.scenarios import get_scenario, scenario_names
from repro.telemetry import Telemetry
from repro.telemetry.timeline import timeline_from_bus
from repro.workloads.spec import WorkloadConfig

from tests.conftest import install_heap_only_kernel

pytestmark = pytest.mark.invariants

#: Mitigation overrides some cells run with (thresholds tightened so the
#: knobs actually engage at this tiny scale).
MITIGATED = {
    "speculative": True, "speculative_threshold": 4.0,
    "replicate": True, "replicate_threshold": 3,
    "admission": True, "admission_quota": 32,
}

TERMINAL = (JobState.COMPLETED, JobState.FAILED, JobState.LOST)


def _workload(n_nodes: int = 24, n_jobs: int = 60) -> WorkloadConfig:
    mean_work = 40.0
    return WorkloadConfig(
        n_nodes=n_nodes, n_jobs=n_jobs, node_mode="mixed", job_mode="mixed",
        constraint_prob=0.3, mean_work=mean_work,
        mean_interarrival=mean_work / (0.5 * n_nodes),
    )


def run_and_check(scenario_name: str, seed: int, *, mitigated: bool = False,
                  max_time: float = 30_000.0,
                  n_nodes: int = 24, n_jobs: int = 60) -> DesktopGrid:
    """Run one scenario cell end to end and assert every invariant.

    Returns the drained grid so callers can make extra assertions.
    """
    scenario = get_scenario(scenario_name)
    wl = _workload(n_nodes, n_jobs)
    nodes, stream = build_population(wl, seed)
    stream = scenario.shaped_stream(stream, seed)
    overrides = dict(scenario.grid_overrides)
    if mitigated:
        overrides.update(MITIGATED)
    cfg = GridConfig(seed=seed, spec=wl.spec, **overrides)
    tel = Telemetry(sample_interval=100.0)
    grid = DesktopGrid(cfg, make_matchmaker("rn-tree"), nodes, telemetry=tel)
    scenario.install_faults(grid)
    finished = drive(grid, wl, stream, max_time=max_time)
    check_invariants(grid, finished, tel)
    return grid


def check_invariants(grid: DesktopGrid, finished: bool,
                     tel: Telemetry | None = None) -> None:
    """The properties every trajectory must satisfy."""
    jobs = list(grid.jobs.values())

    # -- terminal-state totality (or a loud truncation flag) --------------
    # A truncated run (finished=False) may leave jobs in flight; that is
    # the loud flag.  A *drained* run may not.
    if finished:
        stuck = [j for j in jobs if j.state not in TERMINAL]
        assert not stuck, (
            f"drained run left non-terminal jobs: {stuck[:5]}")

    # -- terminal exclusivity: each job accounted done exactly once -------
    done = grid.metrics.done
    done_guids = [j.guid for j in done]
    assert len(done_guids) == len(set(done_guids)), (
        "a job was delivered to the metrics layer twice — it was counted "
        "under two terminal states (e.g. both FAILED and COMPLETED)")
    for j in done:
        assert j.state in TERMINAL, (
            f"{j!r} sits in metrics.done but is not terminal — a terminal "
            "state was overwritten after accounting")
    s = grid.metrics.summary()
    assert s["completed"] + s["failed"] + s["lost"] == s["jobs_done"]
    if finished:
        # Every grid job settled through the client exactly once.
        # (done may be larger: admission-rejected jobs are accounted
        # without ever entering grid.jobs.)
        accounted = {id(j) for j in done}
        missing = [j for j in jobs if id(j) not in accounted]
        assert not missing, (
            f"settled jobs never reached the metrics layer: {missing[:5]}")

    # -- columnar registry mirrors stay exact -----------------------------
    problems = grid.registry.check_consistency()
    assert problems == [], f"registry drift: {problems[:5]}"

    # -- span-tree well-formedness ----------------------------------------
    if tel is not None:
        tl = timeline_from_bus(tel.bus)
        a = tl.anomalies()
        assert a["orphan_spans"] == 0, a
        assert a["truncated_records"] == 0, a
        if finished:
            assert a["jobs_without_terminal"] == 0, a


def _sample_cells(n: int = 20) -> list[tuple[str, int, bool]]:
    """Deterministically sample n randomized (scenario, seed, mitigated)
    cells, round-robin over the catalog so every scenario is covered at
    least twice at n=20."""
    names = scenario_names()
    rng = np.random.default_rng(20260808)
    cells: list[tuple[str, int, bool]] = []
    for i in range(n):
        seed = int(rng.integers(1, 100_000))
        mitigated = bool(rng.integers(0, 2))
        cells.append((names[i % len(names)], seed, mitigated))
    return cells


CELLS = _sample_cells(20)


class TestRandomizedCells:
    @pytest.mark.parametrize(
        "scenario,seed,mitigated", CELLS,
        ids=[f"{s}-s{seed}-{'mit' if m else 'bare'}"
             for s, seed, m in CELLS])
    def test_invariants_hold(self, scenario, seed, mitigated):
        run_and_check(scenario, seed, mitigated=mitigated)


class TestTruncationIsLoud:
    def test_truncated_run_flags_not_asserts(self):
        """A run cut off mid-flight reports finished=False; the harness
        accepts in-flight jobs then, but still checks exclusivity and
        registry consistency."""
        scenario = get_scenario("correlated_failure")
        wl = _workload()
        nodes, stream = build_population(wl, 5)
        cfg = GridConfig(seed=5, spec=wl.spec, **scenario.grid_overrides)
        grid = DesktopGrid(cfg, make_matchmaker("rn-tree"), nodes)
        scenario.install_faults(grid)
        finished = drive(grid, wl, stream, max_time=50.0)
        assert not finished
        check_invariants(grid, finished)


class TestWheelHeapEquivalence:
    """The timer wheel must not change a single job's fate even under
    correlated fault patterns (mass cancels on rack crashes, partition
    heals re-arming heartbeats, double-failure adoption races)."""

    @pytest.mark.parametrize("scenario", ["correlated_failure",
                                          "partition_storm",
                                          "double_failure"])
    def test_fates_identical(self, scenario, monkeypatch):
        def fates():
            grid = run_and_check(scenario, 1234)
            return (sorted((g, j.state.name, j.attempt)
                           for g, j in grid.jobs.items()),
                    repr(sorted(grid.metrics.summary().items())))

        wheel = fates()
        install_heap_only_kernel(monkeypatch)
        assert fates() == wheel
