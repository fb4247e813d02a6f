"""Experiment drivers at miniature scale: structure and qualitative shapes.

The full-size shape checks run in the benchmark harness; here we assert
the drivers produce complete, well-formed results and the robust subset
of the qualitative claims at tiny scale (fast enough for CI).
"""

import math

import pytest

from repro.experiments import (
    run_churn_experiment,
    run_dht_scaling,
    run_fairness_experiment,
    run_figure2,
    run_hops_experiment,
    run_k_sweep_ablation,
    run_matchpipe_ablation,
    run_pushing_experiment,
    run_ttl_ablation,
    run_virtual_dimension_ablation,
    run_workload,
)
from repro.experiments.churn import ChurnConfig
from repro.experiments.matchpipe import MatchPipeConfig
from repro.experiments.figure2 import FIGURE2_MATCHMAKERS
from repro.workloads.spec import FIGURE2_SCENARIOS


SCALE = 0.06  # 60 nodes / 300 jobs: seconds per run


class TestRunner:
    def test_run_workload_summary_complete(self):
        wl = FIGURE2_SCENARIOS["clustered-light"].scaled(SCALE)
        outcome = run_workload(wl, "centralized", seed=1)
        assert outcome.finished
        assert outcome.summary["completed"] == wl.n_jobs
        assert outcome.wait_times.size == wl.n_jobs
        assert not math.isnan(outcome.summary["wait_mean"])

    def test_same_seed_reproduces(self):
        wl = FIGURE2_SCENARIOS["mixed-light"].scaled(SCALE)
        a = run_workload(wl, "rn-tree", seed=2)
        b = run_workload(wl, "rn-tree", seed=2)
        assert a.summary == b.summary

    def test_workload_identical_across_matchmakers(self):
        # The A/B discipline: same seed => same population and stream.
        from repro.experiments.runner import build_population

        wl = FIGURE2_SCENARIOS["mixed-heavy"].scaled(SCALE)
        nodes_a, jobs_a = build_population(wl, seed=3)
        nodes_b, jobs_b = build_population(wl, seed=3)
        assert nodes_a == nodes_b
        assert jobs_a == jobs_b


class TestFigure2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure2(scale=SCALE, seeds=(1,))

    def test_all_cells_present(self, result):
        for scenario in FIGURE2_SCENARIOS:
            for mm in FIGURE2_MATCHMAKERS:
                cell = result.values[scenario][mm]
                assert cell["completed"] > 0
                assert not math.isnan(cell["wait_mean"])

    def test_report_renders_four_panels(self, result):
        report = result.report()
        for panel in ("2(a)", "2(b)", "2(c)", "2(d)"):
            assert panel in report

    def test_centralized_is_the_target(self, result):
        v = result.values
        for scenario in FIGURE2_SCENARIOS:
            assert v[scenario]["centralized"]["wait_mean"] < \
                v[scenario]["can"]["wait_mean"]
            assert v[scenario]["centralized"]["wait_mean"] < \
                v[scenario]["rn-tree"]["wait_mean"]

    def test_can_pathology_emerges_with_scale(self):
        # The mixed/lightly-constrained CAN collapse is a *locality*
        # phenomenon: it needs enough nodes that neighbor sets cover only
        # a small patch of the space.  At 1/10 scale it is unmistakable.
        from repro.experiments.runner import run_workload

        wl = FIGURE2_SCENARIOS["mixed-light"].scaled(0.1)
        can = run_workload(wl, "can", seed=1).summary
        rnt = run_workload(wl, "rn-tree", seed=1).summary
        cent = run_workload(wl, "centralized", seed=1).summary
        assert can["wait_mean"] > 2.0 * rnt["wait_mean"]
        assert can["wait_mean"] > 5.0 * cent["wait_mean"]


class TestHops:
    def test_costs_small_and_reported(self):
        result = run_hops_experiment(scale=SCALE)
        assert len(result.rows) == 8  # 4 scenarios x 2 matchmakers
        checks = result.shape_checks()
        assert all(checks.values()), checks
        assert "Matchmaking cost" in result.report()


class TestPushing:
    def test_push_improves_pathology(self):
        result = run_pushing_experiment(scale=SCALE, seeds=(1,))
        assert result.by_mm["can-push"]["wait_mean"] < \
            result.by_mm["can"]["wait_mean"]
        assert result.by_mm["can-push"]["pushes_mean"] > 0


class TestChurn:
    def test_p2p_beats_client_server(self):
        cc = ChurnConfig(n_nodes=50, n_jobs=120, max_time=20000.0)
        result = run_churn_experiment(cc, seeds=(1,),
                                      systems=("p2p/rn-tree", "client-server"))
        p2p = result.by_system["p2p/rn-tree"]
        srv = result.by_system["client-server"]
        assert p2p["completed_frac"] > 0.9
        assert p2p["recoveries_run_node"] + p2p["recoveries_owner"] > 0
        assert srv["resubmissions"] >= p2p["resubmissions"]
        assert "Robustness under churn" in result.report()


class TestMatchPipe:
    def test_policy_and_mode_sweep(self):
        cc = MatchPipeConfig(n_nodes=50, n_jobs=100, max_time=20000.0)
        result = run_matchpipe_ablation(cc, seeds=(1,))
        assert len(result.by_cell) == 6  # 2 probe modes x 3 policies
        for cell in result.by_cell.values():
            assert cell["completed_frac"] > 0.9
        # Probing beats blind placement in both probe modes.
        for mode in ("oracle", "rpc"):
            assert result.by_cell[(mode, "least-loaded")]["wait_mean"] \
                < result.by_cell[(mode, "random")]["wait_mean"]
        # random never probes; least-loaded probes every candidate.
        assert result.by_cell[("rpc", "random")]["probes_mean"] == 0.0
        assert result.by_cell[("rpc", "least-loaded")]["probes_mean"] > 0
        assert "Matchmaking pipeline ablation" in result.report()


class TestDHTScaling:
    def test_sublinear_growth(self):
        result = run_dht_scaling(sizes=(32, 64, 128), lookups=60)
        checks = result.shape_checks()
        assert all(checks.values()), checks
        assert "chord" in result.report()

    def test_budget_guard_records_not_fails(self):
        # An impossible budget flags every cell OVER — but the run still
        # returns full data (recording, not failing, is the contract).
        result = run_dht_scaling(sizes=(32, 64), lookups=20,
                                 cell_budget_s=1e-9)
        assert result.over_budget == [True, True]
        assert all(w > 0 for w in result.wall_s)
        assert len(result.mean_hops["chord"]) == 2
        assert "OVER" in result.report()

    def test_within_budget_reports_ok(self):
        result = run_dht_scaling(sizes=(32,), lookups=20)
        assert result.over_budget == [False]
        assert "OVER" not in result.report()


class TestAblations:
    def test_virtual_dimension(self):
        result = run_virtual_dimension_ablation(scale=SCALE)
        assert result.clustered_construction_fails
        checks = result.shape_checks()
        assert checks["vdim_improves_identical_jobs"], result.rows

    def test_k_sweep_monotone_cost(self):
        result = run_k_sweep_ablation(ks=(1, 4), scale=SCALE)
        checks = result.shape_checks()
        assert checks["larger_k_costlier"]
        assert checks["larger_k_better_balance"]

    def test_ttl_misses(self):
        result = run_ttl_ablation(scale=SCALE, ttl=4)
        checks = result.shape_checks()
        assert checks["structured_finds_all"]
        assert checks["ttl_misses_feasible_jobs"]


class TestFairness:
    def test_fair_share_helps_light_user(self):
        result = run_fairness_experiment(n_nodes=30, heavy_jobs=150,
                                         light_jobs=15)
        fifo = result.by_discipline["fifo"]
        fair = result.by_discipline["fair-share"]
        assert fair["light_slowdown"] < fifo["light_slowdown"]


class TestScaling:
    def test_cost_sublinear_and_wait_flat(self):
        from repro.experiments import run_scaling_experiment

        result = run_scaling_experiment(sizes=(48, 96), seed=2)
        checks = result.shape_checks()
        assert all(checks.values()), checks
        assert "scalability" in result.report()


class TestScenarios:
    SMALL = None  # built lazily; ScenariosConfig import kept local

    @classmethod
    def config(cls):
        from repro.experiments.scenarios import ScenariosConfig
        if cls.SMALL is None:
            cls.SMALL = ScenariosConfig(n_nodes=32, n_jobs=80,
                                        max_time=30_000.0)
        return cls.SMALL

    def test_sweep_cells_complete_and_reported(self):
        from repro.experiments import run_scenarios_experiment

        result = run_scenarios_experiment(
            config=self.config(),
            scenarios=("baseline", "flash_crowd", "double_failure"))
        assert set(result.by_cell) == {
            (s, m) for s in result.scenarios for m in result.mitigations}
        assert all(c["finished"] == 1.0 for c in result.by_cell.values())
        report = result.report()
        for name in result.scenarios:
            assert name in report
        checks = result.shape_checks()
        assert checks["all_cells_finished"]
        assert checks["baseline_completes"]

    def test_serial_parallel_bit_identical(self):
        from repro.experiments import run_scenarios_experiment

        kwargs = dict(config=self.config(),
                      scenarios=("baseline", "correlated_failure"))
        serial = run_scenarios_experiment(jobs=1, **kwargs)
        par = run_scenarios_experiment(jobs=2, **kwargs)
        assert serial.fingerprints == par.fingerprints
        assert serial.fingerprints  # non-vacuous

    def test_unknown_mitigation_rejected(self):
        from repro.experiments import run_scenarios_experiment

        with pytest.raises(KeyError, match="unknown mitigation"):
            run_scenarios_experiment(config=self.config(),
                                     scenarios=("baseline",),
                                     mitigations=("turbo",))

    def test_cell_is_deterministic(self):
        from repro.experiments.scenarios import run_scenario_cell

        a = run_scenario_cell(self.config(), "double_failure", "mitigated", 5)
        b = run_scenario_cell(self.config(), "double_failure", "mitigated", 5)
        assert a == b
