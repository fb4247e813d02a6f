"""Telemetry must observe the simulation without perturbing it.

The contract: every instrumentation point only *reads* state, draws no
RNG, and adds nothing to virtual time, so a run with the full stack
attached is bit-identical to a bare run with the same seed.
"""

import numpy as np

from repro.experiments.runner import run_workload
from repro.telemetry import Telemetry, load_jsonl
from repro.workloads.spec import FIGURE2_SCENARIOS

SCALE = 0.04


def _outcome(telemetry=None):
    wl = FIGURE2_SCENARIOS["clustered-light"].scaled(SCALE)
    return run_workload(wl, "rn-tree", seed=7, telemetry=telemetry)


class TestDeterminism:
    def test_telemetry_does_not_perturb_results(self):
        bare = _outcome()
        tel = Telemetry(sample_interval=10.0)
        traced = _outcome(telemetry=tel)
        np.testing.assert_array_equal(bare.wait_times, traced.wait_times)
        np.testing.assert_array_equal(bare.match_costs, traced.match_costs)
        assert bare.node_exec_counts == traced.node_exec_counts
        assert bare.sim_time == traced.sim_time
        assert bare.summary == traced.summary

    def test_two_traced_runs_identical(self):
        t1, t2 = (Telemetry(sample_interval=10.0) for _ in range(2))
        a = _outcome(telemetry=t1)
        b = _outcome(telemetry=t2)
        np.testing.assert_array_equal(a.wait_times, b.wait_times)
        assert [r.to_dict() for r in t1.bus.records] \
            == [r.to_dict() for r in t2.bus.records]
        assert t1.metrics.snapshot() == t2.metrics.snapshot()

    def test_traced_rpc_run_bit_identical_to_bare(self):
        """Causal propagation rides real probe/dispatch RPCs — the mode
        with the most instrumentation sites must still be untouched."""
        wl = FIGURE2_SCENARIOS["clustered-light"].scaled(SCALE)
        overrides = {"heartbeats_enabled": True, "probe_mode": "rpc",
                     "dispatch_ack": True}
        bare = run_workload(wl, "rn-tree", seed=7,
                            grid_overrides=overrides)
        tel = Telemetry(sample_interval=10.0)
        traced = run_workload(wl, "rn-tree", seed=7, telemetry=tel,
                              grid_overrides=overrides)
        np.testing.assert_array_equal(bare.wait_times, traced.wait_times)
        np.testing.assert_array_equal(bare.match_costs, traced.match_costs)
        assert bare.node_exec_counts == traced.node_exec_counts
        assert bare.sim_time == traced.sim_time
        assert bare.summary == traced.summary
        # ... and the trace actually contains the remote-node spans the
        # propagation exists for.
        cats = {r.category for r in tel.bus.records}
        assert {"job.probe", "job.dispatch", "rpc.server"} <= cats


class TestEndToEnd:
    def test_jsonl_export_has_spans_and_trailers(self, tmp_path):
        tel = Telemetry(sample_interval=10.0)
        out = _outcome(telemetry=tel)
        assert out.finished
        path = tmp_path / "trace.jsonl"
        tel.export_jsonl(path)
        rows = load_jsonl(path)
        cats = {r["cat"] for r in rows}
        # Span categories from every layer of the stack.
        assert {"job.lifecycle", "job.insert", "job.match", "job.queue",
                "job.run", "dht.lookup", "net.msg",
                "load.sample"} <= cats
        # DHT-hop spans carry protocol and hop count.
        lookup = next(r for r in rows if r["cat"] == "dht.lookup")
        assert lookup["proto"] == "chord"
        assert lookup["hops"] >= 0
        # Lifecycle spans have durations and parent the inner spans.
        job = next(r for r in rows if r["cat"] == "job.lifecycle")
        inner = next(r for r in rows if r["cat"] == "job.run")
        assert job["dur"] > 0
        assert inner["parent"] is not None
        # Trailer: one metrics snapshot, stamped with the run's end time.
        snap = [r for r in rows if r["cat"] == "metrics.snapshot"]
        assert len(snap) == 1 and snap[0]["t"] == out.sim_time
        assert snap[0]["counters"]["jobs.completed"] > 0

    def test_match_and_queue_metrics_populated(self):
        tel = Telemetry(sample_interval=10.0)
        _outcome(telemetry=tel)
        hops = tel.metrics.histogram("match.rn-tree.search_hops")
        assert hops.count > 0
        assert tel.metrics.counter("jobs.submitted").value > 0
        assert tel.metrics.counter("jobs.completed").value > 0
        depth = tel.metrics.gauge("grid.queue_depth.total")
        assert depth.hwm >= 0
