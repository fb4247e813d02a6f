"""Tracer self-test: known busy-loops in, known attribution out."""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import harness
import run as bench_run
import tracer as tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def busy(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


class Toy:
    """Three nested layers with known own times."""

    def outer(self) -> None:
        busy(0.02)
        for _ in range(3):
            self.middle()
        busy(0.01)

    def middle(self) -> None:
        busy(0.01)
        self.inner()
        self.inner()

    def inner(self) -> None:
        busy(0.005)

    def boom(self) -> None:
        self.inner()
        raise RuntimeError("boom")


@pytest.fixture
def traced_toy():
    tr = tracing.Tracer(cap=1000)
    tr.wrap_method(Toy, "outer", "sim.kernel")
    tr.wrap_method(Toy, "middle", "grid.node")
    tr.wrap_method(Toy, "inner", "dht.chord", hist=True)
    tr.wrap_method(Toy, "boom", "other")
    yield tr
    tr.uninstall()


def test_self_times_sum_to_the_enclosing_wall(traced_toy):
    tr = traced_toy
    tr.begin_phase("run")
    t0 = perf_counter()
    Toy().outer()
    wall = perf_counter() - t0
    tr.begin_phase(None)
    by_layer = {layer: tr.phase_stat(("run",), layer=layer)
                for layer in tracing.LAYERS}
    attributed = sum(s["self_s"] for s in by_layer.values()) + tr.overhead_s
    assert attributed == pytest.approx(wall, rel=0.02)
    assert by_layer["sim.kernel"]["self_s"] == pytest.approx(0.03, rel=0.1)
    assert by_layer["grid.node"]["self_s"] == pytest.approx(0.03, rel=0.1)
    assert by_layer["dht.chord"]["self_s"] == pytest.approx(0.03, rel=0.1)
    assert by_layer["dht.chord"]["calls"] == 6
    assert tracing.hist_percentile_us(tr.hist_of("Toy.inner"), 50) \
        == pytest.approx(5000, rel=0.1)


def test_spans_form_a_tree_and_survive_the_dump(traced_toy, tmp_path):
    tr = traced_toy
    Toy().outer()
    tr.dump(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as d:
        parent, fn = d["parent"], d["fn"]
        start, end = d["start"], d["end"]
        names = list(d["fn_names"])
        assert int(d["n_spans"]) == len(parent) == 10
        assert not bool(d["truncated"])
    assert parent[0] == -1 and (parent[1:] >= 0).all()
    for i in range(1, len(parent)):
        p = parent[i]
        assert p < i  # ids are start order, so a parent precedes its child
        assert start[p] <= start[i] and end[i] <= end[p]
    assert [names[i] for i in fn[:3]] == ["Toy.outer", "Toy.middle",
                                          "Toy.inner"]


def test_exceptions_pass_through_and_close_their_spans(traced_toy):
    tr = traced_toy
    with pytest.raises(RuntimeError, match="boom"):
        Toy().boom()
    assert tr._ids == [] and tr._child == []
    tr.begin_phase("run")
    Toy().inner()
    tr.begin_phase(None)
    assert tr.phase_stat(("run",), name="Toy.inner")["calls"] == 1


def test_buffers_cap_but_aggregates_keep_counting():
    tr = tracing.Tracer(cap=4)
    tr.wrap_method(Toy, "inner", "dht.chord")
    try:
        tr.begin_phase("run")
        for _ in range(10):
            Toy().inner()
        tr.begin_phase(None)
    finally:
        tr.uninstall()
    assert tr.truncated and tr.n_spans == 10
    assert tr.phase_stat(("run",), name="Toy.inner")["calls"] == 10


def test_job_guid_is_taken_from_the_argument_and_inherited():
    class Job:
        def __init__(self, guid):
            self.guid = guid

    class Owner:
        def receive(self, job):
            self.probe()

        def probe(self):
            pass

    tr = tracing.Tracer(cap=16, job_type=Job)
    tr.wrap_method(Owner, "receive", "grid.node", job_arg=1)
    tr.wrap_method(Owner, "probe", "sim.rpc")
    try:
        Owner().receive(Job(77))
        tr.callback(Owner().receive, Job(99))
    finally:
        tr.uninstall()
    assert list(tr.guid[:4]) == [77, 77, 99, 99]


def test_plan_wrappers_are_fully_removed():
    from repro.dht.chord import ChordOverlay
    from repro.experiments import runner
    from repro.grid import node as grid_node
    from repro.grid.node import GridNode
    from repro.match import MATCHMAKERS, select
    from repro.sim.kernel import Simulator
    from repro.sim.process import PeriodicTask
    from repro.sim.rpc import RpcLayer

    def identities():
        out = {f"{c.__name__}.{n}": vars(c).get(n)
               for c in (Simulator, PeriodicTask, RpcLayer, ChordOverlay,
                         GridNode, *MATCHMAKERS.values())
               for n in ("run", "schedule", "post", "reschedule_timer",
                         "__init__", "call", "serve", "route", "search",
                         "handle_message", "note_queue_change")}
        out["select.oracle_select"] = select.oracle_select
        out["node.oracle_select"] = grid_node.oracle_select
        out["runner.drive"] = runner.drive
        return out

    before = identities()
    tr = tracing.Tracer(cap=16)
    tracing.install_plan(tr)
    during = identities()
    tr.uninstall()
    assert identities() == before
    assert during["Simulator.run"] is not before["Simulator.run"]
    assert during["node.oracle_select"] is not before["node.oracle_select"]
    assert tr.missing == []


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == {w.name: w.why for w in WORKLOADS.values()}
    assert "setup_s" in [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for layer in tracing.LAYERS:
        for key in ("calls", "self_s", "share"):
            assert f"{layer}.{key}" in per_layer


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_smoke_checks_pass_and_attribution_holds(name, tmp_path):
    """``--quick --trace``: every output check and layer-isolation
    assertion passes, wrapped functions cover the traced wall, and the
    result lines carry exactly the declared metrics."""
    spec = bench_run.load_spec()
    report = harness.measure(name, seed=3, quick=True, trace=True,
                             out_dir=tmp_path, tmp_root=tmp_path / "tmp")
    assert report.violations == []
    assert report.per_layer["bench.attributed_frac"] >= 0.95
    assert report.skipped_wrappers == []
    for traced in (False, True):
        line = json.loads(bench_run.result_line(report, spec, traced))
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        declared = spec["per_layer"] if traced else spec["end_to_end"]
        assert list(line["metrics"]) == [m["name"] for m in declared]
    assert report.span_dump.exists()
    assert not (tmp_path / "tmp").exists()  # temporary files are gone
