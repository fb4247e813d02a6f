"""The parallel sweep engine: fan-out determinism and telemetry fold-back.

The load-bearing claim is that ``jobs=N`` produces *bit-identical*
per-cell outcomes to the serial loop — every cell re-derives its RNG from
(seed, stream-name), so process boundaries cannot change a single draw —
and that the folded telemetry (results, merged metrics, span stream,
final clock) matches what one shared serial telemetry records.
"""

import logging
import math
import os
import pickle
import tempfile
import time
from pathlib import Path

import pytest

from repro.experiments.parallel import (
    Call,
    _TelemetrySpec,
    call,
    map_cells,
    resolve_jobs,
)
from repro.experiments.runner import (
    aggregate_outcomes,
    run_replicates,
    run_workload,
)
from repro.telemetry import Histogram, load_jsonl
from repro.telemetry.core import Telemetry
from repro.telemetry import spool as spool_mod
from repro.telemetry.spool import _write_block, fold_spool, write_spool
from repro.workloads.spec import FIGURE2_SCENARIOS

#: Tiny but non-trivial: ~30 nodes / 150 jobs per cell.
WL = FIGURE2_SCENARIOS["mixed-light"].scaled(0.03)


def _assert_metrics_equal(a, b):
    """Both registries hold the same metrics.  Histogram running totals
    may differ in the last ulp: they are float sums whose grouping
    differs across workers."""
    assert a.names() == b.names()
    for name in a.names():
        ma, mb = a.get(name), b.get(name)
        if isinstance(ma, Histogram):
            assert ((ma.edges, ma.buckets, ma.count, ma.min, ma.max)
                    == (mb.edges, mb.buckets, mb.count, mb.min, mb.max)), name
            assert ma.total == pytest.approx(mb.total, rel=1e-12), name
        else:
            assert ([getattr(ma, s) for s in ma.__slots__]
                    == [getattr(mb, s) for s in mb.__slots__]), name


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_zero_means_all_cores(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) >= 1

    def test_garbage_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()

    def test_negative_jobs_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.raises(ValueError, match=">= 0"):
            resolve_jobs()
        with pytest.raises(ValueError, match=">= 0"):
            map_cells(_square, [call(1)], jobs=-1)

    def test_env_zero_means_all_cores(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs() == (os.cpu_count() or 1)

    def test_explicit_zero_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_fractional_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2.5")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()

    def test_explicit_negative_rejected_despite_valid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        with pytest.raises(ValueError, match=">= 0"):
            resolve_jobs(-3)


class TestMapCells:
    def test_preserves_submission_order(self):
        out = map_cells(_square, [call(i) for i in range(8)], jobs=1)
        assert out == [i * i for i in range(8)]

    def test_parallel_preserves_submission_order(self):
        out = map_cells(_square, [call(i) for i in range(8)], jobs=4)
        assert out == [i * i for i in range(8)]

    def test_parallel_cells_bit_identical_to_serial(self):
        calls = [call(WL, "rn-tree", seed=s) for s in (1, 2, 3, 4)]
        serial = map_cells(run_workload, calls, jobs=1)
        fanned = map_cells(run_workload, calls, jobs=4)
        for a, b in zip(serial, fanned):
            assert a.summary == b.summary
            assert a.finished == b.finished
            assert a.events == b.events

    def test_run_replicates_jobs_matches_serial(self):
        a = run_replicates(WL, "centralized", seeds=(1, 2), jobs=1)
        b = run_replicates(WL, "centralized", seeds=(1, 2), jobs=2)
        assert a == b

    def test_worker_bus_traces_merge_identical_to_serial(self):
        """The acceptance bar for parallel tracing: the merged span
        stream — ids, parents, trace ids, order — is byte-for-byte the
        stream a single serial bus would have recorded."""
        t_serial, t_fan = Telemetry(), Telemetry()
        overrides = {"probe_mode": "rpc", "dispatch_ack": True}
        calls = [call(WL, mm, seed=s, grid_overrides=overrides)
                 for mm in ("rn-tree", "centralized") for s in (1, 2)]
        a_out = map_cells(run_workload, calls, jobs=1, telemetry=t_serial)
        b_out = map_cells(run_workload, calls, jobs=3, telemetry=t_fan)
        assert [o.summary for o in a_out] == [o.summary for o in b_out]
        a = [r.to_dict() for r in t_serial.bus.records]
        b = [r.to_dict() for r in t_fan.bus.records]
        assert a == b
        assert t_serial.bus.dropped == t_fan.bus.dropped
        assert t_serial.now() == t_fan.now() == a_out[-1].sim_time
        # Sanity: the stream is non-trivial and has cross-node spans.
        cats = {r["cat"] for r in a}
        assert {"grid.bind", "job.lifecycle", "rpc.server"} <= cats

    def test_worker_metrics_fold_into_parent(self):
        t_serial, t_fan = Telemetry(), Telemetry()
        calls = [call(WL, "centralized", seed=s) for s in (1, 2)]
        map_cells(run_workload, calls, jobs=1, telemetry=t_serial)
        map_cells(run_workload, calls, jobs=2, telemetry=t_fan)
        _assert_metrics_equal(t_serial.metrics, t_fan.metrics)

    def test_call_objects_pickle(self):
        c = call(1, two=2)
        assert pickle.loads(pickle.dumps(c)) == c

    def test_call_packages_args_and_kwargs(self):
        assert call() == Call((), {})
        assert call(1, 2, k="v") == Call((1, 2), {"k": "v"})

    def test_empty_sweep(self):
        assert map_cells(_square, [], jobs=1) == []
        assert map_cells(_square, [], jobs=4) == []

    def test_accepts_a_generator_of_calls(self):
        out = map_cells(_square, (call(i) for i in range(5)), jobs=2)
        assert out == [i * i for i in range(5)]

    def test_kwargs_reach_the_cell_in_workers(self):
        calls = [call(i, scale=10 * i) for i in range(4)]
        assert (map_cells(_scaled, calls, jobs=2)
                == map_cells(_scaled, calls, jobs=1)
                == [0, 10, 40, 90])

    def test_serial_runs_in_process(self):
        assert map_cells(_pid, [call(), call()], jobs=1) == [os.getpid()] * 2

    def test_single_cell_never_starts_a_pool(self):
        # jobs is capped by the cell count: one cell runs in-process.
        assert map_cells(_pid, [call()], jobs=4) == [os.getpid()]

    def test_parallel_runs_in_workers(self):
        pids = map_cells(_pid, [call() for _ in range(4)], jobs=2)
        assert os.getpid() not in pids

    def test_disabled_telemetry_is_not_passed_to_cells(self):
        # A cell that takes no telemetry keyword runs under a disabled
        # stack, serial and parallel alike.
        off = Telemetry(enabled=False)
        calls = [call(i) for i in range(3)]
        assert map_cells(_square, calls, jobs=1, telemetry=off) == [0, 1, 4]
        assert map_cells(_square, calls, jobs=2, telemetry=off) == [0, 1, 4]

    def test_serial_cells_share_the_callers_telemetry(self):
        tel = Telemetry()
        ids = map_cells(_telemetry_id, [call(), call()], jobs=1,
                        telemetry=tel)
        assert ids == [id(tel), id(tel)]


class TestTracedFold:
    """The fold for cells that trace without binding a grid: cheap cells
    that record spans and metrics directly, so bus shaping and the
    spool-directory lifecycle can be checked in isolation."""

    def _both(self, calls, **tel_kw):
        t_serial, t_fan = Telemetry(**tel_kw), Telemetry(**tel_kw)
        a = map_cells(_traced_cell, calls, jobs=1, telemetry=t_serial)
        b = map_cells(_traced_cell, calls, jobs=2, telemetry=t_fan)
        assert a == b
        return t_serial, t_fan

    def test_spans_and_metrics_fold_in_submission_order(self):
        t_serial, t_fan = self._both([call(i) for i in range(5)])
        a = [r.to_dict() for r in t_serial.bus.records]
        assert a == [r.to_dict() for r in t_fan.bus.records]
        assert [r["x"] for r in a if r["cat"] == "cell.a"] == list(range(5))
        assert t_fan.bus.span_watermark == t_serial.bus.span_watermark
        _assert_metrics_equal(t_serial.metrics, t_fan.metrics)
        assert t_fan.metrics.get("cells.run").value == 5

    def test_category_filter_applies_in_workers(self):
        t_serial, t_fan = self._both([call(i) for i in range(4)],
                                     categories={"cell.b"})
        cats = {r.category for r in t_fan.bus.records}
        assert cats == {"cell.b"}
        assert ([r.to_dict() for r in t_serial.bus.records]
                == [r.to_dict() for r in t_fan.bus.records])

    def test_ring_bound_and_drops_match_serial(self):
        t_serial, t_fan = self._both([call(i) for i in range(4)], maxlen=3)
        assert len(t_fan.bus.records) == 3
        assert t_fan.bus.dropped == t_serial.bus.dropped == 5
        assert ([r.to_dict() for r in t_serial.bus.records]
                == [r.to_dict() for r in t_fan.bus.records])

    def test_gridless_cells_leave_the_parent_clock_unset(self):
        _, t_fan = self._both([call(1), call(2)])
        assert t_fan.clock is None

    def test_spool_directory_removed_after_sweep(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        map_cells(_traced_cell, [call(1), call(2), call(3)], jobs=2,
                  telemetry=Telemetry())
        assert list(tmp_path.iterdir()) == []

    def test_spool_directory_removed_after_failure(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(RuntimeError, match="negative cell"):
            map_cells(_traced_cell, [call(1), call(-1), call(3)], jobs=2,
                      telemetry=Telemetry())
        assert list(tmp_path.iterdir()) == []

    def test_spec_mirrors_bus_shaping(self):
        tel = Telemetry(categories={"a", "b"}, maxlen=7, sample_interval=2.5,
                        flight_ring=9)
        spec = _TelemetrySpec.of(tel)
        assert spec == _TelemetrySpec(sample_interval=2.5,
                                      categories=frozenset({"a", "b"}),
                                      maxlen=7, flight_ring=9)
        assert _TelemetrySpec.of(Telemetry(flight_ring=0)).flight_ring == 0
        assert _TelemetrySpec.of(None) is None
        assert _TelemetrySpec.of(Telemetry(enabled=False)) is None


class TestFailureCancelsPending:
    def test_failure_cancels_pending_and_propagates(self, tmp_path):
        """One failing cell must not leave the sweep grinding through the
        remaining queue: pending futures are cancelled, the pool shuts
        down eagerly, and the cell's exception reaches the caller."""
        n_slow = 20
        calls = [call(str(tmp_path), "boom", 0.0, explode=True)]
        calls += [call(str(tmp_path), f"s{i:02d}", 0.15)
                  for i in range(n_slow)]
        with pytest.raises(RuntimeError, match="cell exploded"):
            map_cells(_touch_or_boom, calls, jobs=2)
        # Cells already running when the failure surfaced finish (worker
        # processes cannot be interrupted mid-cell) — give them a beat.
        time.sleep(0.6)
        executed = len(list(tmp_path.glob("*.done")))
        assert executed < n_slow // 2, (
            f"{executed}/{n_slow} slow cells ran after the failure — "
            "pending futures were not cancelled")

    def test_serial_failure_propagates(self, tmp_path):
        with pytest.raises(RuntimeError, match="cell exploded"):
            map_cells(_touch_or_boom,
                      [call(str(tmp_path), "boom", 0.0, explode=True)],
                      jobs=1)


class TestTracedExport:
    def test_jobs2_export_matches_serial_record_for_record(self, tmp_path):
        """``repro run --telemetry`` writes the same JSONL at --jobs 1
        and --jobs 2, trailer included (its clock used to read 0.0 at
        --jobs 2).  The one allowed difference is a histogram mean in
        the last ulp (float-sum grouping across workers)."""
        from repro.cli import main

        paths = {}
        for jobs in (1, 2):
            paths[jobs] = tmp_path / f"j{jobs}.jsonl"
            assert main(["run", "figure2", "--scale", "0.02", "--seeds", "1",
                         "--jobs", str(jobs),
                         "--telemetry", str(paths[jobs])]) == 0
        serial, fanned = load_jsonl(paths[1]), load_jsonl(paths[2])
        assert len(serial) == len(fanned)
        assert serial[-1]["cat"] == "metrics.snapshot"
        assert serial[-1]["t"] > 0
        for a, b in zip(serial, fanned):
            if a["cat"] == "metrics.snapshot" == b["cat"]:
                ha, hb = a.pop("histograms"), b.pop("histograms")
                assert ha.keys() == hb.keys()
                for name in ha:
                    assert ha[name].pop("mean") == pytest.approx(
                        hb[name].pop("mean"), rel=1e-12, nan_ok=True)
                    assert ha[name] == hb[name], name
            assert a == b


class TestSpool:
    def _traced_worker(self):
        tel = Telemetry()
        run_workload(WL, "rn-tree", seed=1, telemetry=tel,
                     grid_overrides={"probe_mode": "rpc"})
        return tel

    def test_roundtrip_reproduces_worker(self, tmp_path):
        worker = self._traced_worker()
        path = tmp_path / "w.spool"
        nbytes = write_spool(path, worker)
        assert nbytes == path.stat().st_size > 0

        parent = Telemetry()
        n = fold_spool(path, parent)
        assert n == len(worker.bus.records)
        assert ([r.to_dict() for r in parent.bus.records]
                == [r.to_dict() for r in worker.bus.records])
        assert parent.bus.span_watermark == worker.bus.span_watermark
        assert parent.bus.accepted == worker.bus.accepted
        _assert_metrics_equal(worker.metrics, parent.metrics)
        assert parent.now() == worker.now() > 0

    def test_fold_offsets_span_ids_past_existing(self, tmp_path):
        worker = self._traced_worker()
        path = tmp_path / "w.spool"
        write_spool(path, worker)
        parent = Telemetry()
        parent.bus.span(0.0, "parent.pre", note="existing span")
        watermark = parent.bus.span_watermark
        assert watermark > 0
        fold_spool(path, parent)
        folded = [r for r in parent.bus.records
                  if r.span_id is not None and r.category != "parent.pre"]
        assert folded and all(r.span_id >= watermark for r in folded)

    def test_empty_telemetry_roundtrip(self, tmp_path):
        path = tmp_path / "empty.spool"
        write_spool(path, Telemetry())
        parent = Telemetry()
        assert fold_spool(path, parent) == 0
        assert len(parent.bus.records) == 0
        # A worker that never bound a grid leaves the parent clock alone.
        assert parent.clock is None

    def test_truncated_spool_rejected(self, tmp_path):
        worker = self._traced_worker()
        path = tmp_path / "w.spool"
        write_spool(path, worker)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 7])
        with pytest.raises(ValueError, match="truncated"):
            fold_spool(path, Telemetry())

    def test_truncated_block_header_rejected(self, tmp_path):
        path = tmp_path / "w.spool"
        write_spool(path, Telemetry())
        path.write_bytes(path.read_bytes() + b"\x01\x00")
        with pytest.raises(ValueError, match="truncated spool block header"):
            fold_spool(path, Telemetry())

    def test_empty_file_is_not_a_spool(self, tmp_path):
        path = tmp_path / "empty.spool"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="not a telemetry spool"):
            fold_spool(path, Telemetry())

    def test_headerless_file_is_not_a_spool(self, tmp_path):
        path = tmp_path / "bad.spool"
        with open(path, "wb") as fh:
            _write_block(fh, ["not", "a", "header"])
        with pytest.raises(ValueError, match="not a telemetry spool"):
            fold_spool(path, Telemetry())

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "v1.spool"
        with open(path, "wb") as fh:
            _write_block(fh, {"version": 1})
        with pytest.raises(ValueError, match="unsupported spool version"):
            fold_spool(path, Telemetry())

    def test_multi_chunk_roundtrip(self, tmp_path, monkeypatch):
        """Records split across many chunk blocks fold back in order."""
        worker = self._traced_worker()
        n = len(worker.bus.records)
        monkeypatch.setattr(spool_mod, "CHUNK_RECORDS", 7)
        path = tmp_path / "w.spool"
        write_spool(path, worker)
        parent = Telemetry()
        parent.bus.span(0.0, "parent.pre")
        offset = parent.bus.span_watermark
        assert fold_spool(path, parent) == n > 7 * 3
        folded = list(parent.bus.records)[1:]
        expected = list(worker.bus.records)
        assert len(folded) == n
        for got, want in zip(folded, expected):
            assert ((got.time, got.category, got.detail, got.duration,
                     got.trace_id)
                    == (want.time, want.category, want.detail,
                        want.duration, want.trace_id))
            assert got.span_id == (None if want.span_id is None
                                   else want.span_id + offset)
            assert got.parent_id == (None if want.parent_id is None
                                     else want.parent_id + offset)

    def test_parent_clock_stops_at_last_folded_worker(self, tmp_path):
        """Folding spools in submission order leaves the parent clock at
        the *last* worker's final time, not the latest one seen."""
        late = Telemetry()
        run_workload(WL, "centralized", seed=1, telemetry=late)
        early = Telemetry()
        run_workload(WL, "centralized", seed=1, telemetry=early,
                     max_time=30.0)
        assert early.now() < late.now()
        parent = Telemetry()
        for i, worker in enumerate((late, early)):
            path = tmp_path / f"w{i}.spool"
            write_spool(path, worker)
            fold_spool(path, parent)
        assert parent.now() == early.now()


class TestDhtScaling:
    def test_parallel_matches_serial(self):
        from repro.experiments.dht_scaling import run_dht_scaling

        kw = dict(sizes=(64, 128), lookups=30)
        serial = run_dht_scaling(jobs=1, **kw)
        fanned = run_dht_scaling(jobs=2, **kw)
        assert serial.mean_hops == fanned.mean_hops
        assert serial.over_budget == fanned.over_budget

    def test_results_follow_declared_size_order(self):
        from repro.experiments.dht_scaling import run_dht_scaling

        up = run_dht_scaling(sizes=(64, 128), lookups=30, jobs=1)
        down = run_dht_scaling(sizes=(128, 64), lookups=30, jobs=2)
        assert down.sizes == (128, 64)
        for name, series in up.mean_hops.items():
            assert down.mean_hops[name] == series[::-1], name

    def test_budget_flags_every_size_against_its_summed_wall(self):
        from repro.experiments.dht_scaling import run_dht_scaling

        tight = run_dht_scaling(sizes=(64, 128), lookups=10, jobs=1,
                                cell_budget_s=0.0)
        assert tight.over_budget == [True, True]
        assert all(w > 0 for w in tight.wall_s)
        loose = run_dht_scaling(sizes=(64, 128), lookups=10, jobs=1,
                                cell_budget_s=1e9)
        assert loose.over_budget == [False, False]

    def test_reduce_size_cell_sums_wall_and_keeps_hops(self):
        from repro.experiments.dht_scaling import _reduce_size_cell

        parts = [{"chord": 3.5, "wall_s": 0.25},
                 {"pastry": 2.0, "wall_s": 0.5},
                 {"kademlia": 4.0, "wall_s": 0.125},
                 {"can": 6.0, "wall_s": 1.0}]
        assert _reduce_size_cell(parts) == {
            "chord": 3.5, "pastry": 2.0, "kademlia": 4.0, "can": 6.0,
            "wall_s": 1.875}

    def test_substrate_cell_is_deterministic(self):
        from repro.experiments.dht_scaling import (
            SUBSTRATES,
            _run_substrate_cell,
        )

        for substrate in SUBSTRATES:
            a = _run_substrate_cell(substrate, 64, 20, 4, 1)
            b = _run_substrate_cell(substrate, 64, 20, 4, 1)
            assert set(a) == {substrate, "wall_s"}
            assert a[substrate] == b[substrate] > 0

    def test_unknown_substrate_rejected(self):
        from repro.experiments.dht_scaling import _run_substrate_cell

        with pytest.raises(ValueError, match="unknown substrate"):
            _run_substrate_cell("tapestry", 64, 10, 4, 1)


class TestAggregation:
    def test_truncated_replicates_warn_and_flag(self, caplog):
        outcomes = [run_workload(WL, "rn-tree", seed=1, max_time=30.0)]
        assert not outcomes[0].finished
        with caplog.at_level(logging.WARNING, logger="repro.experiments"):
            agg = aggregate_outcomes(outcomes)
        assert agg["all_finished"] == 0.0
        assert any("hit max_time" in r.getMessage() for r in caplog.records)

    def test_drained_replicates_do_not_warn(self, caplog):
        outcomes = [run_workload(WL, "centralized", seed=1)]
        assert outcomes[0].finished
        with caplog.at_level(logging.WARNING, logger="repro.experiments"):
            agg = aggregate_outcomes(outcomes)
        assert agg["all_finished"] == 1.0
        assert not caplog.records
        assert not math.isnan(agg["wait_mean"])


# -- module-level cell functions (must pickle) -----------------------------

def _square(x):
    return x * x


def _scaled(x, scale=1):
    return x * scale


def _pid():
    return os.getpid()


def _telemetry_id(telemetry):
    return id(telemetry)


def _traced_cell(x, telemetry):
    """Records one span per category and bumps a counter; raises on a
    negative argument."""
    if x < 0:
        raise RuntimeError("negative cell")
    telemetry.bus.span(float(x), "cell.a", x=x)
    telemetry.bus.span(float(x), "cell.b", x=x)
    telemetry.metrics.counter("cells.run").inc()
    telemetry.metrics.histogram("cells.x", (1.0, 2.0, 4.0)).observe(x)
    return x


def _touch_or_boom(out_dir, tag, duration, explode=False):
    """Sleeps, then drops a sentinel file — unless told to explode."""
    if explode:
        raise RuntimeError("cell exploded")
    time.sleep(duration)
    (Path(out_dir) / f"{tag}.done").touch()
    return tag
