"""TelemetryBus: ring buffer, spans, category filtering, JSONL round-trip."""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.experiments.runner import run_workload
from repro.telemetry import NULL_BUS, Telemetry, TelemetryBus, load_jsonl
from repro.workloads.spec import FIGURE2_SCENARIOS


def _mixed(bus, n):
    """``n`` rounds of an event, a one-shot span and a begin/end span, each
    with its own detail shape, so every column carries distinct values."""
    for i in range(n):
        bus.record(float(i), "net.msg", kind="assign", src=i, trace=100 + i)
        bus.span(i + 0.25, "dht.lookup", parent=i, trace=200 + i, hops=i)
        span = bus.begin_span(i + 0.5, "job.run", job=f"j{i}")
        bus.end_span(span, i + 0.75, node=i)


class TestRingBuffer:
    def test_unbounded_by_default(self):
        bus = TelemetryBus()
        for i in range(1000):
            bus.record(float(i), "x", i=i)
        assert len(bus) == 1000
        assert bus.dropped == 0

    def test_maxlen_caps_memory(self):
        bus = TelemetryBus(maxlen=100)
        for i in range(250):
            bus.record(float(i), "x", i=i)
        assert len(bus) == 100
        assert bus.accepted == 250
        assert bus.dropped == 150
        # Oldest records evicted first.
        assert bus.records[0].time == 150.0
        assert bus.records[-1].time == 249.0

    def test_clear_resets_dropped(self):
        bus = TelemetryBus(maxlen=2)
        for i in range(5):
            bus.record(float(i), "x")
        bus.clear()
        assert len(bus) == 0
        assert bus.dropped == 0

    def test_eviction_keeps_newest_whole_records(self):
        # Every column shares one maxlen, so eviction drops whole rows:
        # the ring holds exactly the newest N records of an unbounded bus.
        full, ring = TelemetryBus(), TelemetryBus(maxlen=7)
        _mixed(full, 10)
        _mixed(ring, 10)
        assert (len(ring), ring.accepted, ring.dropped) == (7, 30, 23)
        assert list(ring.rows()) == list(full.rows())[-7:]
        assert ring.records == full.records[-7:]
        assert ring.category_counts() == {"job.run": 3, "dht.lookup": 2,
                                          "net.msg": 2}

    def test_clear_empties_every_column(self):
        bus = TelemetryBus(maxlen=4)
        _mixed(bus, 3)
        bus.clear()
        assert (len(bus), bus.dropped, list(bus.rows())) == (0, 0, [])
        bus.record(9.0, "x", a=1)
        assert [r.to_dict() for r in bus.records] == [
            {"t": 9.0, "cat": "x", "a": 1}]
        assert bus.dropped == 0

    def test_detail_keys_are_stored_once_per_shape(self):
        bus = TelemetryBus()
        for i in range(3):
            bus.record(float(i), "net.msg", kind="a", src=i)
        bus.record(3.0, "net.msg", src=0, kind="a")  # another key order
        keys = [row[2] for row in bus.rows()]
        assert keys[0] is keys[1] is keys[2]
        assert keys[3] == ("src", "kind") and keys[3] is not keys[0]

    def test_import_columns_keeps_ring_semantics(self):
        worker, parent = TelemetryBus(), TelemetryBus(maxlen=5)
        _mixed(worker, 3)
        columns = [list(col) for col in zip(*worker.rows())]
        parent.import_columns(spans=worker.span_watermark,
                              accepted=worker.accepted)
        parent.import_columns(columns)
        assert list(parent.rows()) == list(worker.rows())[-5:]
        assert (parent.accepted, parent.dropped) == (9, 4)
        assert parent.span_watermark == worker.span_watermark


class TestSpans:
    def test_begin_end_produces_duration(self):
        bus = TelemetryBus()
        span = bus.begin_span(1.0, "job.run", job="j1")
        assert len(bus) == 0  # spans land at end time (append-only stream)
        bus.end_span(span, 4.5, node="n1")
        (rec,) = bus.records
        assert rec.category == "job.run"
        assert rec.time == 1.0  # stamped at start; appended at end
        assert rec.duration == 3.5
        assert rec.detail["job"] == "j1"
        assert rec.detail["node"] == "n1"

    def test_parentage(self):
        bus = TelemetryBus()
        root = bus.begin_span(0.0, "job.lifecycle")
        child = bus.begin_span(1.0, "job.match", parent=root)
        bus.end_span(child, 2.0)
        bus.end_span(root, 3.0)
        child_rec, root_rec = bus.records
        assert child_rec.parent_id == root_rec.span_id
        assert root_rec.parent_id is None

    def test_end_span_none_is_noop(self):
        bus = TelemetryBus()
        bus.end_span(None, 5.0)
        assert len(bus) == 0

    def test_one_shot_span(self):
        bus = TelemetryBus()
        bus.span(2.0, "dht.lookup", duration=0.0, proto="chord", hops=3)
        (rec,) = bus.records
        assert rec.detail["hops"] == 3
        assert rec.span_id is not None

    def test_point_event_trace_goes_to_the_trace_column(self):
        bus = TelemetryBus()
        bus.record(1.0, "net.msg", kind="assign", src=3, trace=42)
        bus.record(2.0, "net.msg", kind="assign", src=4)
        first, second = bus.records
        assert (first.trace_id, first.detail) == (42, {"kind": "assign",
                                                       "src": 3})
        assert (second.trace_id, second.span_id) == (None, None)


class TestFiltering:
    def test_category_filter_applies_to_spans(self):
        bus = TelemetryBus(categories=["job.run"])
        assert bus.wants("job.run")
        assert not bus.wants("net.msg")
        bus.record(0.0, "net.msg", kind="assign")
        span = bus.begin_span(0.0, "job.queue")
        assert span is None
        bus.end_span(span, 1.0)
        kept = bus.begin_span(1.0, "job.run")
        bus.end_span(kept, 2.0)
        assert [r.category for r in bus.records] == ["job.run"]

    def test_null_bus_is_disabled_noop(self):
        NULL_BUS.record(0.0, "x")
        assert NULL_BUS.begin_span(0.0, "x") is None
        assert len(NULL_BUS) == 0
        assert not NULL_BUS.enabled


class TestJsonl:
    def test_round_trip(self, tmp_path):
        bus = TelemetryBus()
        bus.record(1.0, "submit", job="j1", attempt=1)
        span = bus.begin_span(1.0, "job.run", job="j1")
        bus.end_span(span, 3.0, node="n3")
        path = tmp_path / "trace.jsonl"
        bus.export_jsonl(path, extra_records=[{"t": 3.0, "cat": "trailer"}])
        rows = load_jsonl(path)
        assert len(rows) == 3
        assert rows[0]["cat"] == "submit"
        assert rows[0]["job"] == "j1"
        assert rows[1]["dur"] == 2.0
        assert rows[2]["cat"] == "trailer"
        # Every line is standalone JSON.
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_numpy_scalars_export_as_numbers(self, tmp_path):
        bus = TelemetryBus()
        bus.record(np.float64(1.5), "probe", load=np.int64(3),
                   ratio=np.float32(0.25))
        path = tmp_path / "trace.jsonl"
        bus.export_jsonl(path)
        (row,) = load_jsonl(path)
        assert (row["t"], row["load"], row["ratio"]) == (1.5, 3.0, 0.25)

    def test_traced_rpc_cell_export_is_pinned(self, tmp_path):
        """The export of a traced rpc/ack cell, byte for byte: a change to
        the bus's storage may not change what it writes."""
        wl = FIGURE2_SCENARIOS["clustered-light"].scaled(0.04)
        tel = Telemetry(sample_interval=10.0)
        run_workload(wl, "rn-tree", seed=7, telemetry=tel,
                     grid_overrides={"probe_mode": "rpc",
                                     "dispatch_ack": True})
        path = tmp_path / "trace.jsonl"
        assert tel.export_jsonl(path) == 5952
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "dfd81d030df2ee9e1d6e80e11961c20dc472d2477381a756c3399144343f08e1")

    def test_unserializable_detail_falls_back_to_str(self, tmp_path):
        bus = TelemetryBus()
        bus.record(0.0, "note", where=Path("a/b"), states={"up"})
        path = tmp_path / "trace.jsonl"
        bus.export_jsonl(path)
        (row,) = load_jsonl(path)
        assert row["where"] == str(Path("a/b"))
        assert row["states"] == str({"up"})


class TestViews:
    def test_by_category_keeps_order(self):
        bus = TelemetryBus()
        bus.record(0.0, "a", i=0)
        bus.record(1.0, "b", i=1)
        bus.record(2.0, "a", i=2)
        assert [r.detail["i"] for r in bus.by_category("a")] == [0, 2]
        assert bus.by_category("missing") == []
        assert bus.category_counts() == {"a": 2, "b": 1}
