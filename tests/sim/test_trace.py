"""Trace-sink (TelemetryBus point-event) filtering and no-op behaviour."""

from repro.telemetry.bus import NULL_BUS, TelemetryBus


class TestTraceRecorder:
    def test_records_in_order(self):
        tr = TelemetryBus()
        tr.record(1.0, "a", x=1)
        tr.record(2.0, "b", y=2)
        assert len(tr) == 2
        assert tr.records[0].time == 1.0
        assert tr.records[1].detail == {"y": 2}

    def test_category_filter(self):
        tr = TelemetryBus(categories=["match"])
        tr.record(1.0, "match", job="j1")
        tr.record(2.0, "heartbeat", job="j1")
        assert len(tr) == 1
        assert tr.records[0].category == "match"

    def test_by_category(self):
        tr = TelemetryBus()
        tr.record(1.0, "a")
        tr.record(2.0, "b")
        tr.record(3.0, "a")
        assert [r.time for r in tr.by_category("a")] == [1.0, 3.0]

    def test_disabled_recorder_is_noop(self):
        tr = TelemetryBus(enabled=False)
        tr.record(1.0, "a")
        assert len(tr) == 0

    def test_null_trace_shared_noop(self):
        NULL_BUS.record(1.0, "anything")
        assert len(NULL_BUS) == 0

    def test_clear(self):
        tr = TelemetryBus()
        tr.record(1.0, "a")
        tr.clear()
        assert len(tr) == 0
