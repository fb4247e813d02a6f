"""Flight recorder: bounded per-node rings, dumped into the trace."""

import pytest

from repro.telemetry import TelemetryBus
from repro.telemetry.flight import DEFAULT_RING, FlightRecorder


class TestRings:
    def test_default_capacity(self):
        assert FlightRecorder().maxlen == DEFAULT_RING

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(maxlen=0)

    def test_ring_is_oldest_first_and_bounded(self):
        fr = FlightRecorder(maxlen=3)
        for t in range(5):
            fr.note(1, float(t), f"ev{t}")
        assert [e["ev"] for e in fr.ring(1)] == ["ev2", "ev3", "ev4"]
        assert [e["t"] for e in fr.ring(1)] == [2.0, 3.0, 4.0]

    def test_rings_are_per_node(self):
        fr = FlightRecorder(maxlen=2)
        fr.note(1, 0.0, "a")
        fr.note(1, 1.0, "b")
        fr.note(1, 2.0, "c")
        fr.note(2, 0.5, "x")
        # Node 1's overflow does not evict node 2's events.
        assert [e["ev"] for e in fr.ring(2)] == ["x"]
        assert len(fr) == 3

    def test_ring_omits_absent_job_and_info(self):
        fr = FlightRecorder()
        fr.note(1, 0.0, "crash")
        fr.note(1, 1.0, "assign", job=42, info={"from": 7})
        assert fr.ring(1) == [
            {"t": 0.0, "ev": "crash"},
            {"t": 1.0, "ev": "assign", "job": 42, "info": {"from": 7}},
        ]

    def test_unknown_node_has_empty_ring(self):
        assert FlightRecorder().ring(99) == []

    def test_clear_drops_every_ring(self):
        fr = FlightRecorder()
        fr.note(1, 0.0, "a")
        fr.note(2, 0.0, "b")
        assert len(fr) == 2
        fr.clear()
        assert len(fr) == 0
        assert fr.ring(1) == []


class TestDump:
    def test_one_record_per_nonempty_ring(self):
        fr = FlightRecorder()
        fr.note(1, 0.0, "a")
        fr.note(2, 0.5, "b")
        bus = TelemetryBus()
        # Duplicates, None (no run node) and an empty ring are skipped.
        assert fr.dump(bus, 3.0, trace_id=9, node_ids=[2, 1, 2, None, 5],
                       reason="failed") == 2
        recs = bus.by_category("flight.dump")
        assert [r.detail["node"] for r in recs] == [2, 1]
        assert all(r.trace_id == 9 and r.time == 3.0 for r in recs)
        assert recs[0].detail["reason"] == "failed"
        assert recs[0].detail["events"] == [{"t": 0.5, "ev": "b"}]

    def test_filtered_bus_gets_nothing(self):
        fr = FlightRecorder()
        fr.note(1, 0.0, "a")
        bus = TelemetryBus(categories=["job.match"])
        assert fr.dump(bus, 1.0, None, [1], "failed") == 0
        assert len(bus) == 0
