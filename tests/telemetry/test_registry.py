"""MetricsRegistry: counters, gauges, histogram binning and percentiles."""

import math

import pytest

from repro.telemetry import Histogram, MetricsRegistry


class TestCounterGauge:
    def test_counter_inc(self):
        reg = MetricsRegistry()
        reg.counter("net.sent.assign").inc()
        reg.counter("net.sent.assign").inc(4)
        assert reg.counter("net.sent.assign").value == 5

    def test_gauge_tracks_high_water_mark(self):
        reg = MetricsRegistry()
        g = reg.gauge("grid.queue_depth")
        g.set(3)
        g.set(9)
        g.set(2)
        assert g.value == 2
        assert g.hwm == 9

    def test_type_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")


class TestHistogramBinning:
    def test_small_ints_bin_exactly(self):
        h = Histogram("hops")
        for v in (0, 1, 1, 2, 3, 3, 3):
            h.observe(v)
        labels = dict(h.nonzero_buckets())
        assert labels == {"0": 1, "1": 2, "2": 1, "3": 3}

    def test_overflow_bucket(self):
        h = Histogram("hops", edges=(1, 2, 4))
        h.observe(3)
        h.observe(100)
        labels = dict(h.nonzero_buckets())
        assert labels["2..4"] == 1
        assert labels["> 4"] == 1
        assert h.max == 100

    def test_mean_min_max(self):
        h = Histogram("w")
        for v in (2.0, 4.0, 6.0):
            h.observe(v)
        assert h.mean == 4.0
        assert h.min == 2.0
        assert h.max == 6.0

    def test_percentiles_from_buckets(self):
        h = Histogram("hops")
        for v in [1] * 90 + [5] * 9 + [40]:
            h.observe(v)
        assert h.percentile(50) == 1
        assert h.percentile(95) == 5
        # p100 capped at the observed max, not the bucket edge (48).
        assert h.percentile(100) == 40

    def test_empty_histogram_is_nan(self):
        h = Histogram("empty")
        assert math.isnan(h.mean)
        assert math.isnan(h.percentile(50))
        assert h.nonzero_buckets() == []


class TestSnapshot:
    def test_nested_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a.count").inc(2)
        reg.gauge("b.depth").set(7)
        reg.histogram("c.hops").observe(3)
        snap = reg.snapshot()
        assert snap["counters"] == {"a.count": 2}
        assert snap["gauges"]["b.depth"] == {"value": 7.0, "hwm": 7.0}
        hist = snap["histograms"]["c.hops"]
        assert hist["count"] == 1
        assert hist["p50"] == 3

    def test_prefix_views(self):
        reg = MetricsRegistry()
        reg.counter("net.sent.assign")
        reg.counter("net.sent.result")
        reg.counter("rpc.calls")
        assert reg.names("net.sent.") == ["net.sent.assign", "net.sent.result"]
        assert len(reg.counters("net.")) == 2


class TestStateMerge:
    """Cross-process transfer: state_columnar() -> merge_columnar() must
    be lossless."""

    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("net.sent").inc(3)
        b.counter("net.sent").inc(4)
        b.counter("net.lost").inc()
        a.merge_columnar(b.state_columnar())
        assert a.counter("net.sent").value == 7
        assert a.counter("net.lost").value == 1

    def test_gauges_last_write_wins_hwm_folds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("depth").set(9)
        a.gauge("depth").set(2)
        b.gauge("depth").set(5)
        a.merge_columnar(b.state_columnar())
        assert a.gauge("depth").value == 5
        assert a.gauge("depth").hwm == 9

    def test_histogram_merge_equals_single_registry(self):
        xs = [0, 1, 1, 2, 5, 9, 40, 200, 3, 3]
        one = MetricsRegistry()
        for x in xs:
            one.histogram("hops").observe(x)
        parts = [MetricsRegistry() for _ in range(3)]
        for i, x in enumerate(xs):
            parts[i % 3].histogram("hops").observe(x)
        merged = MetricsRegistry()
        for part in parts:
            merged.merge_columnar(part.state_columnar())
        h1, h2 = one.histogram("hops"), merged.histogram("hops")
        assert h2.buckets == h1.buckets
        assert h2.count == h1.count
        assert (h2.min, h2.max) == (h1.min, h1.max)
        for q in (50, 95, 99, 100):
            assert h2.percentile(q) == h1.percentile(q)

    def test_histogram_edge_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", edges=(1, 2, 4)).observe(1)
        b.histogram("h", edges=(1, 2, 8)).observe(1)
        with pytest.raises(ValueError):
            a.merge_columnar(b.state_columnar())

    def test_state_round_trips_through_pickle(self):
        import pickle

        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(7)
        state = pickle.loads(pickle.dumps(reg.state_columnar()))
        fresh = MetricsRegistry()
        fresh.merge_columnar(state)
        assert fresh.state_columnar() == reg.state_columnar()
        assert fresh.snapshot() == reg.snapshot()

    def test_unknown_kind_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.merge_columnar(("m0", ([], []), ([], [], []), ()))
