"""The worker spool carries the bus's columns: round trip and versioning."""

import pytest

from repro.telemetry import Telemetry
from repro.telemetry import spool as spool_mod
from repro.telemetry.bus import COLUMNS
from repro.telemetry.spool import (
    SPOOL_VERSION,
    _read_blocks,
    _write_block,
    fold_spool,
    write_spool,
)


def _worker(n=5):
    tel = Telemetry()
    bus = tel.bus
    for i in range(n):
        bus.record(float(i), "net.msg", kind="assign", src=i, trace=i)
        root = bus.begin_span(float(i), "job.lifecycle", trace=i, job=f"j{i}")
        bus.span(i + 0.5, "dht.lookup", parent=root, hops=i, ok=True)
        bus.end_span(root, i + 1.0, state="completed")
        bus.record(i + 1.0, "note")  # empty detail
    tel.metrics.counter("net.delivered").inc(n)
    return tel


class TestRoundTrip:
    def test_chunks_are_the_bus_columns(self, tmp_path, monkeypatch):
        monkeypatch.setattr(spool_mod, "CHUNK_RECORDS", 4)
        worker = _worker()
        path = tmp_path / "w.spool"
        write_spool(path, worker)
        with open(path, "rb") as fh:
            header, *chunks = _read_blocks(fh)
        assert header["version"] == SPOOL_VERSION == 3
        assert header["n_records"] == len(worker.bus) == 20
        assert [len(c) for c in chunks] == [len(COLUMNS)] * 5
        rows = [row for c in chunks for row in zip(*c)]
        assert rows == list(worker.bus.rows())

    def test_fold_reproduces_worker_with_offset_ids(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(spool_mod, "CHUNK_RECORDS", 3)
        worker = _worker()
        path = tmp_path / "w.spool"
        write_spool(path, worker)
        parent = Telemetry()
        parent.bus.span(0.0, "parent.pre")
        offset = parent.bus.span_watermark
        assert fold_spool(path, parent) == 20
        got = list(parent.bus.rows())[1:]
        want = list(worker.bus.rows())

        def shift(i):
            return None if i is None else i + offset

        assert got == [(t, c, k, v, shift(s), shift(p), d, tr)
                       for t, c, k, v, s, p, d, tr in want]
        assert parent.bus.span_watermark == offset + worker.bus.span_watermark
        assert parent.bus.accepted == 1 + worker.bus.accepted
        assert parent.metrics.counter("net.delivered").value == 5

    def test_fold_preserves_worker_drops(self, tmp_path):
        worker = Telemetry(maxlen=6)
        for i in range(10):
            worker.bus.record(float(i), "x", i=i)
        path = tmp_path / "w.spool"
        write_spool(path, worker)
        parent = Telemetry()
        fold_spool(path, parent)
        assert list(parent.bus.rows()) == list(worker.bus.rows())
        assert parent.bus.dropped == worker.bus.dropped == 4


class TestVersion:
    def test_previous_version_rejected(self, tmp_path):
        # Version 2 chunks were 7-tuples with the detail as one dict per
        # record; a parent must refuse them, not misread their columns.
        path = tmp_path / "v2.spool"
        with open(path, "wb") as fh:
            _write_block(fh, {"version": 2, "spans": 0, "accepted": 1,
                              "n_records": 1, "clock": None, "metrics": {}})
            _write_block(fh, ([0.0], ["x"], [{"a": 1}], [None], [None],
                              [None], [None]))
        parent = Telemetry()
        with pytest.raises(ValueError, match="unsupported spool version 2"):
            fold_spool(path, parent)
        assert len(parent.bus) == 0
