"""Span-tree reconstruction: retry chains, orphans, truncation, cells.

The unit tests drive :func:`build_timeline` with hand-written record
dicts (the exact shape a JSONL export produces); the end-to-end test
reconstructs a real RPC-mode run and checks that remote-node spans
landed under the submitting job's tree.
"""

import pytest

from repro.experiments.runner import run_workload
from repro.telemetry import Telemetry, build_timeline, timeline_from_bus
from repro.telemetry.timeline import (
    render_anomalies,
    render_critical_path,
    render_job_timeline,
    render_phase_table,
    timeline_from_jsonl,
)
from repro.workloads.spec import FIGURE2_SCENARIOS


def _span(t, cat, span, parent, dur, trace, **detail):
    return {"t": t, "cat": cat, "span": span, "parent": parent,
            "dur": dur, "trace": trace, **detail}


#: One job with a retry chain: run node lost after the first dispatch,
#: matched again, then completed.  Spans appear in end order (children
#: before their parents), as the bus emits them.
RETRY_TRACE = [
    {"t": 0.0, "cat": "submit", "trace": 11, "job": "j-0"},
    _span(0.1, "job.insert", 2, 1, 0.4, 11, node="n0"),
    _span(0.5, "job.match", 3, 1, 0.2, 11),
    _span(0.7, "job.dispatch", 4, 1, 0.1, 11, run_node="n3"),
    _span(0.8, "job.queue", 5, 1, 2.0, 11, status="run-node-lost"),
    _span(3.0, "job.match", 6, 1, 0.3, 11, retry=True),
    _span(3.3, "job.dispatch", 7, 1, 0.1, 11, run_node="n5"),
    _span(3.4, "job.queue", 8, 1, 0.5, 11),
    _span(3.9, "job.run", 9, 1, 6.1, 11, node="n5"),
    _span(0.0, "job.lifecycle", 1, None, 10.0, 11,
          job="j-0", state="completed"),
]


class TestReconstruction:
    def test_retry_chain_accounted(self):
        tl = build_timeline(RETRY_TRACE)
        assert len(tl.jobs) == 1
        jt = tl.jobs[0]
        assert jt.name == "j-0"
        assert jt.terminal == "completed"
        assert jt.retries == 1
        totals = jt.phase_totals()
        # Both match and dispatch rounds are summed, not last-wins.
        assert totals["match"] == 0.2 + 0.3
        assert totals["dispatch"] == 0.1 + 0.1
        assert totals["queue"] == 2.0 + 0.5
        assert jt.makespan == 10.0
        assert tl.healthy

    def test_span_tree_shape(self):
        tl = build_timeline(RETRY_TRACE)
        jt = tl.jobs[0]
        life = jt.lifecycle
        assert [r is life for r in jt.roots] == [True]
        assert [c.category for c in life.children] == [
            "job.insert", "job.match", "job.dispatch", "job.queue",
            "job.match", "job.dispatch", "job.queue", "job.run"]
        assert jt.critical_path()[-1].category == "job.run"
        # Point events are filed by stream position: "submit" is row 0.
        assert jt.events == [0]

    def test_orphan_span_flagged(self):
        records = RETRY_TRACE + [
            _span(4.0, "rpc.server", 20, 999, 0.0, 11, node="n9")]
        tl = build_timeline(records)
        jt = tl.jobs[0]
        assert len(jt.orphans) == 1
        assert jt.orphans[0].category == "rpc.server"
        assert jt.orphans[0].orphan
        assert not tl.healthy
        assert tl.anomalies()["orphan_spans"] == 1

    def test_cross_trace_parent_is_orphan(self):
        # A span whose parent id exists but belongs to another trace must
        # not be grafted into the wrong tree.
        records = RETRY_TRACE + [
            _span(0.0, "job.lifecycle", 30, None, 1.0, 12,
                  job="j-1", state="completed"),
            _span(0.2, "job.run", 31, 1, 0.5, 12),  # parent 1 is trace 11
        ]
        tl = build_timeline(records)
        other = tl.job(12)
        assert other is not None
        assert len(other.orphans) == 1

    def test_ring_truncation_reported(self):
        records = RETRY_TRACE + [
            {"t": 99.0, "cat": "trace.overflow", "dropped": 7, "kept": 3}]
        tl = build_timeline(records, dropped=0)
        assert tl.truncated == 7
        assert not tl.healthy
        tl2 = build_timeline(RETRY_TRACE, dropped=4)
        assert tl2.truncated == 4

    def test_job_without_terminal_event(self):
        # Lifecycle span never closed -> evicted/open at export.
        records = [r for r in RETRY_TRACE if r.get("span") != 1]
        tl = build_timeline(records)
        a = tl.anomalies()
        assert a["jobs_without_terminal"] == 1
        assert not tl.healthy

    def test_cell_segmentation_splits_repeated_guids(self):
        # Two sweep cells with the same seed produce the same job GUID;
        # the grid.bind marker keeps them apart.
        bind = {"t": 0.0, "cat": "grid.bind", "nodes": 4, "matchmaker": "x"}
        records = [bind, *RETRY_TRACE, bind, *RETRY_TRACE]
        tl = build_timeline(records)
        assert tl.cells == 2
        assert len(tl.jobs) == 2
        assert {j.cell for j in tl.jobs} == {1, 2}
        a, b = tl.job(11, cell=1), tl.job(11, cell=2)
        assert a is not b
        assert a.retries == b.retries == 1
        assert tl.healthy

    def test_untraced_spans_counted(self):
        records = RETRY_TRACE + [
            {"t": 1.0, "cat": "dht.lookup", "span": 40, "dur": 0.0}]
        tl = build_timeline(records)
        assert tl.untraced_spans == 1
        assert tl.healthy  # untraced is informational, not a failure

    def test_phase_percentiles_over_jobs(self):
        bind = {"t": 0.0, "cat": "grid.bind"}
        records = [bind, *RETRY_TRACE, bind, *RETRY_TRACE]
        tl = build_timeline(records)
        stats = tl.phase_percentiles(percentiles=(50,))
        assert stats["match"]["p50"] == 0.5
        assert stats["match"]["mean"] == 0.5
        assert stats["run"]["p50"] == 6.1

    def test_slowest_ordering(self):
        fast = [
            _span(0.0, "job.lifecycle", 50, None, 1.0, 77,
                  job="quick", state="completed"),
        ]
        tl = build_timeline(RETRY_TRACE + fast)
        assert [j.trace_id for j in tl.slowest(2)] == [11, 77]


class TestRendering:
    def test_renderers_are_total(self):
        tl = build_timeline(RETRY_TRACE)
        jt = tl.jobs[0]
        gantt = render_job_timeline(jt)
        assert "job j-0" in gantt and "[completed]" in gantt
        assert "retries=1" in gantt
        assert "@n5" in gantt
        assert "status=run-node-lost" in gantt
        assert "job.run" in render_critical_path(jt)
        table = render_phase_table(tl)
        assert "1 traced jobs" in table
        assert "verdict: clean" in render_anomalies(tl)

    def test_degraded_verdict(self):
        tl = build_timeline(RETRY_TRACE, dropped=3)
        assert "DEGRADED" in render_anomalies(tl)


class TestEndToEnd:
    def test_rpc_run_reconstructs_with_remote_spans(self, tmp_path):
        wl = FIGURE2_SCENARIOS["clustered-light"].scaled(0.04)
        tel = Telemetry(sample_interval=10.0)
        out = run_workload(wl, "rn-tree", seed=7, telemetry=tel,
                           grid_overrides={"probe_mode": "rpc",
                                           "dispatch_ack": True})
        assert out.finished
        tl = timeline_from_bus(tel.bus)
        assert tl.healthy
        assert tl.cells == 1
        assert len(tl.jobs) == out.summary["jobs_done"]
        # Every job reached a terminal state and has a full phase chain.
        jt = tl.slowest(1)[0]
        assert jt.terminal is not None
        cats = {s.category for s in jt.spans}
        assert {"job.lifecycle", "job.insert", "job.match", "job.queue",
                "job.run"} <= cats
        # Remote rpc.server spans are parented under the probe round that
        # caused them — the cross-node propagation at work.
        probed = [j for j in tl.jobs for s in j.spans
                  if s.category == "job.probe"]
        assert probed, "rpc probe mode should emit probe spans"
        some_probe = next(s for j in probed for s in j.spans
                          if s.category == "job.probe" and s.children)
        assert any(c.category == "rpc.server" for c in some_probe.children)
        # JSONL round trip reconstructs the same trees.
        path = tmp_path / "trace.jsonl"
        tel.export_jsonl(path)
        tl2 = timeline_from_jsonl(path)
        assert len(tl2.jobs) == len(tl.jobs)
        assert tl2.healthy
        a = tl.slowest(3)
        b = tl2.slowest(3)
        assert [(j.trace_id, j.makespan, j.retries) for j in a] \
            == [(j.trace_id, j.makespan, j.retries) for j in b]

    @pytest.mark.parametrize("maxlen", [None, 1500])
    def test_bus_and_jsonl_timelines_agree_structurally(self, tmp_path,
                                                        maxlen):
        """The live-bus reader and the JSONL reader build the same trees:
        per (cell, trace), the spans with their parent links and child
        order, the point-event positions and the orphans.  The bounded
        ring makes truncation part of the comparison."""
        wl = FIGURE2_SCENARIOS["clustered-light"].scaled(0.04)
        tel = Telemetry(sample_interval=10.0, maxlen=maxlen)
        run_workload(wl, "rn-tree", seed=7, telemetry=tel,
                     grid_overrides={"probe_mode": "rpc",
                                     "dispatch_ack": True})
        path = tmp_path / "trace.jsonl"
        tel.export_jsonl(path)
        live, disk = timeline_from_bus(tel.bus), timeline_from_jsonl(path)

        def span(s):
            return (s.category, s.time, s.duration, s.parent_id, s.span_id,
                    s.orphan, s.keys, s.values,
                    [c.span_id for c in s.children])

        def shape(tl):
            return {(j.cell, j.trace_id): (
                [span(s) for s in j.spans], [span(s) for s in j.roots],
                j.events, [s.span_id for s in j.orphans])
                for j in tl.jobs}

        assert shape(live) == shape(disk)
        assert any(j.events for j in live.jobs)
        assert live.phase_percentiles() == disk.phase_percentiles()
        assert live.anomalies() == disk.anomalies()
        assert (live.cells, live.truncated, live.untraced_spans) \
            == (disk.cells, disk.truncated, disk.untraced_spans)
        if maxlen is not None:
            assert live.truncated == tel.bus.dropped > 0
