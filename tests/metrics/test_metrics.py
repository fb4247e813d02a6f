"""Metrics collector and report rendering."""

import math

import pytest

from repro.grid.job import Job, JobProfile, JobState
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import format_barchart, format_table


def finished_job(name, submit=0.0, start=5.0, finish=15.0,
                 state=JobState.COMPLETED, **fields):
    job = Job(profile=JobProfile(name=name, client_id=1,
                                 requirements=(0.0, 0.0, 0.0), work=10.0))
    job.submit_time, job.start_time, job.finish_time = submit, start, finish
    job.state = state
    for k, v in fields.items():
        setattr(job, k, v)
    return job


class TestCollector:
    def test_wait_times_only_completed(self):
        mc = MetricsCollector()
        mc.on_job_done(finished_job("a", start=3.0))
        mc.on_job_done(finished_job("b", state=JobState.FAILED))
        waits = mc.wait_times()
        assert list(waits) == [3.0]

    def test_summary_values(self):
        mc = MetricsCollector()
        mc.on_job_done(finished_job("a", start=2.0, match_hops=3,
                                    owner_route_hops=4, match_probes=2))
        mc.on_job_done(finished_job("b", start=6.0, match_hops=5,
                                    owner_route_hops=2, match_probes=4))
        s = mc.summary()
        assert s["completed"] == 2
        assert s["wait_mean"] == pytest.approx(4.0)
        assert s["wait_std"] == pytest.approx(2.0)
        assert s["match_hops_mean"] == pytest.approx(4.0)
        assert s["owner_hops_mean"] == pytest.approx(3.0)
        assert s["probes_mean"] == pytest.approx(3.0)
        assert s["match_cost_mean"] == pytest.approx(10.0)

    def test_empty_summary_is_nan(self):
        s = MetricsCollector().summary()
        assert math.isnan(s["wait_mean"])
        assert s["jobs_done"] == 0

    def test_recovery_and_resubmission_counters(self):
        mc = MetricsCollector()
        job = finished_job("a")
        mc.on_recovery("run-node", job)
        mc.on_recovery("run-node", job)
        mc.on_recovery("owner", job)
        mc.on_resubmission(job)
        s = mc.summary()
        assert s["recoveries_run_node"] == 2
        assert s["recoveries_owner"] == 1
        assert s["resubmissions"] == 1

    def test_lost_jobs_bucketed(self):
        mc = MetricsCollector()
        mc.on_job_done(finished_job("gone", state=JobState.LOST))
        assert len(mc.lost()) == 1
        assert len(mc.completed()) == 0

    def test_fairness_included_when_loads_given(self):
        mc = MetricsCollector()
        s = mc.summary(node_loads=[2, 2, 2, 2])
        assert s["load_fairness"] == pytest.approx(1.0)


    def test_per_job_cost_arrays_cover_completed_jobs(self):
        mc = MetricsCollector()
        mc.on_job_done(finished_job("a", match_hops=3, owner_route_hops=4,
                                    match_probes=2, pushes=1))
        mc.on_job_done(finished_job("x", state=JobState.FAILED,
                                    owner_route_hops=9))
        mc.on_job_done(finished_job("b", match_hops=5, owner_route_hops=2,
                                    match_probes=4))
        assert list(mc.match_hops()) == [3.0, 5.0]
        # hops + probes + pushes + owner routing, per job
        assert list(mc.total_matchmaking_cost()) == [10.0, 11.0]


class TestReport:
    def test_table_alignment_and_content(self):
        out = format_table(["name", "value"], [["alpha", 1.5], ["b", 22.25]],
                           title="Demo")
        lines = out.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[2] and "value" in lines[2]
        assert "alpha" in out and "22.25" in out
        # All data rows share one width.
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])


class TestBarchart:
    GROUPS = [
        ("light", [("a", 10.0), ("b", 40.0)]),
        ("heavy", [("a", 20.0), ("b", 80.0)]),
    ]

    def test_bars_scale_to_global_max(self):
        out = format_barchart("demo", self.GROUPS, width=40)
        lines = {line.split("|")[0].strip(): line
                 for line in out.splitlines() if "|" in line}
        # b-in-heavy is the global max: full width.
        assert lines["b"].count("#") >= 40 or \
            out.splitlines()[-1].count("#") == 40
        # a-in-light is 1/8 of max: ~5 chars.
        first_a = next(line for line in out.splitlines() if "| 10.00" in line)
        assert first_a.count("#") == 5

    def test_group_labels_present(self):
        out = format_barchart("demo", self.GROUPS)
        assert "light:" in out and "heavy:" in out

    def test_zero_value_gets_empty_bar(self):
        out = format_barchart("z", [("g", [("none", 0.0), ("some", 5.0)])])
        none_line = next(line for line in out.splitlines() if "none" in line)
        assert "#" not in none_line

    def test_unit_suffix(self):
        out = format_barchart("u", self.GROUPS, unit=" s")
        assert "10.00 s" in out

    def test_empty_groups(self):
        assert "(no data)" in format_barchart("e", [])

    def test_narrow_width_rejected(self):
        with pytest.raises(ValueError):
            format_barchart("w", self.GROUPS, width=4)
