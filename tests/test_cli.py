"""The ``python -m repro`` command-line interface."""

import pytest

from repro.cli import (
    EXPERIMENTS,
    SINGLE_SEED_EXPERIMENTS,
    TELEMETRY_RUNNERS,
    build_parser,
    main,
)


# Each row is rejected at parse time (exit 2 with a usage message naming
# the bound), before the experiment builds anything.  The small
# --scale/--sizes keep a row cheap on a tree that would instead run it and
# fail (or succeed) from inside the sweep.
BAD_NUMERIC_ARGS = [
    (["run", "figure2", "--jobs", "-1"], "worker count must be >= 0"),
    (["run", "figure2", "--jobs", "two"], "bad worker count"),
    (["run", "figure2", "--jobs", "1.5"], "bad worker count"),
    (["run", "figure2", "--scale", "0"], "scale must be > 0"),
    (["run", "figure2", "--scale", "-0.5"], "scale must be > 0"),
    (["run", "figure2", "--scale", "nan"], "scale must be > 0"),
    (["run", "figure2", "--scale", "inf"], "scale must be > 0"),
    (["trace", "figure2", "--scale", "0"], "scale must be > 0"),
    (["job-trace", "figure2", "--scale", "0"], "scale must be > 0"),
    (["run", "figure2", "--scale", "0.01", "--seeds", "-1"],
     "seeds must be >= 0"),
    (["run", "large-scale", "--scale", "0.01", "--sizes", "50",
      "--churn-n", "-3"], "churn ring size must be >= 1"),
    (["run", "large-scale", "--scale", "0.01", "--sizes", "50",
      "--churn-n", "0"], "churn ring size must be >= 1"),
    (["trace", "figure2", "--scale", "0.01", "--buffer", "-5"],
     "buffer capacity must be >= 1"),
    (["trace", "figure2", "--scale", "0.01", "--buffer", "0"],
     "buffer capacity must be >= 1"),
    (["job-trace", "figure2", "--scale", "0.02", "--buffer", "0"],
     "buffer capacity must be >= 1"),
    (["job-trace", "figure2", "--scale", "0.02", "--slowest", "-2"],
     "slowest-job count must be >= 0"),
]


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nonexistent"])

    def test_seed_parsing(self):
        args = build_parser().parse_args(["run", "figure2", "--seeds", "3,5"])
        assert args.seeds == (3, 5)

    def test_bad_seed_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "figure2", "--seeds", "a,b"])

    @pytest.mark.parametrize("command", [["run", "figure2"],
                                         ["job-trace", "figure2"]])
    def test_jobs_parsing(self, command):
        parser = build_parser()
        assert parser.parse_args(command + ["--jobs", "3"]).jobs == 3
        assert parser.parse_args(command + ["--jobs", "0"]).jobs == 0
        assert parser.parse_args(command).jobs is None

    @pytest.mark.parametrize("argv, message", BAD_NUMERIC_ARGS,
                             ids=[" ".join(argv) for argv, _ in BAD_NUMERIC_ARGS])
    def test_bad_numeric_argument_is_a_usage_error(self, argv, message,
                                                   capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_bounded_arguments_accept_their_bounds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "large-scale", "--scale", "1e-3",
                                  "--churn-n", "1"])
        assert (args.scale, args.churn_n) == (1e-3, 1)
        args = parser.parse_args(["job-trace", "figure2", "--buffer", "1",
                                  "--slowest", "0"])
        assert (args.buffer, args.slowest) == (1, 0)
        assert parser.parse_args(["trace", "figure2"]).buffer == 200_000

    def test_registry_covers_every_driver(self):
        # Every public run_* experiment driver is reachable from the CLI.
        import repro.experiments as exp

        drivers = {name for name in exp.__all__ if name.startswith("run_")}
        # runner-internal helpers are not standalone experiments
        drivers -= {"run_workload", "run_replicates"}
        assert len(EXPERIMENTS) == len(drivers)


class TestExecution:
    def test_run_small_experiment(self, capsys, tmp_path):
        code = main(["run", "ablation-k", "--scale", "0.06",
                     "--out", str(tmp_path), "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "RN-Tree extended search" in out
        assert "[ok]" in out
        assert (tmp_path / "ablation-k.txt").exists()

    def test_check_flag_propagates_failures(self, capsys, monkeypatch):
        class FakeResult:
            def report(self):
                return "fake"

            def shape_checks(self):
                return {"doomed": False}

        monkeypatch.setitem(EXPERIMENTS, "ablation-k",
                            ("desc", lambda scale, seeds: FakeResult()))
        assert main(["run", "ablation-k", "--check"]) == 1
        assert main(["run", "ablation-k"]) == 0  # informational without --check


class _FakeResult:
    def report(self):
        return "fake report"


class TestSeedPlumbing:
    def test_single_seed_experiments_warn_on_extra_seeds(
            self, capsys, monkeypatch):
        assert "ablation-k" in SINGLE_SEED_EXPERIMENTS
        monkeypatch.setitem(EXPERIMENTS, "ablation-k",
                            ("desc", lambda scale, seeds: _FakeResult()))
        assert main(["run", "ablation-k", "--seeds", "1,2,3"]) == 0
        err = capsys.readouterr().err
        assert "single-replicate" in err
        assert "[2, 3]" in err

    def test_no_warning_for_single_seed(self, capsys, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "ablation-k",
                            ("desc", lambda scale, seeds: _FakeResult()))
        assert main(["run", "ablation-k"]) == 0
        assert "single-replicate" not in capsys.readouterr().err

    def test_multi_seed_experiments_receive_all_seeds(self, monkeypatch):
        got = {}

        def fake_runner(scale, seeds):
            got["seeds"] = seeds
            return _FakeResult()

        monkeypatch.setitem(EXPERIMENTS, "hops", ("desc", fake_runner))
        assert main(["run", "hops", "--seeds", "4,5"]) == 0
        assert got["seeds"] == (4, 5)

    def test_hops_runner_forwards_every_seed(self, monkeypatch):
        # The regression this guards: 'repro run hops --seeds 1,2,3' used
        # to silently run only seed 1.
        import repro.cli as cli_mod

        seen = []
        monkeypatch.setattr(
            cli_mod, "run_hops_experiment",
            lambda scale, seeds, **kw: seen.append(seeds) or _FakeResult())
        _desc, runner = cli_mod.EXPERIMENTS["hops"]
        runner(0.1, (1, 2, 3))
        assert seen == [(1, 2, 3)]


class TestTrace:
    def test_trace_requires_telemetry_capable_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "churn"])

    def test_trace_runs_and_exports(self, capsys, monkeypatch, tmp_path):
        def fake_runner(scale, seeds, tel):
            tel.bus.record(1.0, "job.match", job="j1")
            tel.metrics.counter("jobs.submitted").inc()
            return _FakeResult()

        monkeypatch.setitem(TELEMETRY_RUNNERS, "hops", fake_runner)
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "hops", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Trace buffer" in text
        assert out.exists()
        from repro.telemetry import load_jsonl

        cats = [r["cat"] for r in load_jsonl(out)]
        assert "job.match" in cats
        assert "metrics.snapshot" in cats

    def test_trace_category_filter(self, monkeypatch):
        captured = {}

        def fake_runner(scale, seeds, tel):
            captured["tel"] = tel
            return _FakeResult()

        monkeypatch.setitem(TELEMETRY_RUNNERS, "figure2", fake_runner)
        assert main(["trace", "figure2",
                     "--categories", "dht.lookup,job.match",
                     "--buffer", "500"]) == 0
        tel = captured["tel"]
        assert tel.bus.categories == {"dht.lookup", "job.match"}
        assert tel.bus.maxlen == 500

    def test_unwritable_telemetry_path_fails_fast(self, capsys):
        # Before the fix this crashed with a raw traceback *after* the
        # whole experiment had already run.
        assert main(["trace", "hops", "--out", "/nonexistent/d/x.jsonl"]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert main(["run", "hops",
                     "--telemetry", "/nonexistent/d/x.jsonl"]) == 2

    def test_run_telemetry_unsupported_warns(self, capsys, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "ablation-k",
                            ("desc", lambda scale, seeds: _FakeResult()))
        assert main(["run", "ablation-k", "--telemetry", "/tmp/x.jsonl"]) == 0
        assert "does not support" in capsys.readouterr().err


class TestJobTrace:
    def test_job_trace_renders_timelines(self, capsys, tmp_path):
        out = tmp_path / "trace.jsonl"
        code = main(["job-trace", "figure2", "--scale", "0.02",
                     "--slowest", "2", "--check", "--out", str(out)])
        text = capsys.readouterr().out
        assert code == 0
        assert "causal trace:" in text
        assert "job.lifecycle" in text
        assert "critical path:" in text
        assert "Per-phase latency" in text
        assert "verdict: clean" in text
        assert out.exists()
        # The exported stream reconstructs to the same healthy timeline,
        # remote probe spans included (default probe mode is rpc).
        from repro.telemetry.timeline import timeline_from_jsonl

        tl = timeline_from_jsonl(out)
        assert tl.healthy
        assert tl.cells == 12  # 4 scenarios x 3 matchmakers
        cats = {s.category for j in tl.jobs for s in j.spans}
        assert {"job.probe", "job.dispatch", "rpc.server"} <= cats

    def test_job_trace_check_fails_on_anomalies(self, capsys, monkeypatch):
        from repro import cli

        def fake_runner(scale, seeds, tel, overrides, jobs=None):
            # An orphan: parent id 999 never appears in the stream.
            tel.bus.span(1.0, "job.run", parent=999, trace=7, job="j-0")

        monkeypatch.setitem(cli.JOB_TRACE_RUNNERS, "figure2", fake_runner)
        assert main(["job-trace", "figure2", "--check"]) == 1
        assert "anomalies detected" in capsys.readouterr().err

    def test_job_trace_unwritable_out_fails_fast(self, capsys):
        assert main(["job-trace", "figure2",
                     "--out", "/nonexistent/d/x.jsonl"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_probe_mode_oracle_plumbs_overrides(self, monkeypatch):
        from repro import cli

        captured = {}

        def fake_runner(scale, seeds, tel, overrides, jobs=None):
            captured.update(overrides, scale=scale, jobs=jobs)

        monkeypatch.setitem(cli.JOB_TRACE_RUNNERS, "figure2", fake_runner)
        assert main(["job-trace", "figure2", "--probe-mode", "oracle",
                     "--scale", "0.5", "--jobs", "2"]) == 0
        assert captured == {"probe_mode": "oracle", "dispatch_ack": False,
                            "scale": 0.5, "jobs": 2}


class TestPerfHistory:
    def test_perf_history_empty_repo(self, capsys, tmp_path):
        import subprocess

        subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
        assert main(["perf-history", "--repo", str(tmp_path)]) == 0
        assert "no committed revisions" in capsys.readouterr().out

    def test_perf_history_walks_commits(self, capsys, tmp_path):
        import json
        import subprocess

        def git(*args):
            subprocess.run(["git", "-C", str(tmp_path), *args], check=True,
                           capture_output=True)

        git("init", "-q")
        git("config", "user.email", "t@example.com")
        git("config", "user.name", "t")
        doc_dir = tmp_path / "benchmarks" / "reports"
        doc_dir.mkdir(parents=True)
        path = doc_dir / "BENCH_perf.json"
        base = {"schema": 1, "scale": 0.1, "cpu_count": 4, "entries": {
            "grid.steady_state": {"wall_s": 2.0, "events_per_s": 1000.0}}}
        path.write_text(json.dumps(base))
        git("add", "-A")
        git("commit", "-qm", "first bench")
        base["entries"]["grid.steady_state"]["events_per_s"] = 2000.0
        path.write_text(json.dumps(base))
        git("add", "-A")
        git("commit", "-qm", "twice as fast")
        assert main(["perf-history", "--repo", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 measured revision(s)" in out
        assert "grid.steady_state" in out
        assert "2.00x" in out
        assert "twice as fast" in out
