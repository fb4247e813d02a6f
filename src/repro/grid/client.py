"""Clients: job submission and last-resort resubmission.

A client is a lightweight network endpoint (it is *not* a grid node; the
paper's clients merely inject jobs and collect results).  Per §2, if both
the owner and the run node fail before recovery completes, "the client
must resubmit the job" — the client learns this only from silence: with
resubmission on, each job's owner relays a ``status`` at most once per
``client_check_interval`` (on an arriving heartbeat), and a job with no
status and no result for ``client_timeout`` is resubmitted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.grid.job import Job, JobState
from repro.sim.network import Message
from repro.sim.process import PeriodicTask
from repro.util.ids import guid_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.system import DesktopGrid

#: Wait-time histogram edges (virtual seconds); wait times span several
#: orders of magnitude across load levels, so the edges are log-spaced.
WAIT_EDGES = (0.0, 0.5, 1, 2, 5, 10, 20, 50, 100, 200,
              500, 1000, 2000, 5000, 10000)


class Client:
    """A job submitter/collector endpoint."""

    def __init__(self, name: str, grid: "DesktopGrid"):
        self.name = name
        self.node_id = guid_for(f"client:{name}")
        self.grid = grid
        self.alive = True
        self.pending: dict[int, Job] = {}
        self._last_seen: dict[int, float] = {}
        self.completed: list[Job] = []
        self.resubmissions = 0
        self.duplicate_results = 0
        #: Submissions refused by admission control (quota knob).
        self.rejected = 0
        self._watch_task: PeriodicTask | None = None

    # -- submission --------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Inject ``job`` now (schedule via ``DesktopGrid.submit_at`` for
        future submission times)."""
        cfg = self.grid.cfg
        if cfg.admission and len(self.pending) >= cfg.admission_quota:
            # Admission control: fail fast at the edge — no owner
            # routing, no matchmaking traffic, no retry churn — so
            # quota pressure sheds load instead of amplifying it.  The
            # rejection is terminal and locally decided: no messages, no
            # RNG draws (defaults-off bit-identity depends on this).
            if job.state is JobState.CREATED:
                job.submit_time = self.grid.sim.now
            job.attempt += 1
            job.state = JobState.FAILED
            job.failure_reason = "admission: client quota exceeded"
            self.rejected += 1
            self.grid.trace.record(self.grid.sim.now, "reject",
                                   job=job.name, pending=len(self.pending))
            tel = self.grid.telemetry
            if tel.enabled:
                tel.metrics.counter("jobs.rejected").inc()
            self.grid.metrics.on_job_done(job)
            return
        job.attempt += 1
        if job.state is JobState.CREATED:
            job.submit_time = self.grid.sim.now
        job.state = JobState.SUBMITTED
        self.pending[job.guid] = job
        self._last_seen[job.guid] = self.grid.sim.now
        self.grid.trace.record(self.grid.sim.now, "submit",
                               job=job.name, attempt=job.attempt)
        tel = self.grid.telemetry
        if tel.enabled:
            tel.metrics.counter("jobs.submitted").inc()
            if "tel_job" not in job.extra:
                job.extra["tel_job"] = tel.bus.begin_span(
                    self.grid.sim.now, "job.lifecycle", trace=job.guid,
                    job=job.name, client=self.name)
        self.grid.inject(job, client=self)
        if self.grid.cfg.client_resubmit_enabled:
            self._ensure_watch_task()

    # -- endpoint ----------------------------------------------------------

    def handle_message(self, msg: Message) -> None:
        if msg.kind == "status":
            # A status that trails the result must not re-add an entry.
            if msg.payload in self.pending:
                self._last_seen[msg.payload] = self.grid.sim.now
        elif msg.kind == "result":
            self._on_result(msg.payload)
        else:
            raise ValueError(f"client got unexpected message kind {msg.kind!r}")

    def _on_result(self, job: Job) -> None:
        if job.guid not in self.pending:
            self.duplicate_results += 1
            return
        self.pending.pop(job.guid)
        self._last_seen.pop(job.guid, None)
        if job.state is not JobState.FAILED:
            job.state = JobState.COMPLETED
        job.finish_time = self.grid.sim.now
        self.completed.append(job)
        self.grid.trace.record(self.grid.sim.now, "complete",
                               job=job.name, state=job.state.value,
                               wait=job.wait_time)
        tel = self.grid.telemetry
        if tel.enabled:
            # A resubmission race can deliver attempt N's result while
            # attempt N+1 is mid-flight with fresh phase spans open
            # (e.g. a just-begun tel_insert); sweep them so no span —
            # and no dht.lookup child of one — is left orphaned.
            tel.close_job_spans(job, job.state.value)
            tel.bus.end_span(job.extra.pop("tel_job", None),
                             self.grid.sim.now, state=job.state.value,
                             wait=job.wait_time, attempts=job.attempt)
            tel.metrics.counter(f"jobs.{job.state.value}").inc()
            tel.metrics.histogram("jobs.wait_time",
                                  edges=WAIT_EDGES).observe(job.wait_time)
        self.grid.metrics.on_job_done(job)

    # -- resubmission watchdog ----------------------------------------------

    def _ensure_watch_task(self) -> None:
        if self._watch_task is not None:
            self._watch_task.wake()  # no-op unless parked
        else:
            cfg = self.grid.cfg
            self._watch_task = PeriodicTask(
                self.grid.sim, cfg.client_check_interval, self._check_pending,
                rng=self.grid.streams.keyed("protocol", self.node_id, "watchdog"),
                jitter=0.1,
            )

    def _check_pending(self) -> None:
        if not self.pending:
            self._watch_task.park()  # idle: the next submit wakes it
            return
        cfg = self.grid.cfg
        now = self.grid.sim.now
        for guid, job in list(self.pending.items()):
            deadline = cfg.client_timeout
            if now - self._last_seen.get(guid, job.submit_time) <= deadline:
                continue
            tel = self.grid.telemetry
            if job.attempt > cfg.client_max_attempts:
                job.state = JobState.LOST
                job.failure_reason = "abandoned after max resubmissions"
                self.pending.pop(guid)
                if tel.enabled:
                    # Abandonment is terminal and no "result" message will
                    # ever close these: sweep the phase spans and the
                    # lifecycle span here so LOST jobs appear in traces.
                    tel.close_job_spans(job, "lost")
                    tel.bus.end_span(job.extra.pop("tel_job", None), now,
                                     state="lost", attempts=job.attempt)
                self.grid.metrics.on_job_done(job)
                continue
            self.resubmissions += 1
            self.grid.metrics.on_resubmission(job)
            if tel.enabled:
                tel.metrics.counter("jobs.resubmitted").inc()
                # The old attempt's phases are dead; close them so the
                # resubmission's fresh spans read as a new chain.
                tel.close_job_spans(job, "resubmitted")
            job.state = JobState.SUBMITTED
            job.owner_id = None
            job.run_node_id = None
            job.attempt += 1
            self._last_seen[guid] = now
            self.grid.inject(job, client=self)
