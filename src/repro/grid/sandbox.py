"""Simulated secure-execution sandbox (paper §5).

The paper prescribes process-containment policies for run nodes: jobs may
not read/write outside a prescribed set of files, may not access the
network, and are subject to "generalized quotas to limit overall job
resource usage (e.g., disk space), to minimize the effects of malicious or
runaway jobs".  We implement the *policy-enforcement logic* those
mechanisms provide: a :class:`SandboxPolicy` is evaluated when a job
starts (admission checks) and when it finishes (output quota), and a
violation kills the job, which is exactly the effect containment has on
the grid layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.grid.job import JobProfile


class SandboxViolation(Exception):
    """A job violated its run node's sandbox policy."""

    def __init__(self, rule: str, detail: str):
        super().__init__(f"{rule}: {detail}")
        self.rule = rule
        self.detail = detail


@dataclass(frozen=True)
class SandboxPolicy:
    """Containment policy enforced by every run node.

    Attributes
    ----------
    allow_network:
        The paper constrains jobs "to not be able to access the network";
        profiles that declare a network dependency are rejected on start.
    disk_quota_kb:
        Maximum total disk footprint (input staged + output produced).
    output_quota_kb:
        Maximum output size; "all output produced is stored on the node
        executing the job until the job terminates", so the node checks the
        produced size before accepting termination.
    max_runtime_factor:
        Runaway-job guard: a job is killed at ``max_runtime_factor *``
        its declared work if its served time (work plus staging) would
        exceed that (None disables).
    """

    allow_network: bool = False
    disk_quota_kb: float = 1024.0
    output_quota_kb: float = 512.0
    max_runtime_factor: float | None = 10.0

    def check_admission(self, profile: JobProfile,
                        needs_network: bool = False) -> None:
        """Checks applied before the job starts executing."""
        if needs_network and not self.allow_network:
            raise SandboxViolation("network", f"job {profile.name} requires network access")
        if profile.input_size_kb > self.disk_quota_kb:
            raise SandboxViolation(
                "disk-quota",
                f"input {profile.input_size_kb} KB exceeds quota {self.disk_quota_kb} KB",
            )

    def check_completion(self, profile: JobProfile,
                         produced_kb: float | None = None) -> None:
        """Checks applied when the job terminates (output is local until then)."""
        produced = profile.output_size_kb if produced_kb is None else produced_kb
        if produced > self.output_quota_kb:
            raise SandboxViolation(
                "output-quota",
                f"output {produced} KB exceeds quota {self.output_quota_kb} KB",
            )
        if profile.input_size_kb + produced > self.disk_quota_kb:
            raise SandboxViolation(
                "disk-quota",
                f"footprint {profile.input_size_kb + produced} KB exceeds "
                f"quota {self.disk_quota_kb} KB",
            )

    def runtime_limit(self, profile: JobProfile) -> float | None:
        """Wall-clock kill limit for a job, or None when disabled."""
        if self.max_runtime_factor is None:
            return None
        return self.max_runtime_factor * profile.work
