"""Workload generation (paper §3.3).

"Our test workloads differ on two axes.  Workloads are categorized as
either clustered or mixed.  The former divides all nodes and jobs into a
small number of equivalence classes ... The latter assigns node
capabilities and job constraints randomly. ... workloads are also
distinguished by whether the jobs are lightly or heavily constrained."
"""

from repro.workloads.spec import WorkloadConfig, FIGURE2_SCENARIOS
from repro.workloads.nodes import generate_nodes
from repro.workloads.jobs import generate_job_stream

__all__ = [
    "WorkloadConfig",
    "FIGURE2_SCENARIOS",
    "generate_nodes",
    "generate_job_stream",
]
