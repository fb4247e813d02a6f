"""Process-parallel sweep engine shared by every experiment driver.

Every experiment is a grid of independent (workload, matchmaker, seed)
cells, and each cell owns its RNG (:class:`repro.util.rng.RngStreams` is
seed+name keyed), so cells can run in worker processes and produce
outcomes *bit-identical* to the serial loop.  :func:`map_cells` is the one
fan-out primitive: an ordered pool map.  It submits one future per cell
in declaration order and collects the results in that same order; a
traced worker spools its telemetry to a chunked columnar file
(:mod:`repro.telemetry.spool`) that the parent folds as the cell's result
is collected.

Determinism contract:

* With ``jobs=1`` the cells run in-process, in order, sharing the
  caller's telemetry (when given).
* With ``jobs>1`` each cell's result is produced by the same function
  with the same arguments in a fresh process, and worker metric *and
  trace-bus* states are folded in submission order — counters,
  histograms, final gauge values, the span stream and the final clock
  all match the serial run (histogram running *totals* can differ in the
  last ulp: float addition is not associative across the per-worker
  partial sums).  Worker span ids are renumbered on fold so the combined
  stream carries exactly the ids one shared serial bus would have
  allocated.

``REPRO_JOBS`` supplies a default worker count when the caller does not
pass one; ``0`` means "all cores".
"""

from __future__ import annotations

import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

#: Environment variable consulted when no explicit ``jobs`` is given.
ENV_JOBS = "REPRO_JOBS"


@dataclass(frozen=True)
class Call:
    """One prepared cell invocation."""

    args: tuple = ()
    kwargs: dict = field(default_factory=dict)


def call(*args: Any, **kwargs: Any) -> Call:
    """Package one cell invocation for :func:`map_cells`."""
    return Call(args, kwargs)


def resolve_jobs(jobs: int | None = None) -> int:
    """Effective worker count: explicit argument, else ``$REPRO_JOBS``,
    else 1.  Zero means "one worker per core"; a negative count or a
    non-integer ``$REPRO_JOBS`` is an error."""
    if jobs is None:
        raw = os.environ.get(ENV_JOBS, "1")
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(f"${ENV_JOBS} must be an integer worker count, "
                             f"got {raw!r}") from None
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = all cores), got {jobs}")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return jobs


@dataclass(frozen=True)
class _TelemetrySpec:
    """The picklable subset of a Telemetry config a worker reconstructs.

    The worker's stack must filter and bound its bus exactly like the
    parent's, or the merged stream would diverge from the serial run —
    so the bus-shaping settings (categories, maxlen, flight ring) ride
    along with the sampler interval.
    """

    sample_interval: float | None
    categories: frozenset[str] | None = None
    maxlen: int | None = None
    flight_ring: int = 64

    @classmethod
    def of(cls, telemetry) -> "_TelemetrySpec | None":
        if telemetry is None or not telemetry.enabled:
            return None
        cats = telemetry.bus.categories
        flight = telemetry.flight
        return cls(sample_interval=telemetry.sample_interval,
                   categories=frozenset(cats) if cats is not None else None,
                   maxlen=telemetry.bus.maxlen,
                   flight_ring=flight.maxlen if flight is not None else 0)


def _run_cell(fn: Callable, c: Call, spec: _TelemetrySpec | None,
              spool: str | None):
    """Worker-side execution of one cell (module-level so it pickles).

    A traced cell runs against a fresh telemetry stack and spools it to
    ``spool`` for the parent to fold.
    """
    if spec is None:
        return fn(*c.args, **c.kwargs)
    from repro.telemetry.core import Telemetry
    from repro.telemetry.spool import write_spool

    tel = Telemetry(categories=spec.categories, maxlen=spec.maxlen,
                    sample_interval=spec.sample_interval,
                    flight_ring=spec.flight_ring)
    result = fn(*c.args, telemetry=tel, **c.kwargs)
    write_spool(spool, tel)
    return result


def map_cells(fn: Callable, calls: Iterable[Call], *,
              jobs: int | None = None, telemetry=None) -> list:
    """Run ``fn`` on every prepared call; results come back in call order.

    ``fn`` must be module-level (it pickles for ``jobs>1``); ``jobs=None``
    consults ``$REPRO_JOBS`` (default 1).  A serial run passes
    ``telemetry`` straight into ``fn``; a parallel run gives each cell a
    fresh stack and folds the spools back in submission order.

    On a cell failure the pool cancels every not-yet-running cell and
    shuts down without waiting (running cells finish and are discarded),
    then the cell's exception is re-raised.
    """
    calls = list(calls)
    if telemetry is not None and not telemetry.enabled:
        telemetry = None
    n_jobs = min(resolve_jobs(jobs), max(len(calls), 1))
    if n_jobs <= 1:
        if telemetry is None:
            return [fn(*c.args, **c.kwargs) for c in calls]
        return [fn(*c.args, telemetry=telemetry, **c.kwargs) for c in calls]

    from repro.telemetry.spool import fold_spool

    spec = _TelemetrySpec.of(telemetry)
    spool_dir = tempfile.mkdtemp(prefix="repro-spool-") \
        if spec is not None else None
    spools = [os.path.join(spool_dir, f"c{i:06d}.spool")
              if spool_dir is not None else None for i in range(len(calls))]
    pool = ProcessPoolExecutor(max_workers=n_jobs)
    try:
        futures = [pool.submit(_run_cell, fn, c, spec, spool)
                   for c, spool in zip(calls, spools)]
        results = []
        for fut, spool in zip(futures, spools):
            results.append(fut.result())
            if spool is not None:
                fold_spool(spool, telemetry)
                os.unlink(spool)
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    else:
        pool.shutdown(wait=True)
    finally:
        if spool_dir is not None:
            shutil.rmtree(spool_dir, ignore_errors=True)
    return results
