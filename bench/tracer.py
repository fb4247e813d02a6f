"""Span tracer for the traced benchmark pass, and the plan that maps this
repo's public functions to layers.

Everything here works from the outside: :func:`install_plan` swaps class
attributes and module globals for timing wrappers and ``Tracer.uninstall``
puts the originals back, so nothing under ``src/`` knows it is being traced.
The program is single-threaded, so one span stack suffices.

A span is ``(id, parent id, function, start, end, trace id)``; its id is its
row in the columnar buffers, which are allocated once, capped at
:data:`SPAN_CAP` rows and written after the clock stops.  Aggregates (calls,
self time, inclusive time, log-bucket duration histograms) are updated online
and keep counting after the buffers are full.  Self time is a span's duration
minus its direct children, so self times over all functions plus the tracer's
own bookkeeping (clocked separately, :attr:`Tracer.overhead_s`, and charged to
no layer) sum to the duration of the root spans.

Tracing draws no randomness and schedules nothing: a traced pass must
reproduce the untraced pass's simulated statistics bit for bit.
"""

from __future__ import annotations

import inspect
import math
import sys
from array import array
from functools import partial, update_wrapper
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

#: Raw spans kept per traced pass; later spans still feed the aggregates.
SPAN_CAP = 2_000_000

#: Layers are this repo's module names.  ``other`` holds repro code outside
#: the named modules, so a later PR that adds a module is still attributed.
LAYERS = (
    "sim.kernel", "sim.network", "sim.rpc", "dht.chord", "dht.can",
    "match.search", "match.select", "match.maintain", "grid.node",
    "grid.client", "grid.system", "metrics", "telemetry", "scenarios",
    "workloads", "experiments.runner", "other",
)

#: Callback attribution: longest matching module prefix wins.
MODULE_LAYERS = (
    ("repro.sim.kernel", "sim.kernel"),
    ("repro.sim.process", "sim.kernel"),
    ("repro.sim.network", "sim.network"),
    ("repro.sim.rpc", "sim.rpc"),
    ("repro.sim.failure", "scenarios"),
    ("repro.scenarios", "scenarios"),
    ("repro.dht.chord", "dht.chord"),
    ("repro.dht.can", "dht.can"),
    ("repro.match.select", "match.select"),
    ("repro.match", "match.maintain"),
    ("repro.grid.client", "grid.client"),
    ("repro.grid.system", "grid.system"),
    ("repro.grid", "grid.node"),
    ("repro.metrics", "metrics"),
    ("repro.telemetry", "telemetry"),
    ("repro.workloads", "workloads"),
    ("repro.experiments", "experiments.runner"),
)

#: Duration histograms: 8 buckets per octave (9 % wide) from 2**-4 us up.
_HIST_PER_OCTAVE = 8
_HIST_MIN_EXP = -4
_HIST_BUCKETS = (24 - _HIST_MIN_EXP) * _HIST_PER_OCTAVE  # up to 2**24 us


def module_layer(module: str | None) -> str:
    if module:
        for prefix, layer in MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


def _bucket(seconds: float) -> int:
    us = seconds * 1e6
    if us <= 2.0 ** _HIST_MIN_EXP:
        return 0
    b = int((math.log2(us) - _HIST_MIN_EXP) * _HIST_PER_OCTAVE)
    return b if b < _HIST_BUCKETS else _HIST_BUCKETS - 1


def hist_percentile_us(hist: list[int], q: float) -> float:
    """The q-th percentile (0..100) of a duration histogram, in microseconds
    (geometric middle of the bucket that holds it; 0 when empty)."""
    total = sum(hist)
    if not total:
        return 0.0
    rank = q / 100.0 * total
    seen = 0
    for b, count in enumerate(hist):
        seen += count
        if count and seen >= rank:
            return 2.0 ** (_HIST_MIN_EXP + (b + 0.5) / _HIST_PER_OCTAVE)
    return 0.0


class _TaggedCallback(partial):
    """``partial(tracer.callback, fn)``: marks an already wrapped callback so
    it is not wrapped twice when one scheduling entry point calls another."""


class Tracer:
    """Span stack, online aggregates and columnar span buffers."""

    def __init__(self, cap: int = SPAN_CAP, job_type: type | None = None,
                 message_type: type | None = None):
        self.cap = cap
        #: Classes whose instances carry a job GUID (``.guid`` /
        #: ``.payload.guid``); spans receiving one take it as trace id.
        self.job_type = job_type
        self.message_type = message_type
        # Per wrapped function.
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self.hists: list[list[int] | None] = []
        self._index: dict[Any, int] = {}
        # Span stack (parallel lists) and id counter.
        self._ids: list[int] = []
        self._guids: list[int] = []
        self._child: list[float] = []
        self._next = [0]
        #: Seconds spent inside wrappers but outside the wrapped calls.
        self._overhead = [0.0]
        # Columnar span buffers; row = span id.
        self.parent = array("i", bytes(4 * cap))
        self.fn = array("H", bytes(2 * cap))
        self.start = array("d", bytes(8 * cap))
        self.end = array("d", bytes(8 * cap))
        self.guid = array("Q", bytes(8 * cap))
        #: Inclusive durations of every kernel callback.
        self.callback_hist = [0] * _HIST_BUCKETS
        self._undo: list[Callable[[], None]] = []
        #: Plan entries whose target no longer exists (skipped, reported).
        self.missing: list[str] = []
        # Phase accounting: aggregates are cumulative; ``begin_phase`` books
        # what accrued since the previous call to the phase then current.
        self._phase: str | None = None
        self._booked = ([], [], [])
        self.phases: dict[str, tuple[list[int], list[float], list[float]]] = {}

    # -- registration ------------------------------------------------------

    def register(self, name: str, layer: str, hist: bool = False) -> int:
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        self.hists.append([0] * _HIST_BUCKETS if hist else None)
        return len(self.names) - 1

    def hist_of(self, name: str) -> list[int]:
        """Duration histogram of the wrapped function ``name`` (empty
        histogram when it was never wrapped)."""
        for fn_name, hist in zip(self.names, self.hists):
            if fn_name == name and hist is not None:
                return hist
        return [0] * _HIST_BUCKETS

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn: Callable, name: str, layer: str, *,
             job_arg: int | None = None, msg_arg: int | None = None,
             hist: bool = False, gate: str | None = None,
             on_result: Callable[[Any], None] | None = None) -> Callable:
        """A timing wrapper around ``fn``.

        ``job_arg`` / ``msg_arg`` name the positional argument holding a Job
        (or a Message whose payload may be one); the span then carries that
        job's GUID, otherwise it inherits its parent's.  ``gate`` names a
        boolean attribute of ``args[0]``: when false the call passes through
        unrecorded (a disabled telemetry sink is the caller's one branch, not
        telemetry work).  ``on_result`` sees a non-None return value, on the
        tracer's time.
        """
        idx = self.register(name, layer, hist)
        ids, guids, child, nxt = self._ids, self._guids, self._child, self._next
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        parent_col, fn_col = self.parent, self.fn
        start_col, end_col, guid_col = self.start, self.end, self.guid
        cap, pc = self.cap, perf_counter
        h = self.hists[idx]
        job_type = self.job_type
        overhead = self._overhead

        def traced(*args, **kwargs):
            if gate is not None and not getattr(args[0], gate):
                return fn(*args, **kwargs)
            t_in = pc()
            sid = nxt[0]
            nxt[0] = sid + 1
            if ids:
                pid = ids[-1]
                g = guids[-1]
            else:
                pid = -1
                g = 0
            if job_arg is not None:
                if len(args) > job_arg:
                    g = args[job_arg].guid
            elif msg_arg is not None and len(args) > msg_arg:
                payload = args[msg_arg].payload
                if type(payload) is job_type:
                    g = payload.guid
            ids.append(sid)
            guids.append(g)
            child.append(0.0)
            result = None
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = pc()
                dur = t1 - t0
                ids.pop()
                guids.pop()
                calls[idx] += 1
                self_s[idx] += dur - child.pop()
                incl_s[idx] += dur
                if h is not None:
                    h[_bucket(dur)] += 1
                if sid < cap:
                    parent_col[sid] = pid
                    fn_col[sid] = idx
                    start_col[sid] = t0
                    end_col[sid] = t1
                    guid_col[sid] = g
                if on_result is not None and result is not None:
                    on_result(result)
                # The parent is charged the whole wrapper, the tracer the
                # part of it that was not the call.
                whole = pc() - t_in
                if child:
                    child[-1] += whole
                overhead[0] += whole - dur

        update_wrapper(traced, fn)
        traced._bench_tracer = self
        return traced

    def callback(self, fn: Callable, *args: Any) -> Any:
        """Run a scheduled callback under a span of the layer that owns
        ``fn`` (by ``fn.__module__``).  One shared entry point, so tagging a
        callback allocates nothing but the extended argument tuple.  The span
        bookkeeping repeats :meth:`wrap`'s on purpose: a shared helper would
        put one more call inside every clocked window."""
        t_in = perf_counter()
        f = fn
        while type(f) is partial:
            f = f.func
        f = getattr(f, "__func__", f)
        idx = self._index.get(f)
        if idx is None:
            if getattr(f, "_bench_tracer", None) is self:
                idx = -1  # a wrapped method: it opens its own span
            else:
                idx = self.register(
                    getattr(f, "__qualname__", repr(f)),
                    module_layer(getattr(f, "__module__", None)))
            self._index[f] = idx
        if idx < 0:
            return fn(*args)
        ids, guids, child, nxt = self._ids, self._guids, self._child, self._next
        sid = nxt[0]
        nxt[0] = sid + 1
        if ids:
            pid = ids[-1]
            g = guids[-1]
        else:
            pid = -1
            g = 0
        job_type, message_type = self.job_type, self.message_type
        for a in args:
            ta = type(a)
            if ta is job_type:
                g = a.guid
                break
            if ta is message_type and type(a.payload) is job_type:
                g = a.payload.guid
                break
        ids.append(sid)
        guids.append(g)
        child.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            dur = t1 - t0
            ids.pop()
            guids.pop()
            self.calls[idx] += 1
            self.self_s[idx] += dur - child.pop()
            self.incl_s[idx] += dur
            self.callback_hist[_bucket(dur)] += 1
            if sid < self.cap:
                self.parent[sid] = pid
                self.fn[sid] = idx
                self.start[sid] = t0
                self.end[sid] = t1
                self.guid[sid] = g
            whole = perf_counter() - t_in
            if child:
                child[-1] += whole
            self._overhead[0] += whole - dur

    def tag(self, fn: Callable) -> Callable:
        """``fn`` as a zero-argument-compatible tagged callback."""
        if type(fn) is _TaggedCallback:
            return fn
        return _TaggedCallback(self.callback, fn)

    # -- patching ----------------------------------------------------------

    def patch_attr(self, owner: Any, name: str, value: Any) -> None:
        """Set ``owner.name = value`` and remember how to undo it."""
        had = name in vars(owner)
        old = vars(owner).get(name)
        setattr(owner, name, value)
        if had:
            self._undo.append(lambda: setattr(owner, name, old))
        else:
            self._undo.append(lambda: delattr(owner, name))

    def wrap_method(self, cls: type, name: str, layer: str, **opts) -> None:
        """Wrap ``cls.name`` where it is defined along the MRO (once per
        function object, so subclasses sharing a method share its span)."""
        for klass in cls.__mro__:
            if name in vars(klass):
                break
        else:
            self.missing.append(f"{cls.__name__}.{name}")
            return
        fn = vars(klass)[name]
        if getattr(fn, "_bench_tracer", None) is self:
            return  # already wrapped through another subclass
        if not inspect.isfunction(fn):
            self.missing.append(f"{cls.__name__}.{name}")
            return
        self.patch_attr(klass, name, self.wrap(
            fn, f"{klass.__name__}.{name}", layer, **opts))

    def wrap_function(self, module: Any, name: str, layer: str,
                      **opts) -> None:
        """Wrap the module-level function ``module.name`` everywhere it has
        been imported by name (``from m import f`` copies the binding)."""
        fn = getattr(module, name, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        wrapped = self.wrap(fn, f"{module.__name__.rsplit('.', 1)[-1]}.{name}",
                            layer, **opts)
        for mod in list(sys.modules.values()):
            if mod is not None and getattr(mod, "__dict__", None) is not None \
                    and mod.__dict__.get(name) is fn:
                self.patch_attr(mod, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- phases ------------------------------------------------------------

    def begin_phase(self, phase: str | None) -> None:
        """Book the aggregates accrued since the last call to the phase that
        was current, then make ``phase`` current (``None`` = stop)."""
        now = (list(self.calls), list(self.self_s), list(self.incl_s))
        if self._phase is not None:
            totals = self.phases.setdefault(self._phase, ([], [], []))
            for total, before, after in zip(totals, self._booked, now):
                # Callbacks register on first sight, so the lists grow.
                total.extend([0] * (len(after) - len(total)))
                before.extend([0] * (len(after) - len(before)))
                for i, v in enumerate(after):
                    total[i] += v - before[i]
        self._booked = now
        self._phase = phase

    def phase_stat(self, phases: tuple[str, ...], name: str | None = None,
                   suffix: str | None = None,
                   layer: str | None = None) -> dict[str, float]:
        """Calls, self and inclusive seconds booked to ``phases`` for the
        functions selected by exact ``name``, method ``suffix`` or ``layer``
        (zeros when nothing matches)."""
        out = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
        for phase in phases:
            calls, self_s, incl_s = self.phases.get(phase, ([], [], []))
            for i in range(len(calls)):
                fn_name = self.names[i]
                if (name is not None and fn_name != name) \
                        or (suffix is not None
                            and fn_name.rsplit(".", 1)[-1] != suffix) \
                        or (layer is not None and self.layers[i] != layer):
                    continue
                out["calls"] += calls[i]
                out["self_s"] += self_s[i]
                out["incl_s"] += incl_s[i]
        return out

    # -- results -----------------------------------------------------------

    @property
    def n_spans(self) -> int:
        return self._next[0]

    @property
    def overhead_s(self) -> float:
        return self._overhead[0]

    @property
    def truncated(self) -> bool:
        return self._next[0] > self.cap

    def dump(self, path: Path) -> None:
        """Write the raw spans (row = span id) and the function table."""
        n = min(self.n_spans, self.cap)
        np.savez(
            path,
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
            fn=np.frombuffer(self.fn, dtype=np.uint16, count=n),
            start=np.frombuffer(self.start, dtype=np.float64, count=n),
            end=np.frombuffer(self.end, dtype=np.float64, count=n),
            guid=np.frombuffer(self.guid, dtype=np.uint64, count=n),
            fn_names=np.array(self.names),
            fn_layers=np.array(self.layers),
            n_spans=np.int64(self.n_spans),
            truncated=np.bool_(self.truncated),
        )


# ---------------------------------------------------------------------------
# The plan: which public functions of this repo belong to which layer.
# ---------------------------------------------------------------------------

class PlanCounters:
    """Counts read from return values of wrapped calls (on the tracer's
    time, not the program's)."""

    def __init__(self) -> None:
        self.searches = 0
        self.search_candidates = 0
        self.search_empty = 0

    def on_search(self, cset: Any) -> None:
        self.searches += 1
        n = len(cset.candidates)
        if not n and cset.reg_idx is not None:
            n = int(cset.reg_idx.size)
        self.search_candidates += n
        if not n:
            self.search_empty += 1


def install_plan(tracer: Tracer) -> PlanCounters:
    """Install wrappers on the public functions of every layer."""
    from repro.dht.can import CANOverlay
    from repro.dht.chord import ChordOverlay
    from repro.experiments import runner
    from repro.grid.client import Client
    from repro.grid.job import Job
    from repro.grid.node import GridNode
    from repro.grid.system import DesktopGrid
    from repro.match import MATCHMAKERS, select
    from repro.match.base import Matchmaker
    from repro.metrics.collector import MetricsCollector
    from repro.scenarios.catalog import Scenario
    from repro.sim.kernel import Simulator
    from repro.sim.network import Message, Network
    from repro.sim.process import PeriodicTask
    from repro.sim.rpc import RpcLayer
    from repro.telemetry import timeline
    from repro.telemetry.bus import TelemetryBus
    from repro.telemetry.core import Telemetry
    from repro.telemetry.registry import MetricsRegistry

    tracer.job_type = Job
    tracer.message_type = Message
    counters = PlanCounters()
    wm, wf, tag = tracer.wrap_method, tracer.wrap_function, tracer.tag

    def replace(cls: type, name: str, make: Callable) -> None:
        """``cls.name = make(original)``, or note that it is gone."""
        orig = vars(cls).get(name)
        if orig is None:
            tracer.missing.append(f"{cls.__name__}.{name}")
        else:
            tracer.patch_attr(cls, name, make(orig))

    # sim.kernel: the run loop is a span; the scheduling entry points only
    # tag the callback they are handed with the layer that owns it.
    wm(Simulator, "run", "sim.kernel")
    callback = tracer.callback

    def tagging(orig: Callable) -> Callable:
        def schedule(self, when, fn, *args):
            if fn is callback or type(fn) is _TaggedCallback:
                return orig(self, when, fn, *args)
            return orig(self, when, callback, fn, *args)
        return schedule

    for name in ("schedule", "schedule_at", "schedule_timer", "post"):
        replace(Simulator, name, tagging)
    # (timer, delay, fn): fn takes no arguments, so the tag must be a
    # zero-argument callable.
    replace(Simulator, "reschedule_timer", lambda orig:
            lambda self, timer, delay, fn: orig(self, timer, delay, tag(fn)))
    # PeriodicTask._fire is kernel time (sim/process.py); the task body
    # belongs to whoever supplied it.
    replace(PeriodicTask, "__init__", lambda orig:
            lambda self, sim, interval, fn, **kwargs:
            orig(self, sim, interval, tag(fn), **kwargs))

    # sim.network
    wm(Network, "send", "sim.network")
    wm(Network, "hop_latency", "sim.network")
    wm(Network, "hop_latency_sum", "sim.network")

    # sim.rpc: reply/timeout continuations and served handlers run inside
    # rpc spans but belong to their own layers.
    wm(RpcLayer, "handle_message", "sim.rpc", msg_arg=2)

    def tagging_call(orig: Callable) -> Callable:
        traced_call = tracer.wrap(orig, "RpcLayer.call", "sim.rpc")

        def call(self, src, dst, method, payload, on_reply, on_timeout,
                 *args, **kwargs):
            return traced_call(self, src, dst, method, payload,
                               tag(on_reply), tag(on_timeout),
                               *args, **kwargs)
        return call

    replace(RpcLayer, "call", tagging_call)
    replace(RpcLayer, "serve", lambda orig:
            lambda self, node_id, handler: orig(self, node_id, tag(handler)))

    # dht.chord / dht.can
    for name in ("build", "join", "crash", "crash_repair", "recover",
                 "leave", "put", "get", "successor_of", "maintenance_round",
                 "repair"):
        wm(ChordOverlay, name, "dht.chord")
    wm(ChordOverlay, "route", "dht.chord", hist=True)
    for name in ("join", "crash", "leave", "zone_owner", "replica_set"):
        wm(CANOverlay, name, "dht.can")
    wm(CANOverlay, "route", "dht.can", hist=True)

    # match.*: every registered matchmaker, wherever it defines the method.
    for cls in dict.fromkeys([Matchmaker, *MATCHMAKERS.values()]):
        wm(cls, "find_owner", "match.search", job_arg=1)
        wm(cls, "search", "match.search", job_arg=2,
           on_result=counters.on_search)
        for name in ("bind", "on_crash", "on_join", "note_queue_change"):
            wm(cls, name, "match.maintain")
    wf(select, "oracle_select", "match.select")
    for cls in dict.fromkeys([select.SelectionPolicy,
                              *select.POLICIES.values()]):
        wm(cls, "probe_targets", "match.select")
        wm(cls, "rank", "match.select")

    # grid.*
    wm(GridNode, "handle_message", "grid.node", msg_arg=1)
    wm(GridNode, "owner_receive", "grid.node", job_arg=1)
    for name in ("crash", "recover", "partition", "heal"):
        wm(GridNode, name, "grid.node")
    wm(Client, "submit", "grid.client", job_arg=1)
    wm(Client, "handle_message", "grid.client", msg_arg=1)
    wm(DesktopGrid, "__init__", "grid.system")
    wm(DesktopGrid, "client", "grid.system")
    wm(DesktopGrid, "submit_at", "grid.system", job_arg=3)
    wm(DesktopGrid, "inject", "grid.system", job_arg=1)
    for name in ("crash_node", "recover_node", "partition_node",
                 "heal_node", "run_until_done"):
        wm(DesktopGrid, name, "grid.system")

    # metrics / telemetry
    wm(MetricsCollector, "on_job_done", "metrics", job_arg=1)
    wm(MetricsCollector, "on_recovery", "metrics", job_arg=2)
    wm(MetricsCollector, "on_resubmission", "metrics", job_arg=1)
    wm(MetricsCollector, "summary", "metrics")
    for name in ("record", "begin_span", "end_span", "span"):
        wm(TelemetryBus, name, "telemetry", gate="enabled")
    for name in ("counter", "gauge", "histogram"):
        wm(MetricsRegistry, name, "telemetry")
    for name in ("bind", "note_dht_lookup", "note_match", "close_job_spans",
                 "dump_flight", "export_jsonl"):
        wm(Telemetry, name, "telemetry", gate="enabled")
    wf(timeline, "timeline_from_bus", "telemetry")

    # scenarios / workloads / experiments.runner
    wm(Scenario, "shaped_stream", "scenarios")
    wm(Scenario, "install_faults", "scenarios")
    wf(runner, "build_population", "workloads")
    wf(runner, "drive", "experiments.runner")
    return counters
