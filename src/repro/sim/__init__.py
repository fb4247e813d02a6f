"""Discrete-event simulation substrate.

The paper's evaluation (§3.3) is driven by an event-driven simulator that
creates and maintains the P2P network, performs DHT lookups, and executes
the job-lifecycle protocols.  This package provides that substrate:

* :mod:`repro.sim.kernel` — the event loop (virtual clock + binary heap).
* :mod:`repro.sim.network` — point-to-point message delivery with a
  configurable latency model; messages to dead nodes are dropped, which is
  what drives failure detection in the grid layer.
* :mod:`repro.sim.process` — periodic tasks (heartbeats, stabilization).
* :mod:`repro.sim.failure` — churn and crash/recovery injection.
"""

from repro.sim.kernel import EventHandle, Simulator
from repro.sim.network import LatencyModel, Message, Network
from repro.sim.process import PeriodicTask
from repro.sim.failure import CrashRecoveryProcess, FailureInjector

__all__ = [
    "EventHandle",
    "Simulator",
    "LatencyModel",
    "Message",
    "Network",
    "PeriodicTask",
    "CrashRecoveryProcess",
    "FailureInjector",
]
