"""Chunked columnar spooling of worker telemetry for parallel sweeps.

A *spool* carries one worker's telemetry back to the parent in a
``--jobs N`` sweep: the worker writes it to a file as a sequence of
length-prefixed pickle blocks, and the parent folds it chunk by chunk as
the cell's result is collected.

Format (version 3) — each block is a 4-byte little-endian length followed
by a pickle blob:

* block 0 — header dict: ``{"version", "spans", "accepted", "n_records",
  "clock", "metrics"}`` where ``"clock"`` is the worker's final virtual
  time (None if it never bound a grid) and ``"metrics"`` is the compact
  columnar registry dump (:meth:`MetricsRegistry.state_columnar`);
* blocks 1..k — record chunks: the bus's own columns
  (:data:`~repro.telemetry.bus.COLUMNS`) as a tuple of parallel lists,
  :data:`CHUNK_RECORDS` rows per chunk.

Why columnar chunks: the spool is the bus's own storage format, so the
fold extends the parent's columns with no per-record object built;
pickling flat lists memoizes the repeated category strings and key
tuples once per chunk; the fold renumbers the span/parent id *columns*
with two list comprehensions; and chunking bounds parent peak memory to
one chunk.  DESIGN.md ("Sweep engine") records the measurement that
keeps this format over a one-shot pickled ``(metrics, bus)`` round trip.

The fold preserves the engine's determinism contract: ids are offset by
the parent's :attr:`~TelemetryBus.span_watermark`, so folding per-worker
spools in cell submission order reproduces the serial bus byte-for-byte,
and the parent's clock stops at the last folded worker's, where the
serial sweep's last bound grid would have left it.
"""

from __future__ import annotations

import pickle
import struct
from itertools import islice
from pathlib import Path
from typing import Any, BinaryIO, Iterator

#: Records per chunk block.  Big enough to amortize the pickle call and
#: the length prefix, small enough to bound fold-time peak memory.
CHUNK_RECORDS = 32768

SPOOL_VERSION = 3

_PROTO = pickle.HIGHEST_PROTOCOL
_LEN = struct.Struct("<I")


def _write_block(fh: BinaryIO, obj: Any) -> int:
    blob = pickle.dumps(obj, protocol=_PROTO)
    fh.write(_LEN.pack(len(blob)))
    fh.write(blob)
    return _LEN.size + len(blob)


def _read_blocks(fh: BinaryIO) -> Iterator[Any]:
    read = fh.read
    size = _LEN.size
    unpack = _LEN.unpack
    while True:
        head = read(size)
        if not head:
            return
        if len(head) != size:
            raise ValueError("truncated spool block header")
        (n,) = unpack(head)
        blob = read(n)
        if len(blob) != n:
            raise ValueError("truncated spool block")
        yield pickle.loads(blob)


def write_spool(path: str | Path, telemetry) -> int:
    """Spool ``telemetry``'s bus records and metrics to ``path``.

    Worker-side half of the streaming merge; returns bytes written.
    """
    bus = telemetry.bus
    n_records = len(bus)
    nbytes = 0
    with open(path, "wb") as fh:
        header = {
            "version": SPOOL_VERSION,
            "spans": bus.span_watermark,
            "accepted": bus.accepted,
            "n_records": n_records,
            "clock": telemetry.clock,
            "metrics": telemetry.metrics.state_columnar(),
        }
        nbytes += _write_block(fh, header)
        rows = bus.rows()
        for _ in range(0, n_records, CHUNK_RECORDS):
            # Transpose one chunk of rows back into column lists.
            chunk = tuple(map(list, zip(*islice(rows, CHUNK_RECORDS))))
            nbytes += _write_block(fh, chunk)
    return nbytes


def fold_spool(path: str | Path, telemetry) -> int:
    """Fold a spool file into ``telemetry``; returns records imported.

    Parent-side half.  The worker's span-id block is reserved up front
    (so the offset math holds even mid-stream), then record chunks are
    renumbered columnwise and bulk-appended.
    """
    bus = telemetry.bus
    offset = bus.span_watermark
    with open(path, "rb") as fh:
        blocks = _read_blocks(fh)
        header = next(blocks, None)
        if not isinstance(header, dict) or "version" not in header:
            raise ValueError(f"not a telemetry spool: {path}")
        if header["version"] != SPOOL_VERSION:
            raise ValueError(f"unsupported spool version "
                             f"{header['version']!r} in {path}")
        bus.import_columns(spans=header["spans"], accepted=header["accepted"])
        for chunk in blocks:
            time, cat, keys, vals, spans, parents, durs, traces = chunk
            if offset:
                spans = [s + offset if s is not None else None
                         for s in spans]
                parents = [p + offset if p is not None else None
                           for p in parents]
            bus.import_columns((time, cat, keys, vals, spans, parents,
                                durs, traces))
    telemetry.metrics.merge_columnar(header["metrics"])
    if header["clock"] is not None:
        telemetry.stop_clock(header["clock"])
    return header["n_records"]
