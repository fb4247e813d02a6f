"""Named, reproducible random-number streams.

Every stochastic component of the simulator (workload arrivals, node
capabilities, overlay coordinates, failure injection, ...) draws from its
own named stream derived from a single experiment seed.  This gives two
properties the experiment harness relies on:

* **Determinism** — the same seed reproduces the same trace, bit for bit.
* **Isolation** — adding draws to one component (say, enabling heartbeats)
  does not perturb another component's stream, so A/B comparisons between
  matchmakers see *identical* workloads.

Scalar ``Generator`` calls cost ~1 µs each in CPython — measurable when a
latency model samples per message hop.  :class:`ChunkedLognormal`
pre-draws blocks from the *same* stream instead.  numpy's block draws
consume the bit generator exactly as repeated scalar draws do (asserted
in ``tests/util/test_rng_blocks.py``), so the values a consumer sees are
bit-identical — only the wall-clock cost changes.  The one caveat: a
chunked sampler must be its stream's *only* consumer (a block pre-draw
advances the underlying generator ahead of what was handed out).

Protocol timers (thousands per grid) get neither a ``Generator`` nor a
block buffer each: :class:`KeyedUniform` draw *k* is a hash of ``(seed,
name, key, k)``, so a timer's jitter depends on its own key and draw count
only — not on how often any other timer ticked.
"""

from __future__ import annotations

import numpy as np

#: Block size for chunked samplers.  Big enough to amortize the block-draw
#: fixed cost, small enough that short runs don't over-draw noticeably.
DEFAULT_CHUNK = 1024


class ChunkedLognormal:
    """Block-drawing ``lognormal(mu, sigma)`` sampler over one ``Generator``.

    Parameters are fixed at construction (the hot callers — latency models
    — draw from one distribution), so refills are single block
    ``Generator.lognormal`` calls that consume the stream exactly like the
    equivalent scalar sequence.
    """

    __slots__ = ("rng", "mu", "sigma", "chunk", "_buf", "_i")

    def __init__(self, rng: np.random.Generator, mu: float, sigma: float,
                 chunk: int = DEFAULT_CHUNK):
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk!r}")
        self.rng = rng
        self.mu = mu
        self.sigma = sigma
        self.chunk = chunk
        self._buf: list[float] = []
        self._i = 0

    def sample(self) -> float:
        i = self._i
        if i == len(self._buf):
            self._buf = self.rng.lognormal(self.mu, self.sigma,
                                           self.chunk).tolist()
            i = 0
        self._i = i + 1
        return self._buf[i]

    def sum_clipped(self, n: int, minimum: float) -> float:
        """Sum of the next ``n`` variates, each floored at ``minimum``.

        Bit-identical to ``n`` sequential :meth:`sample` calls floored and
        added left-to-right (same block buffer, same float-addition
        order) — it just skips ``n - 1`` Python call frames.  Multi-hop
        route latency is the hot caller.
        """
        total = 0.0
        i = self._i
        buf = self._buf
        while n > 0:
            if i == len(buf):
                buf = self._buf = self.rng.lognormal(self.mu, self.sigma,
                                                     self.chunk).tolist()
                i = 0
            stop = i + n
            if stop > len(buf):
                stop = len(buf)
            for v in buf[i:stop]:
                total += v if v > minimum else minimum
            n -= stop - i
            i = stop
        self._i = i
        return total


_M64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 increment (2**64 / golden ratio)


def _mix64(z: int) -> int:
    """The splitmix64 finalizer: a bijective 64-bit avalanche."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class KeyedUniform:
    """Uniform stream addressed by ``(seed, name, *key)``; one int of state.

    The key parts (ints, or strings hashed by :func:`_name_key`) fold into
    a 64-bit base; draw *k* is ``_mix64(base + (k + 1) * _GAMMA)`` scaled to
    ``[0, 1)`` — splitmix64 started at a keyed offset.  All keys walk the
    same 2**64 cycle from hashed starting points, so two streams overlap
    only with probability ~ draws / 2**64.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int, name: str, *key: int | str):
        h = _mix64(seed & _M64)
        for part in (name, *key):
            if isinstance(part, str):
                part = _name_key(part)
            h = _mix64(((h + _GAMMA) & _M64) ^ (part & _M64))
        self._state = h

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        self._state = z = (self._state + _GAMMA) & _M64
        return low + (high - low) * ((_mix64(z) >> 11) * 2.0 ** -53)


class RngStreams:
    """A family of independent ``numpy.random.Generator`` streams.

    Streams are created lazily by name via :meth:`stream` and cached, so
    repeated requests for the same name return the same generator object
    (which therefore advances as it is used — a stream is a stateful
    sequence, not a fresh generator per call).
    """

    def __init__(self, seed: int):
        if not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {seed!r}")
        self.seed = seed
        self._root = np.random.SeedSequence(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            # Derive a child seed deterministically from (seed, name) so the
            # mapping does not depend on request order.
            child = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=(_name_key(name),),
            )
            gen = np.random.default_rng(child)
            self._streams[name] = gen
        return gen

    def __getitem__(self, name: str) -> np.random.Generator:
        return self.stream(name)

    def keyed(self, name: str, *key: int | str) -> KeyedUniform:
        """A fresh :class:`KeyedUniform` at draw 0 of ``(seed, name, *key)``."""
        return KeyedUniform(self.seed, name, *key)

    def fork(self, salt: int) -> "RngStreams":
        """Derive an independent family (e.g. one per experiment replicate)."""
        return RngStreams((self.seed * 0x9E3779B1 + salt + 1) & 0x7FFFFFFF)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngStreams(seed={self.seed}, streams={sorted(self._streams)})"


def _name_key(name: str) -> int:
    """Stable 63-bit key for a stream name (not Python's salted ``hash``)."""
    key = 0xCBF29CE484222325  # FNV-1a
    for byte in name.encode("utf-8"):
        key ^= byte
        key = (key * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return key & 0x7FFFFFFFFFFFFFFF
