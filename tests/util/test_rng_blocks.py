"""Bit-equivalence of block (chunked) RNG draws vs scalar draws.

The hot-path sampler in :mod:`repro.util.rng` claims that pre-drawing
blocks from a ``numpy`` ``Generator`` yields *exactly* the values — and
leaves the generator in *exactly* the state — that the equivalent
sequence of scalar calls would.  Every optimization downstream
(the latency models) leans on that claim, so it is asserted here directly
against numpy, not against our wrappers alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.rng import ChunkedLognormal


def _pair(seed: int = 123):
    """Two generators in identical states."""
    return (np.random.default_rng(seed), np.random.default_rng(seed))


class TestNumpyBlockEquivalence:
    """The underlying numpy facts the samplers rely on."""

    def test_lognormal_block_matches_scalars_and_state(self):
        a, b = _pair()
        block = a.lognormal(-3.0, 0.3, 100)
        scalars = [b.lognormal(-3.0, 0.3) for _ in range(100)]
        assert block.tolist() == scalars
        # Same bit-generator state afterwards: the next draws agree too.
        assert a.random() == b.random()

    def test_uniform_scaling_identity(self):
        a, b = _pair()
        us = a.random(50)
        want = [b.uniform(2.5, 7.5) for _ in range(50)]
        got = [2.5 + (7.5 - 2.5) * u for u in us.tolist()]
        assert got == want


class TestChunkedLognormal:
    def test_matches_scalar_lognormal(self):
        a, b = _pair(5)
        cl = ChunkedLognormal(a, mu=-3.04499, sigma=0.3, chunk=32)
        for _ in range(150):
            assert cl.sample() == b.lognormal(-3.04499, 0.3)

    def test_chunk_size_does_not_change_values(self):
        seqs = []
        for chunk in (1, 7, 256):
            cl = ChunkedLognormal(np.random.default_rng(9), -1.0, 0.5,
                                  chunk=chunk)
            seqs.append([cl.sample() for _ in range(100)])
        assert all(s == seqs[0] for s in seqs)

    def test_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            ChunkedLognormal(np.random.default_rng(0), 0.0, 1.0, chunk=-1)
