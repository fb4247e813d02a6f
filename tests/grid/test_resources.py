"""Resource vectors: satisfaction, dominance, normalization, matrices."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.grid.resources import (
    CapabilityMatrix,
    ResourceSpec,
    dominates,
    satisfies,
)

levels = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
vec3 = st.tuples(levels, levels, levels)


class TestSatisfies:
    def test_exact_match_satisfies(self):
        assert satisfies((5.0, 5.0, 5.0), (5.0, 5.0, 5.0))

    def test_unconstrained_always_satisfied(self):
        assert satisfies((1.0, 1.0, 1.0), (0.0, 0.0, 0.0))

    def test_single_deficit_fails(self):
        assert not satisfies((5.0, 5.0, 4.9), (5.0, 5.0, 5.0))

    @given(cap=vec3, req=vec3)
    def test_matches_componentwise_definition(self, cap, req):
        assert satisfies(cap, req) == all(c >= r for c, r in zip(cap, req))


class TestDominates:
    def test_strict_requires_strict_gain(self):
        assert not dominates((5.0, 5.0), (5.0, 5.0), strict=True)
        assert dominates((5.0, 5.0), (5.0, 5.0), strict=False)

    def test_dominance(self):
        assert dominates((6.0, 5.0), (5.0, 5.0))
        assert not dominates((6.0, 4.0), (5.0, 5.0))

    @given(a=vec3, b=vec3)
    def test_antisymmetry(self, a, b):
        if dominates(a, b, strict=True):
            assert not dominates(b, a, strict=True)

    @given(a=vec3, b=vec3, c=vec3)
    def test_transitivity(self, a, b, c):
        if dominates(a, b, strict=True) and dominates(b, c, strict=True):
            assert dominates(a, c, strict=True)


class TestResourceSpec:
    def test_defaults(self):
        spec = ResourceSpec()
        assert spec.dims == 3
        assert spec.names == ("cpu", "mem", "disk")

    def test_capability_validation(self):
        spec = ResourceSpec()
        spec.validate_capability((1.0, 5.0, 10.0))
        with pytest.raises(ValueError):
            spec.validate_capability((0.0, 5.0, 10.0))  # zero capability
        with pytest.raises(ValueError):
            spec.validate_capability((1.0, 5.0, 11.0))  # above max
        with pytest.raises(ValueError):
            spec.validate_capability((1.0, 5.0))  # wrong dims

    def test_normalize(self):
        spec = ResourceSpec()
        assert spec.normalize((5.0, 10.0, 1.0)) == (0.5, 1.0, 0.1)


class TestCapabilityMatrix:
    def test_mask_matches_scalar_satisfies(self):
        spec = ResourceSpec()
        rng = np.random.default_rng(0)
        caps = [tuple(rng.integers(1, 11, 3).astype(float)) for _ in range(50)]
        matrix = CapabilityMatrix.from_capabilities(spec, caps)
        for _ in range(20):
            req = tuple(rng.integers(0, 11, 3).astype(float))
            mask = matrix.satisfying_mask(req)
            expected = np.array([satisfies(c, req) for c in caps])
            np.testing.assert_array_equal(mask, expected)

    def test_unconstrained_mask_all_true(self):
        spec = ResourceSpec()
        matrix = CapabilityMatrix.from_capabilities(
            spec, [(1.0, 1.0, 1.0), (10.0, 10.0, 10.0)])
        assert matrix.satisfying_mask((0.0, 0.0, 0.0)).all()
