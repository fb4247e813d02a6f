"""Jain's fairness index."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.stats import jains_fairness


class TestJainsFairness:
    def test_uniform_is_one(self):
        assert jains_fairness([3, 3, 3, 3]) == pytest.approx(1.0)

    def test_single_hog_is_one_over_n(self):
        assert jains_fairness([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_all_zero_is_balanced(self):
        assert jains_fairness([0, 0, 0]) == pytest.approx(1.0)

    def test_empty_is_nan(self):
        assert math.isnan(jains_fairness([]))

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=50))
    def test_bounds(self, loads):
        f = jains_fairness(loads)
        assert 1.0 / len(loads) - 1e-9 <= f <= 1.0 + 1e-9

    def test_known_value(self):
        # (1+2+3)^2 / (3 * (1+4+9)) = 36/42
        assert jains_fairness([1, 2, 3]) == pytest.approx(36 / 42)

    def test_accepts_any_iterable(self):
        loads = [4, 0, 4, 0]
        expected = jains_fairness(loads)
        assert expected == pytest.approx(0.5)
        assert jains_fairness(np.array(loads)) == pytest.approx(expected)
        assert jains_fairness(x for x in loads) == pytest.approx(expected)

    @given(st.lists(st.floats(min_value=0.01, max_value=1e3), min_size=1,
                    max_size=30),
           st.floats(min_value=0.01, max_value=1e3))
    def test_scale_invariant(self, loads, factor):
        # Fairness depends on how load is shared, not on its magnitude.
        assert jains_fairness([x * factor for x in loads]) == \
            pytest.approx(jains_fairness(loads), rel=1e-9)
