"""Unit tests for the DTW lower bounds (LB_Kim, LB_Yi, LB_Keogh, corridor)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dtw import (
    dtw_distance,
    dtw_windowed,
    keogh_envelope,
    lb_keogh,
    lb_kim,
    lb_yi,
)
from repro.dtw.lower_bounds import lb_corridor
from repro.exceptions import ValidationError


class TestLbKim:
    def test_lower_bounds_dtw(self, rng):
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(2, 20)))
            y = rng.normal(size=int(rng.integers(2, 20)))
            assert lb_kim(x, y) <= dtw_distance(x, y) + 1e-9

    def test_identical_is_zero(self, rng):
        x = rng.normal(size=10)
        assert lb_kim(x, x) == 0.0

    def test_endpoints_counted(self):
        # First and last must align: bound is at least both endpoint costs.
        assert lb_kim([0.0, 0.0], [3.0, 4.0]) == pytest.approx(9.0 + 16.0)


class TestLbYi:
    def test_lower_bounds_dtw(self, rng):
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(2, 20)))
            y = rng.normal(size=int(rng.integers(2, 20)))
            assert lb_yi(x, y) <= dtw_distance(x, y) + 1e-9

    def test_inside_range_is_zero(self):
        assert lb_yi([0.5, 0.6], [0.0, 1.0]) == 0.0

    def test_excess_counted(self):
        # 3 is 2 above max(y)=1: cost at least 4.
        assert lb_yi([3.0], [0.0, 1.0]) == pytest.approx(4.0)


class TestLbKeogh:
    def test_envelope_contains_query(self, rng):
        y = rng.normal(size=30)
        upper, lower = keogh_envelope(y, radius=3)
        assert np.all(upper >= y)
        assert np.all(lower <= y)

    def test_envelope_radius_zero_is_identity(self, rng):
        y = rng.normal(size=10)
        upper, lower = keogh_envelope(y, radius=0)
        np.testing.assert_allclose(upper, y)
        np.testing.assert_allclose(lower, y)

    def test_lower_bounds_banded_dtw(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 25))
            radius = int(rng.integers(0, 5))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            banded = dtw_windowed(x, y, constraint="sakoe_chiba", radius=radius)
            assert lb_keogh(x, y, radius) <= banded + 1e-9

    def test_requires_equal_lengths(self):
        with pytest.raises(ValidationError):
            lb_keogh([1.0, 2.0], [1.0], radius=1)

    def test_negative_radius_raises(self):
        with pytest.raises(ValidationError):
            keogh_envelope([1.0, 2.0], radius=-1)

    def test_wider_radius_loosens_bound(self, rng):
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        bounds = [lb_keogh(x, y, r) for r in (0, 2, 5, 10)]
        assert all(a >= b - 1e-12 for a, b in zip(bounds, bounds[1:]))


class TestLbCorridor:
    def test_rejects_distances_without_a_corridor_bound(self):
        lo = np.array([0.0, 3.0])
        hi = np.array([1.0, 4.0])
        with pytest.raises(ValidationError, match="no corridor bound"):
            lb_corridor(2.0, lo, hi, "custom")
