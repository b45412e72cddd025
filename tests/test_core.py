import math

import numpy as np
import pytest

from haraux.core import (
    DimensionMismatchError,
    DualPair,
    as_vector,
    pairing,
)


class TestAsVector:
    def test_scalar_promotes_to_dim_one(self):
        v = as_vector(3.0)
        assert v.shape == (1,) and v.dtype == float

    def test_list_roundtrip(self):
        np.testing.assert_array_equal(as_vector([1, 2, 3]), [1.0, 2.0, 3.0])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_vector([[1.0, 2.0], [3.0, 4.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_vector([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            as_vector([1.0, bad])


class TestPairing:
    def test_value(self):
        assert pairing([1.0, 2.0], [3.0, -1.0]) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pairing([1.0], [1.0, 2.0])

    def test_bilinear(self, rng):
        x, y, u = rng.normal(size=(3, 5))
        a, b = 0.7, -1.3
        lhs = pairing(a * x + b * y, u)
        rhs = a * pairing(x, u) + b * pairing(y, u)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


class TestDualPair:
    def test_dim(self):
        p = DualPair([1.0, 2.0], [0.0, 0.0])
        assert p.dim == 2

    def test_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            DualPair([1.0], [1.0, 2.0])

    def test_frozen(self):
        p = DualPair([1.0], [2.0])
        with pytest.raises(AttributeError):
            p.x = np.array([3.0])
