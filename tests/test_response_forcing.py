import math

import numpy as np
import pytest

from epiwave import (
    Nonlinearity,
    ValidationError,
    bump_forcing,
    saturating_exponential,
)


def test_saturating_exponential_values():
    g = saturating_exponential()
    assert g(0.0) == 0.0
    assert g(1.0) == pytest.approx(1.0 - math.exp(-1.0))
    assert g.slope0 == 1.0
    assert g.curvature == 0.5
    assert g.bound == 1.0
    z = np.linspace(0.0, 10.0, 101)
    gz = g(z)
    assert np.all(np.diff(gz) >= 0)
    assert np.all(gz <= 1.0)
    # sharp two-sided envelope used by the comparison arguments
    assert np.all(gz <= z + 1e-15)
    assert np.all(gz >= z - 0.5 * z * z - 1e-15)


def test_saturating_exponential_keeps_scalars_and_returns_new_arrays():
    g = saturating_exponential()
    assert not isinstance(g(0.0), np.ndarray) and np.ndim(g(0.0)) == 0
    z = np.linspace(-1.0, 10.0, 24).reshape(4, 6)
    before = z.copy()
    gz = g(z)
    assert gz.shape == z.shape
    assert not np.shares_memory(gz, z)
    assert np.array_equal(z, before)
    assert np.array_equal(gz, -np.expm1(-z))
    again = g(z)
    assert again is not gz and np.array_equal(again, gz)


def test_custom_response_validation():
    ok = Nonlinearity(lambda z: np.tanh(z), slope0=1.0, curvature=1.0, bound=1.0)
    assert ok(0.5) == pytest.approx(math.tanh(0.5))
    with pytest.raises(ValidationError):
        Nonlinearity(lambda z: z + 0.1, slope0=1.0, curvature=0.0, bound=5.0)
    with pytest.raises(ValidationError):
        Nonlinearity(lambda z: z, slope0=0.0, curvature=0.0, bound=1.0)
    with pytest.raises(ValidationError):
        Nonlinearity(lambda z: z, slope0=1.0, curvature=-1.0, bound=1.0)
    with pytest.raises(ValidationError):
        Nonlinearity(lambda z: z, slope0=1.0, curvature=0.0, bound=0.0)


def test_bump_forcing_profile():
    f = bump_forcing(amplitude=2.0, radius=1.5, rate=0.5)
    x = np.array([[0.0], [1.5], [2.0], [-1.0]])
    late = f(100.0, x)
    assert late[0] == pytest.approx(2.0, rel=1e-15)
    assert late[1] == pytest.approx(0.0, abs=1e-12)
    assert late[2] == 0.0
    assert 0.0 < late[3] < 2.0
    assert np.allclose(f(0.0, x), 0.0)
    # monotone ramp toward the limit profile
    mid = f(1.0, x)
    assert np.all(mid <= late + 1e-15)
    assert np.allclose(f.limit(x), late, atol=1e-20)


def test_bump_forcing_center_shift():
    f = bump_forcing(radius=1.0, center=3.0)
    x = np.array([[3.0], [0.0]])
    assert f.limit(x)[0] == pytest.approx(1.0)
    assert f.limit(x)[1] == 0.0
    assert f.support_radius == pytest.approx(4.0)
