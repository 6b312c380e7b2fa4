import math

import numpy as np
import pytest

from epiwave import (
    Forcing,
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


@pytest.mark.parametrize("kwargs", [
    dict(radius=math.nan), dict(radius=math.inf),
    dict(rate=math.nan), dict(rate=math.inf),
    dict(amplitude=math.nan), dict(amplitude=math.inf),
    dict(center=math.nan), dict(center=(0.0, math.inf)),
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_bump_forcing_refuses_non_finite_parameters(kwargs):
    with pytest.raises(ValidationError, match="must be finite"):
        bump_forcing(**kwargs)


@pytest.mark.parametrize("support_radius", [math.nan, math.inf, -math.inf])
def test_forcing_refuses_a_non_finite_support_radius(support_radius):
    off = lambda X: np.zeros(np.asarray(X).shape[0])
    with pytest.raises(ValidationError, match="support_radius"):
        Forcing(lambda X: lambda t: off(X), off, support_radius=support_radius)


def test_on_nodes_equals_the_field_bit_for_bit():
    """A forcing's per-node form does the work that depends on the nodes
    once, when it is built; calling the forcing at (t, X) builds it afresh.
    Both give the same values, as floats, bit for bit."""
    x = np.linspace(-3.0, 3.0, 97)[:, None]
    profiles = []

    def gaussian(X):
        profiles.append(1)
        profile = np.exp(-np.asarray(X)[:, 0] ** 2)
        return lambda t: np.minimum(t, 1.0) * profile

    forcings = [bump_forcing(amplitude=1.3, radius=2.0, rate=0.6, center=0.25),
                Forcing(gaussian, lambda X: gaussian(X)(1.0), support_radius=5.0)]
    times = (0.0, 0.05, 1.0, 7.5, 200.0)
    for f in forcings:
        at = f.on_nodes(x)
        for t in times:
            values = at(t)
            assert values.dtype == float
            assert np.array_equal(values, f(t, x))
    # one profile for the per-node form, and one per call of the forcing
    assert len(profiles) == 1 + len(times)

