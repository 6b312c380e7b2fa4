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


def test_saturating_exponential_writes_into_out_or_z_itself():
    g = saturating_exponential()
    z = np.linspace(-1.0, 10.0, 24).reshape(4, 6)
    fresh = g(z)
    out = np.full_like(z, np.nan)
    assert g(z, out=out) is out
    assert np.array_equal(out, fresh)
    assert g(z, out=z) is z
    assert np.array_equal(z, fresh)


def test_a_response_is_called_with_out_only_when_given_one():
    calls = []

    def fn(z, out=None):
        calls.append(out)
        return np.tanh(z, out=out)

    g = Nonlinearity(fn, slope0=1.0, curvature=1.0, bound=1.0)
    z = np.linspace(0.0, 2.0, 5)
    out = np.empty_like(z)
    assert g(z, out=out) is out and np.array_equal(out, np.tanh(z))
    assert calls[-1] is out
    g(z)
    assert calls[-1] is None


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
    late = f(x)(100.0)
    assert late[0] == pytest.approx(2.0, rel=1e-15)
    assert late[1] == pytest.approx(0.0, abs=1e-12)
    assert late[2] == 0.0
    assert 0.0 < late[3] < 2.0
    assert np.allclose(f(x)(0.0), 0.0)
    # monotone ramp toward the limit profile
    mid = f(x)(1.0)
    assert np.all(mid <= late + 1e-15)
    assert np.allclose(f(x)(np.inf), late, atol=1e-20)


@pytest.mark.parametrize("kwargs", [
    dict(radius=math.nan), dict(radius=math.inf),
    dict(rate=math.nan), dict(rate=math.inf),
    dict(amplitude=math.nan), dict(amplitude=math.inf),
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_bump_forcing_refuses_non_finite_parameters(kwargs):
    with pytest.raises(ValidationError, match="must be finite"):
        bump_forcing(**kwargs)


def test_on_nodes_equals_the_field_bit_for_bit():
    """The bump's seeding function, called once at the nodes, gives at
    every time the float values of a fresh call at a copy of the nodes,
    bit for bit; at t = inf it is exactly the limit profile."""
    f = bump_forcing(amplitude=1.3, radius=2.0, rate=0.6)
    x = np.linspace(-3.0, 3.0, 97)[:, None]
    at = f(x)
    for t in (0.0, 0.05, 1.0, 7.5, 200.0, np.inf):
        values = at(t)
        assert values.dtype == float
        assert np.array_equal(values, f(x.copy())(t))
    r = np.abs(x[:, 0]) / 2.0
    profile = np.where(r < 1.0, 1.3 * np.cos(0.5 * np.pi * r) ** 2, 0.0)
    assert np.array_equal(at(np.inf), profile)

