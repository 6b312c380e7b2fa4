"""Brent's scalar methods against scipy.optimize: the same points, bit for bit.

brent_minimize and brent_root are ports of minimize_scalar(method="bounded")
and brentq. Every evaluation point is recorded, and both the sequence of
points and the answer must match SciPy's exactly, on analytic functions,
on the dispersion eigenvalue lambda(rho) at fixed speed and on the
brackets the speed search actually refines. Also checks that no command
imports scipy.optimize.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import optimize

import epiwave as ew
from epiwave import ConvergenceError, ValidationError
from epiwave.spectral import principal_eigenpair
from epiwave.waves import TiltedOperator, dispersion, minimal_speed, scalar
from epiwave.waves.scalar import brent_minimize, brent_root

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(ew.__file__)))


def _recorded(f):
    """f together with the list of points it has been evaluated at."""
    points = []

    def g(x):
        points.append(float(x))
        return f(x)

    return g, points


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _same_minimization(f, a, b, xatol=1e-6):
    g_ref, ref_points = _recorded(f)
    g_port, port_points = _recorded(f)
    ref = optimize.minimize_scalar(g_ref, bounds=(a, b), method="bounded",
                                   options={"xatol": xatol})
    x, fx = brent_minimize(g_port, a, b, xatol=xatol)
    assert ref.success
    assert _bits(port_points) == _bits(ref_points)
    assert _bits([x, fx]) == _bits([ref.x, ref.fun])
    return len(port_points)


def _same_root(f, a, b, xtol=1e-12):
    """Both searches evaluate the same points and return the same root, or
    both run out of iterations (SciPy's RuntimeError) at the same point."""
    g_ref, ref_points = _recorded(f)
    g_port, port_points = _recorded(f)
    try:
        ref = optimize.brentq(g_ref, a, b, xtol=xtol)
    except RuntimeError:
        with pytest.raises(ConvergenceError):
            brent_root(g_port, a, b, xtol=xtol)
    else:
        assert _bits([brent_root(g_port, a, b, xtol=xtol)]) == _bits([ref])
    assert _bits(port_points) == _bits(ref_points)
    return len(port_points)


def _box():
    return ew.separable_contact_kernel(2.0, 1.0)


def _striped():
    return ew.separable_contact_kernel(
        2.0, 1.0,
        source_factor=lambda x: 1.0 + 0.5 * np.cos(2.0 * np.pi * x[:, 0]),
        decay=lambda y: 1.0 + 0.25 * np.sin(2.0 * np.pi * y[:, 0]))


_MEDIA = {"box": _box, "striped": _striped}
_GRID = ew.PeriodicGrid(dim=1, cell_points=64, window_radius=4)


@pytest.fixture(scope="module")
def searches():
    """minimal_speed on each medium, with every bracket that _min_over_rho
    hands to brent_minimize also minimized by SciPy from the same start.
    Each entry: (bracket, port points, SciPy points, port answer, SciPy
    answer)."""
    results = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, make in _MEDIA.items():
            brackets = []

            def comparing(f, a, b, xatol, brackets=brackets):
                g_ref, ref_points = _recorded(f)
                g_port, port_points = _recorded(f)
                ref = optimize.minimize_scalar(
                    g_ref, bounds=(a, b), method="bounded",
                    options={"xatol": xatol})
                x, fx = brent_minimize(g_port, a, b, xatol=xatol)
                brackets.append(((a, b), port_points, ref_points,
                                 (x, fx), (ref.x, ref.fun)))
                return x, fx

            mp.setattr(dispersion, "brent_minimize", comparing)
            speed = minimal_speed(make(), ew.saturating_exponential(), _GRID)
            results[name] = (speed, brackets)
    return results


@pytest.mark.parametrize("medium", sorted(_MEDIA))
def test_speed_search_brackets_match_scipy(searches, medium):
    speed, brackets = searches[medium]
    assert not speed.at_rest
    assert len(brackets) > 20  # doubling plus bisection down to _C_TOL
    for bracket, port_points, ref_points, port, ref in brackets:
        assert _bits(port_points) == _bits(ref_points), bracket
        assert _bits(port) == _bits(ref), bracket


@pytest.mark.parametrize("medium", sorted(_MEDIA))
def test_dispersion_minimum_and_root_match_scipy(searches, medium):
    speed, _ = searches[medium]
    tilted = TiltedOperator(_MEDIA[medium](), ew.saturating_exponential(),
                            _GRID)

    def lam(c):
        return lambda rho: principal_eigenpair(tilted.operator(rho, c)).value

    # below, at and above the minimal speed, on a bracket around rho*
    for c in (0.8 * speed.c_star, speed.c_star, 1.5 * speed.c_star):
        assert _same_minimization(lam(c), 0.25 * speed.rho_star,
                                  4.0 * speed.rho_star) > 5
    # the lower root of lambda = 1 that build_sub_super certifies
    c = 1.5 * speed.c_star
    assert _same_root(lambda r: lam(c)(r) - 1.0, 1e-8, speed.rho_star) > 5


_ANALYTIC_MINIMA = [
    (lambda x: (x - 0.3) ** 2 + math.sin(5.0 * x), 0.01, 2.5),
    (lambda x: math.cosh(x - 1.7), np.float64(0.5), np.float64(3.0)),
    (lambda x: abs(x - 0.123), -1.0, 1.0),  # a kink at the minimum
    (lambda x: round((x - 0.3) ** 2, 3), 0.0, 1.0),  # ties near the minimum
]


@pytest.mark.parametrize("case", range(len(_ANALYTIC_MINIMA)))
def test_analytic_minima_match_scipy(case):
    f, a, b = _ANALYTIC_MINIMA[case]
    assert _same_minimization(f, a, b) > 5
    assert _same_minimization(f, a, b, xatol=1e-10) > 5


_ANALYTIC_ROOTS = [
    (lambda x: x ** 3 - 0.2, 1e-8, 2.0),
    (lambda x: math.tanh(10.0 * (x - 0.4)), np.float64(-1.0), np.float64(2.0)),
    (lambda x: 1.0 / (x + 0.1) - 3.0, 1e-8, 2.0),
]


@pytest.mark.parametrize("case", range(len(_ANALYTIC_ROOTS)))
def test_analytic_roots_match_scipy(case):
    f, a, b = _ANALYTIC_ROOTS[case]
    assert _same_root(f, a, b) > 5
    assert _same_root(f, b, a, xtol=1e-6) > 3


def test_seeded_families_match_scipy():
    # smooth, quantized (equal values among the kept points) and
    # odd-power (steps near the interpolation bound) families
    rng = np.random.default_rng(7)
    for _ in range(100):
        m, w, k = rng.uniform(0.1, 0.9), rng.uniform(0.0, 0.3), rng.uniform(1, 9)
        _same_minimization(
            lambda x: (x - m) ** 2 + w * math.sin(k * x) ** 3, 0.0, 1.0,
            xatol=10.0 ** -rng.uniform(3, 10))
        m, k, digits = rng.uniform(0.1, 0.9), rng.uniform(0.5, 3), rng.integers(1, 5)
        _same_minimization(lambda x: round(abs(x - m) ** k, digits), 0.0, 1.0)
        r, a, k = rng.uniform(0.1, 0.9), rng.uniform(1, 30), rng.uniform(0, 3)
        _same_root(lambda x: math.tanh(a * (x - r)) + k * (x - r) ** 3,
                   0.0, 1.0, xtol=10.0 ** -rng.uniform(3, 12))
        r, p, k = rng.uniform(0.05, 0.95), rng.uniform(0.5, 2), rng.uniform(-0.2, 0.2)
        _same_root(lambda x: math.copysign(abs(x - r) ** p, x - r)
                   + k * (x - r) ** 2, 0.0, 1.0)


def test_bracket_without_a_sign_change_is_refused():
    g_ref, ref_points = _recorded(lambda x: x * x + 1.0)
    g_port, port_points = _recorded(lambda x: x * x + 1.0)
    with pytest.raises(ValueError):
        optimize.brentq(g_ref, -1.0, 2.0)
    with pytest.raises(ValidationError, match="no sign change"):
        brent_root(g_port, -1.0, 2.0, xtol=2e-12)
    assert _bits(port_points) == _bits(ref_points)
    # a root on the bracket
    assert brent_root(lambda x: x, 0.0, 1.0, xtol=1e-12) == 0.0


def test_exhausted_budgets_raise_convergence_errors(monkeypatch):
    monkeypatch.setattr(scalar, "_MAXITER", 3)
    monkeypatch.setattr(scalar, "_MAXFUN", 4)
    f = _ANALYTIC_ROOTS[0][0]
    g_ref, ref_points = _recorded(f)
    g_port, port_points = _recorded(f)
    with pytest.raises(RuntimeError):
        optimize.brentq(g_ref, 1e-8, 2.0, xtol=1e-12, maxiter=3)
    with pytest.raises(ConvergenceError, match="3 iterations") as exc:
        brent_root(g_port, 1e-8, 2.0, xtol=1e-12)
    assert _bits(port_points) == _bits(ref_points)
    assert exc.value.x == port_points[-1]

    f, a, b = _ANALYTIC_MINIMA[0]
    g_ref, ref_points = _recorded(f)
    g_port, port_points = _recorded(f)
    ref = optimize.minimize_scalar(g_ref, bounds=(a, b), method="bounded",
                                   options={"xatol": 1e-6, "maxiter": 4})
    assert ref.status == 1
    with pytest.raises(ConvergenceError, match="4 evaluations") as exc:
        brent_minimize(g_port, a, b, xatol=1e-6)
    assert _bits(port_points) == _bits(ref_points)
    assert _bits([exc.value.x, exc.value.fun]) == _bits([ref.x, ref.fun])


def test_bad_bounds_tolerances_and_nan_values_are_refused():
    with pytest.raises(ValidationError):
        brent_minimize(abs, 2.0, 1.0, xatol=1e-6)
    with pytest.raises(ValidationError):
        brent_minimize(abs, 0.0, math.inf, xatol=1e-6)
    with pytest.raises(ValidationError):
        brent_root(math.sin, -1.0, 1.0, xtol=0.0)
    with pytest.raises(ConvergenceError, match="NaN"):
        brent_root(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0,
                   xtol=1e-12)
    with pytest.raises(ConvergenceError, match="NaN"):
        brent_minimize(lambda x: math.nan, 0.0, 1.0, xatol=1e-6)


def _fresh(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_path_leaves_scipy_optimize_out():
    loaded = _fresh("import json, sys\n"
                    "import epiwave, epiwave.app.cli, epiwave.app.pipelines\n"
                    "print(json.dumps('scipy.optimize' in sys.modules))")
    assert loaded is False


@pytest.mark.parametrize("command", ["speed", "wave"])
def test_commands_on_the_default_document_leave_scipy_optimize_out(
        tmp_path, command):
    config = tmp_path / "scenario.json"
    config.write_text("{}")
    code = ("import json, sys\n"
            "from epiwave.app.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps([code, 'scipy.optimize' in sys.modules]))")
    assert _fresh(code, command, "--config", str(config),
                  "--out", str(tmp_path / "out")) == [0, False]
