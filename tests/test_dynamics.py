import numpy as np
import pytest

import epiwave as ew
from epiwave import ValidationError
from epiwave.dynamics import (
    Outcome,
    classify_outcome,
    limiting_equation_residual,
    long_time_limit,
    solve_initial_value,
)
from epiwave.steady import solve_steady_state

from oracles import FROZEN


def _box_setup(window=8, cell=32, mass=2.0):
    grid = ew.PeriodicGrid(1, cell, window)
    kernel = ew.separable_contact_kernel(mass, 1.0)
    response = ew.saturating_exponential()
    forcing = ew.bump_forcing(amplitude=1.0, radius=1.5, rate=1.0)
    return grid, kernel, response, forcing


def _zero_forcing():
    off = lambda X: np.zeros(np.asarray(X).shape[0])
    return ew.Forcing(lambda t, X: off(X), off, support_radius=0.5, name="off")


def test_zero_forcing_stays_zero():
    grid, kernel, response, _ = _box_setup()
    field = solve_initial_value(kernel, _zero_forcing(), response, grid,
                                dt=0.1, horizon=3.0)
    assert np.all(field.values == 0.0)


def test_solution_nonnegative_and_time_monotone():
    grid, kernel, response, forcing = _box_setup()
    field = solve_initial_value(kernel, forcing, response, grid,
                                dt=0.05, horizon=10.0)
    assert np.min(field.values) >= 0.0
    # nondecreasing forcing plus monotone response gives a monotone march
    assert np.min(np.diff(field.values, axis=0)) >= -1e-12


def test_bounded_by_row_mass_and_forcing():
    grid, kernel, response, forcing = _box_setup()
    field = solve_initial_value(kernel, forcing, response, grid,
                                dt=0.05, horizon=30.0)
    # sup u <= sup g * sup_x integral V + sup f for the saturating response
    assert np.max(field.values) <= response.bound * 2.0 + 1.0 + 1e-12


def test_forcing_monotonicity_transfers_to_solution():
    grid, kernel, response, _ = _box_setup()
    lo = ew.bump_forcing(amplitude=0.7, radius=1.5, rate=1.0)
    hi = ew.bump_forcing(amplitude=1.2, radius=1.5, rate=1.0)
    u_lo = solve_initial_value(kernel, lo, response, grid, dt=0.1, horizon=6.0)
    u_hi = solve_initial_value(kernel, hi, response, grid, dt=0.1, horizon=6.0)
    assert np.all(u_hi.values >= u_lo.values - 1e-13)


def test_halving_dt_halves_the_error():
    grid, kernel, response, forcing = _box_setup()
    finals = {}
    for dt in (0.2, 0.1, 0.05):
        finals[dt] = solve_initial_value(kernel, forcing, response, grid,
                                         dt=dt, horizon=5.0).final
    d1 = np.max(np.abs(finals[0.2] - finals[0.1]))
    d2 = np.max(np.abs(finals[0.1] - finals[0.05]))
    assert d1 > d2 > 0.0
    assert 1.4 < d1 / d2 < 2.6


def test_history_path_agrees_with_separable_recursion():
    grid, kernel, response, forcing = _box_setup()
    tau = np.linspace(0.0, 14.0, 281)
    box = ew.box_profile(2.0, 1.0)
    frames = [(lambda t: (lambda X, Y: np.exp(-t) * box(X - Y)))(t) for t in tau]
    tabulated = ew.TabulatedKernel(tau, frames, support_radius=1.0)
    gaps = {}
    for dt in (0.1, 0.05):
        a = solve_initial_value(tabulated, forcing, response, grid,
                                dt=dt, horizon=4.0).final
        b = solve_initial_value(kernel, forcing, response, grid,
                                dt=dt, horizon=4.0).final
        gaps[dt] = np.max(np.abs(a - b))
    assert gaps[0.1] < 0.12
    assert gaps[0.05] < 0.65 * gaps[0.1]


def test_long_time_limit_flags_convergence():
    grid, kernel, response, forcing = _box_setup()
    short = solve_initial_value(kernel, forcing, response, grid,
                                dt=0.05, horizon=2.0)
    assert long_time_limit(short)[1] is False
    long = solve_initial_value(kernel, forcing, response, grid,
                               dt=0.05, horizon=40.0)
    final, converged = long_time_limit(long, tol=1e-6)
    assert converged is True
    assert np.array_equal(final, long.final)


def test_limiting_equation_residual_small_after_convergence():
    grid, kernel, response, forcing = _box_setup()
    field = solve_initial_value(kernel, forcing, response, grid,
                                dt=0.05, horizon=40.0)
    final, converged = long_time_limit(field, tol=1e-6)
    assert converged
    transfer = ew.time_integrate_kernel(kernel, grid)
    res = limiting_equation_residual(final, transfer, response,
                                     forcing.limit(grid.window_nodes))
    assert res <= 5.0 * (0.05 + grid.spacing)

    # a uniform shift must be seen by the residual: on the central plateau
    # the response slope is exp(-u) <= exp(-z*), so the defect of u + delta
    # at a plateau node is at least delta * (1 - 2 exp(-min u)) there
    delta = 0.1
    shifted = limiting_equation_residual(final + delta, transfer, response,
                                         forcing.limit(grid.window_nodes))
    plateau = np.abs(grid.window_nodes[:, 0]) <= 4.0
    floor = delta * (1.0 - 2.0 * np.exp(-np.min(final[plateau])))
    assert floor > 0.05
    assert shifted >= floor - res


def test_limiting_residual_needs_twice_the_reach():
    grid = ew.PeriodicGrid(1, 32, 1)
    kernel = ew.separable_contact_kernel(2.0, 1.0)
    transfer = ew.time_integrate_kernel(kernel, grid)
    with pytest.raises(ValidationError, match="twice"):
        limiting_equation_residual(np.zeros(grid.n_window), transfer,
                                   ew.saturating_exponential(),
                                   np.zeros(grid.n_window))


def test_supercritical_run_classified_as_propagation():
    grid, kernel, response, forcing = _box_setup(window=12)
    field = solve_initial_value(kernel, forcing, response, grid,
                                dt=0.05, horizon=40.0)
    final, converged = long_time_limit(field, tol=1e-6)
    assert converged
    steady = solve_steady_state(ew.time_integrate_kernel(kernel, grid),
                                response)
    outcome = classify_outcome(final, steady, tail_radius=6.0, tol=1e-2,
                               grid=grid, boundary_margin=4.5)
    assert outcome is Outcome.PROPAGATES
    x = np.abs(grid.window_nodes[:, 0])
    tail = (x >= 6.0) & (x <= grid.window_radius - 4.5)
    assert np.max(np.abs(final[tail] - FROZEN["zstar_beta2"])) <= 1e-2


def test_subcritical_run_classified_as_extinction():
    grid, kernel, response, forcing = _box_setup(window=12, mass=0.5)
    field = solve_initial_value(kernel, forcing, response, grid,
                                dt=0.05, horizon=40.0)
    final, converged = long_time_limit(field, tol=1e-6)
    assert converged
    steady = solve_steady_state(ew.time_integrate_kernel(kernel, grid),
                                response)
    assert not steady.present
    outcome = classify_outcome(final, steady, tail_radius=6.0, tol=1e-3,
                               grid=grid, boundary_margin=4.5)
    assert outcome is Outcome.FADES_OUT


def test_unforced_limit_classified_as_extinction():
    grid, kernel, response, _ = _box_setup()
    field = solve_initial_value(kernel, _zero_forcing(), response, grid,
                                dt=0.1, horizon=5.0)
    outcome = classify_outcome(field.final, None, tail_radius=3.0, tol=1e-4,
                               grid=grid, boundary_margin=2.0)
    assert outcome is Outcome.FADES_OUT


def test_classify_rejects_empty_tail():
    grid, _, _, _ = _box_setup()
    with pytest.raises(ValidationError, match="tail radius"):
        classify_outcome(np.zeros(grid.n_window), None, tail_radius=7.0,
                         tol=1e-4, grid=grid, boundary_margin=2.0)


def test_time_step_must_resolve_recovery():
    grid, _, response, forcing = _box_setup()
    kernel = ew.separable_contact_kernel(2.0, 1.0,
                                         decay=lambda P: np.full(len(P), 3.0))
    with pytest.raises(ValidationError, match="refine the time step"):
        solve_initial_value(kernel, forcing, response, grid,
                            dt=0.5, horizon=2.0)
    # a recovery rate of 24 at the window nodes x = (i + 1/2)/64, and near 1
    # everywhere else, so the guard must read the rate on the marched nodes
    grid = ew.PeriodicGrid(1, 64, 4)
    peak = lambda P: 1.0 + 23.0 * np.exp(
        -1e6 * np.sin(np.pi * (P[:, 0] - 0.5 / 64)) ** 2)
    kernel = ew.separable_contact_kernel(2.0, 1.0, decay=peak)
    with pytest.raises(ValidationError, match="refine the time step"):
        solve_initial_value(kernel, forcing, response, grid,
                            dt=0.05, horizon=0.5)


def test_window_must_contain_the_reach():
    grid = ew.PeriodicGrid(1, 32, 1)
    kernel = ew.separable_contact_kernel(2.0, 1.0)
    with pytest.raises(ValidationError, match="reach"):
        solve_initial_value(kernel, _zero_forcing(), ew.saturating_exponential(),
                            grid, dt=0.1, horizon=1.0)


def test_dimension_mismatch_rejected():
    grid = ew.PeriodicGrid(2, 16, 2)
    kernel = ew.separable_contact_kernel(2.0, 1.0, dim=1)
    with pytest.raises(ValidationError, match="dimension"):
        solve_initial_value(kernel, _zero_forcing(), ew.saturating_exponential(),
                            grid, dt=0.1, horizon=1.0)


def test_snapshot_lookup():
    grid, kernel, response, forcing = _box_setup()
    field = solve_initial_value(kernel, forcing, response, grid,
                                dt=0.1, horizon=2.0)
    assert np.array_equal(field.at_time(0.0), field.values[0])
    assert np.array_equal(field.at_time(2.0), field.values[-1])
    with pytest.raises(ValidationError, match="outside"):
        field.at_time(2.5)
