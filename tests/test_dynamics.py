import re

import numpy as np
import pytest

import epiwave as ew
from epiwave import ValidationError
from epiwave.domain.kernels import exponential_step_weights, window_pair_matrix
from epiwave.dynamics import (
    Outcome,
    classify_outcome,
    limiting_equation_residual,
    long_time_limit,
    march_steps,
    solve_initial_value,
    tail_mask,
)
from epiwave.errors import ConvergenceError
from epiwave.sir import SirState, sir_to_kernel
from epiwave.steady import solve_steady_state

from oracles import FROZEN


def _box_setup(window=8, cell=32, mass=2.0):
    grid = ew.PeriodicGrid(1, cell, window)
    kernel = ew.separable_contact_kernel(mass, 1.0)
    response = ew.saturating_exponential()
    forcing = ew.bump_forcing(amplitude=1.0, radius=1.5, rate=1.0)
    return grid, kernel, response, forcing


def _verdict(final, steady, grid, tail_radius, boundary_margin, tol):
    """classify_outcome on the tail numbers simulate reports, for a kernel
    of reach 1."""
    keep = tail_mask(grid, 1.0, tail_radius, boundary_margin)
    tail = final[keep]
    gap = None
    if steady is not None and steady.present:
        gap = float(np.max(np.abs(
            tail - grid.periodic_on_window(steady.values)[keep])))
    return classify_outcome(float(np.min(tail)), float(np.max(tail)), gap,
                            tol)


def _zero_forcing():
    return lambda X: lambda t: np.zeros(np.asarray(X).shape[0])


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
                                     forcing(grid.window_nodes)(np.inf))
    assert res <= 5.0 * (0.05 + grid.spacing)

    # a uniform shift must be seen by the residual: on the central plateau
    # the response slope is exp(-u) <= exp(-z*), so the defect of u + delta
    # at a plateau node is at least delta * (1 - 2 exp(-min u)) there
    delta = 0.1
    shifted = limiting_equation_residual(final + delta, transfer, response,
                                         forcing(grid.window_nodes)(np.inf))
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
    outcome = _verdict(final, steady, grid, tail_radius=6.0,
                       boundary_margin=4.5, tol=1e-2)
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
    outcome = _verdict(final, steady, grid, tail_radius=6.0,
                       boundary_margin=4.5, tol=1e-3)
    assert outcome is Outcome.FADES_OUT


def test_unforced_limit_classified_as_extinction():
    grid, kernel, response, _ = _box_setup()
    field = solve_initial_value(kernel, _zero_forcing(), response, grid,
                                dt=0.1, horizon=5.0)
    outcome = _verdict(field.final, None, grid, tail_radius=3.0,
                       boundary_margin=2.0, tol=1e-4)
    assert outcome is Outcome.FADES_OUT


@pytest.mark.parametrize("tail_min, tail_max, gap, want", [
    (0.0, 1e-3, None, Outcome.FADES_OUT),
    (0.0, 1e-3, 0.5, Outcome.FADES_OUT),
    (1.5, 1.6, 1e-3, Outcome.PROPAGATES),
    (1.5, 1.6, 0.5, Outcome.UNDETERMINED),
    (1.5, 1.6, None, Outcome.UNDETERMINED),
    (1e-3, 1.6, 1e-3, Outcome.UNDETERMINED),
])
def test_classify_reads_only_the_tail_numbers(tail_min, tail_max, gap, want):
    assert classify_outcome(tail_min, tail_max, gap, 1e-2) is want


def test_tail_mask_rejects_empty_tail():
    grid, _, _, _ = _box_setup()
    with pytest.raises(ValidationError, match="tail radius"):
        tail_mask(grid, 1.0, tail_radius=7.0, boundary_margin=2.0)
    # the frozen layer of a reach-6 kernel leaves |x| <= 2 of the window
    # of radius 8, so a tail from 3 on is empty at any margin below 6
    with pytest.raises(ValidationError, match="tail radius"):
        tail_mask(grid, 6.0, tail_radius=3.0, boundary_margin=2.0)
    # a tail radius below the layer's edge, |x| <= 7, that still catches
    # no node: the outermost kept node of an 8-point cell lies at 6.9375
    with pytest.raises(ValidationError, match="tail radius"):
        tail_mask(ew.PeriodicGrid(1, 8, 8), 1.0, tail_radius=6.95,
                  boundary_margin=1.0)


@pytest.mark.parametrize("dim, cell, window, reach, tail_radius", [
    (1, 16, 12, 7.0, 2.0),
    (2, 8, 3, 2.5, 0.3),
])
def test_tail_mask_keeps_no_frozen_node(dim, cell, window, reach,
                                        tail_radius):
    """With a boundary margin below the reach, the tail still stops at the
    inner edge of the frozen layer: every kept node is marched."""
    grid = ew.PeriodicGrid(dim, cell, window)
    margin = 1.0
    keep = tail_mask(grid, reach, tail_radius, boundary_margin=margin)
    to_edge = window - np.max(np.abs(grid.window_nodes), axis=1)
    far = np.linalg.norm(grid.window_nodes, axis=1) >= tail_radius
    assert keep.any()
    assert np.all(to_edge[keep] >= reach - 1e-12)
    marched = np.zeros(grid.n_window, dtype=bool)
    marched[grid.interior_indices(reach)] = True
    np.testing.assert_array_equal(keep, marched & far)
    # the margin alone would have read frozen nodes
    assert np.any(far & (to_edge >= margin) & (to_edge < reach))


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


def _allocating_march(kernel, forcing, response, grid, dt, horizon):
    """The march as a plain loop of the allocating step: a fresh f(t, x)
    at the window nodes, a fresh memory and a boolean-mask interior at
    every step."""
    n_steps = march_steps(dt, horizon, grid.n_window)
    times = dt * np.arange(n_steps + 1)
    interior = np.zeros(grid.n_window, dtype=bool)
    interior[grid.interior_indices(kernel.half_width)] = True
    values = np.empty((n_steps + 1, grid.n_window))
    values[0] = np.asarray(forcing(grid.window_nodes)(0.0), dtype=float)
    mu = np.asarray(kernel.decay(grid.window_nodes), dtype=float)
    K = window_pair_matrix(grid, kernel)
    fade, gain, _ = exponential_step_weights(mu, dt)
    w = np.zeros(grid.n_window)
    for n in range(1, len(times)):
        w = fade * w + gain * response(values[n - 1])
        u = np.asarray(forcing(grid.window_nodes)(times[n]), dtype=float)
        u[interior] += grid.weight * (K @ w)[interior]
        values[n] = u
    return values


def _striped_case():
    grid = ew.PeriodicGrid(1, 32, 6)
    kernel = ew.separable_contact_kernel(
        2.3, 1.0, source_factor=lambda P: 1 + 0.4 * np.cos(2 * np.pi * P[:, 0]),
        decay=lambda P: 1 + 0.2 * np.sin(2 * np.pi * P[:, 0]))
    forcing = ew.bump_forcing(amplitude=0.8, radius=1.5, rate=0.7)
    return kernel, forcing, ew.saturating_exponential(), grid, 0.05, 12.0


def _box_2d_case():
    grid = ew.PeriodicGrid(2, 8, 3)
    kernel = ew.separable_contact_kernel(2.0, 1.0, dim=2)
    bump = ew.bump_forcing(radius=1.2)
    # off the origin, so the bump has no symmetry the 2-D layout could hide
    forcing = lambda X: bump(np.asarray(X, dtype=float) - (0.25, -0.5))
    return kernel, forcing, ew.saturating_exponential(), grid, 0.1, 4.0


def _sir_bridge_case():
    grid = ew.PeriodicGrid(1, 16, 6)
    seed = np.where(np.abs(grid.window_nodes[:, 0]) < 0.7, 0.3, 0.0)
    recovery = lambda X: 1.0 + 0.25 * np.sin(2 * np.pi * X[:, 0])
    state = SirState(
        grid=grid, kernel=ew.SeparableKernel(2.2, 1.0, decay=recovery),
        susceptible_fn=lambda X: 1.0 + 0.5 * np.cos(2 * np.pi * X[:, 0]),
        infected0=seed)
    kernel, forcing, response = sir_to_kernel(state)
    return kernel, forcing, response, grid, 0.05, 6.0


@pytest.mark.parametrize("case", [_striped_case, _box_2d_case,
                                  _sir_bridge_case],
                         ids=["striped-1d", "box-2d", "sir-bridge"])
def test_march_equals_the_allocating_step_bit_for_bit(case):
    kernel, forcing, response, grid, dt, horizon = case()
    field = solve_initial_value(kernel, forcing, response, grid,
                                dt=dt, horizon=horizon)
    reference = _allocating_march(kernel, forcing, response, grid, dt, horizon)
    assert np.max(field.values) > 0.0
    assert np.array_equal(field.values, reference)


@pytest.mark.parametrize("dim, cell, window", [(1, 16, 4), (1, 32, 6),
                                               (2, 8, 3)])
def test_interior_block_selects_the_interior_indices(dim, cell, window):
    grid = ew.PeriodicGrid(dim, cell, window)
    index = np.arange(grid.n_window)
    for margin in (0.0, 0.5, 1.0, 1.0 + 1.0 / cell, 2.3, window - 0.5, window):
        block = index.reshape(grid.window_shape)[grid.interior_block(margin)]
        assert block.size == 0 or np.shares_memory(block, index)
        assert np.array_equal(np.sort(block.ravel()),
                              grid.interior_indices(margin))
        assert np.array_equal(block.ravel(), grid.interior_indices(margin))


def _blowing_up_forcing(node, from_time):
    """Zero everywhere until from_time, then +inf at one window node."""
    def on_nodes(X):
        def at(t):
            out = np.zeros(np.asarray(X).shape[0])
            if t >= from_time:
                out[node] = np.inf
            return out
        return at

    return on_nodes


@pytest.mark.parametrize("kernel", [ew.separable_contact_kernel(2.0, 1.0)],
                         ids=["separable"])
def test_guard_names_the_time_and_node_where_finiteness_is_lost(kernel):
    grid = ew.PeriodicGrid(1, 16, 4)
    node = 70
    assert node in grid.interior_indices(kernel.half_width)
    forcing = _blowing_up_forcing(node, from_time=0.65)
    message = "solution lost finiteness at t = 0.7, window node 70"
    with pytest.raises(ConvergenceError, match=re.escape(message) + "$"):
        solve_initial_value(kernel, forcing, ew.saturating_exponential(),
                            grid, dt=0.1, horizon=2.0)
