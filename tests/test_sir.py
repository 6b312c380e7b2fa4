"""Compartmental simulator and its change-of-variables bridge.

The headline test runs the same outbreak through two solvers that share
no marching code (explicit SIR stepping vs the renewal-equation march)
and checks that -ln(S/S0) agrees with u to first order in dt and the
node spacing.
"""

import numpy as np
import pytest

import epiwave as ew
from epiwave.domain.kernels import lattice_image_blocks
from epiwave.errors import ConvergenceError, ValidationError
from epiwave.sir import SirState, equivalence_check, simulate_sir, sir_to_kernel


def _box_pair(mass=2.0, radius=1.0):
    half = 0.5 * mass / radius

    def pair(X, Y):
        d = np.abs(X[:, 0] - Y[:, 0])
        out = np.where(d < radius, 1.0, 0.0)
        return half * np.where(np.abs(d - radius) < 1e-12, 0.5, out)

    return pair


def _ones(X):
    return np.ones(X.shape[0])


def _bump_seed(grid, amplitude=0.2, radius=0.5):
    x = grid.window_nodes[:, 0]
    prof = np.cos(np.pi * x / (2.0 * radius)) ** 2
    return amplitude * np.where(np.abs(x) < radius, prof, 0.0)


def _plain_state(cell_points=16, window_radius=8, **overrides):
    grid = ew.PeriodicGrid(dim=1, cell_points=cell_points,
                           window_radius=window_radius)
    fields = dict(grid=grid, contact_fn=_box_pair(), support_radius=1.0,
                  recovery_fn=_ones, susceptible_fn=_ones,
                  infected0=_bump_seed(grid))
    fields.update(overrides)
    return SirState(**fields)


def _striped_state(cell_points=16, window_radius=8):
    grid = ew.PeriodicGrid(dim=1, cell_points=cell_points,
                           window_radius=window_radius)
    return SirState(
        grid=grid, contact_fn=_box_pair(), support_radius=1.0,
        recovery_fn=lambda X: 1.0 + 0.25 * np.sin(2 * np.pi * X[:, 0]),
        susceptible_fn=lambda X: 1.0 + 0.5 * np.cos(2 * np.pi * X[:, 0]),
        infected0=_bump_seed(grid),
    )


def test_zero_seed_is_a_fixed_point():
    grid = ew.PeriodicGrid(dim=1, cell_points=16, window_radius=4)
    state = _plain_state(window_radius=4,
                         infected0=np.zeros(grid.n_window))
    sim = simulate_sir(state, dt=0.1, horizon=2.0)
    assert np.array_equal(sim.S, np.tile(sim.S[0], (sim.S.shape[0], 1)))
    assert np.all(sim.I == 0.0)
    assert equivalence_check(state, dt=0.1, horizon=2.0) == 0.0


def test_susceptibles_decay_and_stay_positive():
    sim = simulate_sir(_plain_state(), dt=0.05, horizon=3.0)
    assert np.all(np.diff(sim.S, axis=0) <= 0.0)
    assert np.min(sim.S) > 0.0
    assert np.min(sim.I) >= 0.0


def test_attack_variable_nonnegative_and_nondecreasing():
    # u = -ln(S/S0) inherits exact monotonicity from the log-form march
    sim = simulate_sir(_striped_state(), dt=0.05, horizon=3.0)
    u = sim.log_attack()
    assert np.min(u) >= 0.0
    assert np.all(np.diff(u, axis=0) >= 0.0)


def test_infection_balance_closes_to_first_order():
    """With constant recovery m, the lost susceptibles all pass through I:
    total(S+I)(t) + m * int_0^t total(I) should stay at total(S0+I0), with
    an O(dt) defect from the explicit stepping."""
    m = 1.3

    def _worst_defect(dt):
        state = _plain_state(recovery_fn=lambda X: m * np.ones(X.shape[0]))
        sim = simulate_sir(state, dt=dt, horizon=3.0)
        wt = state.grid.weight
        start = wt * np.sum(sim.S[0] + sim.I[0])
        removed = 0.0
        worst = 0.0
        for n in range(1, sim.S.shape[0]):
            removed += m * dt * wt * np.sum(sim.I[n - 1])
            drift = wt * np.sum(sim.S[n] + sim.I[n]) + removed - start
            worst = max(worst, abs(drift))
        return worst

    coarse = _worst_defect(0.1)
    fine = _worst_defect(0.05)
    assert coarse <= 0.05
    assert 1.5 <= coarse / fine <= 3.0


def test_step_size_guard():
    state = _plain_state()
    with pytest.raises(ValidationError, match="refine the time step"):
        simulate_sir(state, dt=0.5, horizon=2.0)
    with pytest.raises(ValidationError, match="positive"):
        simulate_sir(state, dt=0.0, horizon=2.0)
    with pytest.raises(ValidationError, match="shorter than one step"):
        simulate_sir(state, dt=0.1, horizon=0.01)


def test_state_validation():
    grid = ew.PeriodicGrid(dim=1, cell_points=16, window_radius=4)
    good = dict(grid=grid, contact_fn=_box_pair(), support_radius=1.0,
                recovery_fn=_ones, susceptible_fn=_ones,
                infected0=_bump_seed(grid))
    with pytest.raises(ValidationError, match="does not fit"):
        SirState(**{**good, "infected0": np.zeros(7)})
    with pytest.raises(ValidationError, match="nonnegative"):
        SirState(**{**good, "infected0": -_bump_seed(grid)})
    with pytest.raises(ValidationError, match="away from zero"):
        SirState(**{**good, "susceptible_fn":
                    lambda X: np.cos(2 * np.pi * X[:, 0])})
    with pytest.raises(ValidationError, match="finite positive"):
        SirState(**{**good, "support_radius": np.inf})
    with pytest.raises(ValidationError, match="nonnegative"):
        SirState(**{**good, "diffusion": -0.1})


def test_negative_infection_reported_with_node():
    # a sign-violating contact rate drives I below zero; the simulator
    # should say where rather than march on
    state = _plain_state(
        window_radius=4,
        contact_fn=lambda X, Y: -2.0 * (np.abs(X[:, 0] - Y[:, 0]) <= 1.0),
        infected0=_bump_seed(ew.PeriodicGrid(dim=1, cell_points=16,
                                             window_radius=4), 0.5),
    )
    with pytest.raises(ConvergenceError, match="negative infection"):
        simulate_sir(state, dt=0.1, horizon=2.0)


def test_bridge_recovers_plain_exponential_kernel():
    # with unit recovery and unit susceptibles the bridged kernel is just
    # the contact rate damped by e^{-t}
    state = _plain_state()
    kernel, forcing, response = sir_to_kernel(state)
    X = np.array([[0.2], [1.4], [-0.9]])
    Y = np.array([[0.9], [0.8], [-0.4]])
    for t in (0.0, 0.7, 3.0):
        want = np.exp(-t) * _box_pair()(X, Y)
        assert np.array_equal(kernel.evaluate(t, X, Y), want)
    assert response.slope0 == 1.0
    assert response.bound == 1.0
    z = np.array([0.0, 0.3, 2.0])
    assert np.allclose(response(z), -np.expm1(-z), rtol=0.0, atol=1e-15)


def test_bridge_weights_kernel_by_initial_susceptibles():
    state = _striped_state()
    kernel, _, _ = sir_to_kernel(state)
    X = np.array([[0.2], [1.4]])
    Y = np.array([[0.9], [-0.4]])
    mu_y = 1.0 + 0.25 * np.sin(2 * np.pi * Y[:, 0])
    s0_y = 1.0 + 0.5 * np.cos(2 * np.pi * Y[:, 0])
    want = np.exp(-mu_y * 0.6) * s0_y * _box_pair()(X, Y)
    assert np.allclose(kernel.evaluate(0.6, X, Y), want, rtol=1e-14, atol=0.0)


def test_seed_forcing_matches_time_quadrature():
    """The closed-form tau integral behind the forcing, checked against a
    brute trapezoid rule on a fine tau grid."""
    state = _striped_state()
    grid = state.grid
    _, forcing, _ = sir_to_kernel(state)
    pair = _box_pair()
    mu_w = 1.0 + 0.25 * np.sin(2 * np.pi * grid.window_nodes[:, 0])
    probes = np.array([[0.3], [1.1], [-0.7], [2.0]])
    for t in (0.5, 2.0):
        taus = np.linspace(0.0, t, 20001)
        brute = np.zeros(probes.shape[0])
        for i in range(probes.shape[0]):
            XX = np.repeat(probes[i][None, :], grid.n_window, axis=0)
            K_row = pair(XX, grid.window_nodes) * state.infected0
            integrand = np.exp(-np.outer(taus, mu_w)) @ K_row
            brute[i] = grid.weight * np.trapezoid(integrand, taus)
        assert np.max(np.abs(forcing(t, probes) - brute)) <= 1e-9


def test_seed_pressure_at_window_nodes_is_evaluated_once():
    """The bridge evaluates the window-to-seed pairs on its first call at
    the window nodes and reuses them; the values equal those of a fresh
    evaluation (any other array, here a copy of the nodes) bit for bit."""
    state = _striped_state()
    pair_calls = []
    contact = state.contact_fn

    def counted(X, Y):
        pair_calls.append(X.shape[0])
        return contact(X, Y)

    state = SirState(grid=state.grid, contact_fn=counted,
                     support_radius=state.support_radius,
                     recovery_fn=state.recovery_fn,
                     susceptible_fn=state.susceptible_fn,
                     infected0=state.infected0)
    _, forcing, _ = sir_to_kernel(state)
    nodes = state.grid.window_nodes
    times = (0.0, 0.05, 0.7, 3.0, 40.0)
    for t in times:
        cached = forcing(t, nodes)
        assert np.array_equal(cached, forcing(t, nodes.copy()))
        assert np.any(cached > 0) == (t > 0)
    assert len(pair_calls) == 1 + len(times)


def test_seed_forcing_monotone_with_limit():
    state = _plain_state()
    _, forcing, _ = sir_to_kernel(state)
    probes = np.array([[0.0], [0.6], [-1.2], [3.0]])
    samples = np.array([forcing(t, probes) for t in np.linspace(0.0, 25.0, 51)])
    assert np.all(np.diff(samples, axis=0) >= 0.0)
    assert np.max(np.abs(samples[-1] - forcing.limit(probes))) <= 1e-10
    # compact support: far probes never feel the seed
    far = np.array([[6.0], [-5.5]])
    assert np.all(forcing(4.0, far) == 0.0)
    assert np.all(forcing.limit(far) == 0.0)


def test_bridge_rejects_diffusion_with_guidance():
    state = _plain_state(diffusion=0.05)
    with pytest.raises(ValidationError, match="tabulate"):
        sir_to_kernel(state)


def test_bridge_satisfies_standing_hypotheses():
    """The bridged kernel on the nodes the solvers use: its lattice-image
    table is nonnegative, and each kept block reads the same under a joint
    shift of both arguments by 1 (to rounding of the shifted nodes)."""
    state = _striped_state()
    kernel, _, _ = sir_to_kernel(state)
    grid = state.grid
    shifts, blocks = lattice_image_blocks(kernel.spatial_fn, grid,
                                          kernel.support_radius)
    assert np.min(blocks) >= 0.0
    n = grid.n_cell
    XX = np.repeat(grid.cell_nodes, n, axis=0)
    YY = np.tile(grid.cell_nodes, (n, 1))
    for shift, block in zip(shifts, blocks):
        moved = kernel.spatial_fn(XX + 1.0, YY + shift + 1.0)
        assert np.allclose(moved.reshape(n, n), block, rtol=0.0, atol=1e-12)


def test_two_routes_agree_to_first_order():
    """Richardson oracle for the change of variables: halving both dt and
    the spacing should roughly halve the sup-norm gap between -ln(S/S0)
    and the renewal solution."""
    gaps = {}
    for cell_points, dt in ((16, 0.1), (32, 0.05)):
        state = _plain_state(cell_points=cell_points)
        gaps[cell_points] = equivalence_check(state, dt=dt, horizon=3.0)
    assert gaps[16] <= 0.5 * (0.1 + 1.0 / 16)
    ratio = gaps[16] / gaps[32]
    assert 1.5 <= ratio <= 3.0
    rate = gaps[16] / (0.1 + 1.0 / 16)
    assert gaps[32] <= 1.5 * rate * (0.05 + 1.0 / 32)


def test_two_routes_agree_in_striped_medium():
    coarse = equivalence_check(_striped_state(16), dt=0.1, horizon=3.0)
    fine = equivalence_check(_striped_state(32), dt=0.05, horizon=3.0)
    assert coarse <= 0.1
    assert 1.5 <= coarse / fine <= 3.0


def test_diffusive_variant_marches():
    state = _plain_state(window_radius=4, diffusion=0.02)
    sim = simulate_sir(state, dt=0.01, horizon=1.0)
    assert np.all(np.isfinite(sim.S)) and np.all(np.isfinite(sim.I))
    assert np.all(np.diff(sim.S, axis=0) <= 0.0)
    assert np.min(sim.I) >= 0.0
    # the stencil rate is part of the stability bound
    with pytest.raises(ValidationError, match="refine the time step"):
        simulate_sir(state, dt=0.09, horizon=1.0)
    # and a 2-d window has no stencil at all
    grid2 = ew.PeriodicGrid(dim=2, cell_points=8, window_radius=2)
    with pytest.raises(ValidationError, match="one-dimensional"):
        SirState(grid=grid2, contact_fn=_box_pair(), support_radius=1.0,
                 recovery_fn=_ones, susceptible_fn=_ones,
                 infected0=np.zeros(grid2.n_window), diffusion=0.1)


def test_trajectory_required_for_attack_variable():
    state = _plain_state(window_radius=4)
    with pytest.raises(ValidationError, match="no trajectory"):
        state.log_attack()
