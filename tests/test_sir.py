"""Compartmental simulator and its change-of-variables bridge.

The headline test runs the same outbreak through two solvers that share
no marching code (explicit SIR stepping vs the renewal-equation march)
and checks that -ln(S/S0) agrees with u to first order in dt and the
node spacing.
"""

import dataclasses

import numpy as np
import pytest

import epiwave as ew
from epiwave.domain.kernels import image_table
from epiwave.errors import ConvergenceError, ValidationError
from epiwave.sir import SirState, equivalence_check, simulate_sir, sir_to_kernel
from pair_reference import pair_fn


def _box_pair(mass=2.0, radius=1.0):
    """The box's pair values, half of the height at the edge."""
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


def _kernel(recovery=_ones, **factors):
    """The contact rate (the box of mass 2 and reach 1, times the source
    and target factors given) and the recovery rate as the SirState's
    separable kernel."""
    return ew.SeparableKernel(2.0, 1.0, decay=recovery, **factors)


def _plain_state(cell_points=16, window_radius=8, **overrides):
    grid = ew.PeriodicGrid(dim=1, cell_points=cell_points,
                           window_radius=window_radius)
    fields = dict(grid=grid, kernel=_kernel(), susceptible_fn=_ones,
                  infected0=_bump_seed(grid))
    fields.update(overrides)
    return SirState(**fields)


def _striped_state(cell_points=16, window_radius=8):
    grid = ew.PeriodicGrid(dim=1, cell_points=cell_points,
                           window_radius=window_radius)
    return SirState(
        grid=grid,
        kernel=_kernel(
            recovery=lambda X: 1.0 + 0.25 * np.sin(2 * np.pi * X[:, 0])),
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
        state = _plain_state(
            kernel=_kernel(recovery=lambda X: m * np.ones(X.shape[0])))
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
    good = dict(grid=grid, kernel=_kernel(), susceptible_fn=_ones,
                infected0=_bump_seed(grid))
    with pytest.raises(ValidationError, match="does not fit"):
        SirState(**{**good, "infected0": np.zeros(7)})
    with pytest.raises(ValidationError, match="nonnegative"):
        SirState(**{**good, "infected0": -_bump_seed(grid)})
    with pytest.raises(ValidationError, match="away from zero"):
        SirState(**{**good, "susceptible_fn":
                    lambda X: np.cos(2 * np.pi * X[:, 0])})


def test_negative_infection_reported_with_node():
    # a sign-violating contact rate drives I below zero; the simulator
    # should say where rather than march on
    state = _plain_state(
        window_radius=4,
        kernel=ew.SeparableKernel(4.0, 1.0,
                                  source=lambda Y: np.full(len(Y), -1.0)),
        infected0=_bump_seed(ew.PeriodicGrid(dim=1, cell_points=16,
                                             window_radius=4), 0.5),
    )
    with pytest.raises(ConvergenceError, match="negative infection"):
        simulate_sir(state, dt=0.1, horizon=2.0)


def test_step_must_resolve_the_stiffness():
    # recovery 1 plus the pressure at full susceptibility, mass 2: rate 3
    state = _plain_state(window_radius=4)
    with pytest.raises(ValidationError, match="refine the time step"):
        simulate_sir(state, dt=0.34, horizon=1.0)


def test_bridge_recovers_plain_exponential_kernel():
    # with unit recovery and unit susceptibles the bridged kernel is just
    # the contact rate damped by e^{-t}: spatial factor K, decay rate 1
    state = _plain_state()
    kernel, forcing, response = sir_to_kernel(state)
    X = np.array([[0.2], [1.4], [-0.9]])
    Y = np.array([[0.9], [0.8], [-0.4]])
    assert (kernel.mass, kernel.half_width, kernel.dim) == (2.0, 1.0, 1)
    assert np.array_equal(pair_fn(kernel)(X, Y), _box_pair()(X, Y))
    assert np.array_equal(kernel.decay(Y), np.ones(3))
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
    # Gamma = S0(y) K(x, y) exp(-mu(y) tau): the source factor is S0 s
    assert np.array_equal(kernel.source(Y), s0_y)
    assert np.array_equal(kernel.target(X), np.ones(2))
    assert np.array_equal(pair_fn(kernel)(X, Y), _box_pair()(X, Y) * s0_y)
    assert np.array_equal(kernel.decay(Y), mu_y)


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
        assert np.max(np.abs(forcing(probes)(t) - brute)) <= 1e-9


def test_seed_pressure_at_window_nodes_is_evaluated_once():
    """The bridge's seeding function, called at the window nodes, evaluates
    the window-to-seed pairs once, then, and never again; its values equal
    those of a fresh call (here at a copy of the nodes, one pair
    evaluation, and one call of the target factor, per call) bit for
    bit."""
    state = _striped_state()
    pair_calls = []

    def counted(X):
        pair_calls.append(X.shape[0])
        return np.ones(X.shape[0])

    state = dataclasses.replace(
        state, kernel=_kernel(state.kernel.decay, target=counted))
    _, forcing, _ = sir_to_kernel(state)
    nodes = state.grid.window_nodes
    seed = forcing(nodes)
    assert len(pair_calls) == 1
    times = (0.0, 0.05, 0.7, 3.0, 40.0)
    for fresh, t in enumerate(times):
        on_nodes = seed(t)
        assert len(pair_calls) == 1 + fresh
        assert np.array_equal(on_nodes, forcing(nodes.copy())(t))
        assert np.any(on_nodes > 0) == (t > 0)
    assert len(pair_calls) == 1 + len(times)


def test_seed_forcing_monotone_with_limit():
    state = _plain_state()
    _, forcing, _ = sir_to_kernel(state)
    probes = np.array([[0.0], [0.6], [-1.2], [3.0]])
    seed = forcing(probes)
    samples = np.array([seed(t) for t in np.linspace(0.0, 25.0, 51)])
    assert np.all(np.diff(samples, axis=0) >= 0.0)
    assert np.max(np.abs(samples[-1] - seed(np.inf))) <= 1e-10
    # compact support: far probes never feel the seed
    far = forcing(np.array([[6.0], [-5.5]]))
    assert np.all(far(4.0) == 0.0)
    assert np.all(far(np.inf) == 0.0)


def test_bridge_satisfies_standing_hypotheses():
    """The bridged kernel on the nodes the solvers use: its lattice-image
    table is nonnegative, and each kept block reads the same under a joint
    shift of both arguments by 1 (to rounding of the shifted nodes)."""
    state = _striped_state()
    kernel, _, _ = sir_to_kernel(state)
    grid = state.grid
    shifts, blocks = image_table(kernel, grid, decay=False)
    assert np.min(blocks) >= 0.0
    n = grid.n_cell
    XX = np.repeat(grid.cell_nodes, n, axis=0)
    YY = np.tile(grid.cell_nodes, (n, 1))
    for shift, block in zip(shifts, blocks):
        moved = pair_fn(kernel)(XX + 1.0, YY + shift + 1.0)
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


def test_box_contact_evaluates_only_the_images_in_its_box():
    # the 2-D box of reach 1 on an 8-point cell reaches 9 lattice images.
    # The compartmental march applies it axis by axis, reading the source
    # factor once on the cell, and the bridge's seed reads it once at the
    # seeded nodes; the bridged kernel's cell matrix reads it once per
    # image, and once more on the cell for each of its axis factors and
    # its symmetry weight
    calls = []

    def source(Y):
        calls.append(1)
        return _ones(Y)

    grid = ew.PeriodicGrid(dim=2, cell_points=8, window_radius=2)
    kernel = ew.SeparableKernel(2.0, 1.0, dim=2, source=source)
    state = SirState(grid=grid, kernel=kernel, susceptible_fn=_ones,
                     infected0=np.zeros(grid.n_window))
    simulate_sir(state, dt=0.05, horizon=0.1)
    assert len(calls) == 1
    calls.clear()
    kernel, _, _ = sir_to_kernel(state)
    assert kernel.reach == state.kernel.reach
    assert len(calls) == 1
    calls.clear()
    ew.time_integrate_kernel(kernel, grid)
    assert len(calls) == 9 + 2


def test_seed_reads_the_pairs_of_the_repeated_nodes_bit_for_bit():
    """The bridge's seed forcing reads K(x, y) from the contact kernel's
    factors by broadcasting, in the order of the products a pair function
    makes on repeated and tiled node arrays, b, s and S0 all varying: the
    same forcing bit for bit, in 1-D and on a 2-D window."""
    for dim, cell_points, window in ((1, 16, 3), (2, 8, 2)):
        grid = ew.PeriodicGrid(dim=dim, cell_points=cell_points,
                               window_radius=window)
        kernel = ew.SeparableKernel(
            2.3, 0.875, dim=dim,
            target=lambda P: np.exp(0.5 * np.cos(2 * np.pi * P[:, -1])),
            source=lambda P: 1.0 + 0.4 * np.cos(2 * np.pi * (P[:, 0] - 0.3)),
            decay=lambda P: 1.0 + 0.2 * np.sin(2 * np.pi * P[:, 0]))
        nodes = grid.window_nodes
        seed = 0.3 * (np.linalg.norm(nodes, axis=1) < 0.8)
        state = SirState(
            grid=grid, kernel=kernel, infected0=seed,
            susceptible_fn=lambda P: 1.0 + 0.5 * np.sin(2 * np.pi * P[:, 0]))
        _, forcing, _ = sir_to_kernel(state)
        seeded = nodes[seed > 0]
        XX = np.repeat(nodes, len(seeded), axis=0)
        YY = np.tile(seeded, (len(nodes), 1))
        pairs = pair_fn(kernel)(XX, YY).reshape(len(nodes), len(seeded))
        mu = kernel.decay(seeded)
        on_nodes = forcing(nodes)
        for t in (0.0, 0.4, 3.0, np.inf):
            ramp = grid.weight * seed[seed > 0] * (-np.expm1(-mu * t) / mu)
            want = pairs @ ramp
            assert np.array_equal(on_nodes(t).view(np.uint64),
                                  want.view(np.uint64))
        assert np.any(on_nodes(1.0) > 0)


def test_trajectory_required_for_attack_variable():
    state = _plain_state(window_radius=4)
    with pytest.raises(ValidationError, match="no trajectory"):
        state.log_attack()
