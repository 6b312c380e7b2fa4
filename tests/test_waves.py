"""Dispersion surface, minimal speed, front iteration, slow-speed diagnostics."""

import dataclasses

import numpy as np
import pytest

import epiwave as ew
from epiwave import ConvergenceError, ValidationError
from epiwave.spectral import assemble_periodic, principal_eigenpair
from epiwave.steady import solve_steady_state
from epiwave.app import pipelines, scenario
from epiwave.waves import (
    DispersionPoint,
    TiltedOperator,
    WaveOperator,
    build_sub_super,
    complex_decay_root,
    construct_wave,
    default_rho_grid,
    dispersion_eigenvalue,
    minimal_speed,
    oscillating_subsolution,
)
from epiwave.waves import dispersion
from oracles import FROZEN, box_dispersion, box_minimal_speed


def _grid(cell_points=64, window=4):
    return ew.PeriodicGrid(dim=1, cell_points=cell_points, window_radius=window)


def _box(mass=2.0):
    return ew.separable_contact_kernel(mass, 1.0)


def _g():
    return ew.saturating_exponential()


def _striped_kernel():
    def source(x):
        return 1.0 + 0.5 * np.cos(2.0 * np.pi * x[:, 0])

    def recovery(y):
        return 1.0 + 0.25 * np.sin(2.0 * np.pi * y[:, 0])

    return ew.separable_contact_kernel(
        2.0, 1.0, source_factor=source, decay=recovery
    )


@pytest.fixture(scope="module")
def front():
    """One full front run at twice the minimal speed, shared across tests."""
    grid = ew.PeriodicGrid(dim=1, cell_points=32, window_radius=40)
    kernel = _box()
    g = _g()
    speed = minimal_speed(kernel, g, grid)
    steady = solve_steady_state(
        ew.time_integrate_kernel(kernel, grid), g, tol=1e-13
    )
    c = 2.0 * speed.c_star
    pair = build_sub_super(kernel, g, c, grid, steady, speed=speed)
    op = WaveOperator(kernel, g, c, grid)
    wave = construct_wave(kernel, g, c, grid, steady, speed=speed, pair=pair)
    return {
        "grid": grid, "kernel": kernel, "g": g, "speed": speed,
        "steady": steady, "c": c, "pair": pair, "op": op, "wave": wave,
    }


# ---------------------------------------------------------------- dispersion


def test_rest_rate_matches_threshold_eigenvalue():
    grid = _grid()
    kernel = _box()
    g = _g()
    point = dispersion_eigenvalue(kernel, g, 0.0, 0.0, grid)
    op = assemble_periodic(ew.time_integrate_kernel(kernel, grid), g, grid)
    lam = principal_eigenpair(op).value
    assert abs(point.value - lam) <= 1e-9
    assert abs(point.value - 2.0) <= 1e-10
    assert np.min(point.phi) > 0


def test_tilted_eigenvalue_tracks_the_closed_form():
    """Quadrature error is second order in the spacing, so it halves four
    times over when the cell count doubles."""
    g = _g()
    errs = {}
    for n in (64, 128):
        point = dispersion_eigenvalue(_box(), g, 1.0, 0.0, _grid(n))
        errs[n] = abs(point.value - FROZEN["lambda_rho1_c0"])
    assert errs[64] <= 2e-4
    assert errs[128] <= 0.3 * errs[64]
    moving = dispersion_eigenvalue(_box(), g, 1.0, 0.5, _grid(64))
    assert abs(moving.value - box_dispersion(1.0, 0.5)) <= 2e-4


def test_faster_frames_always_shrink_the_eigenvalue():
    grid = _grid(48)
    kernel = _box()
    g = _g()
    rhos = np.linspace(0.2, 3.2, 16)
    speeds = [0.0, 0.5, 1.0, 2.0]
    for rho in rhos:
        vals = [dispersion_eigenvalue(kernel, g, rho, c, grid).value
                for c in speeds]
        assert np.all(np.diff(vals) < 0)
    # continuity under refinement: shrinking the speed step shrinks the jump
    gaps = []
    for dc in (0.5, 0.25, 0.125):
        a = dispersion_eigenvalue(kernel, g, 1.0, 1.0, grid).value
        b = dispersion_eigenvalue(kernel, g, 1.0, 1.0 + dc, grid).value
        gaps.append(a - b)
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_tilting_never_lowers_the_resting_eigenvalue():
    grid = _grid(48)
    kernel = _box()
    g = _g()
    base = dispersion_eigenvalue(kernel, g, 0.0, 0.0, grid).value
    for rho in np.geomspace(0.05, 3.0, 7):
        tilted = dispersion_eigenvalue(kernel, g, rho, 0.0, grid).value
        assert tilted >= base - 1e-9


def test_general_kernel_path_agrees_with_the_separable_form():
    def box_r(r):
        r = np.asarray(r)
        return np.where(r < 1.0, 1.0, np.where(r == 1.0, 0.5, 0.0))

    grid = _grid(32)
    g = _g()
    sep = ew.SeparableKernel(
        spatial_fn=lambda X, Y: box_r(np.abs(X[:, 0] - Y[:, 0])),
        mu_fn=lambda Y: np.ones(np.asarray(Y).shape[0]),
        support_radius=1.0,
    )
    iso = ew.IsotropicKernel(
        profile=lambda tau, r: np.exp(-tau) * box_r(r),
        support_radius=1.0,
    )
    for rho, c in ((0.0, 0.0), (0.8, 0.6)):
        a = dispersion_eigenvalue(sep, g, rho, c, grid).value
        b = dispersion_eigenvalue(iso, g, rho, c, grid).value
        assert abs(a - b) <= 1e-9


def test_minimal_speed_matches_the_scalar_oracle():
    result = minimal_speed(_box(), _g(), _grid())
    assert not result.at_rest
    assert abs(result.c_star - FROZEN["c_star"]) <= 1.5e-3
    assert abs(result.rho_star - FROZEN["rho_star"]) <= 5e-3
    assert result.value <= 1.0 + 1e-9


def test_subcritical_medium_rests():
    result = minimal_speed(_box(mass=0.5), _g(), _grid(32))
    assert result.at_rest
    assert result.c_star == 0.0
    assert result.rho_star is None


def test_richer_contacts_travel_faster():
    lean = minimal_speed(_box(2.0), _g(), _grid())
    rich = minimal_speed(_box(4.0), _g(), _grid())
    assert rich.c_star > lean.c_star
    oracle_c, _ = box_minimal_speed(beta=4.0)
    assert abs(rich.c_star - oracle_c) <= 2e-3


def test_speed_and_grid_input_validation():
    kernel = _box()
    g = _g()
    grid = _grid(32)
    with pytest.raises(ValidationError, match="direction"):
        minimal_speed(kernel, g, grid, direction=[0.0])
    with pytest.raises(ValidationError, match="rho_grid"):
        minimal_speed(kernel, g, grid, rho_grid=[0.5])
    with pytest.raises(ValidationError, match="rho_grid"):
        minimal_speed(kernel, g, grid, rho_grid=[-0.5, 1.0])
    with pytest.raises(ValidationError, match="c_tol"):
        minimal_speed(kernel, g, grid, c_tol=0.0)
    base = default_rho_grid()
    assert base.size == 64 and base[0] >= 1e-3 and base[-1] <= 8.0
    assert np.all(np.diff(base) > 0)


def test_unbounded_contacts_are_rejected():
    stretched = ew.SeparableKernel(
        spatial_fn=lambda X, Y: np.exp(-np.abs(X[:, 0] - Y[:, 0])),
        mu_fn=lambda Y: np.ones(np.asarray(Y).shape[0]),
        support_radius=np.inf,
    )
    with pytest.raises(ValidationError, match="super-linear"):
        dispersion_eigenvalue(stretched, _g(), 0.5, 0.0, _grid(32))


_STRIPED_DOC = {"source": "1 + 0.5*cos(2*pi*x)",
                "decay": "1 + 0.25*sin(2*pi*x)"}


@pytest.mark.parametrize("doc", [
    {"kernel": {}},
    {"kernel": _STRIPED_DOC},
    {"grid": {"dim": 2, "cell_points": 8, "window_radius": 2},
     "run": {"direction": [1.0, 1.0]}},
], ids=["box", "striped", "box-2d-diagonal"])
def test_dispersion_table_equals_each_point_bit_for_bit(doc):
    """One operator for the whole surface gives, at every (rho, c), the
    very value a fresh per-point evaluation gives."""
    cfg = scenario.scenario_from_dict({
        "grid": {"cell_points": 16, "window_radius": 2}, **doc,
        "run": {**doc.get("run", {}), "rho_values": [0.0, 0.4, 1.3],
                "c_values": [0.0, 0.7, 2.0]}})
    artifacts, _ = pipelines.run_dispersion(cfg)
    rows = artifacts["dispersion.csv"].splitlines()[1:]
    table = [tuple(float(v) for v in row.split(",")) for row in rows]
    expected = [
        (rho, c, dispersion_eigenvalue(cfg.kernel, cfg.response, rho, c,
                                       cfg.grid, cfg.direction).value)
        for c in cfg.c_values for rho in cfg.rho_values]
    assert table == expected


def _count_lattice_sums(monkeypatch):
    calls = []
    real = dispersion.periodize_kernel

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dispersion, "periodize_kernel", counting)
    return calls


def test_one_lattice_sum_per_rate_across_speeds(monkeypatch):
    calls = _count_lattice_sums(monkeypatch)
    tilted = TiltedOperator(_striped_kernel(), _g(), _grid(16))
    for c in (0.0, 0.5, 2.0):
        for rho in (0.2, 0.9):
            tilted.point(rho, c)
    assert len(calls) == 2


def test_lattice_sum_cache_bound_leaves_the_speed_unchanged(monkeypatch):
    kernel, g, grid = _striped_kernel(), _g(), _grid(16)
    calls = _count_lattice_sums(monkeypatch)
    free = minimal_speed(kernel, g, grid)
    unbounded = len(calls)
    # room for one cached n_cell x n_cell sum, not two
    monkeypatch.setattr(dispersion, "MAX_CELL_BYTES", 3 * 16 * 16 * 8 // 2)
    calls.clear()
    bounded = minimal_speed(kernel, g, grid)
    assert len(calls) > unbounded
    assert (bounded.c_star, bounded.rho_star) == (free.c_star, free.rho_star)


def test_tilted_operator_refuses_negative_speeds_and_rates():
    tilted = TiltedOperator(_box(), _g(), _grid(16))
    for rho, c in ((0.5, -1.0), (-0.5, 1.0), (-0.5 + 0j, 1.0)):
        for evaluate in (tilted.matrix, tilted.operator, tilted.point):
            with pytest.raises(ValidationError, match="nonnegative"):
                evaluate(rho, c)
    # a complex rate is not a real one: its real part may have any sign
    assert np.iscomplexobj(tilted.matrix(-0.5 + 0.1j, 1.0))


# ------------------------------------------------------------- complex roots


def test_decay_root_continues_off_the_tangency():
    grid = _grid()
    kernel = _box()
    g = _g()
    speed = minimal_speed(kernel, g, grid)
    at_star = complex_decay_root(kernel, g, speed.c_star, grid, speed=speed)
    assert np.imag(at_star.rho) == 0.0
    assert abs(float(np.real(at_star.rho)) - speed.rho_star) <= 1e-12

    below = complex_decay_root(kernel, g, 0.95 * speed.c_star, grid,
                               speed=speed)
    assert np.imag(below.rho) > 0
    assert below.residual <= 1e-8
    assert abs(np.real(below.rho) - speed.rho_star) <= 0.1
    # the conjugate rate solves the same equation
    mirror = dispersion_eigenvalue(kernel, g, np.conj(below.rho),
                                   0.95 * speed.c_star, grid,
                                   seed=np.conj(below.phi))
    assert abs(mirror.value - 1.0) <= 1e-7


def test_decay_root_rejects_fast_frames():
    grid = _grid(32)
    kernel = _box()
    g = _g()
    speed = minimal_speed(kernel, g, grid)
    with pytest.raises(ValidationError, match="minimal speed"):
        complex_decay_root(kernel, g, 1.1 * speed.c_star, grid, speed=speed)


def test_complex_rates_need_a_seed():
    with pytest.raises(ValidationError, match="seed"):
        dispersion_eigenvalue(_box(), _g(), 0.3 + 0.1j, 0.5, _grid(32))


# ------------------------------------------------------------------- fronts


def test_certificates_hold_at_every_interior_node(front):
    op, pair = front["op"], front["pair"]
    up = op.apply(pair.sup, pair.sup_ghost)
    down = op.apply(pair.sub, pair.sub_ghost)
    assert np.max((up - pair.sup)[:, op.interior]) <= 1e-12
    assert np.min((down - pair.sub)[:, op.interior]) >= -1e-12


def _apply_by_slice_pairs(op, slab, ghost_terms):
    """Reference for WaveOperator.apply: the memory over the last period
    summed term by term over (slice, lag) pairs, O(m^2) per application."""
    m, nw, n = op.m, op.grid.n_window, op.n_cell
    g_ext = op.response(np.hstack([slab, op.ghost_values(ghost_terms)]))
    base, shifted = g_ext[:, :nw], g_ext[:, n:]

    def pick(s):
        return base[s] if s >= 0 else shifted[s + m]

    G = np.zeros((m, nw))
    for j in range(m):
        for lag in range(m):
            G[j] += op.E1**lag * (op.alpha * pick(j - lag)
                                  + op.beta * pick(j - lag - 1))
    w = np.empty((m, nw))
    w_next = op._ghost_memory(ghost_terms)
    for k in range(op.cells - 1, -1, -1):
        cols = slice(k * n, (k + 1) * n)
        w[:, cols] = G[:, cols] + op.EP[:n] * w_next
        w_next = w[:, cols]
    out = slab.copy()
    conv = op.grid.weight * (op.K @ w.T).T
    out[:, op.interior] = conv[:, op.interior]
    return out


@pytest.mark.parametrize("slices", [4, 16])
@pytest.mark.parametrize("make_kernel", [_box, _striped_kernel],
                         ids=["box", "striped"])
def test_running_sum_matches_the_slice_pair_sum(make_kernel, slices):
    grid = ew.PeriodicGrid(dim=1, cell_points=16, window_radius=4)
    c, rho = 3.0, 0.8
    op = WaveOperator(make_kernel(), _g(), c, grid, slices=slices)
    xi = grid.window_nodes[:, 0][None, :] - c * op.times[:, None]
    slab = np.minimum(np.exp(-rho * xi), 1.0)
    ghost = [(np.ones(grid.cell_points), rho)]
    expected = _apply_by_slice_pairs(op, slab, ghost)
    got = op.apply(slab, ghost)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_certificate_pair_is_ordered_with_a_positive_bump(front):
    pair = front["pair"]
    assert np.all(pair.sub <= pair.sup)
    assert np.any(pair.sub > 0)
    assert 0 < pair.rho < pair.rho_prime < 2 * pair.rho
    assert pair.rho < pair.rho_super < pair.rho_prime
    assert pair.M >= 1.0
    xi = front["grid"].window_nodes[:, 0][None, :] - front["c"] * (
        front["op"].times[:, None])
    assert np.all(pair.sub[xi <= 0] == 0.0)


def test_flat_state_is_an_exact_fixed_point(front):
    op, steady = front["op"], front["steady"]
    slab = np.tile(front["pair"].steady_window, (op.m, 1))
    image = op.apply(slab, [(steady.values, 0.0)])
    assert np.max(np.abs((image - slab)[:, op.interior])) <= 1e-12


def test_front_iteration_descends_to_a_profile(front):
    wave, pair = front["wave"], front["pair"]
    assert wave.residual <= 1e-5
    assert wave.ascent <= 1e-12
    assert wave.iterations < 200
    assert wave.increments[-1] < 1e-6
    assert np.all(np.diff(wave.increments) <= 1e-12)
    assert np.all(wave.u >= pair.sub - 1e-12)
    assert np.all(wave.u <= pair.sup + 1e-12)


def test_front_tails_flatten_with_the_offset(front):
    diag = front["wave"].front_diagnostics
    assert set(diag) == {5.0, 10.0, 15.0, 20.0}
    ahead = [diag[d]["ahead_sup"] for d in (5.0, 10.0, 15.0, 20.0)]
    behind = [diag[d]["behind_gap"] for d in (5.0, 10.0, 15.0, 20.0)]
    assert np.all(np.diff(ahead) < 0)
    assert np.all(np.diff(behind) < 0)


def test_front_tail_rates_match_the_dispersion_roots(front):
    """Ahead the profile decays at the lower dispersion root; behind it
    relaxes to the steady level at the rear rate frozen from the scalar
    oracle."""
    diag = front["wave"].front_diagnostics
    ahead = np.log(diag[15.0]["ahead_sup"] / diag[20.0]["ahead_sup"]) / 5.0
    behind = np.log(diag[15.0]["behind_gap"] / diag[20.0]["behind_gap"]) / 5.0
    assert abs(ahead - front["pair"].rho) <= 0.02
    assert abs(behind - FROZEN["kappa_at_2cstar"]) <= 0.02


def test_striped_medium_keeps_the_certificates():
    grid = ew.PeriodicGrid(dim=1, cell_points=32, window_radius=40)
    kernel = _striped_kernel()
    g = _g()
    speed = minimal_speed(kernel, g, grid)
    steady = solve_steady_state(
        ew.time_integrate_kernel(kernel, grid), g, tol=1e-13
    )
    c = 2.0 * speed.c_star
    pair = build_sub_super(kernel, g, c, grid, steady, speed=speed)
    op = WaveOperator(kernel, g, c, grid)
    assert np.max((op.apply(pair.sup, pair.sup_ghost) - pair.sup)
                  [:, op.interior]) <= 1e-12
    assert np.min((op.apply(pair.sub, pair.sub_ghost) - pair.sub)
                  [:, op.interior]) >= -1e-12
    wave = construct_wave(kernel, g, c, grid, steady, speed=speed, pair=pair)
    assert wave.residual <= 1e-5
    assert wave.ascent <= 1e-12
    assert np.all(wave.u >= pair.sub - 1e-12)


def test_fronts_need_supercritical_speeds(front):
    grid, kernel, g = front["grid"], front["kernel"], front["g"]
    speed, steady = front["speed"], front["steady"]
    with pytest.raises(ValidationError, match="exceed"):
        build_sub_super(kernel, g, 0.9 * speed.c_star, grid, steady,
                        speed=speed)
    with pytest.raises(ValidationError, match="rest"):
        build_sub_super(_box(0.5), g, 1.0, grid, np.ones(grid.n_cell))


def test_fronts_too_near_the_minimal_speed_fail_loudly(front):
    with pytest.raises(ConvergenceError, match="window"):
        build_sub_super(front["kernel"], front["g"],
                        1.0005 * front["speed"].c_star, front["grid"],
                        front["steady"], speed=front["speed"])


def test_wave_operator_input_validation(front):
    g = _g()
    kernel = _box()
    with pytest.raises(ValidationError, match="slices"):
        WaveOperator(kernel, g, 1.0, front["grid"], slices=2)
    with pytest.raises(ValidationError, match="positive"):
        WaveOperator(kernel, g, 0.0, front["grid"])
    with pytest.raises(ValidationError, match="reach"):
        WaveOperator(kernel, g, 1.0, ew.PeriodicGrid(1, 16, 2))
    with pytest.raises(ValidationError, match="separable"):
        WaveOperator(ew.IsotropicKernel(
            lambda tau, r: np.exp(-tau) * (r < 1), 1.0), g, 1.0,
            front["grid"])
    with pytest.raises(ValidationError, match="one-dimensional"):
        WaveOperator(ew.separable_contact_kernel(2.0, 1.0, dim=2), g, 1.0,
                     ew.PeriodicGrid(2, 8, 4))
    op = front["op"]
    with pytest.raises(ValidationError, match="match"):
        op.apply(np.zeros((3, 5)), front["pair"].sup_ghost)
    with pytest.raises(ValidationError, match="tol"):
        construct_wave(kernel, g, front["c"], front["grid"],
                       front["steady"], speed=front["speed"],
                       pair=front["pair"], tol=0.0)


def test_fronts_need_a_positive_steady_state(front):
    grid, g = front["grid"], front["g"]
    with pytest.raises(ValidationError, match="steady"):
        build_sub_super(front["kernel"], g, front["c"], grid, None,
                        speed=front["speed"])
    with pytest.raises(ValidationError, match="positive"):
        build_sub_super(front["kernel"], g, front["c"], grid,
                        np.zeros(grid.n_cell), speed=front["speed"])


# -------------------------------------------------------------- oscillation


@pytest.fixture(scope="module")
def slow_bump():
    grid = ew.PeriodicGrid(dim=1, cell_points=32, window_radius=20)
    kernel = _box()
    g = _g()
    speed = minimal_speed(kernel, g, grid)
    osc = oscillating_subsolution(kernel, g, 0.98 * speed.c_star, grid,
                                  speed=speed)
    return {"grid": grid, "kernel": kernel, "g": g, "speed": speed,
            "osc": osc}


def test_oscillating_bump_sits_below_its_image(slow_bump):
    osc = slow_bump["osc"]
    assert osc.min_slack >= 0.0
    assert osc.min_slack_on_support > 0.0
    assert np.any(osc.support_mask)
    assert np.all(osc.values[~osc.band_mask] == 0.0)
    assert np.all(osc.applied >= 0.0)
    assert abs(osc.band - 3 * np.pi / (4 * osc.rho_I)) <= 1e-12


def test_band_edges_are_strictly_negative_with_the_expected_value(slow_bump):
    """The cutoff is placed where the oscillation is provably negative;
    for constant eigenfunctions the edge value has a closed form."""
    osc = slow_bump["osc"]
    left, right = osc.edge_values()
    assert left < 0 and right < 0
    # an instance built from its fields alone gives the same edge values
    assert dataclasses.replace(osc).edge_values() == (left, right)
    pr, pi = osc.phi_R[0], osc.phi_I[0]
    assert np.allclose(osc.phi_R, pr) and np.allclose(osc.phi_I, pi)
    expect_right = (np.sqrt(2) / 2) * (-pr + pi) * np.exp(-osc.rho_R * osc.band)
    expect_left = (np.sqrt(2) / 2) * (-pr + pi) * np.exp(osc.rho_R * osc.band)
    assert abs(right - expect_right) <= 1e-10 * abs(expect_right)
    assert abs(left - expect_left) <= 1e-10 * abs(expect_left)


def test_bump_vanishes_continuously_at_the_band_edge(slow_bump):
    osc = slow_bump["osc"]
    x = slow_bump["grid"].window_nodes[:, 0]
    near_edge = (np.abs(np.abs(x) - osc.band) < 0.3) & osc.band_mask
    assert np.any(near_edge)
    assert np.all(osc.values[near_edge] == 0.0)


def test_closed_form_history_matches_brute_quadrature(slow_bump):
    """Rebuild the operator image with a dense trapezoid rule in the time
    lag; only the closed-form exponential segments should differ, at the
    level of the trapezoid error."""
    from epiwave.domain.kernels import window_pair_matrix

    osc = slow_bump["osc"]
    grid = slow_bump["grid"]
    kernel = slow_bump["kernel"]
    c = osc.c
    x = grid.window_nodes[:, 0]
    mu = kernel.mu_fn(grid.window_nodes)
    pr = grid.periodic_on_window(osc.phi_R)
    pi = grid.periodic_on_window(osc.phi_I)
    taus = np.linspace(0.0, 40.0, 32001)
    hist = np.zeros_like(x)
    for j in range(x.size):
        s = x[j] + c * taus
        v = (np.hypot(pr[j], pi[j]) * np.exp(-osc.rho_R * s)
             * np.cos(osc.rho_I * s - np.arctan2(pi[j], pr[j])))
        v = np.where(np.abs(s) <= osc.band, np.maximum(v, 0.0), 0.0)
        hist[j] = np.trapezoid(np.exp(-mu[j] * taus) * v, taus)
    K = window_pair_matrix(grid, kernel.spatial_fn, kernel.support_radius)
    rebuilt = slow_bump["g"].slope0 * grid.weight * (K @ hist)
    denom = np.max(np.abs(osc.applied))
    assert denom > 0
    assert np.max(np.abs(rebuilt - osc.applied)) <= 1e-6 * denom


def test_oscillation_rejects_real_rates(slow_bump):
    speed = slow_bump["speed"]
    with pytest.raises(ValidationError, match="below the minimal"):
        oscillating_subsolution(slow_bump["kernel"], slow_bump["g"],
                                speed.c_star, slow_bump["grid"], speed=speed)


def test_oscillation_needs_a_window_covering_the_band(slow_bump):
    small = ew.PeriodicGrid(dim=1, cell_points=32, window_radius=8)
    speed = minimal_speed(slow_bump["kernel"], slow_bump["g"], small)
    with pytest.raises(ValidationError, match="enlarge the window"):
        oscillating_subsolution(slow_bump["kernel"], slow_bump["g"],
                                0.98 * speed.c_star, small, speed=speed)


def test_oscillation_flags_an_off_root(slow_bump):
    """A deliberately detuned rate is no longer an eigenmode, so the bump
    pokes above its image somewhere and the check must say where."""
    speed = slow_bump["speed"]
    c = 0.98 * speed.c_star
    root = complex_decay_root(slow_bump["kernel"], slow_bump["g"], c,
                              slow_bump["grid"], speed=speed)
    detuned = DispersionPoint(rho=complex(root.rho) + 5e-3, c=c,
                              direction=root.direction, value=root.value,
                              phi=root.phi, residual=root.residual)
    with pytest.raises(ConvergenceError, match="below the bump"):
        oscillating_subsolution(slow_bump["kernel"], slow_bump["g"], c,
                                slow_bump["grid"], root=detuned)
    try:
        oscillating_subsolution(slow_bump["kernel"], slow_bump["g"], c,
                                slow_bump["grid"], root=detuned)
    except ConvergenceError as err:
        assert err.slack < 0
        assert abs(err.node) <= slow_bump["osc"].band


def test_striped_oscillation_also_verifies():
    grid = ew.PeriodicGrid(dim=1, cell_points=32, window_radius=20)
    kernel = _striped_kernel()
    g = _g()
    speed = minimal_speed(kernel, g, grid)
    osc = oscillating_subsolution(kernel, g, 0.98 * speed.c_star, grid,
                                  speed=speed)
    assert osc.min_slack >= 0.0
    assert osc.min_slack_on_support > 0.0
    assert osc.rho_I > 0
    left, right = osc.edge_values()
    assert left < 0 and right < 0
