import numpy as np
import pytest

import epiwave as ew
from epiwave import (
    IsotropicKernel,
    PeriodicGrid,
    SeparableKernel,
    TabulatedKernel,
    ValidationError,
    box_profile,
    periodize_kernel,
    separable_contact_kernel,
    time_integrate_kernel,
)
from epiwave.domain.kernels import exponential_step_weights


def _pts(*vals):
    return np.asarray(vals, dtype=float)[:, None]


def test_box_profile_half_jump_convention():
    box = box_profile(2.0, 1.0)
    z = _pts(0.0, 0.5, -0.999, 1.0, -1.0, 1.0001, 3.0)
    vals = box(z)
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(1.0)
    assert vals[2] == pytest.approx(1.0)
    assert vals[3] == pytest.approx(0.5)
    assert vals[4] == pytest.approx(0.5)
    assert vals[5] == 0.0
    assert vals[6] == 0.0


def test_box_profile_2d_product():
    box = box_profile(3.0, 0.5, dim=2)
    z = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5], [0.6, 0.0]])
    h = 3.0  # mass / (2 * 0.5)^2
    assert np.allclose(box(z), [h, h / 2, h / 4, 0.0])


def test_periodized_rows_integrate_to_total_rate():
    # With contact reach an integer multiple of the spacing the midpoint rule
    # hits the box edge exactly and the half-value convention makes each row
    # integrate to the total contact rate with no quadrature error at all.
    for n in (16, 64):
        grid = PeriodicGrid(1, n, 2)
        transfer = time_integrate_kernel(separable_contact_kernel(2.0, 1.0), grid)
        assert np.allclose(transfer.row_integrals, 2.0, rtol=0, atol=5e-14)


def test_periodize_image_count_covers_reach():
    grid = PeriodicGrid(1, 16, 2)
    kernel = separable_contact_kernel(2.0, 2.5)
    transfer = time_integrate_kernel(kernel, grid)
    assert transfer.images == 4  # ceil(2.5) + 1
    assert np.allclose(transfer.row_integrals, 2.0, atol=5e-14)


def test_periodize_adaptive_without_support():
    grid = PeriodicGrid(1, 16, 1)
    pair = lambda X, Y: np.exp(-3.0 * (X[:, 0] - Y[:, 0]) ** 2)
    mat, images = periodize_kernel(pair, grid, tol=1e-12)
    assert images >= 2
    # row integral of the periodization equals the whole-line integral
    exact = np.sqrt(np.pi / 3.0)
    assert np.allclose(mat.sum(axis=1) * grid.weight, exact, rtol=1e-6)


def test_separable_evaluate_factorizes():
    kernel = separable_contact_kernel(
        2.0, 1.0,
        source_factor=lambda P: 1.0 + 0.5 * np.cos(2 * np.pi * P[:, 0]),
        decay=lambda P: 1.0 + 0.25 * np.sin(2 * np.pi * P[:, 0]),
    )
    X = _pts(0.1, 0.2, 0.3)
    Y = _pts(0.15, 0.35, 0.9)
    g0 = kernel.evaluate(0.0, X, Y)
    g1 = kernel.evaluate(1.0, X, Y)
    mu = 1.0 + 0.25 * np.sin(2 * np.pi * Y[:, 0])
    assert np.allclose(g1, g0 * np.exp(-mu))


def test_separable_rejects_nonpositive_decay():
    with pytest.raises(ValidationError):
        separable_contact_kernel(2.0, 1.0, decay=lambda P: np.cos(2 * np.pi * P[:, 0]))


def test_time_integral_closed_forms():
    grid = PeriodicGrid(1, 32, 2)
    plain = time_integrate_kernel(separable_contact_kernel(2.0, 1.0), grid)
    # shifting the transform variable by 1 with mu = 1 halves every entry
    shifted = time_integrate_kernel(separable_contact_kernel(2.0, 1.0), grid,
                                    exponent=1.0)
    assert np.allclose(shifted.cell_matrix, plain.cell_matrix / 2.0)
    # mu = 2 and shift 3 divides by 5
    fast = separable_contact_kernel(2.0, 1.0, decay=lambda P: np.full(P.shape[0], 2.0))
    fifth = time_integrate_kernel(fast, grid, exponent=3.0)
    assert np.allclose(fifth.cell_matrix, plain.cell_matrix / 5.0)


def test_time_integral_complex_exponent():
    grid = PeriodicGrid(1, 16, 1)
    kernel = separable_contact_kernel(2.0, 1.0)
    s = 0.5 + 0.7j
    transfer = time_integrate_kernel(kernel, grid, exponent=s)
    plain = time_integrate_kernel(kernel, grid)
    assert np.iscomplexobj(transfer.cell_matrix)
    assert np.allclose(transfer.cell_matrix, plain.cell_matrix / (1.0 + s))


def test_time_integral_rejects_unstable_exponent():
    kernel = separable_contact_kernel(2.0, 1.0)
    X = _pts(0.25)
    with pytest.raises(ValidationError):
        kernel.time_integral(X, X, s=-1.0)


def test_tabulated_matches_separable():
    kernel = separable_contact_kernel(2.0, 1.0)
    taus = np.linspace(0.0, 50.0, 4001)
    frames = [
        (lambda t: (lambda X, Y: kernel.evaluate(t, X, Y)))(t) for t in taus
    ]
    tab = TabulatedKernel(taus, frames, support_radius=1.0)
    X = _pts(0.1, 0.4)
    Y = _pts(0.2, 0.9)
    approx = tab.time_integral(X, Y)
    exact = kernel.time_integral(X, Y)
    assert np.allclose(approx, exact, rtol=5e-5)


def test_isotropic_matches_box_transfer():
    grid = PeriodicGrid(1, 32, 2)

    def profile(tau, r):
        height = np.where(r < 1.0 - 1e-9, 1.0,
                          np.where(np.abs(r - 1.0) <= 1e-9, 0.5, 0.0))
        return np.exp(-tau) * height

    iso = IsotropicKernel(profile, support_radius=1.0)
    via_iso = time_integrate_kernel(iso, grid)
    via_sep = time_integrate_kernel(separable_contact_kernel(2.0, 1.0), grid)
    assert np.allclose(via_iso.cell_matrix, via_sep.cell_matrix, atol=1e-12)


def test_window_matrix_consistent_with_cell_rows():
    grid = PeriodicGrid(1, 32, 4)
    transfer = time_integrate_kernel(separable_contact_kernel(2.0, 1.0), grid)
    W = transfer.window_matrix()
    sums = np.asarray(W.sum(axis=1)).ravel() * grid.weight
    interior = grid.interior_indices(1.0)
    expected = transfer.row_integrals[grid.window_cell_map[interior]]
    assert np.allclose(sums[interior], expected, atol=5e-13)
    # rows near the window edge lose mass to truncation
    edge_row = np.argmin(grid.window_nodes[:, 0])
    assert sums[edge_row] < expected.min() - 0.5


def test_symmetry_factors_survive_time_integration():
    kernel = separable_contact_kernel(
        2.0, 1.0,
        target_factor=lambda P: 1.0 + 0.3 * np.cos(2 * np.pi * P[:, 0]),
        source_factor=lambda P: np.exp(0.2 * np.sin(2 * np.pi * P[:, 0])),
        decay=lambda P: 1.0 + 0.5 * np.sin(np.pi * P[:, 0]) ** 2,
    )
    grid = PeriodicGrid(1, 24, 1)
    transfer = time_integrate_kernel(kernel, grid)
    gamma = transfer.gamma_cell
    assert gamma is not None and np.all(gamma > 0)
    # gamma(x) V(x, y) is symmetric exactly when the recorded factorization
    # V = Vtilde * gamma1(x) * gamma2(y) holds with symmetric Vtilde
    weighted = gamma[:, None] * transfer.cell_matrix
    assert np.allclose(weighted, weighted.T, atol=1e-12)
    # the time integral folds the decay rate into the emitting-side factor
    shifted = time_integrate_kernel(kernel, grid, exponent=1.0)
    mu = np.asarray(kernel.mu_fn(grid.cell_nodes))
    assert np.allclose(shifted.gamma_cell / gamma, mu / (1.0 + mu))


def test_kernel_grid_dimension_mismatch():
    grid = PeriodicGrid(2, 8, 1)
    with pytest.raises(ValidationError):
        time_integrate_kernel(separable_contact_kernel(2.0, 1.0, dim=1), grid)


def test_step_weights_match_quadrature():
    from scipy.integrate import quad

    dt = 0.25
    mu = np.geomspace(1e-3, 5.0, 9) / dt
    E1, I0, I1 = exponential_step_weights(mu, dt)
    for k, rate in enumerate(mu):
        full = quad(lambda t: np.exp(-rate * t), 0.0, dt, epsabs=0.0,
                    epsrel=1e-13)[0]
        ramp = quad(lambda t: (t / dt) * np.exp(-rate * t), 0.0, dt,
                    epsabs=0.0, epsrel=1e-13)[0]
        assert E1[k] == pytest.approx(np.exp(-rate * dt), rel=1e-15)
        assert I0[k] == pytest.approx(full, rel=1e-10)
        assert I1[k] == pytest.approx(ramp, rel=1e-10)
