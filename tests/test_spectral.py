import numpy as np
import pytest
import scipy.sparse

import epiwave as ew
from epiwave import ConvergenceError, Nonlinearity, ValidationError
from epiwave.spectral import (
    OperatorMatrix,
    assemble_ball,
    assemble_periodic,
    ball_eigenvalue_sweep,
    eigenvalue_bounds,
    principal_eigenpair,
    sub_eigenfunction,
)


def _heterogeneous_transfer(cell_points, support=0.375, mass=1.6, window=2):
    """Box contacts with smooth periodic modulation; support aligned to the grid."""
    grid = ew.PeriodicGrid(1, cell_points, window)
    kernel = ew.separable_contact_kernel(
        mass, support,
        target_factor=lambda P: 1.0 + 0.3 * np.cos(2 * np.pi * P[:, 0]),
        source_factor=lambda P: np.exp(0.2 * np.sin(2 * np.pi * P[:, 0])),
        decay=lambda P: 1.0 + 0.5 * np.sin(np.pi * P[:, 0]) ** 2,
    )
    return ew.time_integrate_kernel(kernel, grid)


def test_homogeneous_eigenpair_is_exact(box_scenario):
    op = assemble_periodic(box_scenario["transfer"], box_scenario["response"])
    pair = principal_eigenpair(op)
    assert pair.value == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(pair.vector, 1.0)
    assert pair.residual <= 1e-10
    assert np.min(op.entries) >= 0.0


def test_isotropic_eigenvalue_is_slope_times_mass():
    grid = ew.PeriodicGrid(1, 64, 2)

    def profile(tau, r):
        edge = np.where(np.abs(r - 0.375) <= 1e-9, 0.5, 0.0)
        box = np.where(r < 0.375 - 1e-9, 1.0, edge)
        return 1.7 / 0.75 * np.exp(-tau) * box

    iso = ew.IsotropicKernel(profile, support_radius=0.375)
    response = Nonlinearity(lambda z: 0.8 * np.tanh(z), slope0=0.8,
                            curvature=0.4, bound=0.8)
    transfer = ew.time_integrate_kernel(iso, grid)
    pair = principal_eigenpair(assemble_periodic(transfer, response))
    # eigenfunction is flat, so the eigenvalue is the slope times total mass
    assert pair.value == pytest.approx(0.8 * 1.7, rel=1e-6)
    assert np.ptp(pair.vector) < 1e-8


def test_assembly_scales_linearly_in_kernel():
    grid = ew.PeriodicGrid(1, 32, 1)
    resp = ew.saturating_exponential()
    one = assemble_periodic(
        ew.time_integrate_kernel(ew.separable_contact_kernel(1.0, 0.5), grid), resp
    )
    three = assemble_periodic(
        ew.time_integrate_kernel(ew.separable_contact_kernel(3.0, 0.5), grid), resp
    )
    assert np.allclose(three.entries, 3.0 * one.entries, rtol=1e-14)


def test_zero_kernel_gives_zero_spectrum():
    grid = ew.PeriodicGrid(1, 32, 2)
    resp = ew.saturating_exponential()
    transfer = ew.time_integrate_kernel(ew.separable_contact_kernel(0.0, 1.0), grid)
    pair = principal_eigenpair(assemble_periodic(transfer, resp))
    assert pair.value == 0.0
    assert np.all(pair.vector > 0)
    assert eigenvalue_bounds(transfer, resp) == (0.0, 0.0)
    sweep = ball_eigenvalue_sweep(transfer, resp, radii=[1, 2])
    assert all(pt.value == 0.0 for pt in sweep)


def test_power_iteration_matches_refined_dense_solve():
    resp = ew.saturating_exponential()
    coarse = principal_eigenpair(
        assemble_periodic(_heterogeneous_transfer(64), resp)
    )
    fine_op = assemble_periodic(_heterogeneous_transfer(256), resp)
    dense = np.linalg.eigvals(fine_op.entries)
    reference = float(np.max(dense.real))
    assert coarse.value == pytest.approx(reference, abs=1e-4)


def test_bounds_bracket_heterogeneous_eigenvalue():
    resp = ew.saturating_exponential()
    transfer = _heterogeneous_transfer(64)
    lo, hi = eigenvalue_bounds(transfer, resp)
    pair = principal_eigenpair(assemble_periodic(transfer, resp))
    assert lo < pair.value < hi


def test_ball_sweep_increases_below_periodic_value():
    grid = ew.PeriodicGrid(1, 32, 8)
    resp = ew.saturating_exponential()
    transfer = ew.time_integrate_kernel(ew.separable_contact_kernel(2.0, 1.0), grid)
    sweep = ball_eigenvalue_sweep(transfer, resp, radii=[2, 4, 8])
    values = [pt.value for pt in sweep]
    assert values[0] < values[1] < values[2]
    assert all(v < 2.0 for v in values)
    assert all(pt.residual <= 1e-10 for pt in sweep)


def test_ball_sweep_converges_to_periodic_value():
    grid = ew.PeriodicGrid(1, 24, 14)
    resp = ew.saturating_exponential()
    transfer = ew.time_integrate_kernel(ew.separable_contact_kernel(2.0, 1.0), grid)
    sweep = ball_eigenvalue_sweep(transfer, resp, stop_increment=1e-3)
    assert sweep[-1].value - sweep[-2].value < 1e-3
    assert abs(sweep[-1].value - 2.0) < 0.05
    assert sweep[-1].radius < 14.0  # the stop fired before the window ran out


def test_sweep_rejects_unordered_radii(box_scenario):
    with pytest.raises(ValidationError):
        ball_eigenvalue_sweep(box_scenario["transfer"], box_scenario["response"],
                              radii=[2, 2])


def test_sub_eigenfunction_inequality_holds_everywhere(box_scenario):
    transfer, resp = box_scenario["transfer"], box_scenario["response"]
    grid = transfer.grid
    sub = sub_eigenfunction(transfer, resp, eps=0.5)
    assert sub.threshold == pytest.approx(1.5, abs=1e-10)
    assert np.all(sub.values >= 0.0)
    applied = resp.slope0 * grid.weight * (transfer.window_matrix() @ sub.values)
    assert np.min(applied - sub.threshold * sub.values) >= -1e-12
    # compact support: nothing outside the chosen ball, something inside
    r = np.linalg.norm(grid.window_nodes, axis=1)
    assert np.all(sub.values[r > sub.radius] == 0.0)
    assert np.max(sub.values) == pytest.approx(1.0, abs=1e-9)
    assert sub.ball_value > sub.threshold + 0.25 - 1e-10


def test_sub_eigenfunction_rejects_bad_eps(box_scenario):
    transfer, resp = box_scenario["transfer"], box_scenario["response"]
    with pytest.raises(ValidationError):
        sub_eigenfunction(transfer, resp, eps=2.5)
    with pytest.raises(ValidationError):
        sub_eigenfunction(transfer, resp, eps=0.0)


def test_sub_eigenfunction_needs_room():
    grid = ew.PeriodicGrid(1, 32, 1)
    resp = ew.saturating_exponential()
    transfer = ew.time_integrate_kernel(ew.separable_contact_kernel(2.0, 1.0), grid)
    with pytest.raises(ValidationError, match="window"):
        sub_eigenfunction(transfer, resp, eps=0.1)


def test_weighted_symmetry_defect_is_roundoff():
    resp = ew.saturating_exponential()
    op = assemble_periodic(_heterogeneous_transfer(64), resp)
    assert op.weight is not None
    assert op.symmetry_defect() <= 1e-12


def test_rayleigh_quotients_stay_below_ball_eigenvalue():
    resp = ew.saturating_exponential()
    transfer = _heterogeneous_transfer(32, window=3)
    op = assemble_ball(transfer, resp, 2.0)
    pair = principal_eigenpair(op)
    rng = np.random.default_rng(7)
    for _ in range(100):
        psi = rng.uniform(-1.0, 1.0, op.n)
        assert op.rayleigh_quotient(psi) <= pair.value + 1e-9


def test_eigenvalue_monotone_in_kernel():
    grid = ew.PeriodicGrid(1, 48, 2)
    resp = ew.saturating_exponential()

    def build(base):
        kernel = ew.separable_contact_kernel(
            1.0, 0.375,
            source_factor=lambda P: base + 0.3 * np.cos(2 * np.pi * P[:, 0]),
        )
        return ew.time_integrate_kernel(kernel, grid)

    small, large = build(1.0), build(1.2)
    assert np.all(small.cell_matrix <= large.cell_matrix + 1e-15)
    lam_small = principal_eigenpair(assemble_periodic(small, resp)).value
    lam_large = principal_eigenpair(assemble_periodic(large, resp)).value
    assert lam_small <= lam_large


def test_eigenvalue_converges_at_second_order():
    resp = ew.saturating_exponential()
    values = {
        n: principal_eigenpair(
            assemble_periodic(_heterogeneous_transfer(n), resp)
        ).value
        for n in (64, 128, 256)
    }
    coarse_err = abs(values[64] - values[256])
    fine_err = abs(values[128] - values[256])
    assert coarse_err < 1e-3
    assert fine_err <= 0.35 * coarse_err


def test_nonconvergence_carries_residual():
    resp = ew.saturating_exponential()
    op = assemble_periodic(_heterogeneous_transfer(32), resp)
    with pytest.raises(ConvergenceError, match="residual"):
        principal_eigenpair(op, max_iter=2)


@pytest.mark.parametrize("store", [np.asarray, scipy.sparse.csr_matrix],
                         ids=["dense", "sparse"])
def test_negative_entries_are_rejected(store):
    """Negative entries, and NaN or infinite ones, which would otherwise
    pass as the zero operator or stall the iteration at residual nan."""
    nan, inf = float("nan"), float("inf")
    for entries in ([[0.0, -1.0], [-1.0, 0.0]], [[nan, nan], [nan, nan]],
                    [[1.0, nan], [1.0, 1.0]], [[1.0, inf], [1.0, 1.0]],
                    [[1.0, -inf], [1.0, 1.0]]):
        op = OperatorMatrix(entries=store(np.array(entries)))
        with pytest.raises(ValidationError, match="negative or non-finite"):
            principal_eigenpair(op)


def test_zero_row_breaks_positivity():
    op = OperatorMatrix(entries=np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        principal_eigenpair(op)


def _reference_power_iteration(op, tol, max_iter=20000):
    """The power-iteration loop as principal_eigenpair ran it before the
    residual moved into a preallocated buffer: (value, vector, residual,
    iterations)."""
    x = np.ones(op.n)
    y = op.apply(x)
    for iterations in range(1, max_iter + 1):
        value = float(np.max(y))
        residual = float(np.max(np.abs(y - value * x)))
        if residual <= tol:
            return value, x, residual, iterations
        x = y / value
        y = op.apply(x)
    raise AssertionError("reference iteration did not converge")


@pytest.mark.parametrize("build", [
    lambda resp: assemble_periodic(_heterogeneous_transfer(32), resp),
    lambda resp: assemble_periodic(_heterogeneous_transfer(64), resp),
    lambda resp: assemble_ball(_heterogeneous_transfer(32, window=3), resp, 2.0),
    lambda resp: OperatorMatrix(
        entries=np.random.default_rng(3).random((48, 48)) / 30.0),
    lambda resp: OperatorMatrix(
        entries=scipy.sparse.random(80, 80, density=0.2, random_state=4,
                                    format="csr") + scipy.sparse.eye(80) * 0.1),
], ids=["dense-32", "dense-64", "ball-sparse", "dense-random", "sparse-random"])
@pytest.mark.parametrize("tol", [1e-10, 1e-13])
def test_power_iteration_matches_reference_loop(build, tol):
    op = build(ew.saturating_exponential())
    value, vector, residual, iterations = _reference_power_iteration(op, tol)
    pair = principal_eigenpair(op, tol=tol)
    assert pair.value == value
    assert np.array_equal(pair.vector, vector)
    assert pair.residual == residual
    assert pair.iterations == iterations
    assert iterations > 1
