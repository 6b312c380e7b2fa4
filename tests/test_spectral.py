import numpy as np
import pytest
import scipy.sparse

import epiwave as ew
from epiwave import ConvergenceError, Nonlinearity, ValidationError, spectral
from epiwave.app import pipelines, scenario
from epiwave.spectral import (
    OperatorMatrix,
    assemble_ball,
    assemble_periodic,
    ball_eigenvalue_sweep,
    principal_eigenpair,
    sub_eigenfunction,
)


def _row_sum_interval(transfer, response):
    """Extremes of g'(0) * integral V(x, y) dy over x: the Collatz-Wielandt
    bracket at the constant vector, which the power iterates tighten."""
    rows = (response.slope0 * transfer.cell_matrix.sum(axis=1)
            * transfer.grid.weight)
    return float(np.min(rows)), float(np.max(rows))


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
    iso = ew.SeparableKernel(1.7, 0.375)
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
    assert _row_sum_interval(transfer, resp) == pair.bracket == (0.0, 0.0)
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
    lo, hi = _row_sum_interval(transfer, resp)
    pair = principal_eigenpair(assemble_periodic(transfer, resp))
    lower, upper = pair.bracket
    assert lo < pair.value < hi
    assert lo <= lower <= pair.value <= upper <= hi


@pytest.mark.parametrize("doc", [
    {},
    {"kernel": {"source": "1 + 0.5*cos(2*pi*x)",
                "decay": "1 + 0.25*sin(2*pi*x)"}},
    {"grid": {"cell_points": 128, "window_radius": 12}},
    {"grid": {"dim": 2, "cell_points": 12, "window_radius": 4}},
], ids=["default", "striped", "cell128", "2d-cell12"])
def test_every_threshold_solve_is_bracketed(monkeypatch, doc):
    """The Collatz-Wielandt bracket of the returned vector holds the
    eigenvalue on the periodic solve and on every ball of the sweep, and
    at the default tolerance it is narrower than 1e-9."""
    pairs = []
    solve = spectral.principal_eigenpair

    def recording(*args, **kwargs):
        pairs.append(solve(*args, **kwargs))
        return pairs[-1]

    monkeypatch.setattr(spectral, "principal_eigenpair", recording)
    cfg = scenario.scenario_from_dict(doc)
    pipelines.run_threshold(cfg)
    assert len(pairs) == 1 + cfg.grid.window_radius
    for pair in pairs:
        lower, upper = pair.bracket
        assert lower <= pair.value <= upper
        assert upper - lower <= 1e-9


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
    sweep = ball_eigenvalue_sweep(transfer, resp)
    assert sweep[-1].value - sweep[-2].value < 1e-3
    assert abs(sweep[-1].value - 2.0) < 0.05


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


def test_nonconvergence_carries_residual(monkeypatch):
    resp = ew.saturating_exponential()
    op = assemble_periodic(_heterogeneous_transfer(32), resp)
    monkeypatch.setattr(spectral, "_MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match="residual") as exc:
        principal_eigenpair(op)
    err = exc.value
    assert err.iterations == 2 and err.tol == spectral.DEFAULT_EIGEN_TOL
    assert err.residual > err.tol
    # the value of the last product, inside the row-sum bracket
    lo, hi = _row_sum_interval(_heterogeneous_transfer(32), resp)
    assert lo <= err.value <= hi


@pytest.mark.parametrize("store", [
    np.asarray, lambda a: scipy.sparse.csr_matrix(a).toarray()],
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


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0],
                         ids=["nan", "inf", "zero", "negative"])
def test_tolerance_must_be_positive_and_finite(tol):
    """A NaN tolerance would otherwise run the whole budget and report a
    stall, an infinite one accept the first iterate, and one at or below
    zero fall back to the rounding floor without a word."""
    op = assemble_periodic(_heterogeneous_transfer(32), ew.saturating_exponential())
    with pytest.raises(ValidationError, match="tolerance must be positive"):
        principal_eigenpair(op, tol=tol)


def test_overflowing_product_stops_at_once():
    """Entries of 1e308 are finite and nonnegative, but their product
    overflows: the iteration stops there instead of running its budget on
    NaN iterates."""
    op = OperatorMatrix(entries=np.full((8, 8), 1e308))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ConvergenceError, match="overflowed") as exc:
        principal_eigenpair(op)
    err = exc.value
    assert err.value == np.inf
    assert err.iterations == 1 and err.tol == spectral.DEFAULT_EIGEN_TOL


def test_overflow_later_in_the_iteration_is_caught():
    """Iterates stay at sup = 1, so from a start that weighs the second
    node little the first products are finite; the iterate then turns
    toward the Perron vector, near (0.62, 1), whose product exceeds the
    largest float, and the error names the product that overflowed."""
    big = 0.75 * np.finfo(float).max
    op = OperatorMatrix(entries=np.array([[1.0, big], [big, big]]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ConvergenceError, match="overflowed") as exc:
        principal_eigenpair(op, start=np.array([1.0, 1e-300]))
    assert exc.value.iterations == 3 and exc.value.value == np.inf


def test_zero_row_breaks_positivity():
    op = OperatorMatrix(entries=np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        principal_eigenpair(op)


def _reference_power_iteration(op, tol, max_iter=20000, start=None):
    """The power-iteration loop as principal_eigenpair ran it before the
    residual moved into a preallocated buffer, with its stopping rule: tol
    or the rounding floor 16 n eps value, whichever is larger. Starts from
    the constant vector, or from start scaled to sup = 1 as
    principal_eigenpair scales it. Returns (value, vector, residual,
    iterations)."""
    x = np.ones(op.n) if start is None else start / start.max()
    y = op.apply(x)
    floor = 16 * op.n * np.finfo(float).eps
    for iterations in range(1, max_iter + 1):
        value = float(np.max(y))
        residual = float(np.max(np.abs(y - value * x)))
        if residual <= max(tol, floor * value):
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
        entries=(scipy.sparse.random(80, 80, density=0.2, random_state=4,
                                     format="csr")
                 + scipy.sparse.eye(80) * 0.1).toarray()),
], ids=["dense-32", "dense-64", "ball-sparse", "dense-random", "sparse-random"])
@pytest.mark.parametrize("tol, warm", [
    (1e-10, False), (1e-13, False), (1e-10, True), (1e-13, True),
], ids=["1e-10", "1e-13", "1e-10-warm", "1e-13-warm"])
def test_power_iteration_matches_reference_loop(build, tol, warm):
    """Bit for bit, from the constant vector and from a positive random
    start: every solve of a speed search but its first is warm."""
    op = build(ew.saturating_exponential())
    start = (np.random.default_rng(11).uniform(0.5, 2.0, op.n) if warm
             else None)
    value, vector, residual, iterations = _reference_power_iteration(
        op, tol, start=start)
    pair = principal_eigenpair(op, tol=tol, start=start)
    assert pair.value == value
    assert np.array_equal(pair.vector, vector)
    assert pair.residual == residual
    assert pair.iterations == iterations
    assert iterations > 1


def test_start_must_be_positive_finite_and_of_the_operator_length():
    op = assemble_periodic(_heterogeneous_transfer(32), ew.saturating_exponential())
    good = np.ones(op.n)
    for bad in (np.ones(op.n - 1), np.ones((op.n, 1)),
                np.where(np.arange(op.n) == 3, 0.0, good),
                np.where(np.arange(op.n) == 3, -1.0, good),
                np.where(np.arange(op.n) == 3, np.nan, good),
                np.where(np.arange(op.n) == 3, np.inf, good)):
        with pytest.raises(ValidationError, match="start vector"):
            principal_eigenpair(op, start=bad)


def test_a_positive_start_brackets_the_same_eigenvalue():
    """A start other than the constant changes the path of the iteration,
    not its limit: both brackets hold both values, and the returned
    vectors agree to the tolerance."""
    op = assemble_periodic(_heterogeneous_transfer(64), ew.saturating_exponential())
    cold = principal_eigenpair(op)
    start = 1e3 * np.random.default_rng(5).uniform(0.1, 1.0, op.n)
    warm = principal_eigenpair(op, start=start)
    for pair in (cold, warm):
        lower, upper = pair.bracket
        assert lower <= cold.value <= upper
        assert lower <= warm.value <= upper
        assert pair.residual <= spectral.DEFAULT_EIGEN_TOL
    assert np.max(np.abs(warm.vector - cold.vector)) < 1e-8
    # started from its own Perron vector, the iteration stops at once
    again = principal_eigenpair(op, start=cold.vector)
    assert again.iterations == 1
    assert again.value == cold.value
