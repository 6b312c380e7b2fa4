"""Window matrices and ball truncations in cell-block form against the CSR
window matrix and its submatrices."""

import functools

import numpy as np
import pytest
import scipy.sparse

import epiwave as ew
from epiwave import ValidationError
from epiwave.domain.kernels import window_pair_matrix
from epiwave.spectral import (
    CellBlockMatrix,
    OperatorMatrix,
    assemble_ball,
    ball_eigenvalue_sweep,
    principal_eigenpair,
)
from window_reference import window_pair_matrix as csr_window_pair_matrix


@functools.lru_cache(maxsize=1)
def _csr_window(transfer):
    return csr_window_pair_matrix(transfer.grid, transfer.pair_fn,
                                  transfer.support_radius)


def _reference_ball(transfer, response, radius):
    """The ball operator as it was assembled from the CSR window matrix:
    the ball's rows and columns of W, scaled by slope and quadrature weight."""
    grid = transfer.grid
    idx = grid.ball_indices(radius)
    W = _csr_window(transfer)
    gamma = transfer.gamma_cell
    return OperatorMatrix(
        entries=W[idx][:, idx] * (response.slope0 * grid.weight),
        weight=None if gamma is None else grid.periodic_on_window(gamma)[idx],
        quadrature=grid.weight,
    )


def _striped(dim, support=1.0, mass=2.0):
    return ew.separable_contact_kernel(
        mass, support, dim=dim,
        source_factor=lambda P: 1.0 + 0.4 * np.cos(2 * np.pi * (P[:, 0] - 0.3)),
        target_factor=lambda P: 1.0 + 0.2 * np.sin(2 * np.pi * P[:, -1]),
        decay=lambda P: 1.0 + 0.2 * np.sin(2 * np.pi * P[:, 0]),
    )


def _isotropic(dim):
    def profile(tau, r):
        edge = np.where(np.abs(r - 0.75) <= 1e-9, 0.5, 0.0)
        return 1.3 * np.exp(-tau) * (1.0 - r / 2.0) * np.where(r < 0.75 - 1e-9,
                                                               1.0, edge)

    return ew.IsotropicKernel(profile, support_radius=0.75, dim=dim)


# (dim, cell_points, window_radius, kernel builder, position dependent)
CASES = {
    "box-1d-cell12": (1, 12, 3, lambda: ew.separable_contact_kernel(2.0, 1.0), False),
    "box-1d-cell128": (1, 128, 3, lambda: ew.separable_contact_kernel(2.0, 1.0), False),
    "striped-1d-cell12": (1, 12, 3, lambda: _striped(1), True),
    "striped-1d-cell128": (1, 128, 2, lambda: _striped(1), True),
    "striped-1d-support2.5": (1, 12, 4, lambda: _striped(1, support=2.5), True),
    "isotropic-1d": (1, 32, 2, lambda: _isotropic(1), False),
    "zero-1d": (1, 12, 2, lambda: ew.separable_contact_kernel(0.0, 1.0), False),
    "box-2d-cell12": (2, 12, 2, lambda: ew.separable_contact_kernel(2.0, 1.0, dim=2), False),
    "striped-2d-cell12": (2, 12, 2, lambda: _striped(2), True),
    "striped-2d-support2.5": (2, 8, 3, lambda: _striped(2, support=2.5), True),
    "isotropic-2d": (2, 8, 2, lambda: _isotropic(2), False),
    "zero-2d": (2, 8, 2, lambda: ew.separable_contact_kernel(0.0, 1.0, dim=2), False),
}


def _radii(window):
    # every integer radius the window holds, plus radii that cut cells
    return sorted({*range(1, window + 1), 0.3, window - 0.45})


@pytest.mark.parametrize("case", sorted(CASES))
def test_ball_blocks_match_window_submatrix(case):
    dim, cell_points, window, build, positional = CASES[case]
    grid = ew.PeriodicGrid(dim, cell_points, window)
    transfer = ew.time_integrate_kernel(build(), grid)
    response = ew.saturating_exponential()
    # A kernel of x - y alone gives the same values at window and cell
    # coordinates up to 1e-15. The reference evaluates periodic factors
    # such as cos(2 pi x) at window coordinates, whose rounding grows with
    # |x| <= window; the blocks evaluate them on the cell.
    rel = 4 * (window + 1) * np.finfo(float).eps if positional else 1e-15
    for radius in _radii(window):
        op = assemble_ball(transfer, response, radius)
        ref = _reference_ball(transfer, response, radius)
        assert isinstance(op.entries, CellBlockMatrix)
        assert op.entries.shape == ref.entries.shape
        assert op.entries.nnz == ref.entries.nnz
        dense, expected = op.entries.toarray(), ref.entries.toarray()
        assert np.all(np.abs(dense - expected) <= rel * np.abs(expected)), (
            f"radius {radius}: entries differ beyond {rel:.1e} relative")
        if op.weight is not None:
            assert np.array_equal(op.weight, ref.weight)
        x = np.random.default_rng(5).random(op.n)
        assert np.allclose(op.apply(x), ref.apply(x), rtol=1e-13, atol=0.0)
    new = ball_eigenvalue_sweep(transfer, response)
    old = [principal_eigenpair(_reference_ball(transfer, response, r))
           for r in range(1, window + 1)]
    assert [p.iterations for p in new] == [p.iterations for p in old]
    for point, pair in zip(new, old):
        assert point.value == pytest.approx(pair.value, rel=1e-14, abs=0.0)


def test_zero_kernel_keeps_only_the_zero_shift():
    grid = ew.PeriodicGrid(2, 8, 2)
    transfer = ew.time_integrate_kernel(
        ew.separable_contact_kernel(0.0, 1.0, dim=2), grid)
    shifts, blocks = transfer.shifts, transfer.blocks
    assert shifts.tolist() == [[0, 0]]
    assert not np.any(blocks)
    op = assemble_ball(transfer, ew.saturating_exponential(), 2.0)
    assert op.entries.nnz == 0
    assert principal_eigenpair(op).value == 0.0


def test_box_kernel_keeps_only_the_touching_images():
    # 21 images pass the reach test of the 2-D box; only the 9 neighbours
    # of the cell carry nonzero values
    transfer = ew.time_integrate_kernel(
        ew.separable_contact_kernel(2.0, 1.0, dim=2), ew.PeriodicGrid(2, 8, 2))
    shifts, blocks = transfer.shifts, transfer.blocks
    assert sorted(map(tuple, shifts.tolist())) == [
        (a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    assert blocks.shape == (9, 64, 64)


def test_ball_sweep_builds_no_window_matrix(monkeypatch):
    grid = ew.PeriodicGrid(1, 32, 4)
    transfer = ew.time_integrate_kernel(_striped(1), grid)

    def refuse():
        raise AssertionError("the ball sweep built the window matrix")

    monkeypatch.setattr(transfer, "window_matrix", refuse)
    points = ew.spectral.ball_eigenvalue_sweep(transfer,
                                               ew.saturating_exponential())
    assert len(points) == 4


def test_ball_of_negative_kernel_is_rejected():
    grid = ew.PeriodicGrid(1, 16, 2)
    box = ew.box_profile(2.0, 1.0)
    kernel = ew.SeparableKernel(
        lambda X, Y: box(X - Y) * np.cos(2 * np.pi * Y[:, 0]),
        lambda P: np.ones(P.shape[0]), support_radius=1.0)
    transfer = ew.time_integrate_kernel(kernel, grid)
    op = assemble_ball(transfer, ew.saturating_exponential(), 1.0)
    with pytest.raises(ValidationError, match="negative"):
        principal_eigenpair(op)


@pytest.mark.parametrize("dim, cell_points", [(1, 64), (2, 8)])
def test_heterogeneous_ball_is_weighted_self_adjoint(dim, cell_points):
    grid = ew.PeriodicGrid(dim, cell_points, 3)
    transfer = ew.time_integrate_kernel(_striped(dim), grid)
    op = assemble_ball(transfer, ew.saturating_exponential(), 2.5)
    assert op.weight is not None and np.ptp(op.weight) > 0.1
    assert op.symmetry_defect() <= 1e-12
    assert op.entries.nnz > 0
    assert scipy.sparse.csr_matrix(op.entries.toarray()).nnz == op.entries.nnz


# (dim, cell_points, window_radius, kernel builder); 2-D windows stay at
# or below 1,024 nodes, since toarray() holds n_window**2 values
WINDOW_CASES = {
    "box-1d": (1, 32, 3, lambda: ew.separable_contact_kernel(2.0, 1.0)),
    "striped-1d": (1, 64, 2, lambda: _striped(1)),
    "striped-1d-support2.5": (1, 16, 4, lambda: _striped(1, support=2.5)),
    "isotropic-1d": (1, 32, 2, lambda: _isotropic(1)),
    "zero-1d": (1, 12, 2, lambda: ew.separable_contact_kernel(0.0, 1.0)),
    "box-2d": (2, 8, 2, lambda: ew.separable_contact_kernel(2.0, 1.0, dim=2)),
    "striped-2d": (2, 12, 1, lambda: _striped(2)),
    "striped-2d-support2.5": (2, 8, 2, lambda: _striped(2, support=2.5)),
    "isotropic-2d": (2, 8, 2, lambda: _isotropic(2)),
    "zero-2d": (2, 8, 2, lambda: ew.separable_contact_kernel(0.0, 1.0, dim=2)),
}


def _close(got, want, rel):
    return np.all(np.abs(got - want) <= rel * np.abs(want))


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_window_blocks_match_csr_reference(case):
    dim, cell_points, window, build = WINDOW_CASES[case]
    grid = ew.PeriodicGrid(dim, cell_points, window)
    transfer = ew.time_integrate_kernel(build(), grid)
    W = transfer.window_matrix()
    ref = csr_window_pair_matrix(grid, transfer.pair_fn, transfer.support_radius)
    eps = np.finfo(float).eps
    # periodic factors such as cos(2 pi x) are evaluated at window
    # coordinates by the reference and on the cell by the blocks; their
    # rounding grows with |x| <= window
    rel = 4 * (window + 1) * eps
    assert isinstance(W, CellBlockMatrix)
    assert W.shape == ref.shape == (grid.n_window, grid.n_window)
    assert W.nnz == ref.nnz
    assert _close(W.toarray(), ref.toarray(), rel)

    # Row sums and products add the m nonnegative terms of a row in
    # another order than the CSR row loop; each order is within
    # (m - 1) eps of the exact sum (2-D rows hold up to 1,024 terms).
    terms = np.diff(ref.indptr)
    row_rel = rel + 2 * np.maximum(terms - 1, 0) * eps
    assert _close(W.sum(axis=1), np.asarray(ref.sum(axis=1)).ravel(), row_rel)
    rng = np.random.default_rng(7)
    x = rng.random(grid.n_window)
    X = rng.random((grid.n_window, 5))
    assert (W @ x).shape == x.shape
    assert _close(W @ x, ref @ x, row_rel)
    assert (W @ X).shape == X.shape
    assert _close(W @ X, ref @ X, row_rel[:, None])


def test_row_sums_are_the_only_sums():
    grid = ew.PeriodicGrid(1, 16, 2)
    kernel = ew.separable_contact_kernel(2.0, 1.0)
    W = window_pair_matrix(grid, kernel.spatial_fn, kernel.support_radius)
    with pytest.raises(ValueError, match="axis"):
        W.sum(axis=0)
    with pytest.raises(TypeError):
        W.sum()
