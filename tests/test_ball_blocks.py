"""Window matrices and ball truncations, applied one axis at a time over
whole-cell line matrices, against the CSR window matrix and its
submatrices."""

import copy
import dataclasses
import functools

import numpy as np
import pytest
import scipy.sparse

import epiwave as ew
from epiwave import ValidationError
from epiwave.domain.kernels import AxisBoxMatrix, box_axes, window_pair_matrix
from epiwave.spectral import (
    OperatorMatrix,
    assemble_ball,
    ball_eigenvalue_sweep,
    principal_eigenpair,
)
from pair_reference import pair_fn
from window_reference import window_pair_matrix as csr_window_pair_matrix


def _pair(kernel):
    """The time-integrated pair function V = K / mu of a separable kernel."""
    return pair_fn(kernel, decay=True)


@functools.lru_cache(maxsize=1)
def _csr_window(transfer, kernel):
    """The CSR window matrix of V, walked out to the box's Euclidean
    reach, its half-width times sqrt(dim)."""
    grid = transfer.grid
    return csr_window_pair_matrix(grid, _pair(kernel),
                                  transfer.reach.radius * np.sqrt(grid.dim))


def _reference_ball(transfer, kernel, response, radius):
    """The ball operator as it was assembled from the CSR window matrix of
    the kernel: the ball's rows and columns of W, scaled by slope and
    quadrature weight."""
    grid = transfer.grid
    idx = grid.ball_indices(radius)
    W = _csr_window(transfer, kernel)
    return OperatorMatrix(
        entries=W[idx][:, idx] * (response.slope0 * grid.weight),
        weight=grid.periodic_on_window(transfer.gamma_cell)[idx],
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
    """A homogeneous box of mass 1.3 and reach 0.75 with unit decay: its
    edge falls on node differences of the 32- and 8-point cells."""
    return ew.SeparableKernel(1.3, 0.75, dim)


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
    kernel = build()
    transfer = ew.time_integrate_kernel(kernel, grid)
    response = ew.saturating_exponential()
    # A kernel of x - y alone gives the same values at window and cell
    # coordinates up to 1e-15. The reference evaluates periodic factors
    # such as cos(2 pi x) at window coordinates, whose rounding grows with
    # |x| <= window; the blocks evaluate them on the cell.
    rel = 4 * (window + 1) * np.finfo(float).eps if positional else 1e-15
    for radius in _radii(window):
        op = assemble_ball(transfer, response, radius)
        ref = _reference_ball(transfer, kernel, response, radius)
        assert isinstance(op.entries, AxisBoxMatrix)
        assert op.entries.shape == ref.entries.shape
        assert op.entries.nnz == ref.entries.nnz
        dense, expected = op.entries.toarray(), ref.entries.toarray()
        assert np.all(np.abs(dense - expected) <= rel * np.abs(expected)), (
            f"radius {radius}: entries differ beyond {rel:.1e} relative")
        assert np.array_equal(op.weight, ref.weight)
        x = np.random.default_rng(5).random(op.n)
        assert np.allclose(op.apply(x), ref.apply(x), rtol=1e-13, atol=0.0)
    new = ball_eigenvalue_sweep(transfer, response)
    # the power iteration reads a dense matrix; the CSR reference is one
    old = [principal_eigenpair(dataclasses.replace(
               ref, entries=ref.entries.toarray()))
           for ref in (_reference_ball(transfer, kernel, response, r)
                       for r in range(1, window + 1))]
    assert [p.iterations for p in new] == [p.iterations for p in old]
    for point, pair in zip(new, old):
        assert point.value == pytest.approx(pair.value, rel=1e-14, abs=0.0)


def test_zero_kernel_keeps_only_the_zero_shift():
    axes = box_axes(ew.separable_contact_kernel(0.0, 1.0),
                    ew.PeriodicGrid(1, 8, 2), decay=True)
    assert axes.shifts.tolist() == [0]
    assert not np.any(axes.table)
    # a 2-D box goes axis by axis: its line table is the unit box's on one
    # axis of the cell, its height is in left, and no 2-D table is kept
    grid = ew.PeriodicGrid(2, 8, 2)
    kernel = ew.separable_contact_kernel(0.0, 1.0, dim=2)
    transfer = ew.time_integrate_kernel(kernel, grid)
    assert transfer.axes.table.shape == (3 * 8, 8)
    assert not np.any(transfer.axes.left)
    assert not np.any(transfer.cell_matrix)
    op = assemble_ball(transfer, ew.saturating_exponential(), 2.0)
    assert op.entries.nnz == 0
    assert principal_eigenpair(op).value == 0.0


def test_box_kernel_keeps_only_the_touching_images():
    # the 9 neighbours of the cell pass the reach test of the 2-D box of
    # reach 1, and carry nonzero values: 3 images of the cell's line on
    # each axis
    kernel = ew.separable_contact_kernel(2.0, 1.0, dim=2)
    axes = box_axes(kernel, ew.PeriodicGrid(2, 8, 2), decay=True)
    assert axes.shifts.tolist() == [0, -1, 1]
    assert axes.table.shape == (3 * 8, 8)
    assert np.all(np.any(axes.table.reshape(3, 8, 8), axis=(1, 2)))


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
    # time_integrate_kernel refuses a source or target factor that is not
    # positive, so the kernel values are made negative in the table itself:
    # those toward the images at shift -1 and 1, after the zero shift's
    grid = ew.PeriodicGrid(1, 16, 2)
    transfer = ew.time_integrate_kernel(ew.separable_contact_kernel(2.0, 1.0),
                                        grid)
    table = transfer.axes.table
    table[grid.n_cell:] *= -1.0
    assert np.min(table) < 0
    op = assemble_ball(transfer, ew.saturating_exponential(), 1.0)
    with pytest.raises(ValidationError, match="negative"):
        principal_eigenpair(op)


@pytest.mark.parametrize("factor", ["left", "line", "right"])
@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_axis_form_entries_are_checked_factor_by_factor(factor, bad):
    """The power iteration refuses a negative or non-finite entry of
    either diagonal or of the line matrix of a 2-D box's ball."""
    transfer = ew.time_integrate_kernel(_striped(2), ew.PeriodicGrid(2, 8, 2))
    op = assemble_ball(transfer, ew.saturating_exponential(), 1.5)
    assert principal_eigenpair(op).value > 0.0
    entries = op.entries
    stored = entries.line.table if factor == "line" else getattr(entries, factor)
    stored[np.unravel_index(np.argmax(stored), stored.shape)] = bad
    with pytest.raises(ValidationError, match="negative or non-finite"):
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
    kernel = build()
    transfer = ew.time_integrate_kernel(kernel, grid)
    W = transfer.window_matrix()
    ref = _csr_window(transfer, kernel)
    eps = np.finfo(float).eps
    # periodic factors such as cos(2 pi x) are evaluated at window
    # coordinates by the reference and on the cell by the blocks; their
    # rounding grows with |x| <= window
    rel = 4 * (window + 1) * eps
    assert isinstance(W, AxisBoxMatrix)
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


# (cell_points, window_radius, kernel builder) of 2-D boxes: the edge case
# puts the box's half value at the nearest approach of the shift-2 images,
# 5e-10 beyond the reach
AXIS_CASES = {
    "box": (8, 2, lambda: ew.separable_contact_kernel(2.0, 1.0, dim=2)),
    "striped": (12, 1, lambda: _striped(2)),
    "edge-within-eps": (8, 2, lambda: _striped(2, support=1.125 - 5e-10)),
    "support2.5": (8, 3, lambda: _striped(2, support=2.5)),
    "mass0": (8, 2, lambda: ew.separable_contact_kernel(0.0, 1.0, dim=2)),
}


@pytest.mark.parametrize("case", sorted(AXIS_CASES))
def test_axis_form_matches_the_cell_block_form(case):
    """The window matrix of K and the scaled window and ball matrices of
    V = K / mu, axis by axis over the whole-cell line matrix, against the
    CSR window matrices of the same pair values (window_reference) on the
    same nodes: the same shape, cell images and stored-entry count, and
    the same entries, row sums and products of 1 and 3 columns up to
    rounding."""
    cell_points, window, build = AXIS_CASES[case]
    grid = ew.PeriodicGrid(2, cell_points, window)
    kernel = build()
    transfer = ew.time_integrate_kernel(kernel, grid)
    everywhere = np.arange(grid.n_window)
    pairs = [(window_pair_matrix(grid, kernel), everywhere,
              csr_window_pair_matrix(grid, pair_fn(kernel),
                                     transfer.reach.radius * np.sqrt(2)))]
    V = _csr_window(transfer, kernel)
    for radius in [window + 0.5, *_radii(window)]:
        nodes = (everywhere if radius > window else grid.ball_indices(radius))
        pairs.append((transfer.matrix(nodes, 0.37), nodes,
                      V[nodes][:, nodes] * 0.37))
    eps = np.finfo(float).eps
    # each entry is rounded about four times on either side, and the
    # reference evaluates the periodic factors at window coordinates,
    # whose rounding grows with |x| <= window
    rel = (8 + 4 * (window + 1)) * eps
    rng = np.random.default_rng(13)
    for axis, nodes, reference in pairs:
        assert isinstance(axis, AxisBoxMatrix)
        assert axis.shape == reference.shape
        assert np.array_equal(axis.local, grid.window_cell_map[nodes])
        assert axis.nnz == reference.nnz
        assert _close(axis.toarray(), reference.toarray(), rel)
        # a row sum adds its m nonnegative terms in another order than the
        # CSR row loop, within (m - 1) eps
        row_rel = rel + 2 * np.maximum(np.diff(reference.indptr) - 1, 0) * eps
        assert _close(axis.sum(axis=1),
                      np.asarray(reference.sum(axis=1)).ravel(), row_rel)
        for shape in [axis.shape[:1], (axis.shape[0], 3)]:
            x = rng.random(shape)
            product = axis @ x
            assert product.shape == x.shape
            bound = row_rel if x.ndim == 1 else row_rel[:, None]
            assert _close(product, reference @ x, bound)
            # a second product reuses the kept buffers, not the first's output
            kept = product.copy()
            axis @ rng.random(shape)
            assert np.array_equal(product, kept)
    if case == "mass0":
        assert all(axis.nnz == 0 for axis, _, _ in pairs)
    # the nodes are scattered into the square in the order of its slots
    with pytest.raises(ValueError, match="ascend"):
        transfer.matrix(everywhere[::-1])


def test_row_sums_are_the_only_sums():
    grid = ew.PeriodicGrid(1, 16, 2)
    kernel = ew.separable_contact_kernel(2.0, 1.0)
    W = window_pair_matrix(grid, kernel)
    with pytest.raises(ValueError, match="axis"):
        W.sum(axis=0)
    with pytest.raises(TypeError):
        W.sum()


def _scatter_gather_twin(matrix):
    """The same matrix, with its products forced onto the path that
    scatters the nodes into the square and gathers them back."""
    twin = copy.copy(matrix)
    twin._mask = np.ones(matrix.shape[0], dtype=bool)
    twin._read, twin._work = np.arange(matrix.shape[0]), None
    return twin


@pytest.mark.parametrize("nodes, columns",
                         [("window", 1), ("window", 16), ("ball", 1)])
def test_in_order_products_equal_the_scatter_gather_path(nodes, columns):
    grid = ew.PeriodicGrid(1, 32, 4)
    transfer = ew.time_integrate_kernel(_striped(1), grid)
    matrix = (transfer.window_matrix() if nodes == "window" else
              assemble_ball(transfer, ew.saturating_exponential(), 3.0).entries)
    assert matrix._mask is None and matrix._read is None
    twin = _scatter_gather_twin(matrix)
    rng = np.random.default_rng(11)
    shape = (matrix.shape[0], columns) if columns > 1 else matrix.shape[:1]
    x, y = rng.random(shape), rng.random(shape)
    first = matrix @ x
    kept = first.copy()
    assert first.shape == x.shape
    assert np.array_equal(first, twin @ x)
    # the second product reuses the kept buffers, not the first's output
    assert np.array_equal(matrix @ y, twin @ y)
    assert np.array_equal(first, kept)


@pytest.mark.parametrize("radius", [3.0, 2.5], ids=["in-order", "cut-ball"])
def test_row_products_into_out_equal_the_column_product(radius):
    """product(rows, out) applies the matrix to each row, into out, with
    the floats of A @ rows.T; when the nodes fill their cells, rows may
    come by cells in any layout."""
    grid = ew.PeriodicGrid(1, 32, 4)
    transfer = ew.time_integrate_kernel(_striped(1), grid)
    matrix = assemble_ball(transfer, ew.saturating_exponential(),
                           radius).entries
    rows = np.random.default_rng(5).random((6, matrix.shape[0]))
    expected = (matrix @ rows.T).T
    out = np.full_like(rows, np.nan)
    assert matrix.product(rows, out=out) is out
    assert np.array_equal(out, expected)
    assert np.array_equal(matrix.product(rows), expected)
    if matrix._mask is None:
        cells = matrix.shape[0] // grid.cell_points
        by_cell = np.ascontiguousarray(
            rows.reshape(6, cells, -1).transpose(1, 0, 2))
        assert np.array_equal(
            matrix.product(by_cell.transpose(1, 0, 2), out=out), expected)


def test_only_nodes_that_fill_their_square_skip_the_scatter():
    """A window, 1-D or 2-D, and a 1-D ball of whole cells fill the square
    of whole cells that bounds them, and their products scatter nothing;
    a cut 1-D ball and a 2-D ball scatter their nodes into the square.
    The line matrix runs over the cells of that square's side."""
    response = ew.saturating_exponential()
    flat = ew.time_integrate_kernel(_striped(1), ew.PeriodicGrid(1, 32, 4))
    square = ew.time_integrate_kernel(_striped(2), ew.PeriodicGrid(2, 8, 2))
    fills = [flat.window_matrix(), assemble_ball(flat, response, 2.0).entries,
             square.window_matrix()]
    scatters = [assemble_ball(flat, response, 2.5).entries,
                assemble_ball(square, response, 1.0).entries]
    assert [m._mask is None for m in fills + scatters] == [True] * 3 + [False] * 2
    assert [m.line.shape[0] for m in fills + scatters] == [256, 128, 32, 192, 16]
