import tracemalloc

import numpy as np
import pytest

import epiwave as ew
from epiwave import (
    PeriodicGrid,
    SeparableKernel,
    ValidationError,
    box_profile,
    separable_contact_kernel,
    time_integrate_kernel,
)
from epiwave.app import scenario
from epiwave.domain.grid import cell_bytes
from epiwave.domain.kernels import (AxisBoxMatrix, CellBlockMatrix,
                                    exponential_step_weights, image_table,
                                    window_pair_matrix)
from epiwave.spectral import assemble_ball, ball_eigenvalue_sweep
from epiwave.waves import TiltedOperator
from pair_reference import lattice_image_blocks, pair_fn


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
        rows = transfer.cell_matrix.sum(axis=1) * grid.weight
        assert np.allclose(rows, 2.0, rtol=0, atol=5e-14)


def test_periodize_image_count_covers_reach():
    grid = PeriodicGrid(1, 16, 2)
    kernel = separable_contact_kernel(2.0, 2.5)
    transfer = time_integrate_kernel(kernel, grid)
    # x_i - x_j - k meets the box |z| <= 2.5 for the images |k| <= 3
    assert transfer.shifts.ravel().tolist() == [0, -1, 1, -2, 2, -3, 3]
    rows = transfer.cell_matrix.sum(axis=1) * grid.weight
    assert np.allclose(rows, 2.0, atol=5e-14)


def test_separable_rejects_nonpositive_decay():
    with pytest.raises(ValidationError):
        separable_contact_kernel(2.0, 1.0, decay=lambda P: np.cos(2 * np.pi * P[:, 0]))


def test_time_integral_closed_forms():
    grid = PeriodicGrid(1, 32, 2)
    plain = time_integrate_kernel(separable_contact_kernel(2.0, 1.0), grid)
    # V = K / mu: doubling the decay rate halves every entry, exactly
    fast = separable_contact_kernel(2.0, 1.0, decay=lambda P: np.full(P.shape[0], 2.0))
    half = time_integrate_kernel(fast, grid)
    assert np.array_equal(half.table, plain.table / 2.0)
    assert np.array_equal(half.cell_matrix, plain.cell_matrix / 2.0)


def test_window_matrix_consistent_with_cell_rows():
    grid = PeriodicGrid(1, 32, 4)
    transfer = time_integrate_kernel(separable_contact_kernel(2.0, 1.0), grid)
    W = transfer.window_matrix()
    sums = np.asarray(W.sum(axis=1)).ravel() * grid.weight
    interior = grid.interior_indices(1.0)
    rows = transfer.cell_matrix.sum(axis=1) * grid.weight
    expected = rows[grid.window_cell_map[interior]]
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


@pytest.mark.parametrize("radius", [np.inf, np.nan, 0.0, -1.0])
def test_reach_refuses_a_half_width_that_is_not_finite_positive(radius):
    with pytest.raises(ValidationError, match="super-linear"):
        ew.Reach(radius)


@pytest.mark.parametrize("half_width", [0.0, np.nan])
def test_a_kernel_refuses_an_axis_reach_that_is_not_finite_positive(half_width):
    # the reach along every axis is the box's half-width, so an empty or
    # undefined box is refused where the kernel is built, its value named
    for dim in (1, 2):
        with pytest.raises(ValidationError, match=f"got {half_width}:"):
            SeparableKernel(1.0, half_width, dim)


def test_every_kernel_takes_its_support_checks_from_reach():
    # an unbounded or empty box is refused where the kernel is built,
    # before a lattice sum could try to cover it
    for bad in (np.inf, np.nan, 0.0, -1.0):
        for dim in (1, 2):
            with pytest.raises(ValidationError, match="support radius"):
                SeparableKernel(2.0, bad, dim)
            with pytest.raises(ValidationError, match="super-linear"):
                separable_contact_kernel(2.0, bad, dim=dim)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            SeparableKernel(bad, 1.0)


def test_kernel_grid_dimension_mismatch():
    # a 1-D box's height is not a 2-D box's: every table refuses the pair
    grid = PeriodicGrid(2, 8, 1)
    with pytest.raises(ValidationError, match="dimension"):
        time_integrate_kernel(separable_contact_kernel(2.0, 1.0, dim=1), grid)
    with pytest.raises(ValidationError, match="dimension"):
        window_pair_matrix(grid, separable_contact_kernel(2.0, 1.0, dim=1))


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


def _full_shell_shifts(grid, support_radius):
    """Every lattice vector of every shell up to one cell beyond the reach,
    in shell order."""
    shifts = []
    for m in range(int(np.ceil(support_radius)) + 2):
        rng = range(-m, m + 1)
        if grid.dim == 1:
            shifts += [(k,) for k in rng if abs(k) == m]
        else:
            shifts += [(a, b) for a in rng for b in rng if max(abs(a), abs(b)) == m]
    return shifts


def _full_shell_sum(pair, grid, support_radius):
    """Reference lattice sum: every image of every shell up to one cell
    beyond the reach, in shell order, as periodize_kernel summed before it
    skipped the images that cannot reach the cell."""
    X = grid.cell_nodes
    n = X.shape[0]
    XX = np.repeat(X, n, axis=0)
    YY = np.tile(X, (n, 1))
    probe = np.asarray(pair(X[:1], X[:1]))
    total = np.zeros((n, n), dtype=complex if np.iscomplexobj(probe) else float)
    for shift in _full_shell_shifts(grid, support_radius):
        vals = np.asarray(pair(XX, YY + np.asarray(shift, dtype=float)))
        total += vals.reshape(n, n)
    return total


def _striped(dim=1):
    return separable_contact_kernel(
        2.3, 1.0, dim=dim,
        source_factor=lambda P: 1.0 + 0.4 * np.cos(2 * np.pi * (P[:, 0] - 0.3)),
        decay=lambda P: 1.0 + 0.2 * np.sin(2 * np.pi * P[:, 0]),
    )


def _tilted(kernel, rho, e):
    """The dispersion relation's tilted pair, as the speed search builds it."""
    e = np.asarray(e, dtype=float)
    spatial = pair_fn(kernel)
    return lambda X, Y: spatial(X, Y) * np.exp(-rho * ((Y - X) @ e))


def _heterogeneous_2d(radius):
    """A 2-D box with heterogeneous gamma1 (target), gamma2 (source) and
    mu, each varying along both axes."""
    return separable_contact_kernel(
        2.3, radius, dim=2,
        source_factor=lambda P: 1.0 + 0.4 * np.cos(2 * np.pi * (P[:, 0] - 0.3))
        * np.sin(2 * np.pi * P[:, 1]),
        target_factor=lambda P: np.exp(0.5 * np.cos(2 * np.pi * P[:, 1])),
        decay=lambda P: 1.0 + 0.2 * np.sin(2 * np.pi * (P[:, 0] + P[:, 1])),
    )


_LATTICE_CASES = {
    "box-1d": lambda: (PeriodicGrid(1, 64, 2), separable_contact_kernel(2.0, 1.0), None),
    "box-2d": lambda: (PeriodicGrid(2, 8, 2),
                       separable_contact_kernel(2.0, 1.0, dim=2), None),
    "striped-1d": lambda: (PeriodicGrid(1, 32, 2), _striped(), None),
    "striped-2d": lambda: (PeriodicGrid(2, 8, 2), _striped(dim=2), None),
    "tilted-real": lambda: (PeriodicGrid(1, 32, 2), _striped(), (1.3, (1.0,))),
    "tilted-complex": lambda: (PeriodicGrid(1, 32, 2), _striped(),
                               (0.9 + 0.7j, (1.0,))),
    "tilted-2d": lambda: (PeriodicGrid(2, 8, 2),
                          separable_contact_kernel(2.0, 1.0, dim=2),
                          (0.8, (0.6, 0.8))),
    # homogeneous, with its edge on the nodes: mass 2.25 and reach 1.5
    "isotropic-1.5": lambda: (PeriodicGrid(1, 8, 2),
                              separable_contact_kernel(2.25, 1.5), None),
    "cell-8": lambda: (PeriodicGrid(1, 8, 2), _striped(), None),
    # the box edge, where the kernel takes its half value, sits at the
    # nearest approach of the shift-2 images, or 5e-10 beyond the reach
    # (inside the box's edge tolerance)
    "edge-at-approach-8": lambda: (PeriodicGrid(1, 8, 2),
                                   separable_contact_kernel(2.0, 1.125), None),
    "edge-at-approach-10": lambda: (PeriodicGrid(1, 10, 2),
                                    separable_contact_kernel(2.0, 1.1), None),
    "edge-within-eps": lambda: (PeriodicGrid(1, 8, 2),
                                separable_contact_kernel(2.0, 1.125 - 5e-10), None),
    "edge-within-eps-2d": lambda: (PeriodicGrid(2, 8, 2), separable_contact_kernel(
        2.0, 1.125 - 5e-10, dim=2), None),
    # reaches off the grid: no node difference lands on the box edge
    "heterogeneous-2d-1.1": lambda: (PeriodicGrid(2, 10, 2),
                                     _heterogeneous_2d(1.1), None),
    "heterogeneous-2d-2.5": lambda: (PeriodicGrid(2, 8, 2),
                                     _heterogeneous_2d(2.5), None),
}


@pytest.mark.parametrize("case", sorted(_LATTICE_CASES))
def test_periodize_matches_full_shell_sum(case):
    grid, kernel, tilt = _LATTICE_CASES[case]()
    if tilt is None:
        expected = _full_shell_sum(pair_fn(kernel, decay=True), grid,
                                   kernel.half_width)
        # the plain lattice sum is the sum of the table's blocks
        got = time_integrate_kernel(kernel, grid).cell_matrix
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert np.count_nonzero(expected) > 0
        return
    rho, e = tilt
    pair = _tilted(kernel, rho, e)
    expected = _full_shell_sum(pair, grid, kernel.half_width)
    magnitude = _full_shell_sum(lambda X, Y: np.abs(pair(X, Y)), grid,
                                kernel.half_width)
    tilted = TiltedOperator(kernel, ew.saturating_exponential(), grid, e)
    got = tilted._lattice_sum(tilted._decay_rate(rho, 0.0))
    assert got.dtype == expected.dtype
    # The Bloch form D B D^-1 and the pair sum round differently. Per term
    # each side makes a few roundings (the exponent, exp, the products and
    # the division by D), an exp of an argument of size a is off by a*eps
    # relative, and the sums over the images add one rounding per image,
    # all relative to the sum of the terms' magnitudes. The exponents are
    # at most |rho| (shells + 1) in size.
    images = len(_full_shell_shifts(grid, kernel.half_width))
    exponent = abs(rho) * (kernel.reach.shells + 1)
    bound = np.finfo(expected.dtype).eps * (8 + images + 2 * exponent)
    assert np.all(np.abs(got - expected) <= bound * magnitude)
    assert np.count_nonzero(expected) > 0


@pytest.mark.parametrize("decay", [True, False], ids=["V", "K"])
@pytest.mark.parametrize("case", sorted(_LATTICE_CASES))
def test_factor_table_equals_the_pair_table_bit_for_bit(case, decay):
    # a kernel is tabulated from its factors; its shifts and every bit of
    # its blocks are those of its pair function's table on the cell's node
    # pairs, V = K / mu with decay and K without
    grid, kernel, _ = _LATTICE_CASES[case]()
    want_shifts, want_blocks = lattice_image_blocks(pair_fn(kernel, decay),
                                                    grid, kernel.reach)
    shifts, blocks = image_table(kernel, grid, decay)
    assert np.array_equal(shifts, want_shifts)
    assert blocks.dtype == want_blocks.dtype == np.float64
    assert blocks.shape == want_blocks.shape
    assert np.array_equal(blocks.view(np.uint64), want_blocks.view(np.uint64))


def _reference_table(pair, grid, support_radius):
    """The image table as a list of blocks stacked at the end: every image
    of every shell out to one cell beyond the reach, keeping the zero
    shift and the images with a nonzero block."""
    X = grid.cell_nodes
    n = X.shape[0]
    XX, YY = np.repeat(X, n, axis=0), np.tile(X, (n, 1))
    shifts, blocks = [], []
    for shift in _full_shell_shifts(grid, support_radius):
        vals = np.asarray(pair(XX, YY + np.asarray(shift, dtype=float)))
        if not shifts or np.any(vals):
            shifts.append(shift)
            blocks.append(vals.reshape(n, n))
    return np.array(shifts), np.stack(blocks)


def _counting(kernel):
    """The kernel with a counter on its source factor's calls."""
    calls = []

    def source(P):
        calls.append(1)
        return kernel.source(P)

    return SeparableKernel(kernel.mass, kernel.half_width, kernel.dim,
                           target=kernel.target, source=source,
                           decay=kernel.decay), calls


def test_periodize_skips_only_images_out_of_reach():
    # a 2-D box whose edge lies 5e-7 short of 1.125, the nearest approach
    # of the shift-2 images to the 8-point cell: of the 49 images out to
    # max |k_a| = 3, the 25 with |k_a| <= 2 pass the reach test (its slack
    # is 1e-6) and get a block, one source call each, but the box's edge
    # tolerance is 1e-9, so only the 9 with |k_a| <= 1 are nonzero
    kernel, calls = _counting(separable_contact_kernel(2.0, 1.125 - 5e-7,
                                                       dim=2))
    grid = PeriodicGrid(2, 8, 1)
    shifts, blocks = image_table(kernel, grid, decay=False)
    assert len(calls) == 25
    # the 9 nonzero blocks are kept in an array of their own rather than a
    # view of one sized for all 25
    ref_shifts, ref_blocks = _reference_table(pair_fn(kernel), grid,
                                              kernel.half_width)
    assert blocks.shape == (9, 64, 64) and blocks.base is None
    assert np.array_equal(shifts, ref_shifts)
    assert np.array_equal(blocks, ref_blocks)


def test_image_table_is_built_in_place():
    cfg = scenario.scenario_from_dict({
        "grid": {"dim": 2, "cell_points": 8, "window_radius": 2},
        "kernel": {"support_radius": 10}})
    kernel, grid = cfg.kernel, cfg.grid
    tracemalloc.start()
    try:
        shifts, blocks = image_table(kernel, grid, decay=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 441 blocks of 64 x 64, 14.45 MB; a list of blocks stacked at the end
    # peaked at twice that
    assert blocks.shape == (441, 64, 64)
    assert peak <= 1.25 * blocks.nbytes
    ref_shifts, ref_blocks = _reference_table(pair_fn(kernel), grid,
                                              kernel.half_width)
    assert np.array_equal(shifts, ref_shifts)
    assert np.array_equal(blocks, ref_blocks)


# the box of reach 1 reaches 3 images of a 16-point 1-D cell and the 9
# with |k_a| <= 1 of an 8-point 2-D cell
@pytest.mark.parametrize("dim, cell_points, reachable", [
    pytest.param(1, 16, 3, id="1-16-3"),
    pytest.param(2, 8, 9, id="2-8-9"),
])
def test_one_image_table_per_kernel(dim, cell_points, reachable):
    # integrating the kernel reads its source factor once per image that
    # passes the reach test, and once on the cell nodes for the symmetry
    # weight (a 2-D kernel, once more for its axis factors). Nothing reads
    # it after: the cell matrix, the ball truncations and the window matrix
    # all read what time_integrate_kernel built: the table, or a 2-D
    # kernel's axis factors
    kernel, calls = _counting(separable_contact_kernel(2.0, 1.0, dim=dim))
    grid = PeriodicGrid(dim, cell_points, 2)
    transfer = time_integrate_kernel(kernel, grid)
    assert len(calls) == reachable + (1 if dim == 1 else 2)
    _, blocks = lattice_image_blocks(pair_fn(kernel, decay=True), grid,
                                     kernel.reach)
    assert np.array_equal(transfer.cell_matrix, blocks.sum(axis=0))
    calls.clear()
    ball_eigenvalue_sweep(transfer, ew.saturating_exponential())
    W = transfer.window_matrix()
    assert W.shape == (grid.n_window, grid.n_window)
    assert len(calls) == 0


def _masked_box_profile(mass, radius, dim=1):
    """Reference box profile: the masked half-value assignment and the
    product over the last axis that box_profile used before."""
    height = mass / (2.0 * radius) ** dim

    def profile(Z):
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        inside = (np.abs(Z) < radius - 1e-9).astype(float)
        on_edge = np.abs(np.abs(Z) - radius) <= 1e-9
        inside[on_edge] = 0.5
        return height * inside.prod(axis=-1)

    return profile


@pytest.mark.parametrize("dim, cell_points, radius",
                         [(1, 8, 1.0), (1, 10, 1.1), (1, 64, 0.375),
                          (1, 8, 1.125 - 5e-10), (2, 8, 1.0), (2, 10, 1.1),
                          (2, 12, 0.5), (2, 8, 1.125 - 5e-10)])
def test_box_profile_matches_masked_reference(dim, cell_points, radius):
    grid = PeriodicGrid(dim, cell_points, 2)
    X = grid.cell_nodes
    n = X.shape[0]
    XX = np.repeat(X, n, axis=0)
    YY = np.tile(X, (n, 1))
    new = box_profile(2.0, radius, dim)
    old = _masked_box_profile(2.0, radius, dim)
    edges = 0
    for shift in ([(k,) for k in range(-3, 4)] if dim == 1 else
                  [(a, b) for a in range(-3, 4) for b in range(-3, 4)]):
        Z = XX - (YY + np.asarray(shift, dtype=float))
        assert np.array_equal(new(Z), old(Z))
        edges += np.count_nonzero(np.abs(np.abs(Z) - radius) <= 1e-9)
    assert edges > 0


@pytest.mark.parametrize("dim, cell_points, window, support", [
    (1, 16, 3, 1.0), (1, 8, 4, 2.5), (2, 8, 2, 1.0), (2, 8, 3, 1.5)])
def test_window_gather_bounds_every_product_gather(monkeypatch, dim,
                                                   cell_points, window,
                                                   support):
    """cell_bytes's gather, read off the grid and the reach, is what one
    column of a 1-D window-matrix product gathers (each of these kernels
    reaches all (2 * ceil(support) + 1)**dim images), and no ball's product
    gathers more. 2-D boxes go axis by axis: no gather of a product and no
    working array of the matrix or its line matrix exceeds the bound."""
    grid = PeriodicGrid(dim, cell_points, window)
    kernel = separable_contact_kernel(2.0, support, dim=dim)
    _, predicted = cell_bytes(dim, cell_points, support, window)
    gathered = []
    take = np.take

    def spy(*args, **kwargs):
        out = take(*args, **kwargs)
        gathered.append(out.nbytes)
        return out

    W = window_pair_matrix(grid, kernel)
    transfer = time_integrate_kernel(kernel, grid)
    balls = [assemble_ball(transfer, ew.saturating_exponential(), r).entries
             for r in range(1, window + 1)]
    monkeypatch.setattr(np, "take", spy)
    W @ np.ones(W.shape[0])
    for ball in balls:
        ball @ np.ones(ball.shape[0])
    monkeypatch.undo()
    if dim == 1:
        assert all(isinstance(m, CellBlockMatrix) for m in (W, *balls))
        assert gathered[0] == predicted
        assert max(gathered[1:]) <= predicted
        return
    assert all(isinstance(m, AxisBoxMatrix) for m in (W, *balls))
    assert gathered and max(gathered) <= predicted
    for matrix in (W, *balls):
        work = [*matrix._work[1:3], *matrix.line._work[1:3]]
        assert max(array.nbytes for array in work) <= predicted


@pytest.mark.parametrize("window", [2, 8, 16])
def test_reach_31_gather_is_predicted_without_allocating(window):
    """At reach 31 on the 8 x 8 cell, (2 * window)**2 cells x 63**2 images
    x 64 floats: 31 MB at window 2, 496 MB at 8 and 1984 MB at 16."""
    tracemalloc.start()
    try:
        _, predicted = cell_bytes(2, 8, 31.0, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert predicted == (2 * window) ** 2 * 63**2 * 64 * 8
    assert peak < 2**20
