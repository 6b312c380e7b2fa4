"""Pair-function references for the kernels' tables, kept for the tests.

Every table and matrix of a kernel is made from its factors (image_table,
box_axes). These references evaluate the kernel's pair values b(x) K0(x -
y) s(y), and V = K / mu, on arrays of node pairs instead, one pair per
row, so the tests can hold the factor-built values to them bit for bit.
"""

import numpy as np

from epiwave import box_profile
from epiwave.domain.kernels import _reachable_shifts, _stacked


def pair_fn(kernel, decay=False):
    """The pair function of a SeparableKernel: K(X, Y) = K0(X - Y) b(X)
    s(Y) on row-paired points, in that order of products, and with decay
    V(X, Y) = K(X, Y) / mu(Y)."""
    box = box_profile(kernel.mass, kernel.half_width, kernel.dim)

    def spatial(X, Y):
        return (box(X - Y) * np.asarray(kernel.target(X), dtype=float)
                * np.asarray(kernel.source(Y), dtype=float))

    if not decay:
        return spatial
    return lambda X, Y: spatial(X, Y) / np.asarray(kernel.decay(Y), dtype=float)


def lattice_image_blocks(pair, grid, reach):
    """The cell's whole-line kernel values toward each lattice image it
    reaches, from a pair function on every pair of cell nodes.

    Returns (shifts, blocks) as image_table does: blocks[s][i, j] =
    pair(x_i, x_j + shifts[s]) for the images that pass the reach test, in
    shell order, with all-zero blocks dropped and the zero shift kept. The
    pair function is called once per image that passes the reach test.
    """
    X = grid.cell_nodes
    n = X.shape[0]
    XX, YY = np.repeat(X, n, axis=0), np.tile(X, (n, 1))
    shifts = _reachable_shifts(grid, reach)
    return _stacked(shifts, (
        np.asarray(pair(XX, YY + np.asarray(shift, dtype=float))).reshape(n, n)
        for shift in shifts))
