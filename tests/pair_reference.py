"""Pair-function references for the kernels' tables, kept for the tests.

Every table and matrix of a kernel is made from its factors (box_axes).
These references evaluate the kernel's pair values b(x) K0(x - y) s(y),
and V = K / mu, on arrays of node pairs instead, one pair per row, so the
tests can hold the factor-built values to them bit for bit.
"""

import itertools

import numpy as np

from epiwave import box_profile
from epiwave.domain.kernels import _REACH_SLACK


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

    Returns (shifts, blocks): blocks[s][i, j] = pair(x_i, x_j + shifts[s])
    for the images that pass the reach test, shell by shell, max_a |k_a| =
    0, 1, 2, ..., out to one cell beyond the reach, with all-zero blocks
    dropped and the zero shift kept. An image passes when on every axis a
    its nearest approach to the cell, |k_a| less the extent of the cell
    nodes on that axis, exceeds the reach by at most _REACH_SLACK. The
    pair function is called once per image that passes the reach test.
    """
    X = grid.cell_nodes
    n = X.shape[0]
    XX, YY = np.repeat(X, n, axis=0), np.tile(X, (n, 1))
    span = (X.max(axis=0) - X.min(axis=0)).tolist()
    shifts, blocks = [], []
    for m in range(reach.shells + 1):
        for shift in itertools.product(range(-m, m + 1), repeat=grid.dim):
            if max(map(abs, shift)) != m or any(
                    abs(k) - s > reach.radius + _REACH_SLACK
                    for k, s in zip(shift, span)):
                continue
            block = np.asarray(pair(XX, YY + np.asarray(shift, dtype=float)))
            if not shifts or np.any(block):
                shifts.append(shift)
                blocks.append(block.reshape(n, n))
    return np.array(shifts, dtype=np.intp), np.stack(blocks)


def table_blocks(axes):
    """The blocks of a kernel's line table (box_axes), as they lie in the
    kernel: blocks[s][i, j] = V(x_i, x_j + shifts[s]) on the cell's line.
    The table holds each block transposed."""
    n = axes.table.shape[1]
    return axes.table.reshape(-1, n, n).transpose(0, 2, 1)
