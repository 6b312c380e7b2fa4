"""Uniform midpoint grids on the periodicity cell and on a finite window.

All spatial quadrature in the package is the composite midpoint rule on
these grids. The periodicity cell is [0, 1)^d sampled at cell_points
midpoints per axis; the window is [-R, R)^d at the same spacing, used for
whole-line operators (ball restrictions, initial value problems). Window
nodes are exact integer translates of cell nodes, so periodic fields can
be evaluated on the window by index lookup instead of interpolation.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ValidationError

_COORD_EPS = 1e-9

# Most window nodes a grid may hold: (2 * window_radius * cell_points)**dim.
# Window fields, marches and every product with a window matrix grow with
# it; the largest window of any test or benchmark document has 9,216 nodes.
MAX_WINDOW_NODES = 2**16

# Most bytes a grid's cell may ask of the kernel (cell_bytes): n_cell**2
# floats per lattice image the kernel reaches, (2 * ceil(s) + 1)**dim
# images for a box of per-axis reach s, plus n_cell**2 x dim floats more.
# A 1-D kernel keeps its image table as the line table of its matrices
# and lattice sums (box_axes), made from its factors with no array of
# node pairs: every matrix of the kernel reads the one table, so the ball
# sweep adds no copy of it. A 2-D kernel keeps only the unit box's line
# table, cell_points**2 floats per image of one axis, and its cell
# matrices, plain or tilted, are Kronecker products of that table's sums
# (periodize_kernel): the 2-D image term bounds nothing any command makes,
# and the count is an upper bound. No kernel allocates its n_cell**2 x dim
# term.
# At reach 1 it admits 1-D cells of up to 2,048 points and 2-D cells of up
# to 35 x 35 (peak RSS 354 and 64 MB integrating the box kernel and
# building the window matrix of either, one BLAS thread); the largest
# cells of any test or benchmark document are 1-D 128 and 2-D 12. On a
# 2-D cell of 8 x 8 it admits reaches up to 31, where every command that
# runs grows peak RSS by at most 0.04 x MAX_CELL_BYTES over the imported
# program, `speed` the most (test_cell_budget_bounds_peak_memory). The
# same limit holds the rows that one column of a window-matrix product
# gathers, one row of the cell per window cell and image: at that reach
# it admits windows of radius 2 (31 MB) but not 8 (496 MB). A 2-D kernel,
# applied one axis at a time, gathers 2 * ceil(reach) + 1 times less.
MAX_CELL_BYTES = 2**27


def cell_bytes(dim: int, cell_points: int, reach: float,
               window_radius: int = 0) -> tuple[int, int]:
    """Bytes a kernel of per-axis reach `reach` asks of a cell, as (table,
    gather), for at most images = (2 * ceil(reach) + 1)**dim lattice images
    and n_cell = cell_points**dim. table is n_cell**2 x 8 x (dim +
    images): the lattice-image blocks of a 1-D kernel's table and n_cell**2
    x dim floats more, an upper bound (a 2-D kernel keeps only a line
    table, and its cell matrices, plain or tilted, are summed from it, so
    in 2-D the count bounds nothing any command makes; no table is made
    from node-pair arrays); gather is what
    one column of a product with the window matrix of a window of radius
    window_radius would gather cell by cell, (2 * window_radius)**dim
    cells x images x n_cell x 8. In 1-D that is what the line matrix
    gathers (CellBlockMatrix.product); a ball truncation gathers for a
    subset of the window's cells, so gather bounds its products too. A
    2-D box kernel is applied one axis at a time (AxisBoxMatrix): one
    column of its product gathers side**2 x (2 * ceil(reach) + 1) values
    for the side of the nodes' square, at most 2 * window_radius *
    cell_points, so gather bounds it and every working array of its
    products with room to spare. Exact integer arithmetic,
    so any finite reach gives an answer; nothing is allocated."""
    n_cell = int(cell_points) ** int(dim)
    images = (2 * math.ceil(reach) + 1) ** int(dim)
    cells = (2 * int(window_radius)) ** int(dim)
    return n_cell**2 * 8 * (int(dim) + images), cells * images * n_cell * 8


class PeriodicGrid:
    """Midpoint discretization of the unit cell and a window [-R, R)^d."""

    def __init__(self, dim: int = 1, cell_points: int = 64, window_radius: int = 8):
        if dim not in (1, 2):
            raise ValidationError(f"dim must be 1 or 2, got {dim}")
        if int(cell_points) != cell_points or cell_points < 8:
            raise ValidationError(
                f"cell_points must be an integer >= 8, got {cell_points}"
            )
        if int(window_radius) != window_radius or window_radius < 1:
            raise ValidationError(
                f"window_radius must be an integer >= 1, got {window_radius}"
            )
        nodes = (2 * int(window_radius) * int(cell_points)) ** int(dim)
        if nodes > MAX_WINDOW_NODES:
            raise ValidationError(
                f"window of radius {window_radius} at {cell_points} cell points "
                f"holds {nodes} nodes in {dim}-D, above the limit of "
                f"{MAX_WINDOW_NODES}; shrink grid.window_radius or grid.cell_points"
            )
        need, _ = cell_bytes(dim, cell_points, 1.0)
        if need > MAX_CELL_BYTES:
            raise ValidationError(
                f"cell of {cell_points} points per axis holds "
                f"{int(cell_points) ** int(dim)} nodes in {dim}-D, whose "
                f"cell budget at reach 1 is {need} bytes, above the limit of "
                f"{MAX_CELL_BYTES}; shrink grid.cell_points"
            )
        self.dim = int(dim)
        self.cell_points = int(cell_points)
        self.window_radius = int(window_radius)
        self.spacing = 1.0 / self.cell_points
        self.weight = self.spacing**self.dim

        axis_cell = (np.arange(self.cell_points) + 0.5) * self.spacing
        n_axis = 2 * self.window_radius * self.cell_points
        axis_window = -self.window_radius + (np.arange(n_axis) + 0.5) * self.spacing

        self.cell_nodes = _mesh(axis_cell, self.dim)
        self.window_nodes = _mesh(axis_window, self.dim)

        # Index of each window node's periodic image among the cell nodes.
        axis_map = np.arange(n_axis) % self.cell_points
        if self.dim == 1:
            self.window_cell_map = axis_map
        else:
            a, b = np.meshgrid(axis_map, axis_map, indexing="ij")
            self.window_cell_map = (a * self.cell_points + b).ravel()

    @property
    def n_cell(self) -> int:
        return self.cell_nodes.shape[0]

    @property
    def n_window(self) -> int:
        return self.window_nodes.shape[0]

    def cell_field(self, fn) -> np.ndarray:
        """Evaluate a callable of position on the cell nodes."""
        return np.asarray(fn(self.cell_nodes), dtype=float)

    def window_field(self, fn) -> np.ndarray:
        """Evaluate a callable of position on the window nodes."""
        return np.asarray(fn(self.window_nodes), dtype=float)

    def periodic_on_window(self, cell_values: np.ndarray) -> np.ndarray:
        """Extend values given on cell nodes periodically to the window."""
        cell_values = np.asarray(cell_values)
        if cell_values.shape[0] != self.n_cell:
            raise ValidationError(
                f"expected {self.n_cell} cell values, got {cell_values.shape[0]}"
            )
        return cell_values[self.window_cell_map]

    def ball_indices(self, radius: float) -> np.ndarray:
        """Window node indices inside the closed Euclidean ball of given
        radius; refused unless the ball holds a window node."""
        if radius <= 0:
            raise ValidationError(f"ball radius must be positive, got {radius}")
        if radius > self.window_radius:
            raise ValidationError(
                f"ball radius {radius} exceeds window radius {self.window_radius}"
            )
        r = np.linalg.norm(self.window_nodes, axis=1)
        inside = np.nonzero(r <= radius + _COORD_EPS)[0]
        if inside.size == 0:
            raise ValidationError(
                f"ball radius {radius} holds no window node: the nearest lies "
                f"{r.min():.6g} from the origin")
        return inside

    def interior_indices(self, margin: float) -> np.ndarray:
        """Window nodes whose axis-aligned margin to the window edge exceeds margin."""
        if margin < 0:
            raise ValidationError(f"margin must be nonnegative, got {margin}")
        edge = self.window_radius - margin
        inside = np.all(np.abs(self.window_nodes) <= edge + _COORD_EPS, axis=1)
        return np.nonzero(inside)[0]

    @property
    def window_shape(self) -> tuple[int, ...]:
        """A window field as a row-major array with one axis per dimension."""
        return (2 * self.window_radius * self.cell_points,) * self.dim

    def interior_block(self, margin: float) -> tuple[slice, ...]:
        """interior_indices(margin) as one slice per axis of a window field
        shaped window_shape: the interior is a box of whole axis runs, so
        a view reaches it, from its first node to its last on every axis."""
        inside = self.interior_indices(margin)
        n_axis = self.window_shape[-1]
        run = (slice(int(inside[0]) % n_axis, int(inside[-1]) % n_axis + 1)
               if inside.size else slice(0, 0))
        return (run,) * self.dim

    def __repr__(self) -> str:
        return (
            f"PeriodicGrid(dim={self.dim}, cell_points={self.cell_points}, "
            f"window_radius={self.window_radius})"
        )


def _mesh(axis: np.ndarray, dim: int) -> np.ndarray:
    if dim == 1:
        return axis[:, None].copy()
    xa, xb = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([xa.ravel(), xb.ravel()])
