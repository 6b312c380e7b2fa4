"""Transmission kernels in time and space.

A time kernel is the nonnegative weight Gamma(tau, x, y) giving the
infectivity toward x of a unit of infection acquired at y a time tau ago.
Every kernel here is the contact kernel of the paper's SIR systems,

    Gamma(tau, x, y) = b(x) K0(x - y) s(y) exp(-mu(y) tau),

with K0 a box of given mass and half-width on every axis and b, s, mu
periodic (SeparableKernel): Gamma is periodic under joint integer
translations of both spatial arguments, and it vanishes once x - y
leaves the box on any one axis (Reach).

Integrating out tau produces the spatial kernel

    V(x, y) = integral_0^inf Gamma(tau, x, y) dtau = K(x, y) / mu(y),

the object the spectral and steady-state machinery works with. On the
periodicity cell the whole-line kernel is replaced by its lattice sum
V_per(x, y) = sum_k V(x, y + k), which acts identically on periodic
functions. A traveling frame at speed c with decay rate rho weighs the
memory by exp(-rho c tau) as well; that exponent enters only the tilted
operator (waves/dispersion.py).

A matrix of V or K between window nodes is read from the kernel's values
on the cell. In 1-D it is block-Toeplitz over cells (CellBlockMatrix). In
2-D it is a Kronecker product of two 1-D box matrices between two
diagonals, applied one axis at a time (AxisBoxMatrix); box_axes alone
makes that choice, from the grid's dimension.

The cell's values toward each lattice image it reaches, the image table,
are tabulated by image_table from the kernel's factors: the unit box per
axis, its height, b on the cell nodes and s (and 1 / mu for V) on their
images, with no array of node pairs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from .grid import PeriodicGrid

_EDGE_EPS = 1e-9
# Lattice images whose nearest approach to the cell lies within this beyond
# the reach are still summed: the box kernel keeps its half value up to
# _EDGE_EPS past its reach on each axis.
_REACH_SLACK = 1e-6


@dataclass(frozen=True)
class Reach:
    """How far a box kernel reaches along any one axis: K(x, y) vanishes
    once |x_a - y_a| exceeds radius, the box's half-width, on any axis a.
    The lattice-image tables take it as one value, so each lattice sum
    skips the images outside the box, and a node that far from the window
    edge on every axis sees its whole neighbourhood: radius is also the
    frozen layer of a window march.

    Every kernel here has compact support, so a reach is refused unless
    radius is finite and positive.
    """

    radius: float

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ValidationError(
                f"support radius must be finite positive, got "
                f"{self.radius}: without compact support the lattice sums "
                "and the exponential tilt can overflow, and speeds may be "
                "super-linear"
            )

    def image_test(self, grid):
        """Predicate on lattice vectors k: can the image x_j + k reach the cell?

        On axis a the nearest approach of x_j + k to any x_i is |k_a| -
        span_a, span_a being the extent of the cell nodes on that axis.
        Images whose approach on some axis exceeds radius by more than
        _REACH_SLACK fail, since the kernel vanishes on them.
        """
        X = grid.cell_nodes
        span = (X.max(axis=0) - X.min(axis=0)).tolist()
        radius = self.radius + _REACH_SLACK

        def reaches(shift):
            return all(abs(k) - s <= radius for k, s in zip(shift, span))

        return reaches

    @property
    def shells(self) -> int:
        """Shells that cover the kernel: one cell beyond its radius."""
        return int(np.ceil(self.radius)) + 1


def _probe_points(dim: int, per_axis: int = 97) -> np.ndarray:
    axis = (np.arange(per_axis) + 0.5) / per_axis
    if dim == 1:
        return axis[:, None]
    xa, xb = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([xa.ravel(), xb.ravel()])


def _one(P) -> np.ndarray:
    return np.ones(np.asarray(P).shape[0])


class SeparableKernel:
    """Gamma(tau, x, y) = b(x) K0(x - y) s(y) exp(-mu(y) tau).

    K0 is the box of total integral mass and half-width half_width on
    each of dim axes: mass / (2 half_width)**dim (height) times the unit
    box on every axis, with its half value at the edge (box_profile).
    target (b) modulates susceptibility at the receiving point, source (s)
    infectivity at the emitting point and decay (mu) is the recovery rate;
    each is a periodic function of an (N, dim) array of points, one when
    not given. These six values are the whole kernel: its image tables
    (image_table) and its 2-D matrices (box_axes) are made from them, the
    exponential in tau admits the closed-form time integral V(x, y) =
    K(x, y) / mu(y) and O(1)-memory time marching, and the symmetric K0
    makes every operator self-adjoint in the weight s / (b mu)
    (time_integrate_kernel).

    The half-width is the kernel's reach (Reach), refused unless finite
    and positive; mass must be finite and nonnegative and mu strictly
    positive (checked on a sample lattice at construction).
    """

    def __init__(self, mass: float, half_width: float, dim: int = 1,
                 target=None, source=None, decay=None):
        self.reach = Reach(float(half_width))
        if not 0.0 <= mass < math.inf:  # NaN fails too
            raise ValidationError(
                f"mass must be finite and nonnegative, got {mass}")
        self.mass = float(mass)
        self.half_width = self.reach.radius
        self.dim = int(dim)
        self.target = target or _one
        self.source = source or _one
        self.decay = decay or _one
        mu_vals = np.asarray(self.decay(_probe_points(self.dim)), dtype=float)
        if np.min(mu_vals) <= 0:
            raise ValidationError(
                f"decay rate mu must be strictly positive, min sampled value {np.min(mu_vals)}"
            )

    @property
    def height(self) -> float:
        """K0 inside the box, mass / (2 half_width)**dim."""
        return self.mass / (2.0 * self.half_width) ** self.dim


def exponential_step_weights(mu, dt: float):
    """(E1, I0, I1): exp(-mu dt) and the integrals of exp(-mu tau) and of
    (tau / dt) exp(-mu tau) over [0, dt], exact for arrays of rates mu."""
    mu = np.asarray(mu, dtype=float)
    E1 = np.exp(-mu * dt)
    I0 = -np.expm1(-mu * dt) / mu
    I1 = I0 / (mu * dt) - E1 / mu
    return E1, I0, I1


def _box_weight(Z, radius: float) -> np.ndarray:
    """The unit box on each axis of the displacements Z: 1 inside, 0.5
    within _EDGE_EPS of the edge, 0 beyond (inside and on-edge are
    disjoint, so the sum is 1, 0.5 or 0)."""
    Z = np.abs(np.atleast_2d(np.asarray(Z, dtype=float)))
    return (Z < radius - _EDGE_EPS) + 0.5 * (np.abs(Z - radius) <= _EDGE_EPS)


def _unit_box(line, half_width: float, k: float) -> np.ndarray:
    """The unit box of half-width half_width on one axis, between the
    cell's coordinates on that axis, line, and their lattice image shifted
    by k: w(x_i - (x_j + k)) at row i, column j, classified by _box_weight
    on the same differences as a pair function forms."""
    return _box_weight(line[:, None] - (line[None, :] + float(k)), half_width)


def box_profile(mass: float, radius: float, dim: int = 1):
    """Uniform contact profile on the axis-aligned box |z_i| <= radius.

    Returns a callable of the displacement kernel K0(x - y) with total
    integral equal to mass, on an array of displacements whose last axis
    holds the dim coordinates. Nodes landing exactly on the jump get the
    half-value convention, so midpoint sums over aligned grids reproduce
    the exact integral instead of carrying an O(spacing) surplus.
    """
    if mass < 0:
        raise ValidationError(f"mass must be nonnegative, got {mass}")
    if radius <= 0:
        raise ValidationError(f"radius must be positive, got {radius}")
    height = mass / (2.0 * radius) ** dim

    def profile(Z):
        weight = _box_weight(Z, radius)
        product = weight[..., 0]
        for axis in range(1, weight.shape[-1]):
            product = product * weight[..., axis]
        return height * product

    return profile


def _shell_shifts(dim: int, m: int):
    """Lattice vectors k with max_a |k_a| = m."""
    rng = range(-m, m + 1)
    if dim == 1:
        return [(k,) for k in rng if abs(k) == m]
    return [(a, b) for a in rng for b in rng if max(abs(a), abs(b)) == m]


def _reachable_shifts(grid, reach: Reach):
    """The lattice vectors whose image can reach the cell (Reach.image_test),
    shell by shell, max_a |k_a| = 0, 1, 2, ..., out to one cell beyond the
    reach: the zero shift first."""
    reaches = reach.image_test(grid)
    return [shift for m in range(reach.shells + 1)
            for shift in filter(reaches, _shell_shifts(grid.dim, m))]


def _stacked(shifts, blocks):
    """(shifts, blocks) of an image table from one block per shift, in
    order: images whose block is all zeros are dropped, and the first shift
    (the zero shift) is always kept. Each block is written into one array
    allocated for all the shifts, so building the table takes little more
    memory than the table itself."""
    table = None
    kept = []
    for shift, block in zip(shifts, blocks):
        if table is None:
            table = np.empty((len(shifts),) + block.shape, dtype=block.dtype)
        if not kept or np.any(block):
            table[len(kept)] = block
            kept.append(shift)
    if len(kept) < len(shifts):
        table = table[:len(kept)].copy()
    return np.array(kept, dtype=np.intp), table


def periodize_kernel(shifts, blocks, grid, tilt) -> np.ndarray:
    """Lattice-sum a kernel's image table (image_table) onto the
    cell, tilted: a tilt vector t (rho e for a decay rate rho along the
    unit direction e, real or complex) weights each image by
    exp(-(x_j + k - x_i).t), giving the cell matrix of the tilted
    operator exp(x.t) L exp(-x.t). Since the exponent splits, that matrix
    is D B D^-1 with B = sum_k exp(-k.t) K_k, the Bloch sum of the blocks,
    and D = diag(exp(x.t)) over the nodes of the grid's cell: the blocks
    are read, never re-evaluated, for each tilt. The sums are finite,
    since the kernel vanishes on the images that cannot reach the cell.
    A zero tilt gives the plain lattice sum, which SpatialKernel takes
    directly as the sum of its blocks.
    """
    tilt = np.asarray(tilt)
    weights = np.exp(-(shifts @ tilt))
    flat = blocks.reshape(len(blocks), -1)
    if np.iscomplexobj(weights) and not np.iscomplexobj(flat):
        # two real products instead of a complex copy of the table
        bloch = weights.real @ flat + 1j * (weights.imag @ flat)
    else:
        bloch = weights @ flat
    d = np.exp(grid.cell_nodes @ tilt)
    return d[:, None] * bloch.reshape(blocks.shape[1:]) / d


def _product_table(blocks: np.ndarray) -> np.ndarray:
    """Lay an image table (image_table) out, in place, as the
    CellBlockMatrix products read it: each block is transposed where it
    lies, and the stack is viewed as (images * n, n), so that row s * n + b,
    column a holds blocks[s][a, b] = V(x_a, x_b + shifts[s]). Only one
    block at a time is copied; blocks is consumed."""
    for block in blocks:
        block[...] = block.T
    return blocks.reshape(-1, blocks.shape[-1])


class SpatialKernel:
    """A time-integrated kernel V sampled on a grid.

    The cell's lattice-image table of V is tabulated once, by image_table,
    when the kernel is integrated. The periodized cell matrix (plain
    values, not yet weighted by quadrature) is the sum of its blocks,
    taken first. Without axes the table is then laid out once, in place,
    for the products (_product_table), and kept as `table` beside
    `shifts`: the ball truncations and the window matrix (matrix) are
    CellBlockMatrix objects that read this one table and copy none of it.
    A 2-D box kernel's matrices are AxisBoxMatrix objects that read the
    kernel's `axes` (box_axes) instead, so no table is made for it: its
    cell matrix is summed image by image from the factors (`table` and
    `shifts` are None). Also keeps the kernel's reach and the symmetry
    weight s / (b mu) on the cell (gamma_cell).
    """

    def __init__(self, grid, cell_matrix: np.ndarray, reach: Reach,
                 gamma_cell: np.ndarray, shifts=None, table=None, axes=None):
        self.grid = grid
        self.cell_matrix = cell_matrix
        self.shifts, self.table = shifts, table
        self.reach = reach
        self.gamma_cell = gamma_cell
        self.axes = axes

    def matrix(self, nodes: np.ndarray, scale: float = 1.0):
        """scale times the whole-line kernel values V(x_i, x_j) between the
        given window nodes, in ascending order: axis by axis when the
        kernel has axes, else in cell-block form over the image table."""
        if self.axes is not None:
            return AxisBoxMatrix(self.grid, nodes, self.axes, scale)
        return CellBlockMatrix(self.grid, nodes, self.shifts, self.table, scale)

    def window_matrix(self):
        """V(x_i, x_j) between all window nodes, as window_pair_matrix
        builds it."""
        return self.matrix(np.arange(self.grid.n_window))


class CellBlockMatrix:
    """A kernel matrix between window nodes, applied cell by cell.

    The kernel is periodic under joint integer shifts, V(x + k, y + k) =
    V(x, y), so the entry between the window nodes x_a + C and x_b + C'
    (x_a, x_b cell nodes, C, C' integer cell offsets) is
    V(x_a, x_b + C' - C) with C' - C = shifts[s]: the matrix is
    block-Toeplitz over cells, and its blocks are the cell's lattice-image
    blocks (image_table). Nothing is approximated; the blocks hold the
    same kernel values, evaluated at cell coordinates instead of window
    coordinates, so they differ only by rounding. That holds only
    for a jointly periodic kernel: for one that is not (say a source
    factor 1 + x) the matrix is that of its periodization, the kernel's
    values on the cell repeated over the window. Scenario documents
    refuse heterogeneities without period 1 on every axis for this reason
    (app/scenario.py).

    This is the form of every 1-D kernel matrix and of the line matrix L
    of the 2-D kernels, whose own matrices go axis by axis
    (AxisBoxMatrix).

    The blocks come as `table`, laid out by _product_table (row s * n + b,
    column a holds V(x_a, x_b + shifts[s])). The matrix keeps a reference
    to it, not a copy: every ball truncation of a kernel reads the same
    array, and the entries are scale times the table's values, the scale
    applied to each product's output.

    The matrix acts on the window nodes given (all of them for the window
    matrix, a ball for a Dirichlet truncation), held as slots (cell,
    local): the row of the cell among the cells the nodes touch, and the
    node's index among the cell nodes. A product scatters x into a
    zero-padded (cells + 1) x n_cell array (one per column of x), gathers
    for every cell the rows of its neighbours at the lattice shifts (the
    padding row stands in for cells outside the nodes), and multiplies by
    the table in one dense product. Window nodes that are not among the
    given ones stay zero in the padded array, which is the Dirichlet
    truncation; cells beyond the window are the padding row, as the
    window itself truncates the whole-line kernel.

    The padded array and the gather buffer are kept between products with
    the same number of columns, so only the dense product's output is
    allocated, and not even that when product() is given an out array.
    Whether the slots run 0, 1, ..., N - 1 (each touched cell full, its
    nodes in order, as for a 1-D window or a 1-D ball of whole cells) is
    recorded once here: then the scatter and the output gather are
    reshapes, not fancy indexing, and the product is the same bit for bit.
    """

    def __init__(self, grid, nodes: np.ndarray, shifts: np.ndarray,
                 table: np.ndarray, scale: float = 1.0):
        p = grid.cell_points
        side = 2 * grid.window_radius  # cells per window axis
        dims = (side,) * grid.dim
        if grid.dim == 1:
            axes = (nodes,)
        else:
            axes = divmod(nodes, side * p)
        cell_key = np.ravel_multi_index([a // p for a in axes], dims)
        self.local = grid.window_cell_map[nodes]
        used, cell = np.unique(cell_key, return_inverse=True)
        cells, n = len(used), table.shape[1]

        row_of = np.full(side**grid.dim, cells)
        row_of[used] = np.arange(cells)
        target = np.stack(np.unravel_index(used, dims), axis=-1)[:, None, :] + shifts
        inside = np.all((target >= 0) & (target < side), axis=-1)
        key = np.ravel_multi_index(tuple(np.moveaxis(target, -1, 0)), dims,
                                   mode="clip")
        self._neighbours = np.where(inside, row_of[key], cells)
        self._slots = cell.ravel() * n + self.local
        self._in_order = (len(nodes) == cells * n and np.array_equal(
            self._slots, np.arange(len(nodes))))
        self._work = None  # (k, buffers) of the last product; see _buffers
        self.table = table
        self.scale = scale
        self.shape = (len(nodes), len(nodes))

    def _buffers(self, k: int):
        """The zero-padded scatter array, the gather buffer and, unless the
        slots are in order, the flat slots of each column in the two, for
        products of k columns; kept until a product with another k."""
        if self._work is None or self._work[0] != k:
            (cells, shifts), n = self._neighbours.shape, self.table.shape[1]
            into = outof = None
            if not self._in_order:
                column = np.arange(k)[:, None] * n
                into = (column * (cells + 1) + self._slots).ravel()
                outof = (column * cells + self._slots).ravel()
            self._work = (k, np.zeros((k, cells + 1, n)),
                          np.empty((k, cells, shifts, n)), into, outof)
        return self._work[1:]

    def __matmul__(self, x):
        """A @ x for a vector x or an (nodes, k) array of k columns."""
        x = np.asarray(x)
        k = x.size // len(self._slots)
        return self.product(x.T.reshape(k, -1)).reshape(x.shape[::-1]).T

    def product(self, rows, out=None) -> np.ndarray:
        """A applied to each of the k rows of rows, a (k, nodes) array,
        into out (a C-contiguous (k, nodes) float array) or a new array;
        returns it. With the slots in order rows may also be (k, cells,
        n_cell), each row by cells in any memory layout: the scatter reads
        it as it lies."""
        k = rows.shape[0]
        padded, gathered, into, outof = self._buffers(k)
        cells, n = gathered.shape[1], gathered.shape[3]
        if self._in_order:
            padded[:, :cells] = rows.reshape(k, cells, n)
        else:
            # flat indices: a 2-D fancy index made small ball products 30% slower
            padded.ravel()[into] = rows.ravel()
        # mode="clip": every index is valid, and "raise" buffers the output
        np.take(padded, self._neighbours, axis=1, out=gathered, mode="clip")
        flat = gathered.reshape(k * cells, -1)
        if out is None:
            out = np.empty((k, len(self._slots)))
        if self._in_order:
            np.matmul(flat, self.table, out=out.reshape(k * cells, n))
        else:
            np.take((flat @ self.table).ravel(), outof, out=out.reshape(-1),
                    mode="clip")
        out *= self.scale
        return out

    def sum(self, axis) -> np.ndarray:
        """Row sums (axis=1), the only sums a kernel matrix is taken over here."""
        if axis != 1:
            raise ValueError(f"only row sums (axis=1) are kept, got axis={axis}")
        return self @ np.ones(self.shape[1])

    @functools.cached_property
    def nnz(self) -> int:
        """Nonzero kernel values between the nodes, as a sparse matrix stores them."""
        occupied = np.zeros((len(self._neighbours) + 1, self.table.shape[1]))
        occupied.ravel()[self._slots] = 1.0
        cells = occupied.shape[0] - 1
        per_row = occupied[self._neighbours].reshape(cells, -1) @ (self.table != 0)
        return int(per_row.ravel()[self._slots].sum())

    def toarray(self) -> np.ndarray:
        """The matrix in dense form (for checks and tests)."""
        (cells, shifts), n = self._neighbours.shape, self.table.shape[1]
        image = np.full((cells + 1, cells + 1), -1)
        image[np.arange(cells)[:, None], self._neighbours] = np.arange(shifts)
        row, local = np.divmod(self._slots, n)
        s = image[row[:, None], row[None, :]]
        values = self.table[np.maximum(s, 0) * n + local[None, :], local[:, None]]
        return np.where(s >= 0, values * self.scale, 0.0)


@dataclass
class BoxAxes:
    """A 2-D kernel b(x) K0(x - y) r(y) as factors on one line.

    table is the lattice-image table (laid out by _product_table) of the
    unit box of half-width half_width on line_grid, the 1-D grid of the
    2-D grid's axis, with the same half value at the edge as box_profile:
    K0(x - y) = height w(x1 - y1) w(x2 - y2) for that unit box w. left is
    height b and right is r, each on the 2-D cell nodes.
    """

    line_grid: PeriodicGrid
    shifts: np.ndarray
    table: np.ndarray
    left: np.ndarray
    right: np.ndarray


def box_axes(kernel, grid, decay: bool) -> BoxAxes | None:
    """The one place that decides whether a kernel's matrices go axis by
    axis: for a 2-D grid, the factors of K (r = s) or, with decay, of V =
    K / mu (r = s / mu); None for a 1-D grid, whose matrices are
    CellBlockMatrix objects."""
    if grid.dim != 2:
        return None
    line_grid = PeriodicGrid(1, grid.cell_points, grid.window_radius)
    line, half = line_grid.cell_nodes[:, 0], kernel.half_width
    shifts = _reachable_shifts(line_grid, kernel.reach)
    shifts, blocks = _stacked(shifts, (_unit_box(line, half, k)
                                       for (k,) in shifts))
    X = grid.cell_nodes
    right = np.asarray(kernel.source(X), dtype=float)
    if decay:
        right = right / np.asarray(kernel.decay(X), dtype=float)
    return BoxAxes(line_grid, shifts, _product_table(blocks),
                   kernel.height * np.asarray(kernel.target(X), dtype=float),
                   right)


def _factor_blocks(kernel, grid, shifts, decay: bool):
    """The image blocks of a kernel, one per shift, from its factors: the
    unit box on each axis (_unit_box, a Kronecker product over the axes),
    times the height, times b at the cell nodes, times s at the image
    nodes x_j + k, and with decay divided by mu there. These are the
    products, in the order, of the kernel's pair values b(x) K0(x - y)
    s(y) (box_profile, then b, then s; sir_to_kernel's seed reads them so);
    no array of node pairs is formed."""
    X = grid.cell_nodes
    line = X[:grid.cell_points, -1]  # the cell's coordinates on every axis
    height = kernel.height
    left = np.asarray(kernel.target(X), dtype=float)[:, None]
    for shift in shifts:
        block = functools.reduce(np.kron, [_unit_box(line, kernel.half_width, k)
                                           for k in shift])
        Y = X + np.asarray(shift, dtype=float)
        block *= height  # in place, one block at a time: the same products
        block *= left
        block *= np.asarray(kernel.source(Y), dtype=float)
        if decay:
            block /= np.asarray(kernel.decay(Y), dtype=float)
        yield block


def image_table(kernel, grid, decay: bool):
    """The lattice-image table (shifts, blocks) of a SeparableKernel's K
    or, with decay, of V = K / mu, made from its factors (_factor_blocks):
    blocks[s][i, j] = V(x_i, x_j + shifts[s]).

    Images are visited shell by shell, max_a |k_a| = 0, 1, 2, ..., out to
    one cell beyond the reach, and a block is made for each image that can
    reach the cell (Reach.image_test). A kernel periodic under joint
    integer shifts has V(x_i + k, x_j + k') = blocks[s][i, j] with
    shifts[s] = k' - k, so every matrix of the kernel between window nodes
    is block-Toeplitz over cells with these blocks. Images whose block is
    all zeros are dropped; the zero shift is always kept (_stacked).
    """
    shifts = _reachable_shifts(grid, kernel.reach)
    return _stacked(shifts, _factor_blocks(kernel, grid, shifts, decay))


class AxisBoxMatrix:
    """A 2-D box-kernel matrix between window nodes, applied one axis at a
    time.

    For the factors of a BoxAxes the matrix is diag(left) (L ⊗ L)
    diag(right) over the window nodes given, with left = scale * height *
    gamma1 and right the cell factor r, both read at each node's cell
    image, and L the 1-D CellBlockMatrix of the unit box on one line of
    the square that bounds the nodes, widened to whole cells (all of the
    window for the window matrix, the cells of [-R, R]**2 for a ball of
    radius R). Its entries are the CellBlockMatrix's for the same nodes
    up to rounding, and zero between nodes farther apart than the box
    reaches on either axis (Van Loan, "The ubiquitous Kronecker product",
    J. Comput. Appl. Math. 123 (2000)).

    A product scatters right * x into the zero-padded square, applies L
    to every line along the second axis, turns each square over, applies
    L to every line along the first axis, and reads left times the result
    at the nodes: two multi-column products of L, each of as many columns
    as the square has lines. Nodes of the square that are not among the
    given ones stay zero, which is the Dirichlet truncation. One column
    of a product takes O(side**2 images) flops and gathers side**2 x
    images values, images being the unit box's lattice images on the line
    (2 ceil(half_width) + 1 at most): no 2-D gather, and no dense line
    matrix, whose products would cost side**3.
    """

    def __init__(self, grid, nodes: np.ndarray, axes: BoxAxes,
                 scale: float = 1.0):
        p = grid.cell_points
        rows, cols = divmod(nodes, 2 * grid.window_radius * p)
        first = min(rows.min(), cols.min()) // p * p
        side = (max(rows.max(), cols.max()) // p + 1) * p - first
        rows, cols = rows - first, cols - first
        self.local = grid.window_cell_map[nodes]
        self.left = scale * axes.left[self.local]
        self.right = axes.right[self.local]
        self._line_of = functools.partial(
            CellBlockMatrix, axes.line_grid, np.arange(first, first + side),
            axes.shifts)  # the line matrix of a given table
        self.line = self._line_of(axes.table)
        self._side = side
        at = rows * side + cols  # each node in the square
        if np.any(np.diff(at) <= 0):
            raise ValueError("the nodes of a kernel matrix must ascend")
        self._mask = np.zeros(side * side, dtype=bool)
        self._mask[at] = True
        self._turned_at = cols * side + rows  # each node in the turned square
        self._work = None  # (k, buffers) of the last product; see _buffers
        self.shape = (len(nodes), len(nodes))

    def _buffers(self, k: int):
        """The zero-padded square, the turned square and the nodes' mask of
        the k squares, flat, for products of k columns; kept until a
        product with another k."""
        if self._work is None or self._work[0] != k:
            area = self._side**2
            self._work = (k, np.zeros((k, area)),
                          np.empty((k * self._side, self._side)),
                          np.tile(self._mask, k))
        return self._work[1:]

    def _apply(self, line, left, right, x):
        """diag(left) (line ⊗ line) diag(right) x, for the nodes' slots."""
        x = np.asarray(x)
        k = x.size // self.shape[1]
        side = self._side
        square, turned, mask = self._buffers(k)
        # the nodes ascend, as the square's slots do; a flat mask of runs
        # scatters faster than integer slots or square[:, mask]
        square.reshape(-1)[mask] = (x.T * right).reshape(-1)
        # line products take their columns as the rows of a C-order array:
        # first the lines along the second axis, then, turned, the first
        along = (line @ square.reshape(k * side, side).T).T
        turned.reshape(k, side, side)[...] = (
            along.reshape(k, side, side).transpose(0, 2, 1))
        across = (line @ turned.T).T.reshape(k, side * side)
        out = np.take(across, self._turned_at, axis=1)
        out *= left
        return out.reshape(x.shape[::-1]).T

    def __matmul__(self, x):
        """A @ x for a vector x or an (nodes, k) array of k columns."""
        return self._apply(self.line, self.left, self.right, x)

    def sum(self, axis) -> np.ndarray:
        """Row sums (axis=1), the only sums a kernel matrix is taken over here."""
        if axis != 1:
            raise ValueError(f"only row sums (axis=1) are kept, got axis={axis}")
        return self @ np.ones(self.shape[1])

    @functools.cached_property
    def nnz(self) -> int:
        """Nonzero kernel values between the nodes, as a sparse matrix stores
        them: the same product with every factor replaced by its indicator
        of nonzero values, whose row sums count them exactly."""
        indicator = self._line_of((self.line.table != 0) * 1.0)
        counts = self._apply(indicator, (self.left != 0) * 1.0,
                             (self.right != 0) * 1.0, np.ones(self.shape[1]))
        return int(counts.sum())

    def toarray(self) -> np.ndarray:
        """The matrix in dense form (for checks and tests)."""
        dense = self.line.toarray()
        rows, cols = np.divmod(np.flatnonzero(self._mask), self._side)
        return (self.left[:, None] * dense[rows[:, None], rows]
                * dense[cols[:, None], cols] * self.right)


def _check_dimension(kernel, grid):
    """Refuse a kernel whose box has another dimension than the grid: its
    height, mass / (2 half_width)**dim, would be that of another box."""
    if kernel.dim != grid.dim:
        raise ValidationError(
            f"kernel dimension {kernel.dim} does not match grid dimension {grid.dim}"
        )


def window_pair_matrix(grid, kernel):
    """Whole-line kernel values K(x_i, x_j) of a SeparableKernel between
    all window nodes.

    A 2-D kernel gives an AxisBoxMatrix (box_axes), applied one axis at a
    time. A 1-D kernel is returned in cell-block form: by joint
    periodicity of the kernel (which the block form assumes, see
    CellBlockMatrix) every entry is an entry of one of the cell's
    lattice-image blocks, tabulated by image_table instead of on every
    window pair, and a product is one dense matrix product. The table is
    laid out in place (_product_table) and the matrix is its only holder.
    Pairs whose nodes lie in cells farther apart than the kernel reaches
    are zero, and nodes near the window edge see no pairs beyond it.
    """
    _check_dimension(kernel, grid)
    nodes = np.arange(grid.n_window)
    axes = box_axes(kernel, grid, decay=False)
    if axes is not None:
        return AxisBoxMatrix(grid, nodes, axes)
    shifts, blocks = image_table(kernel, grid, decay=False)
    return CellBlockMatrix(grid, nodes, shifts, _product_table(blocks))


def time_integrate_kernel(time_kernel, grid) -> SpatialKernel:
    """Integrate a time kernel over tau and tabulate it on the grid: the
    image table of V = K / mu is tabulated once (image_table), and every
    matrix of the returned SpatialKernel is read from that table. A 2-D
    kernel's matrices read its axes (box_axes) instead, so no table is
    made: its cell matrix is summed from the factors' blocks image by
    image, in table order, with the same sum as the table's.

    The factorization is pushed through the time integral: V = b(x) K0(x
    - y) (s / mu)(y), so the operators are self-adjoint in the weight
    s / (b mu), which b and s must keep positive on the cell.
    """
    _check_dimension(time_kernel, grid)
    axes = box_axes(time_kernel, grid, decay=True)
    shifts = table = None
    if axes is None:
        shifts, blocks = image_table(time_kernel, grid, decay=True)
        cell_matrix = blocks.sum(axis=0)
        table = _product_table(blocks)
    else:
        blocks = _factor_blocks(time_kernel, grid,
                                _reachable_shifts(grid, time_kernel.reach),
                                decay=True)
        cell_matrix = next(blocks)
        for block in blocks:
            cell_matrix += block
    X = grid.cell_nodes
    g1 = np.asarray(time_kernel.target(X), dtype=float)
    g2 = np.asarray(time_kernel.source(X), dtype=float)
    g2 = g2 / np.asarray(time_kernel.decay(X), dtype=float)
    if np.min(g1) <= 0 or np.min(g2) <= 0:
        raise ValidationError("target and source factors must be positive "
                              "on the cell")
    return SpatialKernel(grid, cell_matrix, time_kernel.reach, g2 / g1,
                         shifts, table, axes)


def separable_contact_kernel(mass: float, support_radius: float, dim: int = 1,
                             source_factor=None, target_factor=None, decay=None
                             ) -> SeparableKernel:
    """The contact kernel K(x, y) = b(x) K0(x - y) s(y) with decay mu(y),
    under the names a scenario document gives it: K0 is the uniform box
    of the given mass and per-axis reach support_radius, b (target_factor)
    modulates susceptibility at the receiving point and s (source_factor)
    infectivity at the emitting point; all three heterogeneities default
    to one (SeparableKernel).
    """
    return SeparableKernel(mass, support_radius, dim, target=target_factor,
                           source=source_factor, decay=decay)
