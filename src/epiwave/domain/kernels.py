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

A kernel is tabulated once, by box_axes, as line factors (BoxAxes): a
table of the kernel's values between the cell's line and each lattice
image of it that the box reaches, made from the kernel's factors with no
array of node pairs. In 1-D the table is the kernel's own image table (the
unit box, its height, b on the cell nodes and s, and 1 / mu for V, on
their images); a 2-D box is the unit box's table on one axis, between
two diagonals. Every matrix of V or K reads the factors in one form: a
window or ball matrix (AxisBoxMatrix) is diag(left) (L ⊗ ... ⊗ L)
diag(right) over the nodes, applied one axis at a time, with L
block-Toeplitz over a run of whole 1-D cells (CellBlockMatrix), and the
cell matrix, plain or tilted (periodize_kernel), is the Kronecker product
of the line table's Bloch sums between the same diagonals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError

_EDGE_EPS = 1e-9
# Lattice images whose nearest approach to the cell lies within this beyond
# the reach are still summed: the box kernel keeps its half value up to
# _EDGE_EPS past its reach on each axis.
_REACH_SLACK = 1e-6


@dataclass(frozen=True)
class Reach:
    """How far a box kernel reaches along any one axis: K(x, y) vanishes
    once |x_a - y_a| exceeds radius, the box's half-width, on any axis a.
    The line tables take it as one value, so each lattice sum
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
    not given. These six values are the whole kernel: its line factors
    (box_axes), which every matrix and lattice sum reads, are made from
    them, the exponential in tau admits the closed-form time integral
    V(x, y) = K(x, y) / mu(y) and O(1)-memory time marching, and the
    symmetric K0 makes every operator self-adjoint in the weight
    s / (b mu) (time_integrate_kernel).

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


def _reachable_shifts(line, reach: Reach):
    """The lattice shifts k whose image can reach the cell on one axis,
    shell by shell, |k| = 0, 1, 2, ..., out to one cell beyond the reach:
    0, -1, 1, -2, 2, ... The nearest approach of the image line + k to
    the cell's coordinates line is |k| - span, span being their extent;
    images whose approach exceeds the reach by more than _REACH_SLACK
    fail, since the kernel vanishes on them."""
    span = line.max() - line.min()
    radius = reach.radius + _REACH_SLACK
    return [k for m in range(reach.shells + 1)
            for k in sorted({-m, m}) if m - span <= radius]


def _line_table(shifts, blocks):
    """(shifts, table) of a line table from one block per shift, in order:
    images whose block is all zeros are dropped, and the first shift (the
    zero shift) is always kept. The table is laid out as CellBlockMatrix
    products read it: (images * n, n), with row s * n + b, column a
    holding blocks[s][a, b]. Each block is written, transposed, into one
    array allocated for all the shifts, so building the table takes
    little more memory than the table itself."""
    table = None
    kept = []
    for shift, block in zip(shifts, blocks):
        if table is None:
            table = np.empty((len(shifts),) + block.shape)
        if not kept or np.any(block):
            table[len(kept)] = block.T
            kept.append(shift)
    if len(kept) < len(shifts):
        table = table[:len(kept)].copy()
    return np.array(kept, dtype=np.intp), table.reshape(-1, table.shape[-1])


def _kron(a, b) -> np.ndarray:
    """The Kronecker product of two square matrices, in C order: row i *
    len(b) + k, column j * len(b) + l holds a[i, j] b[k, l]."""
    return np.multiply(a[:, None, :, None],
                       b[None, :, None, :]).reshape(len(a) * len(b), -1)


def periodize_kernel(axes, grid, tilt) -> np.ndarray:
    """Lattice-sum a kernel's line factors (box_axes) onto the cell,
    tilted: a tilt vector t (rho e for a decay rate rho along the unit
    direction e, real or complex) weights each image by exp(-(x_j + k -
    x_i).t), giving the cell matrix of the tilted operator exp(x.t) L
    exp(-x.t). The exponent splits over the axes, and so does the box: on
    each axis a the line sum is D_a B_a D_a^-1, with B_a = sum_k exp(-k
    t_a) L_k the Bloch sum of the line table's blocks L_k and D_a =
    diag(exp(x t_a)) over the cell's line, and the cell matrix is the
    Kronecker product of the axes' sums, between diag(left) and
    diag(right) when the kernel has them (a 2-D box). The table is read,
    never re-evaluated, for each tilt. The sums are finite, since the
    kernel vanishes on the images that cannot reach the cell. A zero tilt
    gives the plain lattice sum, the cell matrix of time_integrate_kernel.
    """
    n = grid.cell_points
    line = grid.cell_nodes[:n, -1]  # the cell's coordinates on every axis
    tilt = np.asarray(tilt)
    weights = np.exp(-np.multiply.outer(tilt, axes.shifts))
    flat = axes.table.reshape(len(axes.shifts), n * n)
    if np.iscomplexobj(weights):
        # two real products instead of a complex copy of the table
        sums = weights.real @ flat + 1j * (weights.imag @ flat)
    else:
        sums = weights @ flat
    d = np.exp(np.multiply.outer(tilt, line))
    # the blocks lie transposed in the table, and so do their sums
    factors = np.multiply(d[:, :, None],
                          sums.reshape(-1, n, n).transpose(0, 2, 1),
                          out=np.empty((len(tilt), n, n), dtype=sums.dtype))
    factors /= d[:, None, :]
    matrix = functools.reduce(_kron, factors)
    if axes.left is not None:
        matrix *= axes.left[:, None]
        matrix *= axes.right
    return matrix


def tilt_limit(axes, grid, e, gain: float) -> float:
    """The largest decay rate rho at which periodize_kernel(axes, grid,
    rho e), e a unit direction, and that sum times gain are finite, read
    from the factors. Each axis's weights, Bloch sum and scaled rows are at
    most exp(rho s_a) times the plain line sum's largest entry, s_a = max
    |k| |e_a| plus the extent of x e_a and 0 on the cell's line; the
    Kronecker product of the axes' sums is at most exp(rho r |e|_1) times
    that entry**dim, r = max |x_j + k - x_i| where the table is nonzero,
    before left and right scale it. In 1-D, where r <= s_a, the first binds.
    """
    n = grid.cell_points
    line = grid.cell_nodes[:n, -1]  # the cell's coordinates on every axis
    blocks = axes.table.reshape(len(axes.shifts), n, n)
    reach = 0.0
    for k, block in zip(axes.shifts, blocks):  # block[j, i] is L_k[i, j]
        offset = np.abs(line[:, None] + float(k) - line)
        reach = max(reach, float(offset[block != 0].max(initial=0.0)))
    line_sum = float(blocks.sum(axis=0).max())
    diagonals = [max(1.0, float(v.max())) for v in (axes.left, axes.right)
                 if v is not None]
    per_axis = max(np.abs(axes.shifts).max() * abs(e_a) + max(x.max(), 0.0)
                   + max(-x.min(), 0.0)
                   for e_a, x in zip(e, np.multiply.outer(e, line)))
    limits = [(line_sum, per_axis),
              (line_sum ** grid.dim * float(np.prod(diagonals)),
               reach * float(np.abs(e).sum()))]
    log_max = np.log(np.finfo(float).max)
    return min(max(log_max - np.log(max(1.0, top * max(1.0, gain))), 0.0)
               / span for top, span in limits if span > 0)


class SpatialKernel:
    """A time-integrated kernel V sampled on a grid.

    Keeps the periodized cell matrix (plain values, not yet weighted by
    quadrature), the kernel's reach, the symmetry weight s / (b mu) on the
    cell (gamma_cell) and the line factors of V (box_axes), made once when
    the kernel is integrated: the window matrix and every ball truncation
    (matrix) read these factors and copy none of them.
    """

    def __init__(self, grid, cell_matrix: np.ndarray, reach: Reach,
                 gamma_cell: np.ndarray, axes):
        self.grid = grid
        self.cell_matrix = cell_matrix
        self.reach = reach
        self.gamma_cell = gamma_cell
        self.axes = axes

    def matrix(self, nodes: np.ndarray, scale: float = 1.0):
        """scale times the whole-line kernel values V(x_i, x_j) between the
        given window nodes, in ascending order."""
        return AxisBoxMatrix(self.grid, nodes, self.axes, scale)

    def window_matrix(self):
        """V(x_i, x_j) between all window nodes, as window_pair_matrix
        builds it."""
        return self.matrix(np.arange(self.grid.n_window))


class CellBlockMatrix:
    """The line matrix L of a line table over a run of whole cells.

    The table holds a kernel's values between the cell's line and its
    lattice images (box_axes), laid out by _line_table: row s * n + b,
    column a holds V(x_a, x_b + shifts[s]). The kernel is periodic
    under joint integer shifts, V(x + k, y + k) = V(x, y), so the entry of
    L between the nodes x_a + C and x_b + C' of the cells C and C' of the
    run is V(x_a, x_b + C' - C), the table's value at shifts[s] = C' - C:
    L is block-Toeplitz over cells, and zero between cells that no image
    joins. Nothing is approximated; the blocks hold the same kernel
    values, evaluated at cell coordinates instead of window coordinates,
    so they differ only by rounding. That holds only for a jointly
    periodic kernel: for one that is not (say a source factor 1 + x) the
    matrix is that of its periodization, the kernel's values on the cell
    repeated over the window. Scenario documents refuse heterogeneities
    without period 1 on every axis for this reason (app/scenario.py).

    The matrix keeps a reference to the table, not a copy. A product
    copies each row, by cells, into a zero-padded (cells + 1) x n array,
    gathers for every cell the rows of its neighbours at the shifts (the
    padding row stands in for cells beyond the run, as the window
    truncates the whole-line kernel), and multiplies by the table in one
    dense product. The padded array and the gather buffer are kept between
    products of the same number of rows, so only the output is allocated,
    and not even that when product() is given an out array.
    """

    def __init__(self, cells: int, shifts: np.ndarray, table: np.ndarray):
        target = np.arange(cells)[:, None] + shifts.reshape(-1)
        self._neighbours = np.where((target >= 0) & (target < cells), target,
                                    cells)
        self._work = None  # (k, buffers) of the last product; see _buffers
        self.table = table
        self.shape = (cells * table.shape[1],) * 2

    def _buffers(self, k: int):
        """The zero-padded array and the gather buffer for products of k
        rows; kept until a product of another k."""
        if self._work is None or self._work[0] != k:
            (cells, images), n = self._neighbours.shape, self.table.shape[1]
            self._work = (k, np.zeros((k, cells + 1, n)),
                          np.empty((k, cells, images, n)))
        return self._work[1:]

    def product(self, rows, out=None) -> np.ndarray:
        """L applied to each of the k rows of rows, a (k, cells * n) array
        or (k, cells, n) by cells in any memory layout, read as it lies;
        into out (a C-contiguous (k, cells * n) float array) or a new
        array; returns it."""
        k = rows.shape[0]
        padded, gathered = self._buffers(k)
        cells, n = gathered.shape[1], gathered.shape[3]
        padded[:, :cells] = rows.reshape(k, cells, n)
        # mode="clip": every index is valid, and "raise" buffers the output
        np.take(padded, self._neighbours, axis=1, out=gathered, mode="clip")
        if out is None:
            out = np.empty((k, cells * n))
        np.matmul(gathered.reshape(k * cells, -1), self.table,
                  out=out.reshape(k * cells, n))
        return out


@dataclass
class BoxAxes:
    """A kernel's one tabulation: its matrices and lattice sums as factors
    on one line (AxisBoxMatrix, periodize_kernel).

    shifts and table are a line table, laid out by _line_table. A 1-D
    kernel's is its own image table, table[s * n + j, i] = V(x_i, x_j +
    shifts[s]), and left and right are None. A 2-D kernel b(x) K0(x - y)
    r(y) is height b(x) w(x1 - y1) w(x2 - y2) r(y), w the unit box of its
    half-width with the same half value at the edge as box_profile: table
    is w's on the cell's line, left is height b and right is r, each on
    the 2-D cell nodes.
    """

    shifts: np.ndarray
    table: np.ndarray
    left: np.ndarray | None = None
    right: np.ndarray | None = None


def _line_blocks(kernel, line, shifts, decay: bool, target):
    """The blocks of a line table, one per shift: the unit box between the
    cell's line and its image shifted by k (_unit_box) and, given the
    target b on the cell nodes of a 1-D kernel, times the height, times b,
    times s at the image nodes x_j + k, and with decay divided by mu
    there. These are the products, in the order, of the kernel's pair
    values b(x) K0(x - y) s(y) (box_profile, then b, then s;
    sir_to_kernel's seed reads them so); no array of node pairs is
    formed."""
    for k in shifts:
        block = _unit_box(line[:, 0], kernel.half_width, k)
        if target is not None:
            Y = line + float(k)
            block *= kernel.height  # in place, one block at a time
            block *= target[:, None]
            block *= np.asarray(kernel.source(Y), dtype=float)
            if decay:
                block /= np.asarray(kernel.decay(Y), dtype=float)
        yield block


def box_axes(kernel, grid, decay: bool) -> BoxAxes:
    """The line factors of a SeparableKernel, the one place that tabulates
    a kernel: of K (r = s) or, with decay, of V = K / mu (r = s / mu).

    The images of the cell's line are visited shell by shell, |k| = 0, 1,
    2, ..., out to one cell beyond the reach, and a block is made for each
    image that can reach the line (_reachable_shifts). A kernel periodic
    under joint integer shifts has V(x_i + k, x_j + k') = V(x_i, x_j + k'
    - k), so every matrix of the kernel between window nodes is, on each
    axis, block-Toeplitz over cells with these blocks. Images whose block
    is all zeros are dropped; the zero shift is always kept (_line_table).
    """
    X = grid.cell_nodes
    line = X[:grid.cell_points, -1:]  # the cell's coordinates on every axis
    target = np.asarray(kernel.target(X), dtype=float)
    left = right = None
    if grid.dim == 2:
        left, target = kernel.height * target, None
        right = np.asarray(kernel.source(X), dtype=float)
        if decay:
            right = right / np.asarray(kernel.decay(X), dtype=float)
    shifts = _reachable_shifts(line, kernel.reach)
    shifts, table = _line_table(shifts, _line_blocks(
        kernel, line, shifts, decay, target))
    return BoxAxes(shifts, table, left, right)


class AxisBoxMatrix:
    """A kernel matrix between window nodes, applied one axis at a time.

    For the line factors of a kernel (BoxAxes) the matrix is diag(left)
    (L ⊗ ... ⊗ L) diag(right), one L per axis, over the window nodes given
    (all of them for the window matrix, a ball for a Dirichlet
    truncation). L is the CellBlockMatrix of the line table over the whole
    cells of the line that bounds the nodes (on both axes of the square in
    2-D): all of the window for the window matrix, the cells of [-R, R]
    for a ball of radius R. In 1-D left is the scale and there is no
    right, so the entries are scale times the kernel's image-table values.
    In 2-D left = scale * height * b and right = r, both read at each
    node's cell image; the entries are the kernel's pair values up to
    rounding, and zero between nodes farther apart than the box reaches
    on either axis (Van Loan, "The ubiquitous Kronecker product",
    J. Comput. Appl. Math. 123 (2000)).

    A product scatters right * x into the zero-padded square (a line in
    1-D), applies L to every line along the last axis, in 2-D turns each
    square over and applies L to every line along the first axis, and
    reads left times the result at the nodes. Nodes of the square that
    are not among the given ones stay zero, which is the Dirichlet
    truncation. When the nodes fill the square (a window, or a 1-D ball
    of whole cells) nothing is scattered: L reads the rows as they lie,
    and in 1-D writes its product straight into the output. One column of
    a 2-D product takes O(side**2 images) flops and gathers side**2 x
    images values, images being the unit box's lattice images on the line
    (2 ceil(half_width) + 1 at most): no 2-D gather, and no dense line
    matrix, whose products would cost side**3. The working arrays are kept
    between products of the same number of columns.
    """

    def __init__(self, grid, nodes: np.ndarray, axes: BoxAxes,
                 scale: float = 1.0):
        p = grid.cell_points
        coords = (divmod(nodes, 2 * grid.window_radius * p) if grid.dim == 2
                  else (nodes,))
        first = min(c.min() for c in coords) // p * p
        side = (max(c.max() for c in coords) // p + 1) * p - first
        coords = [c - first for c in coords]
        at = coords[0] if grid.dim == 1 else coords[0] * side + coords[1]
        if np.any(np.diff(at) <= 0):
            raise ValueError("the nodes of a kernel matrix must ascend")
        self.local = grid.window_cell_map[nodes]
        self.left, self.right = scale, None
        if axes.right is not None:
            self.left = scale * axes.left[self.local]
            self.right = axes.right[self.local]
        self._line_of = functools.partial(CellBlockMatrix, side // p,
                                          axes.shifts)  # L of a given table
        self.line = self._line_of(axes.table)
        self._dim, self._side = grid.dim, side
        self._mask = None  # None when the nodes fill the square
        if len(nodes) < side**grid.dim:
            self._mask = np.zeros(side**grid.dim, dtype=bool)
            self._mask[at] = True
        # each node in the square as the last line product leaves it,
        # turned over in 2-D; None when that is the nodes' own order
        self._read = (coords[1] * side + coords[0] if grid.dim == 2 else
                      None if self._mask is None else at)
        self._work = None  # (k, buffers) of the last product; see _buffers
        self.shape = (len(nodes), len(nodes))

    def _buffers(self, k: int):
        """The zero-padded squares and the nodes' mask of the k squares,
        flat, unless the nodes fill the square, and in 2-D the turned
        squares, for products of k columns; kept until a product of
        another k."""
        if self._work is None or self._work[0] != k:
            square = mask = turned = None
            if self._mask is not None:
                square = np.zeros((k, self._mask.size))
                mask = np.tile(self._mask, k)
            if self._dim == 2:
                turned = np.empty((k * self._side, self._side))
            self._work = (k, square, mask, turned)
        return self._work[1:]

    def _product(self, line, left, right, rows, out=None):
        """diag(left) (line ⊗ ... ⊗ line) diag(right) applied to each of
        the k rows of rows, a (k, nodes) array, into out or a new array."""
        k, side = rows.shape[0], self._side
        square, mask, turned = self._buffers(k)
        if right is not None:
            rows = rows * right
        if mask is not None:
            # the nodes ascend, as the square's slots do; a flat mask of
            # runs scatters faster than integer slots or square[:, mask]
            square.reshape(-1)[mask] = rows.reshape(-1)
            rows = square
        if turned is not None:
            # line products take their columns as the rows of a C-order
            # array: first the lines along the second axis, then, turned,
            # the first
            along = line.product(rows.reshape(k * side, side))
            turned.reshape(k, side, side)[...] = (
                along.reshape(k, side, side).transpose(0, 2, 1))
            rows = turned
        if self._read is None:
            out = line.product(rows, out=out)
        else:
            across = line.product(rows.reshape(-1, side)).reshape(k, -1)
            out = np.take(across, self._read, axis=1, out=out, mode="clip")
        out *= left
        return out

    def product(self, rows, out=None) -> np.ndarray:
        """A applied to each of the k rows of rows, a (k, nodes) array,
        into out (a C-contiguous (k, nodes) float array) or a new array;
        returns it. When the nodes fill a 1-D line, rows may also be (k,
        cells, n_cell), each row by cells in any memory layout: L reads it
        as it lies."""
        return self._product(self.line, self.left, self.right, rows, out)

    def __matmul__(self, x):
        """A @ x for a vector x or an (nodes, k) array of k columns."""
        x = np.asarray(x)
        k = x.size // self.shape[1]
        return self.product(x.T.reshape(k, -1)).reshape(x.shape[::-1]).T

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
        right = None if self.right is None else (self.right != 0) * 1.0
        counts = self._product(indicator, (np.asarray(self.left) != 0) * 1.0,
                               right, np.ones((1, self.shape[1])))
        return int(counts.sum())

    def toarray(self) -> np.ndarray:
        """The matrix in dense form (for checks and tests)."""
        line = self.line.product(np.eye(self._side)).T  # L, dense
        at = (np.arange(self._side**self._dim) if self._mask is None
              else np.flatnonzero(self._mask))
        dense = np.reshape(self.left, (-1, 1)) * np.ones(len(at))
        for c in (np.divmod(at, self._side) if self._dim == 2 else (at,)):
            dense = dense * line[c[:, None], c]
        return dense if self.right is None else dense * self.right


def _check_dimension(kernel, grid):
    """Refuse a kernel whose box has another dimension than the grid: its
    height, mass / (2 half_width)**dim, would be that of another box."""
    if kernel.dim != grid.dim:
        raise ValidationError(
            f"kernel dimension {kernel.dim} does not match grid dimension {grid.dim}"
        )


def window_pair_matrix(grid, kernel):
    """Whole-line kernel values K(x_i, x_j) of a SeparableKernel between
    all window nodes, as an AxisBoxMatrix of the kernel's line factors
    (box_axes). By joint periodicity of the kernel (which the line matrix
    assumes, see CellBlockMatrix) every entry is read from the cell's
    lattice-image blocks, in 1-D, or from the unit box's on one line, in
    2-D, instead of being evaluated on every window pair; the matrix is
    the only holder of its table. Pairs whose nodes lie in cells farther
    apart than the kernel reaches are zero, and nodes near the window
    edge see no pairs beyond it.
    """
    _check_dimension(kernel, grid)
    return AxisBoxMatrix(grid, np.arange(grid.n_window),
                         box_axes(kernel, grid, decay=False))


def time_integrate_kernel(time_kernel, grid) -> SpatialKernel:
    """Integrate a time kernel over tau and tabulate it on the grid: the
    line factors of V = K / mu are made once (box_axes), every matrix of
    the returned SpatialKernel reads them, and its cell matrix is their
    lattice sum at zero tilt (periodize_kernel).

    The factorization is pushed through the time integral: V = b(x) K0(x
    - y) (s / mu)(y), so the operators are self-adjoint in the weight
    s / (b mu), which b and s must keep positive on the cell.
    """
    _check_dimension(time_kernel, grid)
    axes = box_axes(time_kernel, grid, decay=True)
    cell_matrix = periodize_kernel(axes, grid, np.zeros(grid.dim))
    X = grid.cell_nodes
    g1 = np.asarray(time_kernel.target(X), dtype=float)
    g2 = np.asarray(time_kernel.source(X), dtype=float)
    g2 = g2 / np.asarray(time_kernel.decay(X), dtype=float)
    if np.min(g1) <= 0 or np.min(g2) <= 0:
        raise ValidationError("target and source factors must be positive "
                              "on the cell")
    return SpatialKernel(grid, cell_matrix, time_kernel.reach, g2 / g1, axes)


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
