"""Transmission kernels in time and space.

A time kernel is the nonnegative weight Gamma(tau, x, y) giving the
infectivity toward x of a unit of infection acquired at y a time tau ago.
All kernels here have compact spatial reach (Gamma vanishes for
|x - y| >= support_radius) and are periodic under integer translations of
both spatial arguments.

Integrating out tau, optionally against exp(-s*tau), produces a spatial
kernel

    V_s(x, y) = integral_0^inf Gamma(tau, x, y) * exp(-s*tau) dtau,

the object the spectral and steady-state machinery works with. On the
periodicity cell the whole-line kernel is replaced by its lattice sum
V_per(x, y) = sum_k V(x, y + k), which acts identically on periodic
functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError

_EDGE_EPS = 1e-9
# Lattice images whose nearest approach to the cell lies within this beyond
# the support radius are still summed: the box kernel keeps its half value
# up to _EDGE_EPS past its reach on each axis.
_REACH_SLACK = 1e-6


@dataclass
class SymmetryFactors:
    """Multiplicative splitting K(x, y) = symmetric_fn(x, y) * gamma1(x) * gamma2(y).

    symmetric_fn must be symmetric in (x, y) and the gammas positive; the
    splitting makes the ball operators self-adjoint in a weighted inner
    product and is carried along rather than recovered numerically.
    """

    symmetric_fn: object
    gamma1_fn: object
    gamma2_fn: object


def _pair_shape(X, Y):
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape:
        raise ValidationError(f"pair arrays must share a shape, got {X.shape} vs {Y.shape}")
    return X, Y


def _probe_points(dim: int, per_axis: int = 97) -> np.ndarray:
    axis = (np.arange(per_axis) + 0.5) / per_axis
    if dim == 1:
        return axis[:, None]
    xa, xb = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([xa.ravel(), xb.ravel()])


class SeparableKernel:
    """Gamma(tau, x, y) = exp(-mu(y) * tau) * K(x, y).

    The exponential-in-tau structure admits closed-form time integrals,
    V_s(x, y) = K(x, y) / (s + mu(y)), and O(1)-memory time marching, so
    this is the workhorse variant. mu must be strictly positive (checked
    on a sample lattice at construction) and periodic.
    """

    def __init__(self, spatial_fn, mu_fn, support_radius: float, dim: int = 1,
                 symmetry: SymmetryFactors | None = None):
        if support_radius <= 0:
            raise ValidationError(f"support_radius must be positive, got {support_radius}")
        probe = _probe_points(dim)
        mu_vals = np.asarray(mu_fn(probe), dtype=float)
        if np.min(mu_vals) <= 0:
            raise ValidationError(
                f"decay rate mu must be strictly positive, min sampled value {np.min(mu_vals)}"
            )
        self.spatial_fn = spatial_fn
        self.mu_fn = mu_fn
        self.support_radius = float(support_radius)
        self.dim = int(dim)
        self.symmetry = symmetry

    def evaluate(self, tau, X, Y):
        X, Y = _pair_shape(X, Y)
        tau = np.asarray(tau, dtype=float)
        if np.any(tau < 0):
            raise ValidationError("tau must be nonnegative")
        mu = np.asarray(self.mu_fn(Y), dtype=float)
        return np.exp(-mu * tau) * self.spatial_fn(X, Y)

    def time_integral(self, X, Y, s=0.0):
        X, Y = _pair_shape(X, Y)
        mu = np.asarray(self.mu_fn(Y), dtype=float)
        denom = s + mu
        if np.any(np.real(denom) <= 0):
            raise ValidationError(
                f"time integral diverges: Re(s) + mu reaches {np.min(np.real(denom))}"
            )
        return self.spatial_fn(X, Y) / denom


def exponential_step_weights(mu, dt: float):
    """(E1, I0, I1): exp(-mu dt) and the integrals of exp(-mu tau) and of
    (tau / dt) exp(-mu tau) over [0, dt], exact for arrays of rates mu."""
    mu = np.asarray(mu, dtype=float)
    E1 = np.exp(-mu * dt)
    I0 = -np.expm1(-mu * dt) / mu
    I1 = I0 / (mu * dt) - E1 / mu
    return E1, I0, I1


class IsotropicKernel:
    """Gamma(tau, x, y) = profile(tau, |x - y|), homogeneous and rotation invariant.

    profile must vanish for r >= support_radius and decay in tau fast
    enough that the windowed quadrature out to tau_horizon captures the
    integral; time integrals use composite Gauss-Legendre panels.
    """

    def __init__(self, profile, support_radius: float, dim: int = 1,
                 tau_horizon: float = 40.0, panel_width: float = 0.5, panel_nodes: int = 12):
        if support_radius <= 0:
            raise ValidationError(f"support_radius must be positive, got {support_radius}")
        if tau_horizon <= 0:
            raise ValidationError(f"tau_horizon must be positive, got {tau_horizon}")
        self.profile = profile
        self.support_radius = float(support_radius)
        self.dim = int(dim)
        self.tau_horizon = float(tau_horizon)
        base, weights = np.polynomial.legendre.leggauss(panel_nodes)
        starts = np.arange(0.0, tau_horizon, panel_width)
        half = panel_width / 2.0
        self._tau_nodes = (starts[:, None] + half * (base[None, :] + 1.0)).ravel()
        self._tau_weights = np.tile(half * weights, len(starts))
        self.symmetry = SymmetryFactors(
            symmetric_fn=lambda X, Y: self.time_integral(X, Y, 0.0),
            gamma1_fn=lambda X: np.ones(np.asarray(X).shape[0]),
            gamma2_fn=lambda X: np.ones(np.asarray(X).shape[0]),
        )

    def evaluate(self, tau, X, Y):
        X, Y = _pair_shape(X, Y)
        r = np.linalg.norm(X - Y, axis=-1)
        return self.profile(np.asarray(tau, dtype=float), r)

    def time_integral(self, X, Y, s=0.0):
        X, Y = _pair_shape(X, Y)
        r = np.linalg.norm(X - Y, axis=-1)
        vals = self.profile(self._tau_nodes[:, None], r[None, :])
        weight = self._tau_weights[:, None] * np.exp(-s * self._tau_nodes)[:, None]
        return (weight * vals).sum(axis=0)


class TabulatedKernel:
    """Gamma given by spatial snapshots at increasing tau nodes.

    frames[i] is a callable (X, Y) -> Gamma(tau_nodes[i], x, y); between
    nodes the kernel is linear in tau and it vanishes beyond the last
    node. Time integrals use the trapezoidal rule on the nodes, which is
    exact for the piecewise-linear representation up to the exp weight.
    """

    def __init__(self, tau_nodes, frames, support_radius: float, dim: int = 1):
        tau_nodes = np.asarray(tau_nodes, dtype=float)
        if tau_nodes.ndim != 1 or len(tau_nodes) < 2:
            raise ValidationError("need at least two tau nodes")
        if abs(tau_nodes[0]) > 1e-14:
            raise ValidationError(f"tau nodes must start at 0, got {tau_nodes[0]}")
        if np.any(np.diff(tau_nodes) <= 0):
            raise ValidationError("tau nodes must be strictly increasing")
        if len(frames) != len(tau_nodes):
            raise ValidationError(
                f"got {len(frames)} frames for {len(tau_nodes)} tau nodes"
            )
        if support_radius <= 0:
            raise ValidationError(f"support_radius must be positive, got {support_radius}")
        self.tau_nodes = tau_nodes
        self.frames = list(frames)
        self.support_radius = float(support_radius)
        self.dim = int(dim)
        self.symmetry = None

    def evaluate(self, tau, X, Y):
        X, Y = _pair_shape(X, Y)
        tau = float(tau)
        if tau < 0:
            raise ValidationError("tau must be nonnegative")
        if tau >= self.tau_nodes[-1]:
            return np.zeros(X.shape[0])
        i = int(np.searchsorted(self.tau_nodes, tau, side="right")) - 1
        t0, t1 = self.tau_nodes[i], self.tau_nodes[i + 1]
        w = (tau - t0) / (t1 - t0)
        lo = np.asarray(self.frames[i](X, Y), dtype=float)
        hi = np.asarray(self.frames[i + 1](X, Y), dtype=float)
        return (1.0 - w) * lo + w * hi

    def time_integral(self, X, Y, s=0.0):
        X, Y = _pair_shape(X, Y)
        samples = np.stack([np.asarray(f(X, Y), dtype=float) for f in self.frames])
        weighted = samples * np.exp(-s * self.tau_nodes)[:, None]
        return np.trapezoid(weighted, self.tau_nodes, axis=0)


def box_profile(mass: float, radius: float, dim: int = 1):
    """Uniform contact profile on the axis-aligned box |z_i| <= radius.

    Returns a callable of the displacement kernel K0(x - y) with total
    integral equal to mass. Nodes landing exactly on the jump get the
    half-value convention, so midpoint sums over aligned grids reproduce
    the exact integral instead of carrying an O(spacing) surplus.
    """
    if mass < 0:
        raise ValidationError(f"mass must be nonnegative, got {mass}")
    if radius <= 0:
        raise ValidationError(f"radius must be positive, got {radius}")
    height = mass / (2.0 * radius) ** dim

    def profile(Z):
        Z = np.abs(np.atleast_2d(np.asarray(Z, dtype=float)))
        # inside and on-edge are disjoint, so the sum is 1, 0.5 or 0
        weight = (Z < radius - _EDGE_EPS) + 0.5 * (np.abs(Z - radius) <= _EDGE_EPS)
        product = weight[:, 0]
        for axis in range(1, weight.shape[1]):
            product = product * weight[:, axis]
        return height * product

    return profile


def _cell_pairs(grid):
    """(n, XX, YY): every ordered pair of cell nodes, row-major in (i, j)."""
    X = grid.cell_nodes
    n = X.shape[0]
    return n, np.repeat(X, n, axis=0), np.tile(X, (n, 1))


def _shell_shifts(dim: int, m: int):
    """Lattice vectors k with max_a |k_a| = m."""
    rng = range(-m, m + 1)
    if dim == 1:
        return [(k,) for k in rng if abs(k) == m]
    return [(a, b) for a in rng for b in rng if max(abs(a), abs(b)) == m]


def _reach_test(grid, support_radius: float):
    """Predicate on lattice vectors k: can the image x_j + k reach the cell?

    The nearest approach of x_j + k to any x_i is
    sqrt(sum_a max(|k_a| - span_a, 0)**2), span_a being the extent of the
    cell nodes on axis a; images whose approach exceeds support_radius by
    more than _REACH_SLACK fail, since the kernel vanishes on them.
    """
    X = grid.cell_nodes
    span = (X.max(axis=0) - X.min(axis=0)).tolist()
    return lambda shift: math.hypot(
        *[max(abs(k) - s, 0.0) for k, s in zip(shift, span)]
    ) <= support_radius + _REACH_SLACK


def _image_shells(support_radius: float) -> int:
    """Shells that cover a kernel of the given reach: one cell beyond it."""
    return int(np.ceil(support_radius)) + 1


def lattice_image_blocks(pair_fn, grid, support_radius: float):
    """The cell's whole-line kernel values toward each lattice image it reaches.

    Returns (shifts, blocks): shifts is an integer array (images, dim) and
    blocks[s][i, j] = fn(x_i, x_j + shifts[s]). Images are visited shell by
    shell, max_a |k_a| = 0, 1, 2, ..., out to one cell beyond the reach,
    and the pair function is called once for each image that can reach the
    cell (see _reach_test). A kernel periodic under joint integer shifts
    has V(x_i + k, x_j + k') = blocks[s][i, j] with shifts[s] = k' - k, so
    every matrix of the kernel between window nodes is block-Toeplitz over
    cells with these blocks. Images whose block is all zeros are dropped;
    the zero shift is always kept.
    """
    n, XX, YY = _cell_pairs(grid)
    reaches = _reach_test(grid, support_radius)
    shifts, blocks = [], []
    for m in range(_image_shells(support_radius) + 1):
        for shift in filter(reaches, _shell_shifts(grid.dim, m)):
            vals = np.asarray(pair_fn(XX, YY + np.asarray(shift, dtype=float)))
            if m == 0 or np.any(vals):
                shifts.append(shift)
                blocks.append(vals.reshape(n, n))
    return np.array(shifts, dtype=np.intp), np.stack(blocks)


def periodize_kernel(pair_fn, grid, support_radius: float) -> np.ndarray:
    """Lattice-sum a whole-line pair kernel onto the periodicity cell.

    Returns matrix[i, j] = sum_k fn(x_i, x_j + k) over the lattice vectors
    k: the sum of the lattice-image blocks, in shell order. The sum is
    finite, since the kernel vanishes on the images that cannot reach the
    cell.
    """
    return lattice_image_blocks(pair_fn, grid, support_radius)[1].sum(axis=0)


class SpatialKernel:
    """A time-integrated kernel V_s sampled on a grid.

    Holds the cell's lattice-image table (shifts, blocks), evaluated once
    by lattice_image_blocks when the kernel is integrated: every matrix
    the kernel makes on the grid is read from it. The periodized cell
    matrix (plain values, not yet weighted by quadrature) is the sum of the
    blocks; the ball truncations and the window matrix are CellBlockMatrix
    objects over them. Also keeps the whole-line pair function and, when
    the factorization is known, the symmetry weight gamma2/gamma1 on the
    cell.
    """

    def __init__(self, grid, pair_fn, shifts: np.ndarray, blocks: np.ndarray,
                 support_radius: float, gamma_cell=None):
        self.grid = grid
        self.pair_fn = pair_fn
        self.shifts = shifts
        self.blocks = blocks
        self.cell_matrix = blocks.sum(axis=0)
        self.support_radius = float(support_radius)
        self.gamma_cell = gamma_cell
        self.row_integrals = self.cell_matrix.sum(axis=1) * grid.weight

    def window_matrix(self) -> CellBlockMatrix:
        """Whole-line kernel values V(x_i, x_j) between all window nodes, in
        cell-block form over the image table, as window_pair_matrix builds it."""
        return CellBlockMatrix(self.grid, np.arange(self.grid.n_window),
                               self.shifts, self.blocks)


class CellBlockMatrix:
    """A kernel matrix between window nodes, applied cell by cell.

    The kernel is periodic under joint integer shifts, V(x + k, y + k) =
    V(x, y), so the entry between the window nodes x_a + C and x_b + C'
    (x_a, x_b cell nodes, C, C' integer cell offsets) is
    V(x_a, x_b + C' - C) = blocks[s][a, b] with shifts[s] = C' - C: the
    matrix is block-Toeplitz over cells, and its blocks are the cell's
    lattice-image blocks (lattice_image_blocks). Nothing is approximated;
    the blocks hold the same kernel values, evaluated at cell coordinates
    instead of window coordinates, so they differ only by rounding. That
    holds only for a jointly periodic kernel: for one that is not (say a
    source factor 1 + x) the matrix is that of its periodization, the
    kernel's values on the cell repeated over the window. Scenario
    documents refuse heterogeneities without period 1 on every axis for
    this reason (app/scenario.py).

    The matrix acts on the window nodes given (all of them for the window
    matrix, a ball for a Dirichlet truncation), held as slots (cell,
    local): the row of the cell among the cells the nodes touch, and the
    node's index among the cell nodes. A product scatters x into a
    zero-padded (cells + 1) x n_cell array (one per column of x), gathers
    for every cell the rows of its neighbours at the lattice shifts (the
    padding row stands in for cells outside the nodes), and multiplies by
    the stacked, transposed image blocks in one dense product. Window nodes that are
    not among the given ones stay zero in the padded array, which is the
    Dirichlet truncation; cells beyond the window are the padding row, as
    the window itself truncates the whole-line kernel.
    """

    def __init__(self, grid, nodes: np.ndarray, shifts: np.ndarray,
                 blocks: np.ndarray, scale: float = 1.0):
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
        cells, n = len(used), blocks.shape[1]

        row_of = np.full(side**grid.dim, cells)
        row_of[used] = np.arange(cells)
        target = np.stack(np.unravel_index(used, dims), axis=-1)[:, None, :] + shifts
        inside = np.all((target >= 0) & (target < side), axis=-1)
        key = np.ravel_multi_index(tuple(np.moveaxis(target, -1, 0)), dims,
                                   mode="clip")
        self._neighbours = np.where(inside, row_of[key], cells)
        self._slots = cell.ravel() * n + self.local
        self._padded = np.zeros((1, cells + 1, n))
        self._blocks = blocks
        # data[s * n + b, a] = scale * blocks[s][a, b]
        self.data = blocks.transpose(0, 2, 1).reshape(-1, n) * scale
        self.shape = (len(nodes), len(nodes))

    def __matmul__(self, x):
        """A @ x for a vector x or an (nodes, k) array of k columns."""
        x = np.asarray(x)
        k = x.size // len(self._slots)
        padded, into, outof = self._padded, self._slots, self._slots
        if k > 1:  # k stacked padded arrays, and the slots of each column in them
            padded = np.zeros((k,) + padded.shape[1:])
            cells, n = self._neighbours.shape[0], padded.shape[2]
            column = np.arange(k)[:, None] * n
            into = (column * (cells + 1) + self._slots).ravel()
            outof = (column * cells + self._slots).ravel()
        # flat indices: a 2-D fancy index made small ball products 30% slower
        padded.ravel()[into] = x.T.ravel()
        gathered = np.take(padded, self._neighbours, axis=1)
        out = gathered.reshape(-1, self.data.shape[0]) @ self.data
        return out.ravel()[outof].reshape(x.shape[::-1]).T

    def sum(self, axis) -> np.ndarray:
        """Row sums (axis=1), the only sums a kernel matrix is taken over here."""
        if axis != 1:
            raise ValueError(f"only row sums (axis=1) are kept, got axis={axis}")
        return self @ np.ones(self.shape[1])

    @functools.cached_property
    def nnz(self) -> int:
        """Nonzero kernel values between the nodes, as a sparse matrix stores them."""
        occupied = np.zeros_like(self._padded[0])
        occupied.ravel()[self._slots] = 1.0
        n = occupied.shape[1]
        links = (self._blocks != 0).transpose(0, 2, 1).reshape(-1, n)
        cells = occupied.shape[0] - 1
        per_row = occupied[self._neighbours].reshape(cells, -1) @ links
        return int(per_row.ravel()[self._slots].sum())

    def toarray(self) -> np.ndarray:
        """The matrix in dense form (for checks and tests)."""
        cells, shifts = self._neighbours.shape
        n = self._padded.shape[2]
        image = np.full((cells + 1, cells + 1), -1)
        image[np.arange(cells)[:, None], self._neighbours] = np.arange(shifts)
        row, local = np.divmod(self._slots, n)
        s = image[row[:, None], row[None, :]]
        values = self.data[np.maximum(s, 0) * n + local[None, :], local[:, None]]
        return np.where(s >= 0, values, 0.0)


def window_pair_matrix(grid, pair_fn, support_radius) -> CellBlockMatrix:
    """Whole-line kernel values V(x_i, x_j) between all window nodes.

    Returned in cell-block form: by joint periodicity of pair_fn (which
    the block form assumes, see CellBlockMatrix) every entry is an entry
    of one of the cell's lattice-image blocks, so the pair function is
    evaluated on images x n_cell**2 pairs instead of on every window
    pair, and a product is one dense matrix product.
    Pairs whose nodes lie in cells farther apart than the kernel reaches
    are zero, and nodes near the window edge see no pairs beyond it.
    """
    shifts, blocks = lattice_image_blocks(pair_fn, grid, support_radius)
    return CellBlockMatrix(grid, np.arange(grid.n_window), shifts, blocks)


def time_integrate_kernel(time_kernel, grid, exponent=0.0) -> SpatialKernel:
    """Integrate a time kernel against exp(-exponent * tau) and tabulate it
    on the grid: the pair function is evaluated once, on the lattice images
    of the cell (lattice_image_blocks), and every matrix of the returned
    SpatialKernel is read from that table.

    exponent is the product rho * c of a spatial decay rate and a frame
    speed; zero gives the plain interaction kernel V. The symmetry
    factorization, when the time kernel carries one, is pushed through
    the time integral (for the separable kernel the decay rate divides
    into gamma2).
    """
    if time_kernel.dim != grid.dim:
        raise ValidationError(
            f"kernel dimension {time_kernel.dim} does not match grid dimension {grid.dim}"
        )

    def pair_fn(X, Y):
        return time_kernel.time_integral(X, Y, exponent)

    shifts, blocks = lattice_image_blocks(pair_fn, grid, time_kernel.support_radius)
    gamma_cell = None
    sym = getattr(time_kernel, "symmetry", None)
    if sym is not None and not np.iscomplexobj(np.asarray(exponent)):
        g1 = np.asarray(sym.gamma1_fn(grid.cell_nodes), dtype=float)
        g2 = np.asarray(sym.gamma2_fn(grid.cell_nodes), dtype=float)
        if isinstance(time_kernel, SeparableKernel):
            mu = np.asarray(time_kernel.mu_fn(grid.cell_nodes), dtype=float)
            g2 = g2 / (exponent + mu)
        if np.min(g1) <= 0 or np.min(g2) <= 0:
            raise ValidationError("symmetry factors gamma1, gamma2 must be positive")
        gamma_cell = g2 / g1
    return SpatialKernel(
        grid, pair_fn, shifts, blocks,
        support_radius=time_kernel.support_radius,
        gamma_cell=gamma_cell,
    )


def separable_contact_kernel(mass: float, support_radius: float, dim: int = 1,
                             source_factor=None, target_factor=None, decay=None
                             ) -> SeparableKernel:
    """Standard anisotropic family K(x, y) = K0(x - y) * b(x) * s(y), decay mu(y).

    K0 is the uniform box of the given mass and reach, b (target_factor)
    modulates susceptibility at the receiving point and s (source_factor)
    infectivity at the emitting point; all three heterogeneities default
    to one. The factorization is recorded so downstream operators know
    their weighted self-adjoint structure.
    """
    one = lambda P: np.ones(np.asarray(P).shape[0])
    b = target_factor or one
    s = source_factor or one
    mu = decay or one
    base = box_profile(mass, support_radius, dim)

    def spatial(X, Y):
        return base(X - Y) * np.asarray(b(X), dtype=float) * np.asarray(s(Y), dtype=float)

    sym = SymmetryFactors(symmetric_fn=lambda X, Y: base(X - Y),
                          gamma1_fn=b, gamma2_fn=s)
    euclid_reach = support_radius * np.sqrt(dim)
    return SeparableKernel(spatial, mu, euclid_reach, dim=dim, symmetry=sym)
