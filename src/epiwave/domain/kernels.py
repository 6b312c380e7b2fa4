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

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from ..errors import ConvergenceError, ValidationError

_EDGE_EPS = 1e-9


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
    this is the workhorse variant. mu must be strictly positive and
    periodic; that is checked on a sample lattice at construction.
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
        self.mu_min = float(np.min(mu_vals))
        self.mu_max = float(np.max(mu_vals))

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
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        inside = (np.abs(Z) < radius - _EDGE_EPS).astype(float)
        on_edge = np.abs(np.abs(Z) - radius) <= _EDGE_EPS
        inside[on_edge] = 0.5
        return height * inside.prod(axis=-1)

    return profile


def periodize_kernel(pair_fn, grid, support_radius: float | None = None,
                     tol: float = 1e-10, max_shells: int = 64):
    """Lattice-sum a whole-line pair kernel onto the periodicity cell.

    Returns (matrix, images) where matrix[i, j] = sum_k fn(x_i, x_j + k)
    over lattice vectors k, and images is the per-axis truncation radius
    used. With a known support radius the sum is finite and truncated one
    cell beyond the reach; otherwise shells of images are added until the
    largest entry increment drops below tol.
    """
    X = grid.cell_nodes
    n = X.shape[0]
    XX = np.repeat(X, n, axis=0)
    YY = np.tile(X, (n, 1))

    def shell_sum(m, out):
        added = 0.0
        rng = range(-m, m + 1)
        if grid.dim == 1:
            shifts = [(k,) for k in rng if abs(k) == m]
        else:
            shifts = [(a, b) for a in rng for b in rng if max(abs(a), abs(b)) == m]
        for shift in shifts:
            vals = np.asarray(pair_fn(XX, YY + np.asarray(shift, dtype=float)))
            out += vals.reshape(n, n)
            added = max(added, float(np.max(np.abs(vals))))
        return added

    probe = np.asarray(pair_fn(X[:1], X[:1]))
    dtype = complex if np.iscomplexobj(probe) else float
    total = np.zeros((n, n), dtype=dtype)
    if support_radius is not None:
        images = int(np.ceil(support_radius)) + 1
        for m in range(images + 1):
            shell_sum(m, total)
        return total, images
    for m in range(max_shells + 1):
        added = shell_sum(m, total)
        if m >= 1 and added < tol:
            return total, m
    raise ConvergenceError(
        f"lattice sum did not settle below {tol} within {max_shells} image shells"
    )


class SpatialKernel:
    """A time-integrated kernel V_s sampled on a grid.

    Holds the periodized cell matrix (plain values, not yet weighted by
    quadrature), remembers the underlying whole-line pair function for
    window restrictions, and carries the symmetry weight gamma2/gamma1
    on the cell when the factorization is known.
    """

    def __init__(self, grid, pair_fn, cell_matrix, images: int,
                 support_radius: float, gamma_cell=None):
        self.grid = grid
        self.pair_fn = pair_fn
        self.cell_matrix = cell_matrix
        self.images = images
        self.support_radius = float(support_radius)
        self.gamma_cell = gamma_cell
        self.row_integrals = cell_matrix.sum(axis=1) * grid.weight
        self._window = None

    def window_matrix(self) -> scipy.sparse.csr_matrix:
        """Sparse whole-line kernel values V(x_i, x_j) on window node pairs."""
        if self._window is None:
            self._window = window_pair_matrix(self.grid, self.pair_fn, self.support_radius)
        return self._window

    def gamma_window(self):
        if self.gamma_cell is None:
            return None
        return self.grid.periodic_on_window(self.gamma_cell)


def window_pair_matrix(grid, pair_fn, support_radius) -> scipy.sparse.csr_matrix:
    n_axis = 2 * grid.window_radius * grid.cell_points
    reach = int(np.ceil(support_radius / grid.spacing)) + 1
    offsets_1d = np.arange(-reach, reach + 1)
    if grid.dim == 1:
        offsets = [(o,) for o in offsets_1d]
        shape_idx = (n_axis,)
    else:
        offsets = [(a, b) for a in offsets_1d for b in offsets_1d
                   if a * a + b * b <= (reach + 1) ** 2]
        shape_idx = (n_axis, n_axis)
    idx = np.arange(np.prod(shape_idx)).reshape(shape_idx)
    rows, cols, vals = [], [], []
    for off in offsets:
        src = idx
        dst = idx
        for axis, o in enumerate(off):
            if o >= 0:
                src = np.take(src, np.arange(0, shape_idx[axis] - o), axis=axis)
                dst = np.take(dst, np.arange(o, shape_idx[axis]), axis=axis)
            else:
                src = np.take(src, np.arange(-o, shape_idx[axis]), axis=axis)
                dst = np.take(dst, np.arange(0, shape_idx[axis] + o), axis=axis)
        i = src.ravel()
        j = dst.ravel()
        v = np.asarray(pair_fn(grid.window_nodes[i], grid.window_nodes[j]))
        keep = v != 0
        rows.append(i[keep])
        cols.append(j[keep])
        vals.append(v[keep])
    n = grid.n_window
    mat = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return mat.tocsr()


def time_integrate_kernel(time_kernel, grid, exponent=0.0) -> SpatialKernel:
    """Integrate a time kernel against exp(-exponent * tau) and periodize.

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

    cell_matrix, images = periodize_kernel(
        pair_fn, grid, support_radius=time_kernel.support_radius
    )
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
        grid, pair_fn, cell_matrix, images,
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
