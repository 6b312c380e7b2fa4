"""Explicit time marching for the infection renewal equation.

The unknown u(t, x) satisfies

    u(t, x) = integral_0^t integral Gamma(tau, x, y) g(u(t - tau, y)) dy dtau
              + f(t, x),

which is a Volterra equation: the right side at time t only involves u
at earlier times, so an explicit march works. The separable kernel
Gamma = K(x, y) exp(-mu(y) tau) collapses the time history into one
auxiliary memory field per node,

    w(t, y) = integral_0^t exp(-mu(y) tau) g(u(t - tau, y)) dtau,

updated by an exact exponential recursion under a per-step freeze of
g(u). The scheme is first order in dt, and constant-in-time states are
reproduced without any time error.

Nodes closer than the kernel reach to the window edge on some axis
cannot see their whole interaction neighborhood, so they are frozen at
the seeding value f(t, x). That layer is as wide as the kernel's reach
along one axis (Reach): the half-width of its box. A verdict on a march
reads the tail of tail_mask, which holds no frozen node, and
classify_outcome decides from the tail's minimum, maximum and gap to the
steady state alone: the numbers simulate reports.

The march writes each step straight into its row of the stored
trajectory. The forcing is its seeding function (domain/forcing.py):
the march calls it once on the window nodes, which does the work that
depends on the nodes alone, and then reads f(t, .) from the returned
function at every step. The interior is reached as a view, a run of the
1-D window or a square block of the row-major 2-D one (interior_block
of the grid). The memory w is updated in a kept buffer with the same
products and sum as a fresh one, so every value equals that of an
allocating step bit for bit. Beside the trajectory the march holds a few
window-sized buffers.

The memory is applied by the kernel's window matrix (window_pair_matrix):
in cell-block form in 1-D, and for a 2-D box kernel one axis at a time,
two multi-column products of the 1-D box's line matrix per step
(AxisBoxMatrix).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .domain.kernels import exponential_step_weights, window_pair_matrix
from .errors import ConvergenceError, ValidationError

DEFAULT_DT = 0.05
DEFAULT_HORIZON = 80.0
SETTLED_DRIFT_TOL = 1e-4
# values in one stored trajectory, (steps + 1) x window nodes: 256 MiB
MAX_TRAJECTORY_VALUES = 2**25


@dataclass
class SpaceTimeField:
    """Solution samples u(t_n, x_i) on the window grid, to the horizon
    n * dt of the march."""

    values: np.ndarray
    dt: float
    horizon: float

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.values.shape[0])

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]


class Outcome(enum.Enum):
    PROPAGATES = "propagates"
    FADES_OUT = "fades_out"
    UNDETERMINED = "undetermined"


def solve_initial_value(time_kernel, forcing, response, grid,
                        dt: float = DEFAULT_DT,
                        horizon: float = DEFAULT_HORIZON) -> SpaceTimeField:
    """March the renewal equation to the horizon on the window grid.

    forcing is a seeding function: forcing(X) returns t -> f(t, X), and
    the march calls it once, at the window nodes."""
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if horizon < dt:
        raise ValidationError(f"horizon {horizon} shorter than one step {dt}")
    if time_kernel.dim != grid.dim:
        raise ValidationError(
            f"kernel dimension {time_kernel.dim} does not match grid "
            f"dimension {grid.dim}"
        )
    reach = time_kernel.half_width
    if grid.window_radius <= reach:
        raise ValidationError(
            f"window radius {grid.window_radius} does not contain the "
            f"kernel reach {reach}; nothing would be marched"
        )

    n_steps = march_steps(dt, horizon, grid.n_window)
    times = dt * np.arange(n_steps + 1)
    block = grid.interior_block(reach)
    seed = forcing(grid.window_nodes)
    values = np.empty((n_steps + 1, grid.n_window))
    values[0] = seed(0.0)

    _march_separable(time_kernel, seed, response, grid, values, times, block)
    return SpaceTimeField(values=values, dt=dt, horizon=n_steps * dt)


def march_steps(dt: float, horizon: float, nodes: int) -> int:
    """Number of steps of a march to the horizon, refused before anything
    is allocated when its trajectory would exceed MAX_TRAJECTORY_VALUES."""
    steps = horizon / dt
    if (not np.isfinite(steps)
            or (int(round(steps)) + 1) * nodes > MAX_TRAJECTORY_VALUES):
        raise ValidationError(
            f"a march of {steps:.4g} steps over {nodes} nodes would store "
            f"more than {MAX_TRAJECTORY_VALUES} values; raise dt, shorten "
            "the horizon or shrink the window"
        )
    return int(round(steps))


def _march_separable(kernel, seed, response, grid, values, times, block):
    dt = times[1] - times[0]
    mu = np.asarray(kernel.decay(grid.window_nodes), dtype=float)
    if dt * np.max(mu) >= 1.0:
        raise ValidationError(
            f"dt * max(mu) = {dt * np.max(mu):.3g} >= 1 on the window nodes; "
            "refine the time step below the fastest recovery"
        )
    K = window_pair_matrix(grid, kernel)
    fade, gain, _ = exponential_step_weights(mu, dt)

    w = np.zeros(grid.n_window)
    gained = np.empty(grid.n_window)
    for n in range(1, len(times)):
        # w <- fade * w + gain * g(u): the products and the sum of a fresh w
        np.multiply(fade, w, out=w)
        np.multiply(gain, response(values[n - 1]), out=gained)
        w += gained
        _settle(values[n], seed(times[n]), K @ w, grid, block, times[n])


def _settle(u, seeded, memory, grid, block, t):
    """u <- f on every node, plus the quadrature weight times memory on the
    interior block; u is a row of the trajectory, written in place."""
    u[:] = seeded
    u.reshape(grid.window_shape)[block] += (
        grid.weight * memory.reshape(grid.window_shape)[block])
    _guard_finite(u, t)


def _guard_finite(u, t):
    if np.isfinite(u).all():
        return
    node = int(np.argmax(~np.isfinite(u)))
    raise ConvergenceError(
        f"solution lost finiteness at t = {t:.4g}, window node {node}"
    )


def long_time_limit(field: SpaceTimeField, tol: float = SETTLED_DRIFT_TOL):
    """Final snapshot and whether it stopped moving over the last time unit."""
    back = int(round(1.0 / field.dt))
    if field.values.shape[0] <= back:
        return field.final, False
    drift = float(np.max(np.abs(field.values[-1] - field.values[-1 - back])))
    return field.final, drift < tol


def limiting_equation_residual(u_inf, transfer, response, f_inf) -> float:
    """Sup defect of the stationary balance over the trustworthy interior."""
    grid = transfer.grid
    reach = transfer.reach.radius
    if grid.window_radius < 2 * reach:
        raise ValidationError(
            f"window radius {grid.window_radius} below twice the kernel "
            f"reach {reach}; no interior remains for the residual"
        )
    u_inf = np.asarray(u_inf, dtype=float)
    f_inf = np.asarray(f_inf, dtype=float)
    applied = grid.weight * (transfer.window_matrix() @ response(u_inf))
    idx = grid.interior_indices(reach)
    return float(np.max(np.abs(u_inf - applied - f_inf)[idx]))


def tail_mask(grid, reach: float, tail_radius: float,
              boundary_margin: float) -> np.ndarray:
    """Window nodes at distance >= tail_radius from the seeding center and
    >= max(boundary_margin, reach) from the window edge on every axis, so
    none of the march's frozen layer; refuses a tail with no such node."""
    layer = max(boundary_margin, reach)
    keep = np.zeros(grid.n_window, dtype=bool)
    keep[grid.interior_indices(layer)] = True
    keep &= np.linalg.norm(grid.window_nodes, axis=1) >= tail_radius
    if tail_radius >= grid.window_radius - layer or not keep.any():
        raise ValidationError(
            f"tail radius {tail_radius} leaves no nodes inside the window "
            f"of radius {grid.window_radius} after the boundary layer"
        )
    return keep


def classify_outcome(tail_min: float, tail_max: float,
                     tail_steady_gap: float | None, tol: float) -> Outcome:
    """Decide between spread and extinction from the tail's numbers.

    Extinction: the tail stays at or below tol (tail_max <= tol).
    Propagation: the tail stays at or above tol (tail_min >= tol) and
    within tol of the positive steady state (tail_steady_gap <= tol); a
    gap of None means no positive steady state exists. Anything else is
    undetermined.
    """
    if tail_max <= tol:
        return Outcome.FADES_OUT
    if (tail_min >= tol and tail_steady_gap is not None
            and tail_steady_gap <= tol):
        return Outcome.PROPAGATES
    return Outcome.UNDETERMINED
