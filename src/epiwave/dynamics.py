"""Explicit time marching for the infection renewal equation.

The unknown u(t, x) satisfies

    u(t, x) = integral_0^t integral Gamma(tau, x, y) g(u(t - tau, y)) dy dtau
              + f(t, x),

which is a Volterra equation: the right side at time t only involves u
at earlier times, so an explicit march works. Separable kernels
Gamma = K(x, y) exp(-mu(y) tau) collapse the time history into one
auxiliary memory field per node,

    w(t, y) = integral_0^t exp(-mu(y) tau) g(u(t - tau, y)) dtau,

updated by an exact exponential recursion under a per-step freeze of
g(u); every other kernel takes the documented slow path, a full history
convolution with trapezoidal weights and the current-step endpoint
lagged one step to stay explicit. Both schemes are first order in dt,
and constant-in-time states are reproduced without any time error by
the separable recursion.

Nodes closer than the kernel reach to the window edge cannot see their
whole interaction neighborhood, so they are frozen at the seeding value
f(t, x); diagnostics exclude that boundary layer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .domain.kernels import (SeparableKernel, exponential_step_weights,
                             window_pair_matrix)
from .errors import ConvergenceError, ValidationError

DEFAULT_DT = 0.05
DEFAULT_HORIZON = 80.0
DEFAULT_CLASSIFY_TOL = 1e-4
# values in one stored trajectory, (steps + 1) x window nodes: 256 MiB
MAX_TRAJECTORY_VALUES = 2**25


@dataclass
class SpaceTimeField:
    """Solution samples u(t_n, x_i) on the window grid.

    interior flags the nodes where the marching equation was actually
    evaluated.
    """

    values: np.ndarray
    dt: float
    horizon: float
    grid: object
    interior: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.values.shape[0])

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]

    def at_time(self, t: float) -> np.ndarray:
        """Row at the nearest sampled time."""
        n = int(round(t / self.dt))
        if not 0 <= n < self.values.shape[0]:
            raise ValidationError(
                f"time {t} outside the sampled range [0, {self.horizon}]"
            )
        return self.values[n]


class Outcome(enum.Enum):
    PROPAGATES = "propagates"
    FADES_OUT = "fades_out"
    UNDETERMINED = "undetermined"


def solve_initial_value(time_kernel, forcing, response, grid,
                        dt: float = DEFAULT_DT,
                        horizon: float = DEFAULT_HORIZON) -> SpaceTimeField:
    """March the renewal equation to the horizon on the window grid."""
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if horizon < dt:
        raise ValidationError(f"horizon {horizon} shorter than one step {dt}")
    if time_kernel.dim != grid.dim:
        raise ValidationError(
            f"kernel dimension {time_kernel.dim} does not match grid "
            f"dimension {grid.dim}"
        )
    reach = time_kernel.support_radius
    if grid.window_radius <= reach:
        raise ValidationError(
            f"window radius {grid.window_radius} does not contain the "
            f"kernel reach {reach}; nothing would be marched"
        )

    n_steps = march_steps(dt, horizon, grid.n_window)
    times = dt * np.arange(n_steps + 1)
    interior = np.zeros(grid.n_window, dtype=bool)
    interior[grid.interior_indices(reach)] = True

    values = np.empty((n_steps + 1, grid.n_window))
    values[0] = np.asarray(forcing(0.0, grid.window_nodes), dtype=float)

    march = (_march_separable if isinstance(time_kernel, SeparableKernel)
             else _march_history)
    march(time_kernel, forcing, response, grid, values, times, interior)
    return SpaceTimeField(values=values, dt=dt, horizon=n_steps * dt,
                          grid=grid, interior=interior)


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


def _march_separable(kernel, forcing, response, grid, values, times, interior):
    dt = times[1] - times[0]
    mu = np.asarray(kernel.mu_fn(grid.window_nodes), dtype=float)
    if dt * np.max(mu) >= 1.0:
        raise ValidationError(
            f"dt * max(mu) = {dt * np.max(mu):.3g} >= 1 on the window nodes; "
            "refine the time step below the fastest recovery"
        )
    K = window_pair_matrix(grid, kernel.spatial_fn, kernel.support_radius)
    fade, gain, _ = exponential_step_weights(mu, dt)

    w = np.zeros(grid.n_window)
    for n in range(1, len(times)):
        w = fade * w + gain * response(values[n - 1])
        u = np.asarray(forcing(times[n], grid.window_nodes), dtype=float)
        u[interior] += grid.weight * (K @ w)[interior]
        _guard_finite(u, times[n])
        values[n] = u


def _march_history(kernel, forcing, response, grid, values, times, interior):
    dt = times[1] - times[0]
    tail = getattr(kernel, "tau_nodes", None)
    tau_max = float(tail[-1]) if tail is not None else float(
        getattr(kernel, "tau_horizon", times[-1])
    )
    j_cap = int(np.ceil(tau_max / dt))
    frames: dict[int, object] = {}

    def frame(j):
        if j not in frames:
            pair = lambda X, Y: kernel.evaluate(j * dt, X, Y)
            frames[j] = window_pair_matrix(grid, pair, kernel.support_radius)
        return frames[j]

    for n in range(1, len(times)):
        acc = np.zeros(grid.n_window)
        top = min(n, j_cap)
        for j in range(0, top + 1):
            weight = 0.5 * dt if j in (0, top) else dt
            # the tau = 0 term would need u at the current step; lag it
            source = values[n - 1] if j == 0 else values[n - j]
            acc += weight * (frame(j) @ response(source))
        u = np.asarray(forcing(times[n], grid.window_nodes), dtype=float)
        u[interior] += grid.weight * acc[interior]
        _guard_finite(u, times[n])
        values[n] = u


def _guard_finite(u, t):
    bad = ~np.isfinite(u)
    if np.any(bad):
        node = int(np.argmax(bad))
        raise ConvergenceError(
            f"solution lost finiteness at t = {t:.4g}, window node {node}"
        )


def long_time_limit(field: SpaceTimeField, tol: float = DEFAULT_CLASSIFY_TOL):
    """Final snapshot and whether it stopped moving over the last time unit."""
    back = int(round(1.0 / field.dt))
    if field.values.shape[0] <= back:
        return field.final, False
    drift = float(np.max(np.abs(field.values[-1] - field.values[-1 - back])))
    return field.final, drift < tol


def limiting_equation_residual(u_inf, transfer, response, f_inf) -> float:
    """Sup defect of the stationary balance over the trustworthy interior."""
    grid = transfer.grid
    reach = transfer.support_radius
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


def tail_mask(grid, tail_radius: float, boundary_margin: float) -> np.ndarray:
    """Window nodes at distance >= tail_radius from the seeding center,
    outside the frozen boundary layer of width boundary_margin."""
    keep = np.zeros(grid.n_window, dtype=bool)
    keep[grid.interior_indices(boundary_margin)] = True
    keep &= np.linalg.norm(grid.window_nodes, axis=1) >= tail_radius
    return keep


def classify_outcome(u_inf, steady, tail_radius: float,
                     tol: float = DEFAULT_CLASSIFY_TOL, *,
                     grid, boundary_margin: float) -> Outcome:
    """Decide between spread and extinction from the far-field values.

    The tail is every window node at distance >= tail_radius from the
    seeding center, excluding the frozen boundary layer. Propagation
    requires the tail to be uniformly above tol and, when the positive
    steady state is supplied, within tol of it; extinction requires the
    tail to be uniformly below tol.
    """
    if tail_radius >= grid.window_radius - boundary_margin:
        raise ValidationError(
            f"tail radius {tail_radius} leaves no nodes inside the window "
            f"of radius {grid.window_radius} after the boundary layer"
        )
    u_inf = np.asarray(u_inf, dtype=float)
    keep = tail_mask(grid, tail_radius, boundary_margin)
    tail = u_inf[keep]

    if np.max(tail) <= tol:
        return Outcome.FADES_OUT
    if np.min(tail) >= tol:
        if steady is None or not getattr(steady, "present", False):
            return Outcome.PROPAGATES if steady is None else Outcome.UNDETERMINED
        gap = np.abs(tail - grid.periodic_on_window(steady.values)[keep])
        if np.max(gap) <= tol:
            return Outcome.PROPAGATES
        return Outcome.UNDETERMINED
    return Outcome.UNDETERMINED
