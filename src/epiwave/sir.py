"""Spatial SIR simulation and its bridge to the renewal equation.

The compartmental system tracks susceptibles S and infecteds I on the
window grid,

    dS/dt = -S(t,x) integral K(x,y) I(t,y) dy,
    dI/dt = S(t,x) integral K(x,y) I(t,y) dy - mu(x) I,

with no Laplacian, and the substitution u = -ln(S/S0) turns it into
the scalar renewal equation with kernel S0(y) K(x,y) exp(-mu(y) tau),
forcing driven by the initial infecteds, and response g(z) = 1 - e^{-z}.
Running both solvers on the same grid and comparing u is the strongest
cross-module oracle in the package: the two paths share no marching
code.

S is marched in logarithmic form, so its positivity and monotone decay
are exact at the discrete level, not just up to truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .domain.kernels import SeparableKernel, box_profile, window_pair_matrix
from .domain.nonlinearity import saturating_exponential
from .dynamics import march_steps, solve_initial_value
from .errors import ConvergenceError, ValidationError


@dataclass
class SirState:
    """Model data for the compartmental system (no Laplacian: infection
    spreads only through the contact kernel), plus trajectories once run.

    kernel is a SeparableKernel: the instantaneous contact rate K(x, y) =
    b(x) K0(x - y) s(y) of its box and its periodic factors, and its
    decay the periodic recovery rate. susceptible_fn is
    the periodic initial susceptible profile (its positivity makes the
    log change of variables well defined). infected0 is a nonnegative
    compactly supported field sampled on the window nodes.
    """

    grid: object
    kernel: SeparableKernel
    susceptible_fn: object
    infected0: np.ndarray
    times: np.ndarray | None = field(default=None, repr=False)
    S: np.ndarray | None = field(default=None, repr=False)
    I: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.infected0 = np.asarray(self.infected0, dtype=float)
        if self.infected0.shape != (self.grid.n_window,):
            raise ValidationError(
                f"infected0 of shape {self.infected0.shape} does not fit "
                f"the window grid ({self.grid.n_window} nodes)"
            )
        if np.min(self.infected0) < 0:
            raise ValidationError("infected0 must be nonnegative")
        s0 = self.susceptible0()
        if np.min(s0) <= 0:
            raise ValidationError(
                "initial susceptibles must be bounded away from zero"
            )

    def susceptible0(self) -> np.ndarray:
        return np.asarray(self.susceptible_fn(self.grid.window_nodes),
                          dtype=float)

    def log_attack(self) -> np.ndarray:
        """u = -ln(S/S0) over the stored trajectory, each step in place in
        the one array returned."""
        if self.S is None:
            raise ValidationError("no trajectory stored; run the simulator")
        u = np.divide(self.S, self.susceptible0()[None, :])
        np.log(u, out=u)
        return np.negative(u, out=u)


def simulate_sir(state: SirState, dt: float, horizon: float) -> SirState:
    """Explicit march of the compartmental system; returns a new state
    carrying the (times, S, I) trajectory.

    The step size must resolve both relaxation rates present: the
    recovery rate and the infection pressure at full susceptibility.
    """
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if horizon < dt:
        raise ValidationError(
            f"horizon {horizon} shorter than one step {dt}"
        )
    grid = state.grid
    steps = march_steps(dt, horizon, grid.n_window)
    K = window_pair_matrix(grid, state.kernel)
    mu = np.asarray(state.kernel.decay(grid.window_nodes), dtype=float)
    S0 = state.susceptible0()
    row = float(np.max(K.sum(axis=1))) * grid.weight
    rate = float(np.max(mu)) + row * float(np.max(S0))
    if dt * rate >= 1.0:
        raise ValidationError(
            f"dt * stiffness = {dt * rate:.3g} >= 1; refine the time step "
            f"below {1.0 / rate:.3g}"
        )

    times = dt * np.arange(steps + 1)
    S = np.empty((steps + 1, grid.n_window))
    I = np.empty((steps + 1, grid.n_window))
    log_s = np.log(S0)
    S[0] = S0
    I[0] = state.infected0
    for n in range(steps):
        pressure = grid.weight * (K @ I[n])
        growth = S[n] * pressure - mu * I[n]
        log_s = log_s - dt * pressure
        S[n + 1] = np.exp(log_s)
        I[n + 1] = I[n] + dt * growth
        if not np.all(np.isfinite(I[n + 1])):
            raise ConvergenceError(
                f"infection density blew up at t = {times[n + 1]:.4g}"
            )
        low = float(np.min(I[n + 1]))
        if low < 0:
            node = int(np.argmin(I[n + 1]))
            raise ConvergenceError(
                f"negative infection density {low:.3e} at node "
                f"x = {grid.window_nodes[node]} and t = {times[n + 1]:.4g}; "
                "the step size is too large for this data"
            )
    return replace(state, times=times, S=S, I=I)


def sir_to_kernel(state: SirState):
    """Exact change of variables: (kernel, forcing, response) such that
    u = -ln(S/S0) solves the renewal equation with this data: the
    separable kernel S0(y) K(x, y) exp(-mu(y) tau), the pressure of the
    initial infecteds as forcing, and g(z) = 1 - exp(-z). The forcing is
    its seeding function, X -> (t -> f(t, X)); its limit at t = inf
    weighs each seed by 1 / mu. The bridged kernel is the contact
    kernel's box and factors with source S0 s, formed before it
    multiplies the rest, so where both s and S0 vary its tables may
    differ from a product b(x) K0(x - y) s(y) S0(y) in the last bit. The
    seed reads the contact kernel's pair values K(x, y) at the seeded
    nodes y from its factors, in the order its image blocks take them
    (box_profile, then b(x), then s(y)).
    """
    grid = state.grid
    contact = state.kernel
    s_fn = state.susceptible_fn

    def susceptible(Y):
        return np.asarray(s_fn(np.atleast_2d(Y)), dtype=float)

    def source(Y):
        return np.asarray(contact.source(Y), dtype=float) * susceptible(Y)

    kernel = SeparableKernel(contact.mass, contact.half_width, grid.dim,
                             target=contact.target, source=source,
                             decay=contact.decay)

    active = state.infected0 > 0
    nodes_y = grid.window_nodes[active]
    weights = grid.weight * state.infected0[active]
    mu_y = np.asarray(contact.decay(nodes_y), dtype=float)
    box = box_profile(contact.mass, contact.half_width, contact.dim)
    source_y = np.asarray(contact.source(nodes_y), dtype=float)

    def ramp(t):
        return weights * (-np.expm1(-mu_y * max(t, 0.0)) / mu_y)

    def seed_on_nodes(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        target_x = np.asarray(contact.target(X), dtype=float)
        pairs = np.empty((len(X), len(nodes_y)))
        # a chunk of rows at a time, each about as many pairs as X has
        # rows, so no temporary is larger than one field of X
        step = max(1, len(X) // max(1, len(nodes_y)))
        for start in range(0, len(X), step):
            rows = slice(start, start + step)
            chunk = box(X[rows, None, :] - nodes_y[None, :, :])
            chunk *= target_x[rows, None]
            np.multiply(chunk, source_y, out=pairs[rows])
        return lambda t: pairs @ ramp(t)

    return kernel, seed_on_nodes, saturating_exponential()


def equivalence_check(state: SirState, dt: float, horizon: float) -> float:
    """Sup-norm gap between the two routes to the attack variable u.

    Runs the renewal solver on the bridged data (first: it refuses a
    window too small for the kernel reach), then the compartmental march,
    forms -ln(S/S0), and reports the largest difference over interior
    nodes and all output times. First-order in dt and in the
    spacing; callers doing convergence studies should keep the outbreak
    away from the window edge.
    """
    kernel, forcing, response = sir_to_kernel(state)
    fieldvals = solve_initial_value(kernel, forcing, response, state.grid,
                                    dt=dt, horizon=horizon)
    sim = simulate_sir(state, dt, horizon)
    u_sir = sim.log_attack()
    u_int = fieldvals.values
    if u_sir.shape != u_int.shape:
        raise ValidationError(
            f"trajectory shapes diverged: {u_sir.shape} vs {u_int.shape}"
        )
    # the interior is a box of whole axis runs: a view of u_sir, which
    # this function owns, holds the gap in every dimension
    grid = state.grid
    shape = (len(u_sir), *grid.window_shape)
    inner = (slice(None), *grid.interior_block(kernel.half_width))
    gap = u_sir.reshape(shape)[inner]
    np.subtract(gap, u_int.reshape(shape)[inner], out=gap)
    return float(np.max(np.abs(gap, out=gap)))
