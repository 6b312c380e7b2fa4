"""Traveling front construction by the decreasing operator iteration.

In the frame moving at speed c the renewal operator becomes

    (T u)(t, x) = integral_0^infty integral K(x, y) exp(-mu(y) tau)
                  g(u(t - tau, y)) dy dtau,

acting on fields over one frame period t in [0, 1/c) and a spatial slab
x in [-L, L], with the periodic identification u(t - P, y) = u(t, y + 1)
for P = 1/c. Starting from a supersolution and iterating produces a
nonincreasing sequence pinned above a subsolution, whose limit is the
front profile.

The time integral is evaluated exactly for the exponential kernel: the
response is linear between the m time slices, interval k contributes q_k
with the weights of exponential_step_weights, and the memory over the
last period, G_j = sum_{l<m} exp(-mu l dt) q_{j-l}, is a forward
recursion over the current period plus exp(-mu t_j) times a suffix sum
over the previous one: O(m) work, nonnegative terms only, so rounding
never lifts the decreasing iteration. Folding past the period boundary
becomes a right-to-left recursion over spatial cells,

    w(t, y) = G(t, y) + exp(-mu(y) P) w(t, y + 1),

seeded beyond the right edge by the closed-form memory of the analytic
tail. That seed uses the same discrete weights as the recursion itself,
so the certificate inequalities are not polluted by a closure seam.

The sub- and supersolution pair uses decay rates straddling the lower
dispersion root: the supersolution rate sits slightly above it, buying
a uniform eigenvalue margin that absorbs the quadrature excess of the
discrete operator, and the subsolution coefficient M is doubled until
the pair is ordered on the whole slab.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .. import dynamics
from ..domain.kernels import (SeparableKernel, exponential_step_weights,
                              window_pair_matrix)
from ..errors import ConvergenceError, ValidationError
from .dispersion import SpeedResult, TiltedOperator, minimal_speed
from ..spectral import principal_eigenpair

DEFAULT_SLICES = 16
DEFAULT_WAVE_TOL = 1e-6
DEFAULT_SUPER_MARGIN = 5e-3
_M_CAP = 1e8


def _require_1d(grid):
    if grid.dim != 1:
        raise ValidationError(
            "front construction works on one-dimensional windows; higher "
            "dimensions only enter through the direction-resolved speed"
        )


def _steady_cell_values(steady, grid):
    values = getattr(steady, "values", steady)
    if values is None:
        raise ValidationError(
            "no positive steady state available; fronts need a state to "
            "connect to"
        )
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_cell,):
        raise ValidationError(
            f"steady state of shape {values.shape} does not fit the cell "
            f"grid ({grid.n_cell} nodes)"
        )
    if np.min(values) <= 0:
        raise ValidationError("steady state must be strictly positive")
    return values


class WaveOperator:
    """The frame renewal operator discretized on the period-slab."""

    def __init__(self, time_kernel, response, c, grid, slices: int = DEFAULT_SLICES):
        _require_1d(grid)
        if not isinstance(time_kernel, SeparableKernel):
            raise ValidationError(
                "front iteration needs the separable kernel form"
            )
        if time_kernel.dim != 1:
            raise ValidationError("kernel dimension must be one here")
        if c <= 0:
            raise ValidationError(f"frame speed must be positive, got {c}")
        if slices < 4:
            raise ValidationError(f"need at least 4 time slices, got {slices}")
        # apply() extends each slab by the ghost cell beyond the right edge
        slab = int(slices) * (grid.n_window + grid.cell_points)
        if slab > dynamics.MAX_TRAJECTORY_VALUES:
            raise ValidationError(
                f"a slab of {slices} time slices over {grid.n_window} window "
                f"and {grid.cell_points} ghost-cell nodes would hold {slab} "
                f"values, more than {dynamics.MAX_TRAJECTORY_VALUES}; lower "
                "the slices or shrink the window"
            )
        reach = time_kernel.support_radius
        if grid.window_radius <= reach + 1.0:
            raise ValidationError(
                f"window radius {grid.window_radius} too small for kernel "
                f"reach {reach} plus the closure cell"
            )
        self.response = response
        self.c = float(c)
        self.grid = grid
        self.m = int(slices)
        self.period = 1.0 / self.c
        self.dt = self.period / self.m
        self.times = self.dt * np.arange(self.m)

        self.K = window_pair_matrix(grid, time_kernel.spatial_fn, reach)
        self.interior = np.zeros(grid.n_window, dtype=bool)
        self.interior[grid.interior_indices(reach)] = True

        mu = np.asarray(time_kernel.mu_fn(grid.window_nodes), dtype=float)
        self.E1, I0, I1 = exponential_step_weights(mu, self.dt)
        self.alpha = I0 - I1
        self.beta = I1
        self.EP = np.exp(-mu * self.period)

        n = grid.cell_points
        self.n_cell = n
        self.cells = grid.n_window // n
        ghost = grid.window_radius + (np.arange(n) + 0.5) * grid.spacing
        self.ghost_nodes = ghost[:, None]
        self.mu_ghost = np.asarray(time_kernel.mu_fn(self.ghost_nodes), float)
        _, I0g, I1g = exponential_step_weights(self.mu_ghost, self.dt)
        self.alpha_ghost = I0g - I1g
        self.beta_ghost = I1g

    def ghost_values(self, terms) -> np.ndarray:
        """Analytic tail continuation on the cell beyond the right edge."""
        y = self.ghost_nodes[:, 0]
        out = np.zeros((self.m, self.n_cell))
        for coef, rho in terms:
            out += coef[None, :] * np.exp(
                -rho * (y[None, :] - self.c * self.times[:, None])
            )
        return np.maximum(out, 0.0)

    def _ghost_memory(self, terms) -> np.ndarray:
        """Memory field of the analytic tail, with the discrete weights.

        Terms decaying in the frame variable are linearized through the
        response slope at zero, which is exact to quadratic order in
        their (tiny) amplitude; a frame-constant term is closed through
        the response itself, which makes flat states exact fixed points.
        """
        y = self.ghost_nodes[:, 0]
        mu = self.mu_ghost
        slope0 = self.response.slope0
        out = np.zeros((self.m, self.n_cell))
        for coef, rho in terms:
            if rho == 0.0:
                out += (self.response(coef) / mu)[None, :]
                continue
            decay = np.exp(-(mu + rho * self.c) * self.dt)
            geo = -np.expm1(-(mu + rho * self.c) * self.period) / (1.0 - decay)
            chain = 1.0 - np.exp(-mu * self.period) * np.exp(-rho)
            S = (self.alpha_ghost + self.beta_ghost *
                 np.exp(-rho * self.c * self.dt)) * geo / chain
            mode = coef[None, :] * np.exp(
                -rho * (y[None, :] - self.c * self.times[:, None])
            )
            out += slope0 * mode * S[None, :]
        return out

    def apply(self, slab: np.ndarray, ghost_terms) -> np.ndarray:
        """One application of the frame operator; frozen edge columns are
        passed through unchanged."""
        m, nw = slab.shape
        if m != self.m or nw != self.grid.n_window:
            raise ValidationError(
                f"slab of shape {slab.shape} does not match the operator "
                f"({self.m} slices, {self.grid.n_window} columns)"
            )
        n = self.n_cell
        u_ext = np.empty((m, nw + n))
        u_ext[:, :nw] = slab
        u_ext[:, nw:] = self.ghost_values(ghost_terms)
        g_ext = self.response(u_ext)
        # previous period (one cell to the right), then the current one
        h = np.concatenate([g_ext[:, n:], g_ext[:, :nw]])
        q = self.alpha * h[1:] + self.beta * h[:-1]
        powers = self.E1 ** np.arange(m)[:, None]
        G = powers * np.cumsum((powers[::-1] * q[:m])[::-1], axis=0)[::-1]
        fresh = np.zeros(nw)
        for j in range(1, m):
            fresh = self.E1 * fresh + q[m + j - 1]
            G[j] += fresh

        w = np.empty((m, nw))
        w_next = self._ghost_memory(ghost_terms)
        EP_cell = self.EP[:n]
        for k in range(self.cells - 1, -1, -1):
            block = G[:, k * n:(k + 1) * n] + EP_cell[None, :] * w_next
            w[:, k * n:(k + 1) * n] = block
            w_next = block

        out = np.array(slab, dtype=float, copy=True)
        conv = self.grid.weight * (self.K @ w.T).T
        out[:, self.interior] = conv[:, self.interior]
        return out


@dataclass
class SubSuperPair:
    """Ordered certificate pair on the period-slab, with its tail data."""

    sub: np.ndarray
    sup: np.ndarray
    rho: float
    rho_prime: float
    rho_super: float
    M: float
    c: float
    direction: np.ndarray
    op: WaveOperator
    sub_ghost: list
    sup_ghost: list
    steady_window: np.ndarray


def build_sub_super(time_kernel, response, c, grid, steady, direction=None, *,
                    speed: SpeedResult | None = None,
                    slices: int = DEFAULT_SLICES,
                    super_margin: float = DEFAULT_SUPER_MARGIN) -> SubSuperPair:
    """Certificate pair for a front at supercritical speed c.

    The subsolution decays at the lower dispersion root rho (eigenvalue
    one), corrected by -M exp(-rho' xi) with rho' in (rho, 2 rho) on the
    subcritical stretch; the supersolution decays at rho * (1 + margin)
    and caps at the steady state. M starts at the smallest value making
    the corrected profile nonpositive for xi <= 0 and doubles until the
    response-curvature inequality and the slab-wide ordering both hold.
    """
    _require_1d(grid)
    tilted = TiltedOperator(time_kernel, response, grid, direction)
    U = _steady_cell_values(steady, grid)
    if speed is None:
        speed = minimal_speed(time_kernel, response, grid, tilted.e)
    if speed.at_rest:
        raise ValidationError("medium subcritical at rest; no fronts exist")
    if c <= speed.c_star:
        raise ValidationError(
            f"speed {c} does not exceed the minimal speed "
            f"{speed.c_star:.6g}; the certificate pair needs c > c*"
        )

    solve = lambda r: principal_eigenpair(tilted.operator(r, c))
    lam_min = solve(speed.rho_star).value
    if lam_min >= 1.0:
        raise ValidationError(
            f"eigenvalue {lam_min:.6g} at the reference decay rate is not "
            "below one; speed too close to the minimal speed"
        )
    rho = optimize.brentq(lambda r: solve(r).value - 1.0, 1e-8,
                          speed.rho_star, xtol=1e-12)

    rho_prime = 1.5 * rho
    pair_prime = solve(rho_prime)
    if pair_prime.value >= 1.0 - 1e-9:
        rates = rho * (1.0 + np.linspace(0.05, 0.95, 19))
        curve = [(r, solve(r)) for r in rates]
        rho_prime, pair_prime = min(curve, key=lambda t: t[1].value)
        if pair_prime.value >= 1.0 - 1e-9:
            err = ConvergenceError(
                f"no decay rate in ({rho:.4g}, {2 * rho:.4g}) has eigenvalue "
                "below one; the speed is too close to the minimal speed"
            )
            err.curve = [(r, p.value) for r, p in curve]
            raise err
    rho_super = rho * (1.0 + super_margin)
    pair_super = solve(rho_super)
    lam_prime, lam_super = pair_prime.value, pair_super.value
    if not lam_super < 1.0:
        raise ConvergenceError(
            f"supersolution rate {rho_super:.6g} has eigenvalue "
            f"{lam_super:.6g}; dispersion is too flat for the margin"
        )

    phi = solve(rho).vector
    phi_prime, phi_super = pair_prime.vector, pair_super.vector
    lam_double = solve(2.0 * rho).value

    op = WaveOperator(time_kernel, response, c, grid, slices=slices)
    x = grid.window_nodes[:, 0]
    xi = x[None, :] - c * op.times[:, None]
    phi_w = grid.periodic_on_window(phi)
    phip_w = grid.periodic_on_window(phi_prime)
    phis_w = grid.periodic_on_window(phi_super)
    U_w = grid.periodic_on_window(U)

    sup_slab = np.minimum(phis_w[None, :] * np.exp(-rho_super * xi), U_w)
    sup_ghost = [(phi_super, rho_super)]

    ratio = float(np.max(phi**2 / phi_prime))
    M = float(np.max(phi / phi_prime))
    ghost_xi = op.ghost_nodes[:, 0][None, :] - c * op.times[:, None]
    while True:
        proof_ok = (M * (1.0 - lam_prime)
                    >= (response.curvature / response.slope0)
                    * ratio * lam_double)
        v = (phi_w[None, :] * np.exp(-rho * xi)
             - M * phip_w[None, :] * np.exp(-rho_prime * xi))
        sub_slab = np.maximum(v, 0.0)
        ghost_v = (phi[None, :] * np.exp(-rho * ghost_xi)
                   - M * phi_prime[None, :] * np.exp(-rho_prime * ghost_xi))
        ordered = (np.all(sub_slab <= sup_slab)
                   and np.all(np.maximum(ghost_v, 0.0)
                              <= phi_super[None, :] * np.exp(-rho_super * ghost_xi)))
        if proof_ok and ordered:
            break
        M *= 2.0
        if M > _M_CAP:
            err = ConvergenceError(
                f"no admissible subsolution coefficient below {_M_CAP:.0e}; "
                f"the speed {c:.6g} is too close to the minimal speed "
                f"{speed.c_star:.6g}"
            )
            err.curve = [(rho, 1.0), (rho_prime, lam_prime),
                         (rho_super, lam_super)]
            raise err
    if np.min(ghost_v) < 0:
        raise ConvergenceError(
            "subsolution still sign-changing beyond the right edge; "
            "enlarge the window so its positive band fits the slab"
        )
    if not np.any(sub_slab > 0):
        raise ConvergenceError(
            "subsolution positive band fell outside the slab; enlarge the "
            "window"
        )
    sub_ghost = [(phi, rho), (-M * phi_prime, rho_prime)]
    return SubSuperPair(sub=sub_slab, sup=sup_slab, rho=rho,
                        rho_prime=rho_prime, rho_super=rho_super, M=M,
                        c=float(c), direction=tilted.e, op=op,
                        sub_ghost=sub_ghost, sup_ghost=sup_ghost,
                        steady_window=U_w)


@dataclass
class WaveSolution:
    """Converged front profile on the period-slab with its certificates."""

    u: np.ndarray
    c: float
    direction: np.ndarray
    residual: float
    front_diagnostics: dict
    iterations: int
    increments: np.ndarray
    ascent: float
    pair: SubSuperPair
    grid: object = field(repr=False)
    times: np.ndarray = field(repr=False)

    def xi(self) -> np.ndarray:
        x = self.grid.window_nodes[:, 0]
        return x[None, :] - self.c * self.times[:, None]


def construct_wave(time_kernel, response, c, grid, steady, direction=None, *,
                   speed: SpeedResult | None = None,
                   pair: SubSuperPair | None = None,
                   slices: int = DEFAULT_SLICES,
                   tol: float = DEFAULT_WAVE_TOL,
                   max_iter: int = 2000,
                   deltas=(5.0, 10.0, 15.0, 20.0)) -> WaveSolution:
    """Decreasing iteration from the supersolution down to the front.

    Stops when the sup-norm increment drops below tol; the reported
    residual is one extra operator application after that. The front's
    translation is fixed by the start of the iteration, the
    supersolution min(phi exp(-rho_s xi), U) with sup phi = 1 and rho_s
    just above the lower dispersion root. The tail diagnostics give, for
    each offset delta, the supremum of u ahead of xi = delta and the
    supremum gap to the steady state behind xi = -delta; as delta grows
    they decay at the lower dispersion root ahead and at the rear rate
    kappa behind.
    """
    if pair is None:
        pair = build_sub_super(time_kernel, response, c, grid, steady,
                               direction, speed=speed, slices=slices)
    op = pair.op
    if tol <= 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    u = pair.sup.copy()
    scale = float(np.max(u))
    increments = []
    ascent = 0.0
    for iteration in range(1, max_iter + 1):
        v = op.apply(u, pair.sup_ghost)
        ascent = max(ascent, float(np.max(v - u)))
        low = float(np.min(v - pair.sub))
        if low < -1e-12 * scale:
            raise ConvergenceError(
                f"iterate fell {-low:.3e} below the subsolution at "
                f"iteration {iteration}; enlarge the slab or tighten tol"
            )
        step = float(np.max(np.abs(v - u)))
        increments.append(step)
        u = v
        if step < tol:
            break
    else:
        tail = ", ".join(f"{r:.2e}" for r in increments[-5:])
        raise ConvergenceError(
            f"front iteration still moving after {max_iter} steps "
            f"(last increments {tail})"
        )
    check = op.apply(u, pair.sup_ghost)
    residual = float(np.max(np.abs(u - check)[:, op.interior]))

    xi = grid.window_nodes[:, 0][None, :] - c * op.times[:, None]
    diagnostics = {}
    for delta in deltas:
        if delta >= grid.window_radius - time_kernel.support_radius:
            continue
        ahead = xi >= delta
        behind = xi <= -delta
        diagnostics[float(delta)] = {
            "ahead_sup": float(np.max(u[ahead])) if np.any(ahead) else np.nan,
            "behind_gap": float(np.max(
                np.abs(u - pair.steady_window[None, :])[behind]
            )) if np.any(behind) else np.nan,
        }
    return WaveSolution(u=u, c=float(c), direction=pair.direction,
                        residual=residual, front_diagnostics=diagnostics,
                        iterations=iteration,
                        increments=np.asarray(increments), ascent=ascent,
                        pair=pair, grid=grid, times=op.times)
