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

An application given an out slab allocates only what it reads of the
tail terms, on every call: the ghost cell's slab and the seed of the
recursion, m x n_cell values each (4 KB for 16 slices of 32 nodes),
and their temporaries. The operator keeps a
workspace sized at construction from the slices and the window
(bounded with the slab by MAX_TRAJECTORY_VALUES): the slab with its
ghost cell, where the response is evaluated in place, and the slice
terms q, which out= ufuncs fill row by row (numpy buffers, and so
allocates for, a ufunc over strided or broadcast 2-D views). The suffix
sums run in place over q's first m rows, a running sum over rows; the
memory G then goes cell-major into the spent response, so the cell
recursion steps over contiguous blocks, and the window product
(CellBlockMatrix.product, whose gather buffers the matrix keeps) reads
it from there and writes into out. Every value is formed by the same
floating-point operations as with a fresh array per step, so fronts
are the same bit for bit. The front iteration alternates the iterate
and its image between two slabs of its own and keeps one
difference buffer for its increments.

The sub- and supersolution pair uses decay rates straddling the lower
dispersion root: the supersolution rate sits slightly above it, buying
a uniform eigenvalue margin that absorbs the quadrature excess of the
discrete operator, and the subsolution coefficient M is doubled until
the pair is ordered on the whole slab.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import dynamics
from ..domain.kernels import exponential_step_weights, window_pair_matrix
from ..errors import ConvergenceError, ValidationError
from .dispersion import SpeedResult, TiltedOperator, minimal_speed
from .scalar import brent_root
from ..spectral import principal_eigenpair

DEFAULT_SLICES = 16
DEFAULT_WAVE_TOL = 1e-6
_SUPER_MARGIN = 5e-3  # supersolution rate rho * (1 + margin)
_M_CAP = 1e8
_MAX_ITER = 2000  # front iteration budget
_TAIL_OFFSETS = (5.0, 10.0, 15.0, 20.0)  # deltas of the tail diagnostics


def _require_1d(grid):
    if grid.dim != 1:
        raise ValidationError(
            "front construction works on one-dimensional windows; higher "
            "dimensions only enter through the direction-resolved speed"
        )


def _require_forward(direction):
    """Refuse any direction but +x (None stands for +x): the slab's ghost
    cell sits right of the window and the frame variable is xi = x - c t,
    so fronts and their diagnostics run along +x only."""
    if direction is not None and not np.array_equal(np.sign(direction),
                                                    [1.0]):
        raise ValidationError(
            "front frames run along +x only, not along direction "
            f"{np.asarray(direction).tolist()}"
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
        reach = time_kernel.half_width
        if grid.window_radius <= reach + 1.0:
            raise ValidationError(
                f"window radius {grid.window_radius} too small for kernel "
                f"reach {reach} plus the closure cell"
            )
        self.support_radius = reach
        self.response = response
        self.c = float(c)
        self.grid = grid
        self.m = int(slices)
        self.period = 1.0 / self.c
        self.dt = self.period / self.m
        self.times = self.dt * np.arange(self.m)

        self.K = window_pair_matrix(grid, time_kernel)
        self.interior = np.zeros(grid.n_window, dtype=bool)
        self.interior[grid.interior_indices(reach)] = True

        mu = np.asarray(time_kernel.decay(grid.window_nodes), dtype=float)
        self.E1, I0, I1 = exponential_step_weights(mu, self.dt)
        self.powers = self.E1 ** np.arange(self.m)[:, None]  # E1**j per slice
        self.alpha = I0 - I1
        self.beta = I1
        self.EP = np.exp(-mu * self.period)

        n = grid.cell_points
        self.n_cell = n
        self.cells = grid.n_window // n
        ghost = grid.window_radius + (np.arange(n) + 0.5) * grid.spacing
        self.ghost_nodes = ghost[:, None]
        self.mu_ghost = np.asarray(time_kernel.decay(self.ghost_nodes), float)
        _, I0g, I1g = exponential_step_weights(self.mu_ghost, self.dt)
        self.alpha_ghost = I0g - I1g
        self.beta_ghost = I1g

        # apply()'s workspace, bounded with the slab above: the slab with
        # its ghost cell (the response, then the cell recursion's blocks),
        # the slice terms q of the last two periods (the suffix sums in
        # place of the first m), one row of the running sum, one cell block
        # and the cell's EP laid out as one
        nw = grid.n_window
        self._ext = np.empty((self.m, nw + n))
        self._q = np.empty((2 * self.m - 1, nw))
        self._fresh = np.empty(nw)
        self._block = np.empty((self.m, n))
        self._EP_block = np.tile(self.EP[:n], (self.m, 1))
        inside = np.flatnonzero(self.interior)  # a run of columns in 1-D
        self._inner = slice(inside[0], inside[-1] + 1)
        # the rows and cell blocks apply() steps over, as views made once:
        # h, the response's rows of the previous period (one cell to the
        # right) then those of the current one; q's rows; G cell-major in
        # the spent response, block k holding cell k's columns of every
        # slice, contiguous
        ext, m = self._ext, self.m
        self._h = [row[n:] for row in ext] + [row[:nw] for row in ext]
        self._q_rows = list(self._q)
        self._power_rows = list(self.powers)
        self._w = ext.reshape(-1)[:m * nw].reshape(self.cells, m, n)
        self._w_blocks = list(self._w)

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

    def apply(self, slab: np.ndarray, ghost_terms, out=None) -> np.ndarray:
        """One application of the frame operator into out, a C-contiguous
        float array of the slab's shape apart from the slab, or into a new
        array; returns it. Frozen edge columns are passed through
        unchanged; everything between, but the tail's ghost fields, runs
        in the operator's workspace."""
        m, nw = slab.shape
        if m != self.m or nw != self.grid.n_window:
            raise ValidationError(
                f"slab of shape {slab.shape} does not match the operator "
                f"({self.m} slices, {self.grid.n_window} columns)"
            )
        if out is None:
            out = np.empty((m, nw))
        elif (out.shape != slab.shape or out.dtype != float
              or not out.flags.c_contiguous
              or np.may_share_memory(out, slab)):
            raise ValidationError(
                f"out must be a C-contiguous float array of shape "
                f"{slab.shape} apart from the slab"
            )
        n, cells = self.n_cell, self.cells
        ext, h, q = self._ext, self._h, self._q_rows
        ext[:, :nw] = slab
        ext[:, nw:] = self.ghost_values(ghost_terms)
        self.response(ext, out=ext)
        # q_i = alpha h_{i+1} + beta h_i, row by row: numpy buffers a ufunc
        # over strided, broadcast or reversed 2-D views, allocating as it
        # goes
        fresh = self._fresh
        for i, row in enumerate(q):
            np.multiply(self.alpha, h[i + 1], out=row)
            row += np.multiply(self.beta, h[i], out=fresh)
        # G_j = E1**j sum_{i>=j} E1**(m-1-i) q_i over the previous period,
        # plus the running sum over the current one, in place over q's
        # first m rows (the suffix sums bottom up)
        powers = self._power_rows
        q[m - 1] *= powers[0]
        for i in range(m - 2, -1, -1):
            q[i] *= powers[m - 1 - i]
            q[i] += q[i + 1]
        G = self._q[:m]
        G *= self.powers
        fresh.fill(0.0)
        for j in range(1, m):
            fresh *= self.E1
            fresh += q[m + j - 1]
            q[j] += fresh

        # w[k] = G[:, k] + EP w[k + 1] over cells k, right to left, on the
        # cell-major copy of G
        w, blocks = self._w, self._w_blocks
        w[...] = G.reshape(m, cells, n).transpose(1, 0, 2)
        block, EP_block = self._block, self._EP_block
        np.multiply(EP_block, self._ghost_memory(ghost_terms), out=block)
        blocks[-1] += block
        for k in range(cells - 2, -1, -1):
            np.multiply(EP_block, blocks[k + 1], out=block)
            blocks[k] += block

        self.K.product(w.transpose(1, 0, 2), out=out)
        out *= self.grid.weight  # the frozen edge columns are then replaced
        inner = self._inner
        out[:, :inner.start] = slab[:, :inner.start]
        out[:, inner.stop:] = slab[:, inner.stop:]
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


def build_sub_super(time_kernel, response, c, grid, steady, *,
                    speed: SpeedResult | None = None,
                    slices: int = DEFAULT_SLICES) -> SubSuperPair:
    """Certificate pair for a front at supercritical speed c along +x.

    The subsolution decays at the lower dispersion root rho (eigenvalue
    one), corrected by -M exp(-rho' xi) with rho' in (rho, 2 rho) on the
    subcritical stretch; the supersolution decays at rho * (1 + margin)
    and caps at the steady state. M starts at the smallest value making
    the corrected profile nonpositive for xi <= 0 and doubles until the
    response-curvature inequality and the slab-wide ordering both hold.
    speed, searched when not given, must be along +x.
    """
    _require_1d(grid)
    _require_forward(None if speed is None else speed.direction)
    tilted = TiltedOperator(time_kernel, response, grid)
    U = _steady_cell_values(steady, grid)
    if speed is None:
        speed = minimal_speed(time_kernel, response, grid)
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
    rho = brent_root(lambda r: solve(r).value - 1.0, 1e-8, speed.rho_star,
                     xtol=1e-12)

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
    rho_super = rho * (1.0 + _SUPER_MARGIN)
    pair_super = solve(rho_super)
    lam_prime, lam_super = pair_prime.value, pair_super.value
    if not lam_super < 1.0:
        err = ConvergenceError(
            f"supersolution rate {rho_super:.6g} has eigenvalue "
            f"{lam_super:.6g}; dispersion is too flat for the margin"
        )
        err.rho_super, err.lam_super = rho_super, lam_super
        raise err

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
    # the loop's slab-sized arrays are made once: the two exponential
    # modes, the subsolution and the ordering mask
    lead = phi_w[None, :] * np.exp(-rho * xi)
    bend = np.exp(-rho_prime * xi)
    sub_slab = np.empty_like(sup_slab)
    below = np.empty(sup_slab.shape, dtype=bool)
    while True:
        proof_ok = (M * (1.0 - lam_prime)
                    >= (response.curvature / response.slope0)
                    * ratio * lam_double)
        # max(lead - M phi' exp(-rho' xi), 0)
        np.multiply(M * phip_w[None, :], bend, out=sub_slab)
        np.subtract(lead, sub_slab, out=sub_slab)
        np.maximum(sub_slab, 0.0, out=sub_slab)
        ghost_v = (phi[None, :] * np.exp(-rho * ghost_xi)
                   - M * phi_prime[None, :] * np.exp(-rho_prime * ghost_xi))
        ordered = (np.less_equal(sub_slab, sup_slab, out=below).all()
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
    # the window is too narrow for the pair, which a larger window mends:
    # input to refuse, not a solver failure
    if np.min(ghost_v) < 0:
        raise ValidationError(
            "subsolution still sign-changing beyond the right edge; "
            "enlarge the window so its positive band fits the slab"
        )
    if not np.any(sub_slab > 0):
        raise ValidationError(
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


def construct_wave(pair: SubSuperPair, *,
                   tol: float = DEFAULT_WAVE_TOL) -> WaveSolution:
    """Decreasing iteration from the supersolution down to the front.

    Speed, slab operator and steady state are the pair's. Stops when the
    sup-norm increment drops below tol; the reported residual is one
    extra operator application after that. The front's translation is
    fixed by the start of the iteration, the supersolution
    min(phi exp(-rho_s xi), U) with sup phi = 1 and rho_s just above the
    lower dispersion root. The tail diagnostics give, for each offset
    delta of _TAIL_OFFSETS, the supremum of u ahead of xi = delta and the
    supremum gap to the steady state behind xi = -delta; as delta grows
    they decay at the lower dispersion root ahead and at the rear rate
    kappa behind.
    """
    if tol <= 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    op, grid = pair.op, pair.op.grid
    # the iterate and the image alternate between two slabs of this call's
    # own, so the operator's applications allocate only the tail's small
    # ghost fields
    u = pair.sup.copy()
    v = np.empty_like(u)
    scale = float(np.max(u))
    increments = []
    ascent = 0.0
    diff = np.empty_like(u)  # v - sub, then v - u
    for iteration in range(1, _MAX_ITER + 1):
        op.apply(u, pair.sup_ghost, out=v)
        low = float(np.subtract(v, pair.sub, out=diff).min())
        if low < -1e-12 * scale:
            err = ConvergenceError(
                f"iterate fell {-low:.3e} below the subsolution at "
                f"iteration {iteration}; enlarge the slab or tighten tol"
            )
            err.iteration, err.low = iteration, low
            raise err
        np.subtract(v, u, out=diff)
        rise, fall = float(diff.max()), float(diff.min())
        ascent = max(ascent, rise)
        step = max(abs(rise), abs(fall))  # the largest |v - u|
        increments.append(step)
        u, v = v, u
        if step < tol:
            break
    else:
        tail = ", ".join(f"{r:.2e}" for r in increments[-5:])
        err = ConvergenceError(
            f"front iteration still moving after {_MAX_ITER} steps "
            f"(last increments {tail})"
        )
        err.iterations, err.increments = _MAX_ITER, increments[-5:]
        raise err
    check = op.apply(u, pair.sup_ghost, out=v)
    np.abs(np.subtract(u, check, out=diff), out=diff)
    residual = float(np.max(diff[:, op.interior]))

    xi = grid.window_nodes[:, 0][None, :] - pair.c * op.times[:, None]
    gap = np.abs(np.subtract(u, pair.steady_window[None, :], out=diff),
                 out=diff)
    diagnostics = {}
    for delta in _TAIL_OFFSETS:
        if delta >= grid.window_radius - op.support_radius:
            continue
        ahead = xi >= delta
        behind = xi <= -delta
        diagnostics[float(delta)] = {
            "ahead_sup": float(np.max(u[ahead])) if np.any(ahead) else np.nan,
            "behind_gap": (float(np.max(gap[behind])) if np.any(behind)
                           else np.nan),
        }
    return WaveSolution(u=u, c=pair.c, direction=pair.direction,
                        residual=residual, front_diagnostics=diagnostics,
                        iterations=iteration,
                        increments=np.asarray(increments), ascent=ascent,
                        pair=pair, grid=grid, times=op.times)
