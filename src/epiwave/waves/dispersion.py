"""Directional dispersion relation and the minimal front speed.

Seeking solutions that decay like exp(-rho (x.e - c t)) turns the
linearized renewal operator into a periodic eigenproblem: the kernel is
time-integrated with exponent rho*c and tilted by exp(-rho (y - x).e),
and the principal eigenvalue lambda_1(rho, c, e) of the periodized
matrix decides whether that decay profile is amplified. That matrix is
the tilted operator exp(rho x.e) L exp(-rho x.e) on the cell, and every
evaluation of it goes through one TiltedOperator per medium. In Bloch
form it is D B(rho) D^-1, with D = diag(exp(rho x.e)) and B(rho) =
sum_k exp(-rho k.e) K_k over the lattice-image blocks K_k of the kernel.
No rho enters the K_k, so the operator tabulates them once and each rate
only reweights the table; similar matrices share their eigenvalues, and
the eigenvector of the tilted matrix is D times that of B. The minimal
speed c*(e) is the smallest c at which some rho achieves
lambda_1(rho, c, e) <= 1; the minimizing rho* gives the front decay.
The search bisects c and scans a fixed grid of rates at each speed. The
speeds it visits close in on c*, so each rate's Perron vectors at the
speeds already searched are close to the next one, and each solve
starts from them instead of from the constant vector: the same solves
take fewer power iterations. Single evaluations (TiltedOperator.point,
the dispersion table) start cold, so each is a function of (rho, c)
alone.

Below the minimal speed no real rho works, but the eigenvalue relation
lambda_1(rho, c) = 1 still has complex roots near rho*. Those are found
by Newton continuation in c, with the eigenpair of the complex-weighted
matrix tracked by Rayleigh-quotient iteration from the previous step.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from ..domain.grid import MAX_CELL_BYTES
from ..domain.kernels import image_table, periodize_kernel
from ..errors import ConvergenceError, ValidationError
from ..spectral import DEFAULT_EIGEN_TOL, OperatorMatrix, principal_eigenpair
from .scalar import brent_minimize

_C_TOL = 1e-8  # width of the final speed bracket
_C_MAX = 64.0  # the doubling search for an upper speed stops beyond this
_NEWTON_TOL = 1e-10  # |lambda - 1| at a continuation step's root
_MAX_NEWTON = 30  # Newton steps per continuation step before it halves
# continuation steps per root, halved ones included: without a halving
# 8 steps reach c, and each halving at the start doubles the steps left
_MAX_STEPS = 512
_MAX_RQI = 80  # Rayleigh-quotient steps per complex eigenpair
_RHO_GRID_SIZE = 64
_RHO_GRID_TOP = 8.0


@dataclass
class DispersionPoint:
    """One sample of the dispersion relation.

    rho is real on the standard branch and complex in continuation mode;
    phi is the periodic eigenfunction on the cell grid and residual the
    sup defect of the eigen equation.
    """

    rho: object
    c: float
    direction: np.ndarray
    value: object
    phi: np.ndarray
    residual: float


@dataclass
class SpeedResult:
    """Minimal directional speed c* and the decay rate rho* achieving it.

    at_rest means the medium is already subcritical (eigenvalue at
    rho = 0, c = 0 not above one), in which case c* = 0 and no decay
    rate is reported.
    """

    c_star: float
    rho_star: float | None
    at_rest: bool
    direction: np.ndarray
    value: float


class TiltedOperator:
    """The tilted periodic operator exp(rho x.e) L exp(-rho x.e) on the cell.

    Built once per (kernel, response, grid, direction) for a separable
    kernel: it checks the kernel's dimension (its Reach has already
    refused a kernel without compact support, on which the tilt could
    overflow) and that mu is positive and finite on the cell nodes;
    normalizes the direction (e); and assembles the matrix at any (rho, c),
    real or complex, after _decay_rate has refused the pair. Its bound
    rho_max on real rates comes from the lattice shifts the kernel reaches,
    the cell nodes and the plain lattice sum's largest entry, before any
    exponential is taken: below it every tilted sum, matrix and
    power-iteration product is finite.

    The tilted cell matrix is D B D^-1, with D = diag(exp(rho x.e)) on the
    cell nodes and B = sum_k exp(-rho k.e) K_k the Bloch sum of the
    kernel's lattice-image blocks K_k (periodize_kernel). No rho enters
    the blocks. The rho*c exponent only rescales columns by
    1 / (mu(y) + rho c), so the spatial kernel's image table is tabulated
    once, here (image_table: from its factors for a box kernel with
    symmetry factors), and each rate only reweights it; the tilted sum is
    cached per real rho, the rates a speed search revisits across speeds,
    and the cache empties before it would hold more than MAX_CELL_BYTES.
    Complex rates are summed afresh: a continuation path meets each only a
    few times.
    """

    def __init__(self, time_kernel, response, grid, direction=None):
        e = np.eye(grid.dim)[0] if direction is None else np.atleast_1d(
            np.asarray(direction, dtype=float))
        if e.shape != (grid.dim,):
            raise ValidationError(f"direction of shape {e.shape} does not "
                                  f"match dimension {grid.dim}")
        norm = float(np.linalg.norm(e))
        if norm == 0.0:
            raise ValidationError("direction must be a nonzero vector")
        self.e = e / norm
        if time_kernel.dim != grid.dim:
            raise ValidationError(
                f"kernel dimension {time_kernel.dim} does not match grid "
                f"dimension {grid.dim}"
            )
        self.slope0 = response.slope0
        self.grid = grid
        self.mu = np.asarray(time_kernel.decay(grid.cell_nodes), dtype=float)
        bad = np.flatnonzero(~(np.isfinite(self.mu) & (self.mu > 0)))
        if bad.size:
            i = bad[0]
            raise ValidationError(
                "decay rate mu must be positive and finite on the cell "
                f"nodes; mu = {self.mu[i]} at node {i}, "
                f"{grid.cell_nodes[i].tolist()}"
            )
        self.shifts, self.blocks = image_table(time_kernel, grid, decay=False)
        gain = response.slope0 / self.mu.min()
        # periodize_kernel weighs images by exp(-rho k.e), then scales rows
        # by exp(rho x_i.e) and divides columns by exp(rho x_j.e), so each
        # factor, sum and entry it forms is at most exp(rho * span) times
        # the plain lattice sum's largest entry; matrix and the power
        # iteration's sums over the unit cell multiply that by at most gain
        x = grid.cell_nodes @ self.e
        span = (np.abs(self.shifts @ self.e).max() + max(x.max(), 0.0)
                + max(-x.min(), 0.0))
        bound = max(1.0, float(self.blocks.sum(axis=0).max()) * max(1.0, gain))
        self.rho_max = max(np.log(np.finfo(float).max) - np.log(bound),
                           0.0) / span
        self._cache: dict = {}
        self._cached_bytes = 0

    def _decay_rate(self, rho, c):
        """rho as a float, or as a complex when its imaginary part is
        nonzero, after refusing a speed c that is negative or not finite, a
        rate that is not finite, and a real rate below 0 or above
        rho_max."""
        if not 0 <= c < np.inf:  # NaN fails too
            raise ValidationError(f"speed must be finite and nonnegative, "
                                  f"got {c}")
        if isinstance(rho, float) and 0 <= rho <= self.rho_max:
            return float(rho)  # every real rate of a speed search
        rho = complex(rho) if np.imag(rho) else float(np.real(rho))
        if isinstance(rho, complex):
            if not cmath.isfinite(rho):
                raise ValidationError(f"decay rate must be finite, got {rho}")
        elif not 0 <= rho <= self.rho_max:  # NaN and infinities fail too
            raise ValidationError(
                f"decay rate must be nonnegative and at most "
                f"{self.rho_max:.6g}, got {rho}: beyond that the tilted "
                "sums of this kernel along the direction could overflow")
        return rho

    def _lattice_sum(self, rho) -> np.ndarray:
        """The tilted lattice sum sum_k K(x_i, x_j + k) exp(-rho (x_j + k - x_i).e)
        on the cell, of the spatial kernel K, at a rate _decay_rate has
        already checked: no c enters it (the decay enters in matrix)."""
        mat = self._cache.get(rho)
        if mat is None:
            mat = periodize_kernel(self.shifts, self.blocks, self.grid,
                                   rho * self.e)
            if isinstance(rho, float):  # complex rates recur only a few times
                if self._cached_bytes + mat.nbytes > MAX_CELL_BYTES:
                    self._cache.clear()
                    self._cached_bytes = 0
                self._cache[rho] = mat
                self._cached_bytes += mat.nbytes
        return mat

    def matrix(self, rho, c) -> np.ndarray:
        """Dense tilted cell matrix at (rho, c), slope and quadrature
        included; complex when rho has a nonzero imaginary part."""
        rho = self._decay_rate(rho, c)
        scale = self.slope0 * self.grid.weight
        return self._lattice_sum(rho) * (scale / (self.mu + rho * c))

    def operator(self, rho, c) -> OperatorMatrix:
        """The cell operator at real (rho, c), for principal_eigenpair."""
        return OperatorMatrix(entries=self.matrix(rho, c),
                              quadrature=self.grid.weight)

    def point(self, rho, c, *, seed=None) -> DispersionPoint:
        """Principal eigenpair at (rho, c) to DEFAULT_EIGEN_TOL; see
        dispersion_eigenvalue."""
        if not np.imag(rho):
            pair = principal_eigenpair(self.operator(rho, c))
            return DispersionPoint(rho=float(np.real(rho)), c=float(c),
                                   direction=self.e, value=pair.value,
                                   phi=pair.vector, residual=pair.residual)
        if seed is None:
            raise ValidationError("complex rho requires a seed eigenpair "
                                  "from a nearby point")
        lam, phi, residual = _complex_eigenpair(
            self.matrix(rho, c), np.asarray(getattr(seed, "phi", seed)),
            tol=DEFAULT_EIGEN_TOL)
        return DispersionPoint(rho=complex(rho), c=float(c), direction=self.e,
                               value=lam, phi=phi, residual=residual)


def _complex_eigenpair(A, phi, tol=1e-12):
    """Rayleigh-quotient iteration toward the eigenpair nearest the seed."""
    n = A.shape[0]
    phi = np.asarray(phi, dtype=complex)
    phi = phi / np.max(np.abs(phi))
    lam = 0.0
    for _ in range(_MAX_RQI):
        Aphi = A @ phi
        lam = (np.vdot(phi, Aphi)) / (np.vdot(phi, phi))
        residual = float(np.max(np.abs(Aphi - lam * phi)))
        if residual <= tol * max(1.0, abs(lam)):
            return lam, phi, residual
        shift = lam
        try:
            z = np.linalg.solve(A - shift * np.eye(n), phi)
        except np.linalg.LinAlgError:
            # sitting exactly on the eigenvalue; nudge the shift off it
            z = np.linalg.solve(A - (shift + 1e-12 + 1e-12j) * np.eye(n), phi)
        phi = z / np.max(np.abs(z))
    raise ConvergenceError(
        f"complex eigenpair iteration stalled at residual {residual:.3e}"
    )


def dispersion_eigenvalue(time_kernel, response, rho, c, grid,
                          direction=None, *, seed=None) -> DispersionPoint:
    """Principal eigenvalue of the tilted periodic operator at (rho, c).

    Real nonnegative rho runs the positive-operator solver. A complex
    rho needs a seed from a nearby real or previously continued
    evaluation, either a DispersionPoint or a bare eigenvector; the
    eigenpair is then tracked by inverse iteration rather than
    recomputed from scratch.
    """
    return TiltedOperator(time_kernel, response, grid, direction).point(
        rho, c, seed=seed)


def default_rho_grid() -> np.ndarray:
    return np.geomspace(1e-3, _RHO_GRID_TOP, _RHO_GRID_SIZE)


def _min_over_rho(tilted, rho_grid, c, starts):
    """Minimize the eigenvalue over rho at fixed c: grid scan, then a
    bounded Brent refinement between the flanking grid points.

    starts holds, per grid rate, a start vector built from the rate's
    Perron vectors at speeds already searched (None before the first
    scan); each solve of the scan starts from it, and the scan leaves its
    own vectors there. Every Brent evaluation starts from the vector of
    the scan's minimizing rate, so within one call the eigenvalue is a
    function of rho alone."""
    pairs = [principal_eigenpair(tilted.operator(r, c), start=start)
             for r, start in zip(rho_grid, starts)]
    starts[:] = [pair.vector for pair in pairs]
    values = np.array([pair.value for pair in pairs])
    i = int(np.argmin(values))
    lo = rho_grid[max(i - 1, 0)]
    hi = rho_grid[min(i + 1, len(rho_grid) - 1)]
    if lo == hi:
        return float(values[i]), float(rho_grid[i])

    def lam(rho):
        return principal_eigenpair(tilted.operator(rho, c),
                                   start=starts[i]).value

    x, fx = brent_minimize(lam, lo, hi, xatol=1e-6)
    if fx <= values[i]:
        return fx, x
    return float(values[i]), float(rho_grid[i])


def minimal_speed(time_kernel, response, grid, direction=None,
                  rho_grid=None) -> SpeedResult:
    """Smallest speed at which some decay rate stops being amplified.

    Bisection on c, down to _C_TOL, of min_rho lambda_1(rho, c) <= 1. When
    the medium is subcritical at rest the infimum set contains zero and
    the result is flagged instead of searched. The search keeps the Perron
    vectors of the grid rates at the ends of its speed bracket, and each
    scan starts every rate's solve from them (_min_over_rho): from their
    mean once both ends have been searched, else from the rate's vector at
    the last speed searched. The first scan starts from the constant
    vector.
    """
    tilted = TiltedOperator(time_kernel, response, grid, direction)
    if rho_grid is None:
        rho_grid = default_rho_grid()
    else:
        rho_grid = np.asarray(rho_grid, dtype=float)
        if rho_grid.ndim != 1 or len(rho_grid) < 2 or not np.all(rho_grid > 0):
            raise ValidationError("rho_grid must be positive values, at least two")
        rho_grid = np.sort(rho_grid)
    tilted._decay_rate(rho_grid[-1], 0.0)  # the largest rate decides

    rest = principal_eigenpair(tilted.operator(0.0, 0.0))
    if rest.value <= 1.0:
        return SpeedResult(c_star=0.0, rho_star=None, at_rest=True,
                           direction=tilted.e, value=rest.value)

    starts = [None] * len(rho_grid)
    c_hi = 1.0
    while True:
        val_hi, rho_hi = _min_over_rho(tilted, rho_grid, c_hi, starts)
        if val_hi <= 1.0:
            break
        c_hi *= 2.0
        if c_hi > _C_MAX:
            err = ConvergenceError(
                f"no speed up to {_C_MAX} reaches eigenvalue one (last "
                f"minimum {val_hi:.4g}); check the kernel growth"
            )
            err.c_max, err.last_minimum, err.rho = _C_MAX, val_hi, rho_hi
            raise err
    c_lo = 0.0
    val, rho_min = val_hi, rho_hi
    hi_vectors, lo_vectors = starts, None  # per grid rate, at c_hi and c_lo
    while c_hi - c_lo > _C_TOL:
        mid = 0.5 * (c_lo + c_hi)
        # the vectors vary smoothly with c, so their mean over the bracket's
        # ends is off by O(width**2) at its middle, one end by O(width)
        starts = (list(hi_vectors) if lo_vectors is None else
                  [0.5 * (a + b) for a, b in zip(lo_vectors, hi_vectors)])
        val_mid, rho_mid = _min_over_rho(tilted, rho_grid, mid, starts)
        if val_mid <= 1.0:
            c_hi, val, rho_min, hi_vectors = mid, val_mid, rho_mid, starts
        else:
            c_lo, lo_vectors = mid, starts
    return SpeedResult(c_star=c_hi, rho_star=rho_min, at_rest=False,
                       direction=tilted.e, value=val)


def complex_decay_root(time_kernel, response, c, grid, *,
                       speed: SpeedResult | None = None) -> DispersionPoint:
    """Continue the decay-rate root of lambda_1(rho, c) = 1 below c*.

    Starts from the real tangency (rho*, c*) of speed (searched along +x
    when not given), along its direction, and walks c down in steps,
    halving a step where Newton fails; each solves for complex rho with
    an eigenpair carried between steps. At c = c* the seed itself is
    returned; below it the root picks up an imaginary part, recognizable
    oscillation of the decaying profile. Im rho >= 0 is reported.
    """
    tilted = TiltedOperator(time_kernel, response, grid,
                            None if speed is None else speed.direction)
    c = float(c)
    tilted._decay_rate(0.0, c)  # refuses a negative or non-finite speed
    if speed is None:
        speed = minimal_speed(time_kernel, response, grid)
    if speed.at_rest:
        raise ValidationError(
            "medium subcritical at rest; there is no front decay branch"
        )
    c_star, rho_star = speed.c_star, speed.rho_star
    if c > c_star * (1.0 + 1e-12):
        raise ValidationError(
            f"speed {c} is above the minimal speed {c_star:.6g}; the real "
            "dispersion root applies there"
        )
    start = tilted.point(rho_star, c_star)
    if c >= c_star * (1.0 - 1e-13):
        return start

    def lam_at(rho, cc, phi_seed):
        val, phi, _ = _complex_eigenpair(tilted.matrix(complex(rho), cc),
                                         phi_seed)
        return val, phi

    # local curvature in rho and slope in c fix the first complex kick
    h = 1e-3 * max(rho_star, 1.0)
    lam_p = tilted.point(rho_star + h, c_star).value
    lam_m = tilted.point(rho_star - h, c_star).value
    curv = (lam_p - 2.0 * start.value + lam_m) / h**2
    hc = 1e-3 * max(c_star, 1.0)
    lam_c = tilted.point(rho_star, c_star - hc).value
    slope_c = (start.value - lam_c) / hc
    if curv <= 0:
        raise ConvergenceError(
            f"flat dispersion curvature {curv:.3g} at the tangency; cannot "
            "seed the complex branch"
        )

    phi = np.asarray(start.phi, dtype=complex)
    rho = complex(rho_star)
    cc = c_star
    step = max((c_star - c) / 8.0, 1e-6)
    fd = 1e-6 * max(rho_star, 1.0)
    steps = 0
    while cc > c:
        # a halved step never grows back: cut a walk of tiny steps
        steps += 1
        if steps > _MAX_STEPS:
            raise ConvergenceError(
                f"continuation from c* = {c_star:.6g} reached only "
                f"c = {cc:.6g} of {c:.6g} in {_MAX_STEPS} steps; try a "
                "speed closer to c*"
            )
        cc_next = max(c, cc - step)
        if abs(rho.imag) < 1e-12:
            kick = np.sqrt(max(2.0 * abs(slope_c) * (cc - cc_next) / curv,
                               0.0))
            guess = complex(rho.real, kick)
        else:
            guess = rho
        try:
            z, phi_z = guess, phi
            for _ in range(_MAX_NEWTON):
                lam_z, phi_z = lam_at(z, cc_next, phi_z)
                f0 = lam_z - 1.0
                if abs(f0) <= _NEWTON_TOL:
                    break
                fp, _ = lam_at(z + fd, cc_next, phi_z)
                fm, _ = lam_at(z - fd, cc_next, phi_z)
                deriv = (fp - fm) / (2.0 * fd)
                if deriv == 0:
                    raise ConvergenceError("zero dispersion derivative")
                z = z - f0 / deriv
                if not np.isfinite(z.real) or not np.isfinite(z.imag):
                    raise ConvergenceError("Newton iterate left the plane")
            else:
                raise ConvergenceError(
                    f"Newton stalled after {_MAX_NEWTON} steps")
        except ConvergenceError:
            step *= 0.5
            if step < 1e-9:
                raise ConvergenceError(
                    f"continuation from c* = {c_star:.6g} broke down near "
                    f"c = {cc:.6g}; try a speed closer to c*"
                )
            continue
        rho, value, phi, cc = z, lam_z, phi_z, cc_next
    if rho.imag < 0:
        # the matrix at the conjugate rate is the conjugate matrix
        rho, value, phi = rho.conjugate(), value.conjugate(), phi.conjugate()
    return DispersionPoint(rho=rho, c=c, direction=tilted.e, value=value,
                           phi=phi, residual=float(abs(value - 1.0)))
