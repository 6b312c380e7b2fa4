"""Directional dispersion relation and the minimal front speed.

Seeking solutions that decay like exp(-rho (x.e - c t)) turns the
linearized renewal operator into a periodic eigenproblem: the kernel is
time-integrated with exponent rho*c and tilted by exp(-rho (y - x).e),
and the principal eigenvalue lambda_1(rho, c, e) of the periodized
matrix decides whether that decay profile is amplified. That matrix is
the tilted operator exp(rho x.e) L exp(-rho x.e) on the cell, and every
evaluation of it goes through one TiltedOperator per medium. The minimal
speed c*(e) is the smallest c at which some rho achieves
lambda_1(rho, c, e) <= 1; the minimizing rho* gives the front decay.

Below the minimal speed no real rho works, but the eigenvalue relation
lambda_1(rho, c) = 1 still has complex roots near rho*. Those are found
by Newton continuation in c, with the eigenpair of the complex-weighted
matrix tracked by Rayleigh-quotient iteration from the previous step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from ..domain.grid import MAX_CELL_BYTES
from ..domain.kernels import SeparableKernel, periodize_kernel
from ..errors import ConvergenceError, ValidationError
from ..spectral import DEFAULT_EIGEN_TOL, OperatorMatrix, principal_eigenpair

DEFAULT_C_TOL = 1e-8
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

    Built once per (kernel, response, grid, direction): it checks the
    kernel, normalizes the direction (e), refuses c < 0 and real rho < 0,
    and assembles the matrix at any (rho, c), real or complex. For
    separable kernels the rho*c exponent only rescales columns by
    1 / (mu(y) + rho c), so the tilted spatial lattice sum is cached per
    rho and reused across speeds; the cache empties before it would hold
    more than MAX_CELL_BYTES.
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
        if not np.isfinite(time_kernel.support_radius):
            raise ValidationError(
                "kernel without compact support: the exponential tilt can "
                "overflow the lattice sum, and speeds may be super-linear"
            )
        if time_kernel.dim != grid.dim:
            raise ValidationError(
                f"kernel dimension {time_kernel.dim} does not match grid "
                f"dimension {grid.dim}"
            )
        self.kernel = time_kernel
        self.slope0 = response.slope0
        self.grid = grid
        self.separable = isinstance(time_kernel, SeparableKernel)
        if self.separable:
            self.mu = np.asarray(time_kernel.mu_fn(grid.cell_nodes), dtype=float)
        self._cache: dict = {}
        self._cached_bytes = 0

    def _lattice_sum(self, rho, fn):
        def pair(X, Y):
            return fn(X, Y) * np.exp(-rho * ((Y - X) @ self.e))

        return periodize_kernel(pair, self.grid,
                                support_radius=self.kernel.support_radius)

    def _tilted_spatial(self, rho):
        mat = self._cache.get(rho)
        if mat is None:
            mat = self._lattice_sum(rho, self.kernel.spatial_fn)
            if self._cached_bytes + mat.nbytes > MAX_CELL_BYTES:
                self._cache.clear()
                self._cached_bytes = 0
            self._cache[rho] = mat
            self._cached_bytes += mat.nbytes
        return mat

    def matrix(self, rho, c) -> np.ndarray:
        """Dense tilted cell matrix at (rho, c), slope and quadrature
        included; complex when rho has a nonzero imaginary part."""
        if c < 0:
            raise ValidationError(f"speed must be nonnegative, got {c}")
        rho = complex(rho) if np.imag(rho) else float(np.real(rho))
        if isinstance(rho, float) and rho < 0:
            raise ValidationError(f"decay rate must be nonnegative, got {rho}")
        scale = self.slope0 * self.grid.weight
        if self.separable:
            return self._tilted_spatial(rho) * (scale / (self.mu + rho * c))
        s = rho * c
        return scale * self._lattice_sum(
            rho, lambda X, Y: self.kernel.time_integral(X, Y, s=s))

    def operator(self, rho, c) -> OperatorMatrix:
        """The cell operator at real (rho, c), for principal_eigenpair."""
        return OperatorMatrix(entries=self.matrix(rho, c),
                              quadrature=self.grid.weight)

    def point(self, rho, c, *, seed=None,
              tol: float = DEFAULT_EIGEN_TOL) -> DispersionPoint:
        """Principal eigenpair at (rho, c); see dispersion_eigenvalue."""
        if not np.imag(rho):
            pair = principal_eigenpair(self.operator(rho, c), tol=tol)
            return DispersionPoint(rho=float(np.real(rho)), c=float(c),
                                   direction=self.e, value=pair.value,
                                   phi=pair.vector, residual=pair.residual)
        if seed is None:
            raise ValidationError("complex rho requires a seed eigenpair "
                                  "from a nearby point")
        lam, phi, residual = _complex_eigenpair(
            self.matrix(rho, c), np.asarray(getattr(seed, "phi", seed)),
            tol=tol)
        return DispersionPoint(rho=complex(rho), c=float(c), direction=self.e,
                               value=lam, phi=phi, residual=residual)


def _complex_eigenpair(A, phi, tol=1e-12, max_iter=80):
    """Rayleigh-quotient iteration toward the eigenpair nearest the seed."""
    n = A.shape[0]
    phi = np.asarray(phi, dtype=complex)
    phi = phi / np.max(np.abs(phi))
    lam = 0.0
    for _ in range(max_iter):
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
                          direction=None, *, seed=None,
                          tol: float = DEFAULT_EIGEN_TOL) -> DispersionPoint:
    """Principal eigenvalue of the tilted periodic operator at (rho, c).

    Real nonnegative rho runs the positive-operator solver. A complex
    rho needs a seed from a nearby real or previously continued
    evaluation, either a DispersionPoint or a bare eigenvector; the
    eigenpair is then tracked by inverse iteration rather than
    recomputed from scratch.
    """
    return TiltedOperator(time_kernel, response, grid, direction).point(
        rho, c, seed=seed, tol=tol)


def default_rho_grid() -> np.ndarray:
    return np.geomspace(1e-3, _RHO_GRID_TOP, _RHO_GRID_SIZE)


def _min_over_rho(tilted, rho_grid, c, eig_tol):
    """Minimize the eigenvalue over rho at fixed c: grid scan, then a
    bounded golden refinement between the flanking grid points."""

    def lam(rho):
        return principal_eigenpair(tilted.operator(rho, c), tol=eig_tol).value

    values = np.array([lam(r) for r in rho_grid])
    i = int(np.argmin(values))
    lo = rho_grid[max(i - 1, 0)]
    hi = rho_grid[min(i + 1, len(rho_grid) - 1)]
    if lo == hi:
        return float(values[i]), float(rho_grid[i])
    res = optimize.minimize_scalar(lam, bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-6})
    if res.fun <= values[i]:
        return float(res.fun), float(res.x)
    return float(values[i]), float(rho_grid[i])


def minimal_speed(time_kernel, response, grid, direction=None,
                  rho_grid=None, c_tol: float = DEFAULT_C_TOL,
                  c_max: float = 64.0,
                  eig_tol: float = DEFAULT_EIGEN_TOL) -> SpeedResult:
    """Smallest speed at which some decay rate stops being amplified.

    Bisection on c of the predicate min_rho lambda_1(rho, c) <= 1. When
    the medium is subcritical at rest the infimum set contains zero and
    the result is flagged instead of searched.
    """
    tilted = TiltedOperator(time_kernel, response, grid, direction)
    if rho_grid is None:
        rho_grid = default_rho_grid()
    else:
        rho_grid = np.asarray(rho_grid, dtype=float)
        if rho_grid.ndim != 1 or len(rho_grid) < 2 or np.any(rho_grid <= 0):
            raise ValidationError("rho_grid must be positive values, at least two")
        rho_grid = np.sort(rho_grid)
    if c_tol <= 0:
        raise ValidationError(f"c_tol must be positive, got {c_tol}")

    rest = principal_eigenpair(tilted.operator(0.0, 0.0), tol=eig_tol)
    if rest.value <= 1.0:
        return SpeedResult(c_star=0.0, rho_star=None, at_rest=True,
                           direction=tilted.e, value=rest.value)

    c_hi = 1.0
    while True:
        val_hi, rho_hi = _min_over_rho(tilted, rho_grid, c_hi, eig_tol)
        if val_hi <= 1.0:
            break
        c_hi *= 2.0
        if c_hi > c_max:
            raise ConvergenceError(
                f"no speed up to {c_max} reaches eigenvalue one (last "
                f"minimum {val_hi:.4g}); enlarge c_max or check the kernel "
                "growth"
            )
    c_lo = 0.0
    val, rho_min = val_hi, rho_hi
    while c_hi - c_lo > c_tol:
        mid = 0.5 * (c_lo + c_hi)
        val_mid, rho_mid = _min_over_rho(tilted, rho_grid, mid, eig_tol)
        if val_mid <= 1.0:
            c_hi, val, rho_min = mid, val_mid, rho_mid
        else:
            c_lo = mid
    return SpeedResult(c_star=c_hi, rho_star=rho_min, at_rest=False,
                       direction=tilted.e, value=val)


def complex_decay_root(time_kernel, response, c, grid, direction=None, *,
                       speed: SpeedResult | None = None,
                       newton_tol: float = 1e-10,
                       max_newton: int = 30) -> DispersionPoint:
    """Continue the decay-rate root of lambda_1(rho, c) = 1 below c*.

    Starts from the real tangency (rho*, c*) and walks c down in steps,
    solving for complex rho by Newton with an eigenpair carried between
    steps. At c = c* the seed itself is returned; below it the root
    picks up an imaginary part, recognizable oscillation of the decaying
    profile. The conjugate is a root too, so Im rho >= 0 is reported.
    """
    if not isinstance(time_kernel, SeparableKernel):
        raise ValidationError(
            "decay-rate continuation needs the separable kernel form"
        )
    tilted = TiltedOperator(time_kernel, response, grid, direction)
    if speed is None:
        speed = minimal_speed(time_kernel, response, grid, tilted.e)
    if speed.at_rest:
        raise ValidationError(
            "medium subcritical at rest; there is no front decay branch"
        )
    c = float(c)
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
    while cc > c:
        cc_next = max(c, cc - step)
        if abs(rho.imag) < 1e-12:
            kick = np.sqrt(max(2.0 * abs(slope_c) * (cc - cc_next) / curv,
                               0.0))
            guess = complex(rho.real, kick)
        else:
            guess = rho
        try:
            z, phi_z = guess, phi
            for _ in range(max_newton):
                f0, phi_z = lam_at(z, cc_next, phi_z)
                f0 -= 1.0
                if abs(f0) <= newton_tol:
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
                    f"Newton stalled at |lambda - 1| = {abs(f0):.3e}"
                )
        except ConvergenceError:
            step *= 0.5
            if step < 1e-9:
                raise ConvergenceError(
                    f"continuation from c* = {c_star:.6g} broke down near "
                    f"c = {cc:.6g}; try a speed closer to c*"
                )
            continue
        rho, phi, cc = z, phi_z, cc_next
    if rho.imag < 0:
        rho = rho.conjugate()
        phi = phi.conjugate()
    value, phi = lam_at(rho, c, phi)
    return DispersionPoint(rho=rho, c=c, direction=tilted.e, value=value,
                           phi=phi, residual=float(abs(value - 1.0)))
