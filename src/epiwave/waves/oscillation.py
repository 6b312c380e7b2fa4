"""Sign-changing subsolution diagnostic for speeds below the minimal one.

Below the minimal speed the decay-rate equation has no real root; its
complex root rho = rho_R + i rho_I turns the exponential tail into a
damped oscillation

    v(xi, x) = Re(phi(x) exp(-rho xi)) = |phi(x)| exp(-rho_R xi)
               cos(rho_I xi - arg phi(x)),

whose positive part, cut off at |xi| = 3 pi / (4 |rho_I|) where v is
strictly negative, lies below its image under the linearized transfer
operator. The inequality is strict on the bump's support. The operator
only looks ahead (the history at y integrates the bump over s >= y), so
past the last positive lobe plus the kernel reach both the bump and its
image vanish and the inequality there is 0 = 0. A front gliding at such
a speed would have to stay above this bump forever while also decaying
ahead, which is impossible; the nodewise inequality check here is the
computable half of that argument.

The operator image is evaluated with the time integral done in closed
form on each interval where the sampled cosine is positive, so only the
spatial quadrature contributes discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..domain.kernels import SeparableKernel, window_pair_matrix
from ..errors import ConvergenceError, ValidationError
from .dispersion import DispersionPoint, complex_decay_root
from .profile import _require_1d

_BAND_FACTOR = 3.0 * np.pi / 4.0


@dataclass
class OscillatingSubsolution:
    """Positive bump extracted from the complex-root oscillation."""

    rho_R: float
    rho_I: float
    phi_R: np.ndarray = field(repr=False)
    phi_I: np.ndarray = field(repr=False)
    band: float
    c: float
    direction: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    applied: np.ndarray = field(repr=False)
    slack: np.ndarray = field(repr=False)
    band_mask: np.ndarray = field(repr=False)
    support_mask: np.ndarray = field(repr=False)
    min_slack: float
    min_slack_on_support: float
    grid: object = field(repr=False)

    def edge_values(self) -> tuple[float, float]:
        """v at xi = -band and xi = +band (negative by construction)."""
        out = []
        for sign in (-1.0, 1.0):
            xi = sign * self.band
            idx = int(np.argmin(np.abs(self.grid.window_nodes[:, 0] - xi)))
            cell = self.grid.window_cell_map[idx]
            pr, pi = self.phi_R[cell], self.phi_I[cell]
            out.append(float(
                np.hypot(pr, pi) * np.exp(-self.rho_R * xi)
                * np.cos(self.rho_I * xi - np.arctan2(pi, pr))
            ))
        return tuple(out)


def _positive_segments(lo, hi, theta, rho_I):
    """Intervals of [lo, hi] where cos(rho_I s - theta) > 0."""
    if hi <= lo:
        return []
    k_min = int(np.ceil((rho_I * lo - theta - np.pi / 2) / (2 * np.pi))) - 1
    k_max = int(np.floor((rho_I * hi - theta + np.pi / 2) / (2 * np.pi))) + 1
    segments = []
    for k in range(k_min, k_max + 1):
        s1 = max(lo, (theta - np.pi / 2 + 2 * np.pi * k) / rho_I)
        s2 = min(hi, (theta + np.pi / 2 + 2 * np.pi * k) / rho_I)
        if s2 > s1:
            segments.append((s1, s2))
    return segments


def oscillating_subsolution(time_kernel, response, c, grid, direction=None, *,
                            root: DispersionPoint | None = None,
                            speed=None) -> OscillatingSubsolution:
    """Build the banded positive bump and verify it sits below its image.

    The slack (image minus bump) is strictly positive on the bump's
    support and nonnegative on the whole band; it is exactly 0 only
    where the bump and its forward history both vanish, past the last
    positive lobe plus the kernel reach. min_slack covers the band and
    min_slack_on_support the support; the direction is the root's.

    Raises a validation error when the complex root is actually real
    (speed not below the minimal one) or when the eigenfunction phases
    spread too far, and a convergence error when the inequality fails at
    some node; both point at moving c closer to the minimal speed.
    """
    _require_1d(grid)
    if not isinstance(time_kernel, SeparableKernel):
        raise ValidationError(
            "oscillation diagnostic needs the separable kernel form"
        )
    if root is None:
        root = complex_decay_root(time_kernel, response, c, grid, direction,
                                  speed=speed)
    rho = complex(root.rho)
    if rho.imag == 0.0:
        raise ValidationError(
            "decay root is real at this speed; the oscillation diagnostic "
            "applies strictly below the minimal speed"
        )
    rho_R, rho_I = rho.real, abs(rho.imag)

    phi = np.asarray(root.phi, dtype=complex)
    pivot = np.sum(phi)
    if abs(pivot) == 0:
        raise ValidationError("degenerate eigenfunction phase")
    phi = phi * (np.conj(pivot) / abs(pivot))
    phi = phi / np.max(np.abs(phi))
    phi_R = phi.real
    phi_I = phi.imag
    if np.min(phi_R) <= np.max(phi_I):
        raise ValidationError(
            f"eigenfunction real part (min {np.min(phi_R):.4g}) does not "
            f"dominate the imaginary part (max {np.max(phi_I):.4g}); take "
            "c closer to the minimal speed"
        )

    band = _BAND_FACTOR / rho_I
    reach = time_kernel.support_radius
    if grid.window_radius < band + reach:
        raise ValidationError(
            f"window radius {grid.window_radius} does not cover the "
            f"oscillation band {band:.3f} plus kernel reach {reach}; "
            "enlarge the window"
        )

    x = grid.window_nodes[:, 0]
    pr = grid.periodic_on_window(phi_R)
    pi = grid.periodic_on_window(phi_I)
    amp = np.hypot(pr, pi)
    theta = np.arctan2(pi, pr)
    v_raw = amp * np.exp(-rho_R * x) * np.cos(rho_I * x - theta)
    band_mask = np.abs(x) <= band
    values = np.where(band_mask, np.maximum(v_raw, 0.0), 0.0)

    mu = np.asarray(time_kernel.mu_fn(grid.window_nodes), dtype=float)
    history = np.zeros_like(x)
    for j in range(x.size):
        y = x[j]
        segments = _positive_segments(max(y, -band), band, theta[j], rho_I)
        if not segments:
            continue
        b = mu[j] / c
        a = b + rho
        total = 0.0
        phi_j = complex(pr[j], pi[j])
        for s1, s2 in segments:
            t1 = np.exp(-b * (s1 - y) - rho * s1)
            t2 = np.exp(-b * (s2 - y) - rho * s2)
            total += (phi_j * (t1 - t2) / a).real
        history[j] = total / c
    K = window_pair_matrix(grid, time_kernel.spatial_fn, reach)
    applied = response.slope0 * grid.weight * (K @ history)

    slack = applied - values
    min_slack = float(np.min(slack[band_mask]))
    if min_slack < 0:
        where = int(np.argmin(np.where(band_mask, slack, np.inf)))
        err = ConvergenceError(
            f"operator image drops {-min_slack:.3e} below the bump at "
            f"x = {x[where]:.4f}; the speed is not close enough to the "
            "minimal speed for this diagnostic"
        )
        err.node = float(x[where])
        err.slack = min_slack
        raise err
    support_mask = values > 0
    min_on_support = float(np.min(slack[support_mask])) if np.any(
        support_mask) else np.nan

    return OscillatingSubsolution(
        rho_R=rho_R, rho_I=rho_I, phi_R=phi_R, phi_I=phi_I, band=band,
        c=float(c), direction=root.direction, values=values, applied=applied,
        slack=slack, band_mask=band_mask, support_mask=support_mask,
        min_slack=min_slack, min_slack_on_support=min_on_support, grid=grid)
