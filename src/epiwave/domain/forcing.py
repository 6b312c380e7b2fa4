"""Seeding terms: the inhomogeneity that starts an outbreak.

A forcing is a nonnegative field f(t, x), nondecreasing in time toward a
limit f_inf(x) that dies out at large |x|. It represents pressure from
the initially infected population rather than from secondary cases.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError


class Forcing:
    """Time-increasing seeding field with an explicit saturation limit.

    A march evaluates f at the same window nodes at every step, so the
    field is given per node set: on_nodes(X) returns t -> f(t, X) at the
    rows of X, doing the work that depends on X alone (a spatial profile,
    kernel values against the seed) once. limit_fn(X) gives f_inf.
    """

    def __init__(self, on_nodes, limit_fn, support_radius: float,
                 name: str = "forcing"):
        if not np.isfinite(support_radius) or support_radius < 0:
            raise ValidationError(
                f"support_radius must be finite and nonnegative, got {support_radius}"
            )
        self._on_nodes = on_nodes
        self._limit_fn = limit_fn
        self.support_radius = float(support_radius)
        self.name = name

    def __call__(self, t: float, X) -> np.ndarray:
        return self.on_nodes(X)(t)

    def on_nodes(self, X):
        """t -> f(t, X) on the fixed nodes X, as a float array."""
        at = self._on_nodes(X)
        return lambda t: np.asarray(at(t), dtype=float)

    def limit(self, X) -> np.ndarray:
        return np.asarray(self._limit_fn(X), dtype=float)

    def __repr__(self) -> str:
        return f"Forcing({self.name}, support_radius={self.support_radius})"


def bump_forcing(amplitude: float = 1.0, radius: float = 2.0, rate: float = 1.0,
                 center=None) -> Forcing:
    """Smooth compact bump switched on exponentially in time.

    f(t, x) = amplitude * (1 - exp(-rate * t)) * cos^2(pi * |x - c| / (2 * radius))
    inside |x - c| < radius and zero outside. The time factor makes f
    nondecreasing with limit amplitude * bump(x).
    """
    # NaN passes every comparison below, so finiteness is checked first
    for label, value in (("amplitude", amplitude), ("radius", radius),
                         ("rate", rate)):
        if not np.isfinite(value):
            raise ValidationError(f"{label} must be finite, got {value}")
    if center is not None and not np.all(np.isfinite(center)):
        raise ValidationError(f"center must be finite, got {center}")
    if amplitude < 0:
        raise ValidationError(f"amplitude must be nonnegative, got {amplitude}")
    if radius <= 0:
        raise ValidationError(f"radius must be positive, got {radius}")
    if rate <= 0:
        raise ValidationError(f"rate must be positive, got {rate}")

    def bump(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if center is not None:
            X = X - np.asarray(center, dtype=float)
        r = np.linalg.norm(X, axis=-1) / radius
        out = np.zeros(X.shape[0])
        inside = r < 1.0
        out[inside] = amplitude * np.cos(0.5 * np.pi * r[inside]) ** 2
        return out

    def ramp(t):
        return -np.expm1(-rate * max(t, 0.0))

    def on_nodes(X):
        profile = bump(X)
        return lambda t: ramp(t) * profile

    reach = radius
    if center is not None:
        reach += float(np.linalg.norm(np.atleast_1d(np.asarray(center, dtype=float))))
    return Forcing(on_nodes, bump, support_radius=reach, name="bump")
