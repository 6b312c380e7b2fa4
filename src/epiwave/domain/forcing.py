"""Seeding terms: the inhomogeneity that starts an outbreak.

A forcing is a nonnegative field f(t, x), nondecreasing in time toward a
limit f_inf(x) that dies out at large |x|. It represents pressure from
the initially infected population rather than from secondary cases.

A march evaluates f at the same window nodes at every step, so a forcing
is its seeding function: forcing(X) returns t -> f(t, X) at the rows of
X, doing the work that depends on X alone (a spatial profile, kernel
values against the seed) once. The limit is the field at t = inf,
f_inf(X) = forcing(X)(np.inf).
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError


def bump_forcing(amplitude: float = 1.0, radius: float = 2.0,
                 rate: float = 1.0):
    """Smooth compact bump switched on exponentially in time.

    f(t, x) = amplitude * (1 - exp(-rate * t)) * cos^2(pi * |x| / (2 * radius))
    inside |x| < radius and zero outside. The time factor makes f
    nondecreasing with limit amplitude * bump(x); it is exactly 1 at
    t = inf.
    """
    # NaN passes every comparison below, so finiteness is checked first
    for label, value in (("amplitude", amplitude), ("radius", radius),
                         ("rate", rate)):
        if not np.isfinite(value):
            raise ValidationError(f"{label} must be finite, got {value}")
    if amplitude < 0:
        raise ValidationError(f"amplitude must be nonnegative, got {amplitude}")
    if radius <= 0:
        raise ValidationError(f"radius must be positive, got {radius}")
    if rate <= 0:
        raise ValidationError(f"rate must be positive, got {rate}")

    def on_nodes(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        r = np.linalg.norm(X, axis=-1) / radius
        profile = np.zeros(X.shape[0])
        inside = r < 1.0
        profile[inside] = amplitude * np.cos(0.5 * np.pi * r[inside]) ** 2
        return lambda t: -np.expm1(-rate * max(t, 0.0)) * profile

    return on_nodes
