"""Saturating infection nonlinearities.

The transmission response g must vanish at zero, increase strictly, stay
bounded, and sit between its linearization and a quadratic under-estimate:

    slope0 * z - curvature * z**2 <= g(z) <= slope0 * z   for z >= 0.

Those three numbers (slope at zero, quadratic defect, saturation bound)
drive every estimate in the package, so they are carried explicitly
instead of being re-derived from samples.

The response is called as fn(z), and as fn(z, out=out) by the operators
that apply it every step (the wave operator): that call writes g(z)
into out, which may be z itself, and returns it, so such an operator
keeps one buffer for the response.  saturating_exponential takes both
forms; a response given only in the first serves every other solver.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError


class Nonlinearity:
    """A response function together with the constants the theory needs."""

    def __init__(self, fn, slope0: float, curvature: float, bound: float,
                 name: str = ""):
        if slope0 <= 0:
            raise ValidationError(f"slope0 must be positive, got {slope0}")
        if curvature < 0:
            raise ValidationError(f"curvature must be nonnegative, got {curvature}")
        if bound <= 0:
            raise ValidationError(f"bound must be positive, got {bound}")
        g0 = float(fn(0.0))
        if abs(g0) > 1e-14:
            raise ValidationError(f"g(0) must vanish, got {g0}")
        self._fn = fn
        self.slope0 = float(slope0)
        self.curvature = float(curvature)
        self.bound = float(bound)
        self.name = name or getattr(fn, "__name__", "nonlinearity")

    def __call__(self, z, out=None):
        """g(z); with out, fn(z, out=out): g(z) goes into out (z itself
        allowed), which is returned."""
        if out is None:
            return self._fn(z)
        return self._fn(z, out=out)

    def __repr__(self) -> str:
        return (
            f"Nonlinearity({self.name}, slope0={self.slope0}, "
            f"curvature={self.curvature}, bound={self.bound})"
        )


def saturating_exponential() -> Nonlinearity:
    """The response g(z) = 1 - exp(-z).

    Strictly increasing, bounded by 1, slope 1 at the origin, and
    z - z**2/2 <= g(z) <= z for z >= 0, so curvature 1/2 is sharp.
    This is the response produced by the susceptible-infected reduction,
    where z is the cumulative infection pressure.
    """

    def g(z, out=None):
        z = np.asarray(z, dtype=float)
        if z.ndim == 0 and out is None:
            return -np.expm1(-z)
        # the one new array, unless out is given; both steps after reuse it
        out = np.negative(z, out=out)
        np.expm1(out, out=out)
        return np.negative(out, out=out)

    return Nonlinearity(g, slope0=1.0, curvature=0.5, bound=1.0,
                        name="saturating_exponential")
