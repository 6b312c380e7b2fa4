"""Independent reference computations used to pin expected test values.

Everything in this module is derived from closed-form formulas for the
homogeneous box-contact model (uniform contact profile on |z| <= A, constant
recovery rate mu, response g(z) = 1 - exp(-z)) using scipy root finders and
minimizers only.  Nothing here imports epiwave, so a bug in the package
cannot leak into the expected values.

The FROZEN dict at the bottom records the constants once computed; tests
assert against FROZEN and the helper functions are kept so the numbers can
be regenerated by running this file directly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize


def saturation_level(beta: float) -> float:
    """Positive root of z = beta * (1 - exp(-z)), the spatially flat steady state.

    Exists iff beta > 1 (the flat problem has reproduction number beta).
    """
    if beta <= 1.0:
        raise ValueError("flat steady state requires beta > 1")
    # z = beta(1 - e^-z); root lies in (0, beta).
    return optimize.brentq(
        lambda z: beta * -math.expm1(-z) - z, 1e-12, beta, xtol=1e-15, rtol=8.9e-16
    )


def box_dispersion(rho: float, c: float, beta: float = 2.0, mu: float = 1.0,
                   radius: float = 1.0) -> float:
    """Principal eigenvalue of the linearized moving-frame operator.

    For the homogeneous box kernel the eigenfunction is constant, so the
    eigenvalue is the plain integral
        beta * sinh(rho * radius) / (rho * radius) * 1 / (mu + rho * c).
    Continuous extension rho -> 0 gives beta / mu.
    """
    if rho == 0.0:
        return beta / mu
    return beta * math.sinh(rho * radius) / (rho * radius) / (mu + rho * c)


def box_minimal_speed(beta: float = 2.0, mu: float = 1.0, radius: float = 1.0):
    """Spreading speed of the homogeneous box model and the tangency decay rate.

    Returns (c_star, rho_star) where min_rho lambda(rho, c_star) = 1 and the
    minimum is attained at rho_star.
    """

    def min_over_rho(c: float):
        res = optimize.minimize_scalar(
            lambda r: box_dispersion(r, c, beta, mu, radius),
            bounds=(1e-6, 12.0), method="bounded",
            options={"xatol": 1e-12},
        )
        return res.fun, res.x

    def gap(c: float) -> float:
        return min_over_rho(c)[0] - 1.0

    # lambda decreases in c; bracket the speed where the minimum crosses 1.
    lo, hi = 1e-6, 1.0
    while gap(hi) > 0.0:
        hi *= 2.0
    c_star = optimize.brentq(gap, lo, hi, xtol=1e-13, rtol=8.9e-16)
    rho_star = min_over_rho(c_star)[1]
    return c_star, rho_star


def _sinhc(z: float) -> float:
    return math.sinh(z) / z if z != 0.0 else 1.0


def box_2d_minimal_speed(theta: float, beta: float = 2.0, mu: float = 1.0):
    """Spreading speed of the homogeneous 2-D box model along (cos theta,
    sin theta), and its decay rate.

    The box of mass beta and half-width 1 on each axis has a constant
    Perron vector at every tilt, and its tilted integral factors over the
    axes, so lambda(rho, c) = beta sinhc(rho cos theta) sinhc(rho sin
    theta) / (mu + rho c) with sinhc(z) = sinh(z) / z. lambda = 1 at
    c = (beta sinhc sinhc - mu) / rho, and c_star is its minimum over rho.
    """
    e1, e2 = math.cos(theta), math.sin(theta)

    def speed(r: float) -> float:
        return (beta * _sinhc(r * e1) * _sinhc(r * e2) - mu) / r

    res = optimize.minimize_scalar(speed, bounds=(1e-6, 12.0),
                                   method="bounded", options={"xatol": 1e-12})
    return float(res.fun), float(res.x)


def box_decay_roots(c: float, beta: float = 2.0, mu: float = 1.0,
                    radius: float = 1.0):
    """Both real roots of lambda(rho, c) = 1 for supercritical speed c.

    The smaller root governs the front tail, the larger one caps the
    comparison-function family.
    """
    c_star, rho_star = box_minimal_speed(beta, mu, radius)
    if c <= c_star:
        raise ValueError("two distinct real roots require c > c_star")

    def f(r: float) -> float:
        return box_dispersion(r, c, beta, mu, radius) - 1.0

    rho1 = optimize.brentq(f, 1e-9, rho_star, xtol=1e-14, rtol=8.9e-16)
    hi = rho_star
    while f(hi) < 0.0:
        hi *= 2.0
    rho2 = optimize.brentq(f, rho_star, hi, xtol=1e-14, rtol=8.9e-16)
    return rho1, rho2


def box_rear_decay(c: float, beta: float = 2.0, mu: float = 1.0,
                   radius: float = 1.0) -> float:
    """Rate kappa > 0 at which a front at speed c relaxes to saturation behind.

    Linearizing about the flat saturated state z* and inserting exp(kappa * xi)
    (xi -> -infinity) gives
        g'(z*) * beta * sinh(kappa * radius) / (kappa * radius * (mu - kappa*c)) = 1,
    valid on 0 < kappa < mu / c.
    """
    zstar = saturation_level(beta / mu)
    slope = math.exp(-zstar)

    def f(k: float) -> float:
        lam = beta * math.sinh(k * radius) / (k * radius) / (mu - k * c)
        return slope * lam - 1.0

    return optimize.brentq(f, 1e-9, mu / c - 1e-9, xtol=1e-14, rtol=8.9e-16)


FROZEN = {
    # saturation_level(beta)
    "zstar_beta2": 1.5936242600400401,
    "zstar_beta3": 2.8214393721220787,
    "zstar_beta1_5": 0.8742174657987165,
    # box_dispersion(1.0, 0.0) with beta=2, mu=1: 2 sinh(1)
    "lambda_rho1_c0": 2.3504023872876028,
    # box_minimal_speed() with beta=2, mu=1, radius=1
    "c_star": 1.2259352294288526,
    "rho_star": 1.4847464744028438,
    # box_decay_roots(2 * c_star)
    "rho1_at_2cstar": 0.4336604406270871,
    "rho2_at_2cstar": 3.5292325544168057,
    # box_rear_decay(2 * c_star)
    "kappa_at_2cstar": 0.2405082871665015,
    # box_2d_minimal_speed(theta)[0] with beta=2, mu=1, per angle theta
    "c_star_2d_0": 1.2259352294288528,
    "c_star_2d_pi_8": 1.236220106083971,
    "c_star_2d_pi_4": 1.245916535002682,
    "c_star_2d_pi": 1.2259352294288528,
}

# the angles of the FROZEN 2-D speeds
ANGLES_2D = {"0": 0.0, "pi_8": math.pi / 8, "pi_4": math.pi / 4,
             "pi": math.pi}


if __name__ == "__main__":
    cs, rs = box_minimal_speed()
    r1, r2 = box_decay_roots(2.0 * cs)
    computed = {
        "zstar_beta2": saturation_level(2.0),
        "zstar_beta3": saturation_level(3.0),
        "zstar_beta1_5": saturation_level(1.5),
        "lambda_rho1_c0": box_dispersion(1.0, 0.0),
        "c_star": cs,
        "rho_star": rs,
        "rho1_at_2cstar": r1,
        "rho2_at_2cstar": r2,
        "kappa_at_2cstar": box_rear_decay(2.0 * cs),
        **{f"c_star_2d_{name}": box_2d_minimal_speed(theta)[0]
           for name, theta in ANGLES_2D.items()},
    }
    for key, val in computed.items():
        drift = abs(val - FROZEN[key])
        print(f"{key:18s} {val!r:24s} drift {drift:.2e}")
