"""Brent's scalar methods: bounded minimization and bracketed root finding.

The speed search minimizes lambda_1(rho, c) over a rho bracket, and the
certificate pair needs the root lambda_1(rho, c) = 1; both are scalar
problems on an interval (Brent, Algorithms for Minimization without
Derivatives, Prentice-Hall 1973, ch. 4 and 5). These routines are
line-for-line ports of SciPy's ``_minimize_scalar_bounded`` (the
``method="bounded"`` branch of its ``minimize_scalar``) and of its C
``brentq``: from the same bracket and tolerances they evaluate the same
points, bit for bit, in the same order, and return the same answer.
Keeping them here spares every command the import of SciPy's optimize
package, which takes longer than most commands take to solve.

SciPy is Copyright (c) 2001-2002 Enthought, Inc. and 2003-2024 SciPy
Developers, and is distributed under the BSD 3-Clause License; the
routines below follow its code and keep its variable names.

SciPy's default budgets and brentq's relative tolerance are fixed here:
_MAXFUN evaluations for the minimizer, _MAXITER iterations for the root
search and _RTOL = 4 eps. Unlike SciPy, a bracket without a sign change
and a bad bound or tolerance raise ValidationError, an exhausted budget
raises ConvergenceError in both routines, and a NaN function value stops
either routine with ConvergenceError at the point that produced it.
"""

from __future__ import annotations

import math
import sys

from ..errors import ConvergenceError, ValidationError

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_RTOL = 4 * sys.float_info.epsilon  # brentq's relative tolerance
_MAXFUN = 500  # minimize_scalar's evaluation budget
_MAXITER = 100  # brentq's iteration budget


def _value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ConvergenceError(f"function value at x = {x!r} is NaN")
    return fx


def brent_minimize(f, a, b, xatol: float) -> tuple[float, float]:
    """(x, f(x)) at a local minimum of f on [a, b], to within xatol.

    Golden-section steps safeguarded by parabolic interpolation, never
    evaluating at the bounds; the port of minimize_scalar(bounds=(a, b),
    method="bounded", options={"xatol": xatol}).
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError(f"bounds must be finite, got ({a}, {b})")
    if a > b:
        raise ValidationError(f"lower bound {a} exceeds upper bound {b}")
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = _value(f, xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = -tol1 if xm - xf < 0 else tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e

        step = max(abs(rat), tol1)
        x = xf + (-step if rat < 0 else step)
        fu = _value(f, x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= _MAXFUN:
            err = ConvergenceError(
                f"bounded minimization used its {_MAXFUN} evaluations; best "
                f"x = {xf!r} within [{a!r}, {b!r}]")
            err.x, err.fun, err.evaluations = xf, fx, num
            raise err
    return xf, fx


def brent_root(f, a, b, xtol: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Inverse quadratic interpolation and secant steps, falling back to
    bisection; stops when the bracket half-width is below
    (xtol + _RTOL |x|) / 2. The port of brentq(f, a, b, xtol=xtol).
    """
    if not xtol > 0:
        raise ValidationError(f"xtol must be positive, got {xtol}")
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValidationError(
            f"no sign change on the bracket: f({xpre!r}) = {fpre!r}, "
            f"f({xcur!r}) = {fcur!r}")

    for _ in range(_MAXITER):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)

    err = ConvergenceError(
        f"root search used its {_MAXITER} iterations; last x = {xcur!r}")
    err.x, err.iterations = xcur, _MAXITER
    raise err
