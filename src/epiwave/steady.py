"""Positive periodic steady states of the saturated infection balance.

The stationary problem asks for a periodic U > 0 with

    U(x) = integral V(x, y) g(U(y)) dy =: (T U)(x).

Whether such a U exists is decided by the principal eigenvalue of the
linearization: above one, iterating T from a small multiple of the
principal eigenfunction produces a nondecreasing sequence that converges
to the unique positive solution; at or below one the only nonnegative
bounded solution is zero, which the solver witnesses by collapsing the
iteration from a unit seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .spectral import assemble_periodic, principal_eigenpair

COLLAPSE_THRESHOLD = 1e-8
_MAX_ITER = 20000  # budget of every fixed-point iteration


@dataclass
class SteadyState:
    """Outcome of the monotone steady-state iteration.

    values is None when no positive steady state exists (the iteration
    collapsed and the eigenvalue check agreed); seed_scale records the
    multiple of the principal eigenfunction used to start the climb.
    """

    values: np.ndarray | None
    iterations: int
    residual: float
    seed_scale: float
    eigenvalue: float

    @property
    def present(self) -> bool:
        return self.values is not None


def apply_T(u: np.ndarray, transfer, response) -> np.ndarray:
    """One application of the nonlinear balance operator on the cell grid."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ValidationError("apply_T expects a nonnegative grid function")
    return (transfer.cell_matrix @ response(u)) * transfer.grid.weight


def solve_steady_state(transfer, response, tol: float = 1e-10) -> SteadyState:
    """Find the positive periodic steady state, or certify there is none.

    Above threshold the start is U0 = eps * phi with the principal
    eigenfunction phi (sup one) and

        eps = min( slope0 * (lambda1 - 1) / (2 * C * lambda1 * sup phi), 1 ),

    half of the largest seed scale for which the quadratic defect bound
    on g still forces T(U0) >= U0; the resulting sequence climbs
    monotonically. The iteration stops when both the increment and the
    fixed-point residual drop below tol.
    """
    if tol <= 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    pair = principal_eigenpair(assemble_periodic(transfer, response))
    lam = pair.value

    if lam <= 1.0:
        u = np.ones(transfer.grid.n_cell)
        for iterations in range(1, _MAX_ITER + 1):
            u = apply_T(u, transfer, response)
            peak = float(np.max(u))
            if peak < COLLAPSE_THRESHOLD:
                return SteadyState(values=None, iterations=iterations,
                                   residual=peak, seed_scale=1.0,
                                   eigenvalue=lam)
        raise ConvergenceError(
            f"iteration from the unit seed has not collapsed after {_MAX_ITER} "
            f"steps (sup {np.max(u):.3e}); the eigenvalue {lam:.6g} is too "
            "close to threshold to certify absence"
        )

    curvature = response.curvature
    if curvature > 0:
        eps = 0.5 * response.slope0 * (lam - 1.0) / (
            curvature * lam * float(np.max(pair.vector))
        )
        eps = min(eps, 1.0)
    else:
        eps = 1.0
    u = eps * pair.vector
    slack = 1e-13 * max(1.0, lam)

    residual = np.inf
    for iterations in range(1, _MAX_ITER + 1):
        u_next = apply_T(u, transfer, response)
        if np.min(u_next - u) < -slack:
            raise ConvergenceError(
                f"monotone climb violated at iteration {iterations} "
                f"(worst drop {np.min(u_next - u):.3e}); retry with a "
                f"smaller seed scale than {eps:.3e}"
            )
        increment = float(np.max(np.abs(u_next - u)))
        u = u_next
        if increment < tol:
            residual = float(np.max(np.abs(apply_T(u, transfer, response) - u)))
            if residual < tol:
                return SteadyState(values=u, iterations=iterations,
                                   residual=residual, seed_scale=eps,
                                   eigenvalue=lam)
    raise ConvergenceError(
        f"steady-state iteration at residual {residual:.3e} after "
        f"{_MAX_ITER} steps (tolerance {tol:.1e})"
    )


def uniqueness_probe(transfer, response, seeds, tol: float = 1e-10) -> float:
    """Iterate the balance operator from several seeds, return limit spread.

    Seeds below the steady state climb, seeds above it descend; either
    way Prop-style uniqueness predicts a common limit, and the returned
    max pairwise sup-distance measures how well the discretization agrees.
    """
    if len(seeds) == 0:
        raise ValidationError("uniqueness_probe needs at least one seed")
    limits = []
    for k, seed in enumerate(seeds):
        u = np.asarray(seed, dtype=float)
        if u.shape != (transfer.grid.n_cell,):
            raise ValidationError(
                f"seed {k} has shape {u.shape}, expected ({transfer.grid.n_cell},)"
            )
        if np.any(u <= 0):
            raise ValidationError(f"seed {k} must be strictly positive")
        previous = None
        for _ in range(_MAX_ITER):
            u_next = apply_T(u, transfer, response)
            increment = float(np.max(np.abs(u_next - u)))
            u = u_next
            if increment == 0.0:
                break
            if increment < tol:
                # the tail of a geometric approach sums to inc * q / (1 - q);
                # keep going until that projection is inside the tolerance
                ratio = increment / previous if previous else 0.5
                ratio = min(max(ratio, 0.0), 0.99)
                if increment * ratio / (1.0 - ratio) < tol:
                    break
            previous = increment
        else:
            raise ConvergenceError(
                f"iteration from seed {k} did not settle within {_MAX_ITER} steps"
            )
        limits.append(u)
    spread = 0.0
    for i in range(len(limits)):
        for j in range(i + 1, len(limits)):
            spread = max(spread, float(np.max(np.abs(limits[i] - limits[j]))))
    return spread
