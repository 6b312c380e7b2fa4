"""Principal eigenvalues of the linearized infection operator.

The linearization of the renewal map at the disease-free state acts on
periodic functions by

    (L phi)(x) = g'(0) * integral V(x, y) phi(y) dy,

and its dominant eigenvalue decides between epidemic propagation and
extinction. This module assembles L on the periodicity cell, its
Dirichlet truncations L_R to balls of the sampling window, and computes
principal eigenpairs by power iteration: the kernel is nonnegative with
a positive band, so the dominant eigenvalue is simple and the iteration
converges from any positive start.

A ball truncation is stored in cell-block form (CellBlockMatrix, defined
with the kernels): it is the window matrix with the rows and columns of
the nodes outside the ball dropped. The kernel is periodic under joint
integer shifts, V(x + k, y + k) = V(x, y), so the entry between the
window nodes x_a + C and x_b + C' (x_a, x_b cell nodes, C, C' integer
cell offsets) is V(x_a, x_b + C' - C): both matrices are block-Toeplitz
over cells, and their blocks are the few lattice-image blocks of the
cell (3 in 1-D, 9 for the 2-D box). The SpatialKernel tabulates them
once, when the kernel is integrated, and sums them into its cell matrix;
a truncation only reads the table. Nothing is approximated, and a power
iteration is one dense product.

Quadrature is the composite midpoint rule of the grid; for kernels whose
jumps fall on grid-aligned edges (half-value convention in the kernel
evaluators) the eigenvalue error is second order in the spacing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain.kernels import CellBlockMatrix
from .errors import ConvergenceError, ValidationError

DEFAULT_EIGEN_TOL = 1e-10
DEFAULT_SWEEP_INCREMENT = 1e-3


@dataclass
class OperatorMatrix:
    """A discretized positive integral operator.

    entries already contain the response slope and the quadrature weight,
    so apply() is a plain matrix-vector product. Ball truncations carry a
    CellBlockMatrix, periodic operators a dense array. weight, when
    present, is the density gamma2/gamma1 making the operator self-adjoint
    in the weighted inner product.
    """

    entries: object  # dense ndarray or CellBlockMatrix
    weight: np.ndarray | None = None
    quadrature: float = 1.0

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = self.entries @ v
        return np.asarray(out).ravel()

    def rayleigh_quotient(self, v: np.ndarray) -> float:
        """Weighted quotient <Av, v>_gamma / <v, v>_gamma."""
        if self.weight is None:
            raise ValidationError(
                "operator carries no symmetry weight; Rayleigh quotient undefined"
            )
        num = float(np.sum(self.weight * v * self.apply(v)))
        den = float(np.sum(self.weight * v * v))
        if den == 0.0:
            raise ValidationError("Rayleigh quotient of the zero vector")
        return num / den

    def symmetry_defect(self) -> float:
        """Max-norm asymmetry of diag(gamma * w) A, relative to the entry scale."""
        if self.weight is None:
            raise ValidationError("operator carries no symmetry weight")
        A = self.entries
        if not isinstance(A, np.ndarray):
            A = A.toarray()
        weighted = (self.weight * self.quadrature)[:, None] * A
        scale = np.max(np.abs(A))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(weighted - weighted.T)) / scale)


@dataclass
class EigenPair:
    value: float
    vector: np.ndarray
    residual: float
    iterations: int


class SweepPoint(NamedTuple):
    radius: float
    value: float
    residual: float
    iterations: int


@dataclass
class SubEigenfunction:
    """Compactly supported comparison function on the window grid.

    values vanish outside the ball of the given radius and satisfy
    (L values)(x) >= threshold * values(x) at every window node, with
    threshold = lambda_1 - eps.
    """

    values: np.ndarray
    radius: float
    cutoff_width: float
    threshold: float
    ball_value: float


def assemble_periodic(transfer, response, grid=None) -> OperatorMatrix:
    """Matrix of the periodic linearized operator on the cell grid."""
    grid = grid if grid is not None else transfer.grid
    entries = response.slope0 * transfer.cell_matrix * grid.weight
    return OperatorMatrix(
        entries=np.asarray(entries, dtype=float),
        weight=transfer.gamma_cell,
        quadrature=grid.weight,
    )


def assemble_ball(transfer, response, radius: float) -> OperatorMatrix:
    """Dirichlet truncation of the whole-line operator to a ball of the window.

    The entries are a CellBlockMatrix over the window nodes in the ball,
    built from the transfer's lattice-image table instead of rows of the
    window matrix: by joint periodicity those blocks are every value the
    truncation holds.
    """
    grid = transfer.grid
    entries = CellBlockMatrix(grid, grid.ball_indices(radius), transfer.shifts,
                              transfer.blocks, response.slope0 * grid.weight)
    gamma = transfer.gamma_cell
    return OperatorMatrix(
        entries=entries,
        weight=None if gamma is None else gamma[entries.local],
        quadrature=grid.weight,
    )


def principal_eigenpair(op: OperatorMatrix, tol: float = DEFAULT_EIGEN_TOL,
                        max_iter: int = 20000) -> EigenPair:
    """Dominant eigenpair of a nonnegative operator matrix by power iteration.

    Starts from the constant positive vector, keeps the iterate normalized
    to sup = 1, and stops once the sup-norm residual drops below tol. When
    the operator carries a symmetry weight, the weighted Rayleigh quotient
    of the returned vector is checked against the eigenvalue as a guard on
    the assembly. Negative and non-finite entries are rejected.
    """
    entries = op.entries
    stored = entries if isinstance(entries, np.ndarray) else entries.data
    # NaN fails both comparisons; -inf fails the first and +inf the second
    if stored.size and not (stored.min() >= 0 and stored.max() < np.inf):
        raise ValidationError("operator has negative or non-finite entries")
    x = np.ones(op.n)
    y = op.apply(x)
    if not np.any(y > 0):
        # the zero operator: everything is annihilated, the constant works
        return EigenPair(value=0.0, vector=x, residual=0.0, iterations=1)

    residual = np.inf
    value = 0.0
    gap = np.empty_like(y)  # |y - value * x|, computed in place each step
    for iterations in range(1, max_iter + 1):
        value = float(y.max())
        if value <= 0.0:
            raise ValidationError(
                "power iterate lost positivity; the operator has no positive band"
            )
        np.multiply(x, value, out=gap)
        np.subtract(y, gap, out=gap)
        np.abs(gap, out=gap)
        residual = float(gap.max())
        if residual <= tol:
            break
        x = y / value
        y = op.apply(x)
    else:
        raise ConvergenceError(
            f"power iteration stalled at residual {residual:.3e} "
            f"(tolerance {tol:.1e}) after {max_iter} iterations"
        )

    if np.min(x) <= 0.0:
        raise ValidationError(
            "principal eigenfunction is not strictly positive; the kernel "
            "does not connect all grid nodes"
        )
    if op.weight is not None:
        rq = op.rayleigh_quotient(x)
        absx = np.abs(x)
        amplification = float(
            np.sum(op.weight * absx) / np.sum(op.weight * x * x)
        )
        if abs(rq - value) > 4.0 * max(tol, residual) * amplification + 1e-13:
            raise ConvergenceError(
                f"weighted Rayleigh quotient {rq!r} disagrees with the power "
                f"eigenvalue {value!r}; operator assembly is inconsistent"
            )
    return EigenPair(value=value, vector=x, residual=residual,
                     iterations=iterations)


def eigenvalue_bounds(transfer, response) -> tuple[float, float]:
    """Row-integral sandwich around the principal eigenvalue.

    The eigenvalue of a positive operator is bracketed by the extremes of
    g'(0) * integral V(x, y) dy over x; for homogeneous kernels the two
    coincide and pin the eigenvalue exactly.
    """
    rows = response.slope0 * transfer.row_integrals
    return float(np.min(rows)), float(np.max(rows))


def ball_eigenvalue_sweep(transfer, response, radii=None,
                          tol: float = DEFAULT_EIGEN_TOL,
                          max_iter: int = 20000,
                          stop_increment: float | None = None) -> list[SweepPoint]:
    """Principal eigenvalues of the ball truncations for increasing radii.

    The sequence increases to the periodic eigenvalue from below. radii
    defaults to the integer radii the window can hold; pass stop_increment
    to terminate the sweep once consecutive eigenvalues differ by less.
    """
    grid = transfer.grid
    if radii is None:
        radii = list(range(1, grid.window_radius + 1))
    radii = [float(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValidationError(f"sweep radii must be strictly increasing: {radii}")

    points: list[SweepPoint] = []
    for r in radii:
        pair = principal_eigenpair(assemble_ball(transfer, response, r),
                                   tol=tol, max_iter=max_iter)
        points.append(SweepPoint(r, pair.value, pair.residual, pair.iterations))
        if (stop_increment is not None and len(points) >= 2
                and points[-1].value - points[-2].value < stop_increment):
            break
    return points


def sub_eigenfunction(transfer, response, eps: float,
                      tol: float = DEFAULT_EIGEN_TOL,
                      max_iter: int = 20000) -> SubEigenfunction:
    """Compactly supported function with L phi >= (lambda_1 - eps) phi everywhere.

    Takes the principal eigenfunction of the smallest ball whose eigenvalue
    exceeds lambda_1 - eps/2 and tapers it to zero over a thin shell at the
    ball boundary. The taper width starts at one grid cell and is halved
    until the pointwise inequality holds at every window node: the operator
    integrates over the shell, so its contribution vanishes with the width
    while the interior keeps the ball eigenvalue's slack.
    """
    grid = transfer.grid
    periodic = principal_eigenpair(assemble_periodic(transfer, response),
                                   tol=tol, max_iter=max_iter)
    lam = periodic.value
    if not 0.0 < eps < lam:
        raise ValidationError(
            f"eps must lie strictly between 0 and lambda_1 = {lam:.6g}, got {eps}"
        )

    chosen = None
    for radius in range(1, grid.window_radius + 1):
        pair = principal_eigenpair(assemble_ball(transfer, response, radius),
                                   tol=tol, max_iter=max_iter)
        if pair.value > lam - eps / 2.0:
            chosen = (float(radius), pair)
            break
    if chosen is None:
        raise ValidationError(
            f"no ball inside the window of radius {grid.window_radius} reaches "
            f"eigenvalue {lam - eps / 2.0:.6g}; enlarge the window"
        )
    radius, ball_pair = chosen

    idx = grid.ball_indices(radius)
    phi_ball = np.zeros(grid.n_window)
    phi_ball[idx] = ball_pair.vector
    r = np.linalg.norm(grid.window_nodes, axis=1)

    W = transfer.window_matrix()
    scale = response.slope0 * grid.weight
    threshold = lam - eps
    slack = 1e-12 * max(lam, 1.0)

    eta = grid.spacing
    for _ in range(60):
        chi = np.clip((radius - r) / eta, 0.0, 1.0)
        values = phi_ball * chi
        defect = scale * (W @ values) - threshold * values
        if np.min(defect) >= -slack:
            return SubEigenfunction(values=values, radius=radius,
                                    cutoff_width=eta, threshold=threshold,
                                    ball_value=ball_pair.value)
        eta /= 2.0
    raise ConvergenceError(
        "taper width shrank below resolution without satisfying the "
        "sub-eigenfunction inequality"
    )
