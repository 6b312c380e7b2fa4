"""Principal eigenvalues of the linearized infection operator.

The linearization of the renewal map at the disease-free state acts on
periodic functions by

    (L phi)(x) = g'(0) * integral V(x, y) phi(y) dy,

and its dominant eigenvalue decides between epidemic propagation and
extinction. This module assembles L on the periodicity cell, its
Dirichlet truncations L_R to balls of the sampling window, and computes
principal eigenpairs by power iteration: the kernel is nonnegative with
a positive band, so the dominant eigenvalue is simple and the iteration
converges from any positive start. Each eigenpair keeps the last product
A x of its iteration, and with it a rigorous bracket on the eigenvalue:
for a nonnegative irreducible matrix and any positive x,
min_i (Ax)_i / x_i <= lambda_1 <= max_i (Ax)_i / x_i (Collatz 1942,
Wielandt 1950).

A ball truncation is the window matrix with the rows and columns of the
nodes outside the ball dropped, held in the one kernel-matrix form
(AxisBoxMatrix, defined with the kernels): diag(left) (L ⊗ ... ⊗ L)
diag(right) over the ball's nodes, with L block-Toeplitz over the whole
cells of [-R, R] (CellBlockMatrix). The kernel is periodic under joint
integer shifts, V(x + k, y + k) = V(x, y), so the entry between the
window nodes x_a + C and x_b + C' (x_a, x_b cell nodes, C, C' integer
cell offsets) is V(x_a, x_b + C' - C), and L's blocks are the few
lattice-image blocks of a line's cell (3 for a box of reach 1). The
SpatialKernel makes these line factors once, when the kernel is
integrated; every truncation holds a reference to them and copies none.

In 1-D, L holds the kernel's own image table, left is the scale and
there is no right: a power iteration is one dense product, and nothing
is approximated. A 2-D box's truncation to the ball of radius R is
diag(b scale) (L ⊗ L) diag(s / mu) over the square of cells [-R, R]**2,
with L the matrix of the unit box on one line of it, and a power
iteration is two multi-column products of L. On a radius-4 ball at 12 x
12 cell points that is 1.3 Mflop a product instead of the 18.7 of the
9-image table; the entries agree up to rounding, and the matrix counts
the same nonzero entries.

Quadrature is the composite midpoint rule of the grid; for kernels whose
jumps fall on grid-aligned edges (half-value convention in the kernel
evaluators) the eigenvalue error is second order in the spacing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain.kernels import AxisBoxMatrix
from .errors import ConvergenceError, ValidationError

DEFAULT_EIGEN_TOL = 1e-10
_MAX_ITER = 20000  # power-iteration budget of every solve
_EPS = np.finfo(float).eps


@dataclass
class OperatorMatrix:
    """A discretized positive integral operator.

    entries already contain the response slope and the quadrature weight,
    so apply() is a plain matrix-vector product. entries is one of two
    forms: an AxisBoxMatrix for a ball truncation, a dense ndarray for a
    periodic or tilted cell operator.
    weight, when present, is the density s / (b mu) making the operator
    self-adjoint in the weighted inner product.
    """

    entries: object  # dense ndarray or AxisBoxMatrix
    weight: np.ndarray | None = None
    quadrature: float = 1.0

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.entries @ v

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
    """Principal eigenpair from power iteration.

    product is A @ vector, the iteration's last product, kept so that the
    bracket costs no further product.
    """

    value: float
    vector: np.ndarray
    residual: float
    iterations: int
    product: np.ndarray

    @property
    def bracket(self) -> tuple[float, float]:
        """Collatz-Wielandt bounds min_i (Ax)_i/x_i <= lambda_1 <= max_i (Ax)_i/x_i
        at the returned vector x, which is strictly positive."""
        ratio = self.product / self.vector
        return float(ratio.min()), float(ratio.max())


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


def assemble_periodic(transfer, response) -> OperatorMatrix:
    """Matrix of the periodic linearized operator on the cell grid."""
    grid = transfer.grid
    entries = response.slope0 * transfer.cell_matrix * grid.weight
    return OperatorMatrix(
        entries=np.asarray(entries, dtype=float),
        weight=transfer.gamma_cell,
        quadrature=grid.weight,
    )


def assemble_ball(transfer, response, radius: float) -> OperatorMatrix:
    """Dirichlet truncation of the whole-line operator to a ball of the window.

    The entries are the transfer's matrix over the window nodes in the
    ball (SpatialKernel.matrix), never rows of the window matrix: an
    AxisBoxMatrix over the whole cells of [-R, R] on each axis, reading
    the transfer's line factors. In 1-D its line table is the kernel's
    lattice-image table, whose blocks by joint periodicity are every value
    the truncation holds; a 2-D product is two products of the unit box's
    line matrix. The tables are shared, not copied.
    """
    grid = transfer.grid
    entries = transfer.matrix(grid.ball_indices(radius),
                              response.slope0 * grid.weight)
    return OperatorMatrix(
        entries=entries,
        weight=transfer.gamma_cell[entries.local],
        quadrature=grid.weight,
    )


def principal_eigenpair(op: OperatorMatrix, tol: float = DEFAULT_EIGEN_TOL,
                        start=None) -> EigenPair:
    """Dominant eigenpair of a nonnegative operator matrix by power iteration.

    Starts from start, a strictly positive finite vector of length op.n
    (the Perron vector of a nearby operator, say), or else from the
    constant vector; keeps the iterate normalized to sup = 1, and stops
    once the sup-norm residual drops below tol, or below the rounding
    error of the product, 16 n eps value for an n-node operator (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1),
    if that is larger: at a large eigenvalue, a tilted sum's exp(rho R)
    say, no iterate can get closer. The returned pair keeps
    the last product, from which its bracket is read. A tol that is not
    positive and finite is refused, and so are negative and non-finite
    entries, read off the stored factors of a kernel matrix (left, the
    line table and right, each on its own), and any other start. A product that overflows stops the
    iteration with a ConvergenceError. An eigenvector with a zero entry is
    refused too, so every returned vector can start a nearby solve.

    Every maximum and minimum of a vector is read as v[v.argmax()] or
    v[v.argmin()]: an exact selection, NaN included (argmax returns the
    first NaN, as max returns NaN), and on a 64-node vector three times
    cheaper than the ufunc reduction behind v.max(), which dominates a
    small solve's iteration.
    """
    if not 0 < tol < np.inf:  # NaN fails too
        raise ValidationError(
            f"eigen tolerance must be positive and finite, got {tol}")
    entries = op.entries
    if isinstance(entries, AxisBoxMatrix):  # left (L ⊗ ... ⊗ L) right
        factors = [entries.left, entries.line.table, entries.right]
    else:  # a dense array
        factors = [entries]
    for stored in factors:
        if stored is None or not np.size(stored):
            continue
        # every entry lies between these two; NaN fails every comparison
        flat = np.reshape(stored, -1)
        lo, hi = flat[flat.argmin()], flat[flat.argmax()]
        if not (0 <= lo < np.inf and 0 <= hi < np.inf):
            raise ValidationError("operator has negative or non-finite entries")
    if start is None:
        x = np.ones(op.n)
    else:
        x = np.asarray(start, dtype=float)
        top = x[x.argmax()] if x.shape == (op.n,) else np.nan
        if not (top < np.inf and x[x.argmin()] > 0):  # NaN fails both
            raise ValidationError(
                f"start vector must hold {op.n} positive finite values")
        x = x / top
    y = entries @ x
    value = float(y[y.argmax()])
    if not 0.0 < value < np.inf:
        if value <= 0.0:
            # y >= 0, so y = 0: the zero operator, for which any start works
            return EigenPair(value=0.0, vector=x, residual=0.0, iterations=1,
                             product=y)
        raise _overflow(value, 1, tol)

    residual = np.inf
    rounding = 16 * op.n * _EPS  # per unit of value
    gap = np.empty_like(y)  # |y - value * x|, computed in place each step
    for iterations in range(1, _MAX_ITER + 1):
        np.multiply(x, value, out=gap)
        np.subtract(y, gap, out=gap)
        np.abs(gap, out=gap)
        residual = float(gap[gap.argmax()])
        if residual <= max(tol, rounding * value):
            break
        x = y / value
        y = entries @ x
        value = float(y[y.argmax()])
        if not 0.0 < value < np.inf:
            if value <= 0.0:
                raise ValidationError("power iterate lost positivity; the "
                                      "operator has no positive band")
            raise _overflow(value, iterations + 1, tol)
    else:
        err = ConvergenceError(
            f"power iteration stalled at residual {residual:.3e} "
            f"(tolerance {tol:.1e}) after {_MAX_ITER} iterations"
        )
        err.residual, err.value = residual, value
        err.iterations, err.tol = _MAX_ITER, float(tol)
        raise err

    if x[x.argmin()] <= 0.0:
        raise ValidationError(
            "principal eigenfunction is not strictly positive; the kernel "
            "does not connect all grid nodes"
        )
    return EigenPair(value=value, vector=x, residual=residual,
                     iterations=iterations, product=y)


def _overflow(value, iterations, tol) -> ConvergenceError:
    """The error of a power iterate whose product is no longer finite."""
    err = ConvergenceError(
        f"power iterate overflowed at iteration {iterations} (largest "
        f"entry {value}); the operator's entries are too large for its "
        "products to stay finite")
    err.value, err.iterations, err.tol = value, iterations, float(tol)
    return err


def ball_eigenvalue_sweep(transfer, response, radii=None,
                          tol: float = DEFAULT_EIGEN_TOL) -> list[SweepPoint]:
    """Principal eigenvalues of the ball truncations for increasing radii.

    The sequence increases to the periodic eigenvalue from below. radii
    defaults to the integer radii the window can hold.
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
                                   tol=tol)
        points.append(SweepPoint(r, pair.value, pair.residual, pair.iterations))
    return points


def sub_eigenfunction(transfer, response, eps: float,
                      tol: float = DEFAULT_EIGEN_TOL) -> SubEigenfunction:
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
                                   tol=tol)
    lam = periodic.value
    if not 0.0 < eps < lam:
        raise ValidationError(
            f"eps must lie strictly between 0 and lambda_1 = {lam:.6g}, got {eps}"
        )

    chosen = None
    for radius in range(1, grid.window_radius + 1):
        pair = principal_eigenpair(assemble_ball(transfer, response, radius),
                                   tol=tol)
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
