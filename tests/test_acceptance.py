"""Release acceptance gate: one test per shipped guarantee.

Each test pins a quantitative bar the package promises at desk scale
(one dimension, cell_points <= 256, window_radius <= 40).  Tolerances
here are contract, not tuning: a red line below means the promise is
not met as stated.  Sub-checks inside a criterion are collected so the
failure message lists exactly which bar broke and by how much.
"""

import time

import numpy as np
import pytest

import epiwave as ew
from epiwave import dynamics, spectral, steady, waves
from epiwave.dynamics import Outcome
from epiwave.sir import SirState, equivalence_check
from epiwave.steady import apply_T

from oracles import FROZEN, box_minimal_speed

TWO_PI = 2.0 * np.pi


def _box(mass):
    return ew.separable_contact_kernel(mass, 1.0)


def _striped(mass=2.0):
    return ew.separable_contact_kernel(
        mass, 1.0,
        source_factor=lambda P: 1.0 + 0.5 * np.cos(TWO_PI * P[:, 0]),
        decay=lambda P: 1.0 + 0.25 * np.sin(TWO_PI * P[:, 0]),
    )


def _sinusoidal_everything(mass=2.0):
    return ew.separable_contact_kernel(
        mass, 1.0,
        source_factor=lambda P: 1.0 + 0.3 * np.sin(TWO_PI * P[:, 0]),
        target_factor=lambda P: 1.0 + 0.4 * np.cos(TWO_PI * P[:, 0]),
        decay=lambda P: 1.0 + 0.25 * np.sin(TWO_PI * P[:, 0]),
    )


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


@pytest.fixture(scope="module")
def response():
    return ew.saturating_exponential()


@pytest.fixture(scope="module")
def front_assets(response):
    """Certified front at twice the minimal speed, homogeneous medium."""
    grid = ew.PeriodicGrid(dim=1, cell_points=32, window_radius=40)
    kernel = _box(2.0)
    speed = waves.minimal_speed(kernel, response, grid)
    transfer = ew.time_integrate_kernel(kernel, grid)
    state = steady.solve_steady_state(transfer, response, tol=1e-13)
    c = 2.0 * speed.c_star
    pair = waves.build_sub_super(kernel, response, c, grid, state,
                                 speed=speed)
    op = waves.WaveOperator(kernel, response, c, grid)
    solution = waves.construct_wave(pair)
    return {"grid": grid, "kernel": kernel, "speed": speed, "steady": state,
            "c": c, "pair": pair, "op": op, "solution": solution}


def test_criterion_01_isotropic_eigenvalue_identity(response):
    grid = ew.PeriodicGrid(dim=1, cell_points=128, window_radius=2)
    transfer = ew.time_integrate_kernel(_box(2.0), grid)
    pair = spectral.principal_eigenpair(
        spectral.assemble_periodic(transfer, response))
    assert abs(pair.value - 2.0) <= 1e-6, (
        f"lambda1 = {pair.value!r} strays from 2 by {abs(pair.value - 2.0):.2e}"
    )


def test_criterion_02_threshold_dichotomy(response):
    failures = []
    grid = ew.PeriodicGrid(dim=1, cell_points=32, window_radius=12)
    forcing = ew.bump_forcing(amplitude=1.0, radius=2.0, rate=1.0)

    for mass, want, tol in ((2.0, Outcome.PROPAGATES, 1e-2),
                            (0.5, Outcome.FADES_OUT, 1e-3)):
        kernel = _box(mass)
        transfer = ew.time_integrate_kernel(kernel, grid)
        started = time.perf_counter()
        field = dynamics.solve_initial_value(kernel, forcing, response, grid,
                                             dt=0.05, horizon=40.0)
        elapsed = time.perf_counter() - started
        final, settled = dynamics.long_time_limit(field)
        state = steady.solve_steady_state(transfer, response)
        keep = dynamics.tail_mask(grid, 1.0, 6.0, 4.5)
        outcome = dynamics.classify_outcome(
            float(np.min(final[keep])), float(np.max(final[keep])),
            float(np.max(np.abs(final[keep] - grid.periodic_on_window(
                state.values)[keep]))) if state.present else None,
            tol)
        r = np.abs(grid.window_nodes[:, 0])
        tail = np.zeros(grid.n_window, dtype=bool)
        tail[grid.interior_indices(4.5)] = True
        tail &= r >= 6.0
        _check(failures, settled, f"mass {mass}: run has not settled")
        _check(failures, outcome is want,
               f"mass {mass}: classified {outcome} instead of {want}")
        if mass == 2.0:
            gap = float(np.max(np.abs(final[tail] - FROZEN["zstar_beta2"])))
            _check(failures, gap <= 1e-2,
                   f"tail gap to saturation {gap:.2e} exceeds 1e-2")
        else:
            sup = float(np.max(final[tail]))
            _check(failures, sup <= 1e-3,
                   f"subcritical tail sup {sup:.2e} exceeds 1e-3")
        _check(failures, elapsed <= 60.0,
               f"mass {mass}: run took {elapsed:.1f}s, over the 60s budget")
    assert not failures, "; ".join(failures)


def test_criterion_03_truncation_sweep_monotone(response):
    grid = ew.PeriodicGrid(dim=1, cell_points=32, window_radius=16)
    transfer = ew.time_integrate_kernel(_box(2.0), grid)
    lam = spectral.principal_eigenpair(
        spectral.assemble_periodic(transfer, response)).value
    sweep = spectral.ball_eigenvalue_sweep(transfer, response,
                                           radii=[2.0, 4.0, 8.0, 16.0])
    values = [p.value for p in sweep]
    failures = []
    _check(failures, all(b > a for a, b in zip(values, values[1:])),
           f"sweep not strictly increasing: {values}")
    _check(failures, all(v < lam for v in values),
           f"sweep exceeds the periodic value {lam}: {values}")
    _check(failures, lam - values[-1] <= 0.05,
           f"final truncation gap {lam - values[-1]:.3e} exceeds 0.05")
    assert not failures, "; ".join(failures)


def test_criterion_04_sub_eigenfunction_bound(response):
    grid = ew.PeriodicGrid(dim=1, cell_points=64, window_radius=8)
    transfer = ew.time_integrate_kernel(_box(2.0), grid)
    sub = spectral.sub_eigenfunction(transfer, response, eps=0.5)
    applied = response.slope0 * grid.weight * (
        transfer.window_matrix() @ sub.values)
    defect = applied - sub.threshold * sub.values
    bad = int(np.sum(defect < -1e-12 * sub.threshold))
    assert bad == 0, (
        f"inequality fails at {bad} of {grid.n_window} window nodes, "
        f"worst defect {float(np.min(defect)):.2e}"
    )


def test_criterion_05_rayleigh_domination(response):
    failures = []
    for label, kernel in (("homogeneous", _box(2.0)),
                          ("heterogeneous", _sinusoidal_everything())):
        grid = ew.PeriodicGrid(dim=1, cell_points=32, window_radius=3)
        transfer = ew.time_integrate_kernel(kernel, grid)
        op = spectral.assemble_ball(transfer, response, 2.0)
        lam = spectral.principal_eigenpair(op).value
        rng = np.random.default_rng(11)
        worst = max(op.rayleigh_quotient(rng.uniform(-1.0, 1.0, op.n))
                    for _ in range(100))
        _check(failures, worst <= lam + 1e-8,
               f"{label}: quotient {worst!r} exceeds lambda_R {lam!r} + 1e-8")
    assert not failures, "; ".join(failures)


def test_criterion_06_steady_fixed_point_unique(response):
    grid = ew.PeriodicGrid(dim=1, cell_points=64, window_radius=2)
    transfer = ew.time_integrate_kernel(_striped(), grid)
    state = steady.solve_steady_state(transfer, response, tol=1e-10)
    recomputed = float(np.max(np.abs(
        state.values - apply_T(state.values, transfer, response))))
    seeds = [np.full(grid.n_cell, 0.01), np.full(grid.n_cell, 3.0),
             0.5 + 0.2 * np.sin(TWO_PI * grid.cell_nodes[:, 0])]
    spread = steady.uniqueness_probe(transfer, response, seeds, tol=1e-8)
    failures = []
    _check(failures, state.present, "no positive steady state found")
    _check(failures, recomputed <= 1e-8,
           f"fixed-point residual {recomputed:.2e} exceeds 1e-8")
    _check(failures, spread <= 2e-8,
           f"three-seed limit spread {spread:.2e} exceeds 2e-8")
    assert not failures, "; ".join(failures)


def test_criterion_07_dispersion_monotonicity(response):
    grid = ew.PeriodicGrid(dim=1, cell_points=32, window_radius=4)
    kernel = _box(2.0)
    speeds = [0.0, 0.5, 1.0, 2.0]
    rhos = np.linspace(0.25, 2.0, 16)
    failures = []
    for rho in rhos:
        lams = [waves.dispersion_eigenvalue(kernel, response, rho, c,
                                            grid).value for c in speeds]
        _check(failures, all(b < a for a, b in zip(lams, lams[1:])),
               f"rho = {rho:.3g}: values not strictly decreasing: {lams}")
    jumps = []
    for step in (0.5, 0.25, 0.125):
        cs = np.arange(0.0, 2.0 + 1e-12, step)
        lams = [waves.dispersion_eigenvalue(kernel, response, 1.0, c,
                                            grid).value for c in cs]
        jumps.append(float(np.max(np.abs(np.diff(lams)))))
    _check(failures, jumps[0] > jumps[1] > jumps[2],
           f"c-refinement increments not shrinking: {jumps}")
    assert not failures, "; ".join(failures)


def test_criterion_08_minimal_speed_matches_scalar_oracle(response):
    grid = ew.PeriodicGrid(dim=1, cell_points=64, window_radius=4)
    result = waves.minimal_speed(_box(2.0), response, grid)
    want, _ = box_minimal_speed(2.0, 1.0, 1.0)
    assert abs(result.c_star - want) <= 1e-3, (
        f"c* = {result.c_star!r} strays from the scalar oracle {want!r} "
        f"by {abs(result.c_star - want):.2e}"
    )


def test_criterion_09_wave_construction(front_assets):
    solution = front_assets["solution"]
    pair = front_assets["pair"]

    failures = []
    _check(failures, solution.residual <= 1e-5,
           f"interior residual {solution.residual:.2e} exceeds 1e-5")
    # The tails are held to their decay rates, not to heights at a fixed
    # xi: no spec fixes the front's placement, translating it lowers one
    # tail while raising the other, and |u - z*| = 1e-2 behind lies 38
    # units of xi from u = 1e-3 ahead. Ahead the front decays at the
    # lower dispersion root, behind it relaxes to saturation at the rear
    # rate kappa, both from the scalar oracle. Log ratios over offsets
    # 10 -> 20 sit 0.4% (ahead) and 2.7% (behind) below them on this slab,
    # the pre-asymptotic part of the tails; the nearest wrong rates
    # (rho' = 1.5 rho1, rho2, kappa taken for rho1 or the reverse) are
    # 45% or more away.
    rate_rtol = 0.05
    diag = solution.front_diagnostics
    for side, key, expected in (
            ("ahead", "ahead_sup", FROZEN["rho1_at_2cstar"]),
            ("behind", "behind_gap", FROZEN["kappa_at_2cstar"])):
        rate = float(np.log(diag[10.0][key] / diag[20.0][key]) / 10.0)
        off = abs(rate - expected) / expected
        _check(failures, off <= rate_rtol,
               f"{side} tail decays at {rate:.4f} over offsets 10 -> 20, "
               f"{off:.1%} off the oracle rate {expected:.4f}")
    _check(failures, solution.ascent <= 1e-12,
           f"iterates rose by {solution.ascent:.2e} somewhere")
    scale = float(np.max(pair.sup))
    sandwich_low = float(np.min(solution.u - pair.sub))
    sandwich_high = float(np.min(pair.sup - solution.u))
    _check(failures, sandwich_low >= -1e-12 * scale,
           f"u dips {sandwich_low:.2e} below the subsolution")
    _check(failures, sandwich_high >= -1e-12 * scale,
           f"u pokes {-sandwich_high:.2e} above the supersolution")
    assert not failures, "; ".join(failures)


def test_criterion_10_certificate_inequalities(front_assets):
    op = front_assets["op"]
    pair = front_assets["pair"]
    interior = op.interior
    scale = float(np.max(pair.sup))
    d_sup = (op.apply(pair.sup, pair.sup_ghost) - pair.sup)[:, interior]
    d_sub = (op.apply(pair.sub, pair.sub_ghost) - pair.sub)[:, interior]
    failures = []
    n_sup = int(np.sum(d_sup > 1e-12 * scale))
    _check(failures, n_sup == 0,
           f"T(sup) <= sup fails at {n_sup} interior nodes, "
           f"worst {float(np.max(d_sup)):.2e}")
    n_sub = int(np.sum(d_sub < -1e-12 * scale))
    _check(failures, n_sub == 0,
           f"T(sub) >= sub fails at {n_sub} interior nodes, "
           f"worst {float(np.min(d_sub)):.2e}")
    assert not failures, "; ".join(failures)


def test_criterion_11_complex_root_continuation(front_assets, response):
    grid = front_assets["grid"]
    kernel = front_assets["kernel"]
    speed = front_assets["speed"]
    failures = []
    at_star = waves.complex_decay_root(kernel, response, speed.c_star, grid,
                                       speed=speed)
    _check(failures, np.imag(at_star.rho) == 0.0,
           f"root at c* is not real: {at_star.rho!r}")
    drift = abs(float(np.real(at_star.rho)) - speed.rho_star)
    _check(failures, drift <= 1e-8,
           f"real root strays {drift:.2e} from rho*")
    c = 0.95 * speed.c_star
    below = waves.complex_decay_root(kernel, response, c, grid, speed=speed)
    _check(failures, np.imag(below.rho) != 0.0,
           "root below c* stayed real")
    point = waves.dispersion_eigenvalue(kernel, response, below.rho, c, grid,
                                        seed=below)
    off = abs(point.value - 1.0)
    _check(failures, off <= 1e-8,
           f"|lambda(rho(c), c) - 1| = {off:.2e} exceeds 1e-8")
    assert not failures, "; ".join(failures)


def test_criterion_12_oscillating_subsolution(response):
    grid = ew.PeriodicGrid(dim=1, cell_points=32, window_radius=20)
    kernel = _box(2.0)
    speed = waves.minimal_speed(kernel, response, grid)
    osc = waves.oscillating_subsolution(kernel, response,
                                        0.98 * speed.c_star, grid,
                                        speed=speed)
    failures = []
    _check(failures, osc.min_slack >= 0.0,
           f"operator image drops below the bump by {-osc.min_slack:.2e}")
    # Strict where the bump is positive. The history at y integrates the
    # bump over s >= y only, so past the last positive lobe (it ends at
    # pi / (2 rho_I), the box eigenfunction having constant phase) plus
    # the kernel reach, the bump and its image are both exactly 0.
    _check(failures, osc.min_slack_on_support > 0.0,
           f"minimum slack on the bump's support "
           f"{osc.min_slack_on_support:.1e} is not strictly positive")
    x = grid.window_nodes[:, 0]
    zero = osc.band_mask & (osc.slack <= 0.0)
    trivial_from = np.pi / (2.0 * osc.rho_I) + kernel.half_width
    stray = zero & ((osc.values != 0.0) | (osc.applied != 0.0)
                    | (x <= trivial_from))
    _check(failures, not np.any(stray),
           f"{int(np.sum(stray))} band nodes have no slack without being "
           f"trivial zeros beyond x = {trivial_from:.3f}")
    outside = float(np.max(np.abs(osc.values[~osc.band_mask])))
    _check(failures, outside == 0.0,
           f"bump reaches {outside:.2e} outside the band")
    assert not failures, "; ".join(failures)


def test_criterion_13_sir_equivalence_first_order():
    def _gap(cell_points, dt):
        grid = ew.PeriodicGrid(dim=1, cell_points=cell_points,
                               window_radius=8)
        x = grid.window_nodes[:, 0]
        seed = 0.2 * np.where(np.abs(x) < 0.5, np.cos(np.pi * x) ** 2, 0.0)
        ones = lambda P: np.ones(P.shape[0])
        state = SirState(grid=grid, kernel=ew.SeparableKernel(2.0, 1.0),
                         susceptible_fn=ones, infected0=seed)
        return equivalence_check(state, dt=dt, horizon=3.0)

    coarse = _gap(16, 0.1)
    fine = _gap(32, 0.05)
    rate = coarse / (0.1 + 1.0 / 16)
    ratio = coarse / fine
    failures = []
    _check(failures, fine <= 1.5 * rate * (0.05 + 1.0 / 32),
           f"fine gap {fine:.2e} breaks the C*(dt + spacing) envelope, "
           f"C = {rate:.3g}")
    _check(failures, 1.5 <= ratio <= 3.0,
           f"Richardson ratio {ratio:.3g} outside [1.5, 3]")
    assert not failures, "; ".join(failures)


def test_criterion_14_order_monotonicity_battery(response):
    failures = []

    grid = ew.PeriodicGrid(dim=1, cell_points=64, window_radius=2)
    transfer = ew.time_integrate_kernel(_striped(), grid)
    rng = np.random.default_rng(3)
    violations = 0
    for _ in range(50):
        lo = rng.uniform(0.0, 2.0, grid.n_cell)
        hi = lo + rng.uniform(0.0, 1.0, grid.n_cell)
        gap = apply_T(hi, transfer, response) - apply_T(lo, transfer, response)
        if float(np.min(gap)) < -1e-14:
            violations += 1
    _check(failures, violations == 0,
           f"T broke ordering on {violations} of 50 random ordered pairs")

    small = ew.PeriodicGrid(dim=1, cell_points=16, window_radius=4)
    field = dynamics.solve_initial_value(_box(2.0), ew.bump_forcing(),
                                         response, small, dt=0.1, horizon=5.0)
    dips = float(np.min(np.diff(field.values, axis=0)))
    _check(failures, dips >= -1e-12,
           f"solution decreased in time by {dips:.2e} with nondecreasing "
           f"forcing")

    sweep_grid = ew.PeriodicGrid(dim=1, cell_points=32, window_radius=2)
    rho_grid = np.linspace(0.5, 3.0, 21)
    pair_rng = np.random.default_rng(17)
    for k in range(10):
        mass = pair_rng.uniform(1.3, 3.0)
        factor = pair_rng.uniform(1.05, 1.6)
        wiggle = pair_rng.uniform(0.0, 0.4)
        build = lambda m: ew.separable_contact_kernel(
            m, 1.0,
            source_factor=lambda P, a=wiggle: 1.0 + a * np.cos(TWO_PI * P[:, 0]),
        )
        lo_k, hi_k = build(mass), build(mass * factor)
        lam_lo = spectral.principal_eigenpair(spectral.assemble_periodic(
            ew.time_integrate_kernel(lo_k, sweep_grid), response)).value
        lam_hi = spectral.principal_eigenpair(spectral.assemble_periodic(
            ew.time_integrate_kernel(hi_k, sweep_grid), response)).value
        _check(failures, lam_hi >= lam_lo - 1e-12,
               f"pair {k}: lambda1 dropped from {lam_lo!r} to {lam_hi!r} "
               f"under a larger kernel")
        c_lo = waves.minimal_speed(lo_k, response, sweep_grid,
                                   rho_grid=rho_grid)
        c_hi = waves.minimal_speed(hi_k, response, sweep_grid,
                                   rho_grid=rho_grid)
        _check(failures, not c_lo.at_rest and not c_hi.at_rest,
               f"pair {k}: unexpected subcritical medium")
        _check(failures, c_hi.c_star >= c_lo.c_star - 2e-6,
               f"pair {k}: c* dropped from {c_lo.c_star!r} to "
               f"{c_hi.c_star!r} under a larger kernel")
    assert not failures, "; ".join(failures)
