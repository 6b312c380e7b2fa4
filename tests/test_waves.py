"""Dispersion surface, minimal speed, front iteration, slow-speed diagnostics."""

import dataclasses
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import epiwave as ew
from epiwave import ConvergenceError, ValidationError
from epiwave.domain.kernels import periodize_kernel
from epiwave.spectral import assemble_periodic, principal_eigenpair
from epiwave.steady import solve_steady_state
from epiwave.app import pipelines, scenario
from epiwave.waves import (
    DispersionPoint,
    TiltedOperator,
    WaveOperator,
    build_sub_super,
    complex_decay_root,
    construct_wave,
    default_rho_grid,
    dispersion_eigenvalue,
    minimal_speed,
    oscillating_subsolution,
)
from epiwave.waves import dispersion, profile
from oracles import (ANGLES_2D, FROZEN, box_2d_minimal_speed, box_dispersion,
                     box_minimal_speed)


def _grid(cell_points=64, window=4):
    return ew.PeriodicGrid(dim=1, cell_points=cell_points, window_radius=window)


def _box(mass=2.0):
    return ew.separable_contact_kernel(mass, 1.0)


def _g():
    return ew.saturating_exponential()


def _striped_kernel():
    def source(x):
        return 1.0 + 0.5 * np.cos(2.0 * np.pi * x[:, 0])

    def recovery(y):
        return 1.0 + 0.25 * np.sin(2.0 * np.pi * y[:, 0])

    return ew.separable_contact_kernel(
        2.0, 1.0, source_factor=source, decay=recovery
    )


@pytest.fixture(scope="module")
def front():
    """One full front run at twice the minimal speed, shared across tests."""
    grid = ew.PeriodicGrid(dim=1, cell_points=32, window_radius=40)
    kernel = _box()
    g = _g()
    speed = minimal_speed(kernel, g, grid)
    steady = solve_steady_state(
        ew.time_integrate_kernel(kernel, grid), g, tol=1e-13
    )
    c = 2.0 * speed.c_star
    pair = build_sub_super(kernel, g, c, grid, steady, speed=speed)
    op = WaveOperator(kernel, g, c, grid)
    wave = construct_wave(pair)
    return {
        "grid": grid, "kernel": kernel, "g": g, "speed": speed,
        "steady": steady, "c": c, "pair": pair, "op": op, "wave": wave,
    }


# ---------------------------------------------------------------- dispersion


def test_rest_rate_matches_threshold_eigenvalue():
    grid = _grid()
    kernel = _box()
    g = _g()
    point = dispersion_eigenvalue(kernel, g, 0.0, 0.0, grid)
    op = assemble_periodic(ew.time_integrate_kernel(kernel, grid), g)
    lam = principal_eigenpair(op).value
    assert abs(point.value - lam) <= 1e-9
    assert abs(point.value - 2.0) <= 1e-10
    assert np.min(point.phi) > 0


def test_tilted_eigenvalue_tracks_the_closed_form():
    """Quadrature error is second order in the spacing, so it halves four
    times over when the cell count doubles."""
    g = _g()
    errs = {}
    for n in (64, 128):
        point = dispersion_eigenvalue(_box(), g, 1.0, 0.0, _grid(n))
        errs[n] = abs(point.value - FROZEN["lambda_rho1_c0"])
    assert errs[64] <= 2e-4
    assert errs[128] <= 0.3 * errs[64]
    moving = dispersion_eigenvalue(_box(), g, 1.0, 0.5, _grid(64))
    assert abs(moving.value - box_dispersion(1.0, 0.5)) <= 2e-4


def test_faster_frames_always_shrink_the_eigenvalue():
    grid = _grid(48)
    kernel = _box()
    g = _g()
    rhos = np.linspace(0.2, 3.2, 16)
    speeds = [0.0, 0.5, 1.0, 2.0]
    for rho in rhos:
        vals = [dispersion_eigenvalue(kernel, g, rho, c, grid).value
                for c in speeds]
        assert np.all(np.diff(vals) < 0)
    # continuity under refinement: shrinking the speed step shrinks the jump
    gaps = []
    for dc in (0.5, 0.25, 0.125):
        a = dispersion_eigenvalue(kernel, g, 1.0, 1.0, grid).value
        b = dispersion_eigenvalue(kernel, g, 1.0, 1.0 + dc, grid).value
        gaps.append(a - b)
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_tilting_never_lowers_the_resting_eigenvalue():
    grid = _grid(48)
    kernel = _box()
    g = _g()
    base = dispersion_eigenvalue(kernel, g, 0.0, 0.0, grid).value
    for rho in np.geomspace(0.05, 3.0, 7):
        tilted = dispersion_eigenvalue(kernel, g, rho, 0.0, grid).value
        assert tilted >= base - 1e-9


def test_minimal_speed_matches_the_scalar_oracle():
    result = minimal_speed(_box(), _g(), _grid())
    assert not result.at_rest
    assert abs(result.c_star - FROZEN["c_star"]) <= 1.5e-3
    assert abs(result.rho_star - FROZEN["rho_star"]) <= 5e-3
    assert result.value <= 1.0 + 1e-9


def test_subcritical_medium_rests():
    result = minimal_speed(_box(mass=0.5), _g(), _grid(32))
    assert result.at_rest
    assert result.c_star == 0.0
    assert result.rho_star is None


def test_richer_contacts_travel_faster():
    lean = minimal_speed(_box(2.0), _g(), _grid())
    rich = minimal_speed(_box(4.0), _g(), _grid())
    assert rich.c_star > lean.c_star
    oracle_c, _ = box_minimal_speed(beta=4.0)
    assert abs(rich.c_star - oracle_c) <= 2e-3


def test_2d_oracle_matches_its_frozen_speeds():
    for name, theta in ANGLES_2D.items():
        c, _ = box_2d_minimal_speed(theta)
        assert c == pytest.approx(FROZEN[f"c_star_2d_{name}"], rel=1e-12)
    # along an axis the 2-D box is the 1-D box of the same mass
    assert FROZEN["c_star_2d_0"] == pytest.approx(FROZEN["c_star"], rel=1e-12)


@pytest.mark.parametrize("name", sorted(ANGLES_2D))
def test_2d_box_speed_matches_the_directional_oracle(name):
    """c*(theta) of the 2-D box on an 8 x 8 cell against the closed form:
    the midpoint rule's second-order error was 4.15-4.43e-3 relative at
    these angles, the discrete speed above the exact one."""
    theta = ANGLES_2D[name]
    grid = ew.PeriodicGrid(2, 8, 2)
    speed = minimal_speed(ew.separable_contact_kernel(2.0, 1.0, dim=2), _g(),
                          grid, direction=[np.cos(theta), np.sin(theta)])
    exact = FROZEN[f"c_star_2d_{name}"]
    assert 0.0 < speed.c_star / exact - 1.0 <= 4.5e-3


@pytest.mark.parametrize("dim", [1, 2])
def test_reversed_direction_keeps_the_speed(dim):
    """c*(-e) = c*(e): with K(x, y) = t(x) K0(x - y) s(y) and K0 even, the
    tilted operator at -rho is similar to the transpose of the one at rho,
    so every rate gives the same eigenvalue both ways. Striped media with
    an off-phase source, a target factor and a second harmonic in the
    decay."""
    kernel = ew.separable_contact_kernel(
        2.1, 1.0, dim=dim,
        source_factor=lambda P: 1 + 0.35 * np.cos(2 * np.pi * (P[:, 0] - 0.3)),
        target_factor=lambda P: 1 + 0.2 * np.sin(2 * np.pi * P[:, -1]),
        decay=lambda P: (1 + 0.2 * np.sin(2 * np.pi * P[:, 0])
                         + 0.1 * np.cos(4 * np.pi * P[:, 0])))
    grid = ew.PeriodicGrid(dim, 32 if dim == 1 else 8, 2)
    e = np.array([1.0, 0.5][:dim])
    ahead = minimal_speed(kernel, _g(), grid, direction=e)
    behind = minimal_speed(kernel, _g(), grid, direction=-e)
    assert not ahead.at_rest
    # within the search's final bracket (equal to the last bit when measured)
    assert abs(ahead.c_star - behind.c_star) <= dispersion._C_TOL
    assert behind.direction.tolist() == (-ahead.direction).tolist()


def test_speed_and_grid_input_validation():
    kernel = _box()
    g = _g()
    grid = _grid(32)
    with pytest.raises(ValidationError, match="direction"):
        minimal_speed(kernel, g, grid, direction=[0.0])
    with pytest.raises(ValidationError, match="rho_grid"):
        minimal_speed(kernel, g, grid, rho_grid=[0.5])
    with pytest.raises(ValidationError, match="rho_grid"):
        minimal_speed(kernel, g, grid, rho_grid=[-0.5, 1.0])
    base = default_rho_grid()
    assert base.size == 64 and base[0] >= 1e-3 and base[-1] <= 8.0
    assert np.all(np.diff(base) > 0)


def test_speed_search_gives_up_past_its_cap(monkeypatch):
    # the box medium's c* = 1.23 lies past a cap of 0.5
    monkeypatch.setattr(dispersion, "_C_MAX", 0.5)
    with pytest.raises(ConvergenceError, match="no speed up to 0.5"):
        minimal_speed(_box(), _g(), _grid(32))


def test_unbounded_contacts_are_rejected():
    # the kernel's Reach refuses it, before any operator is built
    with pytest.raises(ValidationError, match="super-linear"):
        ew.SeparableKernel(2.0, np.inf)


_STRIPED_DOC = {"source": "1 + 0.5*cos(2*pi*x)",
                "decay": "1 + 0.25*sin(2*pi*x)"}


@pytest.mark.parametrize("doc", [
    {"kernel": {}},
    {"kernel": _STRIPED_DOC},
    {"grid": {"dim": 2, "cell_points": 8, "window_radius": 2},
     "run": {"direction": [1.0, 1.0]}},
], ids=["box", "striped", "box-2d-diagonal"])
def test_dispersion_table_equals_each_point_bit_for_bit(doc):
    """One operator for the whole surface gives, at every (rho, c), the
    very value a fresh per-point evaluation gives."""
    cfg = scenario.scenario_from_dict({
        "grid": {"cell_points": 16, "window_radius": 2}, **doc,
        "run": {**doc.get("run", {}), "rho_values": [0.0, 0.4, 1.3],
                "c_values": [0.0, 0.7, 2.0]}})
    artifacts, _ = pipelines.run_dispersion(cfg)
    rows = artifacts["dispersion.csv"].splitlines()[1:]
    table = [tuple(float(v) for v in row.split(",")) for row in rows]
    expected = [
        (rho, c, dispersion_eigenvalue(cfg.kernel, cfg.response, rho, c,
                                       cfg.grid, cfg.direction).value)
        for c in cfg.c_values for rho in cfg.rho_values]
    assert table == expected


def _count_lattice_sums(monkeypatch):
    calls = []
    real = dispersion.periodize_kernel

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dispersion, "periodize_kernel", counting)
    return calls


def test_one_lattice_sum_per_rate_across_speeds(monkeypatch):
    calls = _count_lattice_sums(monkeypatch)
    tilted = TiltedOperator(_striped_kernel(), _g(), _grid(16))
    for c in (0.0, 0.5, 2.0):
        for rho in (0.2, 0.9):
            tilted.point(rho, c)
    assert len(calls) == 2


def test_lattice_sum_cache_bound_leaves_the_speed_unchanged(monkeypatch):
    kernel, g, grid = _striped_kernel(), _g(), _grid(16)
    calls = _count_lattice_sums(monkeypatch)
    free = minimal_speed(kernel, g, grid)
    unbounded = len(calls)
    # room for one cached n_cell x n_cell sum, not two
    monkeypatch.setattr(dispersion, "MAX_CELL_BYTES", 3 * 16 * 16 * 8 // 2)
    calls.clear()
    bounded = minimal_speed(kernel, g, grid)
    assert len(calls) > unbounded
    assert (bounded.c_star, bounded.rho_star) == (free.c_star, free.rho_star)


def _search_work(monkeypatch, cold):
    """minimal_speed on the striped medium, with what each solve was asked
    (whether a start vector came with it) and its power iterations, and per
    rate scan its speed, solves and new lattice sums; cold drops every
    start vector."""
    starts, iterations, scans = [], [], []
    real_pair, real_scan = dispersion.principal_eigenpair, dispersion._min_over_rho

    def counting(op, tol=dispersion.DEFAULT_EIGEN_TOL, start=None):
        pair = real_pair(op, tol=tol, start=None if cold else start)
        starts.append(start is not None)
        iterations.append(pair.iterations)
        return pair

    def scanning(tilted, rho_grid, c, vectors):
        solves, summed = len(starts), len(sums)
        out = real_scan(tilted, rho_grid, c, vectors)
        scans.append((c, len(starts) - solves, len(sums) - summed))
        return out

    with monkeypatch.context() as mp:
        sums = _count_lattice_sums(mp)
        mp.setattr(dispersion, "principal_eigenpair", counting)
        mp.setattr(dispersion, "_min_over_rho", scanning)
        speed = minimal_speed(_striped_kernel(), _g(), _grid(64))
    return speed, starts, sum(iterations), scans


def test_warm_started_search_does_the_same_solves_in_fewer_iterations(
        monkeypatch):
    """Each grid rate starts from its Perron vectors at the speeds already
    searched: the same solves as from the constant vector, fewer power
    iterations, and the same speed and decay rate to the search's
    tolerances."""
    cold, cold_starts, cold_iterations, cold_scans = _search_work(
        monkeypatch, cold=True)
    warm, warm_starts, warm_iterations, warm_scans = _search_work(
        monkeypatch, cold=False)
    assert warm_starts == cold_starts
    # the rest solve and the first scan's grid start cold, every later
    # solve warm
    first = 1 + len(default_rho_grid())
    assert not any(warm_starts[:first]) and all(warm_starts[first:])
    assert warm_iterations < 0.5 * cold_iterations
    assert abs(warm.c_star - cold.c_star) <= dispersion._C_TOL
    assert abs(warm.rho_star - cold.rho_star) <= 1e-6
    # The same lattice sums, scan by scan, but at one speed: the doubling
    # stops at c = 2 and the bisection of [0, 2] searches c = 1 again. Cold,
    # that scan repeats its first visit bit for bit and finds every rate
    # cached; warm, its Brent points move in the last bits and are summed.
    speeds = [c for c, _, _ in cold_scans]
    assert speeds == [c for c, _, _ in warm_scans]
    assert speeds[:3] == [1.0, 2.0, 1.0]
    for k, (cold_scan, warm_scan) in enumerate(zip(cold_scans, warm_scans)):
        if k != 2:
            assert warm_scan == cold_scan, speeds[k]
    _, solves, summed = warm_scans[2]
    assert cold_scans[2][2] == 0 < summed <= solves - len(default_rho_grid())


def _counted_source_kernel(dim):
    """The striped kernel with a counter on its source factor's calls."""
    calls = []

    def source(P):
        calls.append(1)
        return 1.0 + 0.5 * np.cos(2.0 * np.pi * P[:, 0])

    kernel = ew.separable_contact_kernel(
        2.0, 1.0, dim=dim, source_factor=source,
        decay=lambda P: 1.0 + 0.25 * np.sin(2.0 * np.pi * P[:, 0]))
    return kernel, calls


# a box of reach 1 reaches 3 images of a 1-D cell and the 9 images with
# |k_a| <= 1 of an 8-point 2-D cell; its table is made from its factors,
# reading the source factor once per image
@pytest.mark.parametrize("dim, cell_points, reachable", [
    pytest.param(1, 16, 3, id="1-16-3"),
    pytest.param(2, 8, 9, id="2-8-9"),
])
def test_the_kernel_is_evaluated_once_per_image_per_operator(
        dim, cell_points, reachable):
    kernel, calls = _counted_source_kernel(dim)
    grid = ew.PeriodicGrid(dim, cell_points, 2)
    direction = np.ones(dim)
    tilted = TiltedOperator(kernel, _g(), grid, direction)
    assert len(tilted.shifts) == reachable
    assert len(calls) == reachable
    calls.clear()
    # a rho_values x c_values surface and complex rates read the table
    for c in (0.0, 0.7, 2.0):
        for rho in (0.0, 0.4, 1.3):
            tilted.point(rho, c)
    tilted.matrix(0.9 + 0.4j, 1.1)
    assert len(calls) == 0
    # a speed search and a continuation each build one operator, and
    # evaluate the kernel no further than its table
    speed = minimal_speed(kernel, _g(), grid, direction)
    assert len(calls) == reachable
    calls.clear()
    complex_decay_root(kernel, _g(), 0.97 * speed.c_star, grid, speed=speed)
    assert len(calls) == reachable


def test_complex_rates_skip_the_cache_and_keep_the_answers(monkeypatch):
    operators = []

    class Recorded(TiltedOperator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            operators.append(self)

    monkeypatch.setattr(dispersion, "TiltedOperator", Recorded)
    cfg = scenario.scenario_from_dict({"grid": {"cell_points": 32,
                                                "window_radius": 20}})
    artifacts, _ = pipelines.run_subwave_diag(cfg)
    # the speed search and the continuation, each on its own operator
    assert len(operators) == 2
    for tilted in operators:
        assert tilted._cache
        assert all(isinstance(rho, float) for rho in tilted._cache)
    # the answers of the per-pair lattice sums, to far below the 1e-8 the
    # continuation is held to (criterion 11)
    summary = json.loads(artifacts["subwave.json"])
    assert summary["dominated"] is True
    assert summary["c_star"] == pytest.approx(1.2262758910655975, rel=1e-12)
    assert summary["c"] == pytest.approx(1.2017503732442856, rel=1e-12)
    for key, value in (("rho_real", 1.469947901765323),
                       ("rho_imag", 0.25027677104031537),
                       ("band", 9.414355476932382)):
        assert summary[key] == pytest.approx(value, rel=1e-10), key


def test_rates_and_speeds_that_would_overflow_are_refused_before_any_exp():
    """Non-finite rates and speeds, and real rates past rho_max, raise one
    ValidationError naming the value, with warnings as errors. At rho_max
    itself the matrix and its products are finite, and 1% above it the
    tilted sum does overflow: the bound sits where overflow happens."""
    for dim, direction in ((1, None), (2, [1.0, 1.0])):
        grid = ew.PeriodicGrid(dim, 8, 2)
        tilted = TiltedOperator(ew.separable_contact_kernel(2.0, 1.0, dim=dim),
                                _g(), grid, direction)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top = tilted.matrix(tilted.rho_max, 0.5)
            assert np.all(np.isfinite(top @ np.ones(len(top))))
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                periodize_kernel(tilted.shifts, tilted.blocks, grid,
                                 1.01 * tilted.rho_max * tilted.e)
            for rho, c in ((np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0),
                           (complex(np.nan, 1.0), 1.0),
                           (np.nextafter(tilted.rho_max, np.inf), 1.0),
                           (800.0, 1.0)):
                with pytest.raises(ValidationError, match="decay rate .*got "
                                   + re.escape(str(rho))):
                    tilted.matrix(rho, c)
            for c in (np.nan, np.inf):
                with pytest.raises(ValidationError, match=f"speed .*got {c}"):
                    tilted.point(1.0, c)
    grid = _grid(16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for top in (np.inf, 800.0):
            with pytest.raises(ValidationError, match=f"decay rate .*got {top}"):
                minimal_speed(_box(), _g(), grid, rho_grid=[0.5, top])
        with pytest.raises(ValidationError, match="rho_grid"):
            minimal_speed(_box(), _g(), grid, rho_grid=[0.5, np.nan])
        with pytest.raises(ValidationError, match="got 800.0"):
            dispersion_eigenvalue(_box(), _g(), 800.0, 1.0, grid)


@pytest.mark.parametrize("reach", [45.0, 50.0])
def test_wide_kernels_admit_the_default_rate_grid(reach):
    """A 1-D kernel of reach 45 or 50 keeps its tilt finite up to a rate of
    about 15, above the top of the speed search's default grid."""
    tilted = TiltedOperator(ew.separable_contact_kernel(2.0, reach), _g(),
                            _grid(64, 2))
    top = default_rho_grid()[-1]
    assert 13.9 < tilted.rho_max < 15.5 and top < tilted.rho_max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(tilted.matrix(top, 1.0)))


def test_a_vanishing_target_factor_is_refused_before_any_warm_start(
        monkeypatch):
    """A target factor that vanishes at a cell node zeroes a row of every
    tilted matrix, so no Perron vector is strictly positive. The search's
    cold rest solve refuses it before any start vector is passed on, and a
    solve never returns a vector with a zero entry to start from."""
    kernel = ew.separable_contact_kernel(
        2.0, 1.0, target_factor=lambda P: 1.0 - np.cos(
            2.0 * np.pi * (P[:, 0] - 0.0625)))
    grid = _grid(8)
    assert grid.cell_nodes[0, 0] == 0.0625
    starts = []
    solve = dispersion.principal_eigenpair

    def spy(op, tol=dispersion.DEFAULT_EIGEN_TOL, start=None):
        starts.append(start)
        return solve(op, tol=tol, start=start)

    monkeypatch.setattr(dispersion, "principal_eigenpair", spy)
    with pytest.raises(ValidationError, match="not strictly positive"):
        minimal_speed(kernel, _g(), grid)
    assert starts == [None]
    with pytest.raises(ValidationError, match="not strictly positive"):
        TiltedOperator(kernel, _g(), grid).point(1.0, 1.0)


def test_one_rate_check_per_matrix(monkeypatch):
    """matrix checks (rho, c) once, not again through _lattice_sum, and
    still refuses bad rates and speeds."""
    tilted = TiltedOperator(_striped_kernel(), _g(), _grid(16))
    checks = []
    real = TiltedOperator._decay_rate

    def counting(self, rho, c):
        checks.append((rho, c))
        return real(self, rho, c)

    monkeypatch.setattr(TiltedOperator, "_decay_rate", counting)
    tilted.matrix(0.5, 1.0)
    assert checks == [(0.5, 1.0)]
    for rho, c in ((-0.5, 1.0), (0.5, -1.0), (np.nan, 1.0),
                   (2.0 * tilted.rho_max, 1.0)):
        with pytest.raises(ValidationError):
            tilted.matrix(rho, c)


def test_tilted_operator_refuses_negative_speeds_and_rates():
    tilted = TiltedOperator(_box(), _g(), _grid(16))
    for rho, c in ((0.5, -1.0), (-0.5, 1.0), (-0.5 + 0j, 1.0)):
        for evaluate in (tilted.matrix, tilted.operator, tilted.point):
            with pytest.raises(ValidationError, match="nonnegative"):
                evaluate(rho, c)
    # a complex rate is not a real one: its real part may have any sign
    assert np.iscomplexobj(tilted.matrix(-0.5 + 0.1j, 1.0))


_FIRST_NODE = 0.5 / 64


@pytest.mark.parametrize("decay", [
    lambda P: np.sin(np.pi * (P[:, 0] - _FIRST_NODE)) ** 2,
    lambda P: np.where(P[:, 0] == _FIRST_NODE, np.inf, 1.0),
    lambda P: np.where(P[:, 0] == _FIRST_NODE, np.nan, 1.0),
], ids=["zero", "inf", "nan"])
def test_tilted_operator_refuses_bad_decay_on_a_cell_node(decay):
    # each decay is fine on SeparableKernel's probe lattice and bad only at
    # the first node of a 64-point cell, where mu + rho c would be divided by
    kernel = ew.separable_contact_kernel(2.0, 1.0, decay=decay)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match=r"positive and finite.* at node 0,"):
            minimal_speed(kernel, _g(), ew.PeriodicGrid(1, 64, 8))


# ------------------------------------------------------------- complex roots


def test_decay_root_continues_off_the_tangency():
    grid = _grid()
    kernel = _box()
    g = _g()
    speed = minimal_speed(kernel, g, grid)
    at_star = complex_decay_root(kernel, g, speed.c_star, grid, speed=speed)
    assert np.imag(at_star.rho) == 0.0
    assert abs(float(np.real(at_star.rho)) - speed.rho_star) <= 1e-12

    below = complex_decay_root(kernel, g, 0.95 * speed.c_star, grid,
                               speed=speed)
    assert np.imag(below.rho) > 0
    assert below.residual <= 1e-8
    assert abs(np.real(below.rho) - speed.rho_star) <= 0.1
    # the conjugate rate solves the same equation
    mirror = dispersion_eigenvalue(kernel, g, np.conj(below.rho),
                                   0.95 * speed.c_star, grid,
                                   seed=np.conj(below.phi))
    assert abs(mirror.value - 1.0) <= 1e-7


def test_decay_root_rejects_fast_frames():
    grid = _grid(32)
    kernel = _box()
    g = _g()
    speed = minimal_speed(kernel, g, grid)
    with pytest.raises(ValidationError, match="minimal speed"):
        complex_decay_root(kernel, g, 1.1 * speed.c_star, grid, speed=speed)


def test_decay_root_halves_its_step_until_it_breaks_down(monkeypatch):
    grid = _grid(32)
    speed = minimal_speed(_box(), _g(), grid)
    # with no Newton step allowed every continuation step fails and halves
    monkeypatch.setattr(dispersion, "_MAX_NEWTON", 0)
    with pytest.raises(ConvergenceError, match="broke down"):
        complex_decay_root(_box(), _g(), 0.95 * speed.c_star, grid,
                           speed=speed)


def test_decay_root_continuation_is_bounded(monkeypatch):
    grid = _grid(32)
    speed = minimal_speed(_box(), _g(), grid)
    # two Newton steps per continuation step succeed only once the step
    # has halved to a sliver, which never grows back
    monkeypatch.setattr(dispersion, "_MAX_NEWTON", 2)
    monkeypatch.setattr(dispersion, "_MAX_STEPS", 40)
    with pytest.raises(ConvergenceError, match=r"reached only c = .* in 40 "
                                               r"steps"):
        complex_decay_root(_box(), _g(), 0.95 * speed.c_star, grid,
                           speed=speed)


def test_decay_root_refuses_negative_and_non_finite_speeds():
    # NaN fails every comparison of the continuation, so it is refused first
    for c in (np.nan, np.inf, -1.0):
        with pytest.raises(ValidationError, match=f"speed .*got {c}"):
            complex_decay_root(_box(), _g(), c, _grid(16))


def test_complex_rates_need_a_seed():
    with pytest.raises(ValidationError, match="seed"):
        dispersion_eigenvalue(_box(), _g(), 0.3 + 0.1j, 0.5, _grid(32))


# ------------------------------------------------------------------- fronts


def test_certificates_hold_at_every_interior_node(front):
    op, pair = front["op"], front["pair"]
    up = op.apply(pair.sup, pair.sup_ghost)
    down = op.apply(pair.sub, pair.sub_ghost)
    assert np.max((up - pair.sup)[:, op.interior]) <= 1e-12
    assert np.min((down - pair.sub)[:, op.interior]) >= -1e-12


def _apply_by_slice_pairs(op, slab, ghost_terms):
    """Reference for WaveOperator.apply: the memory over the last period
    summed term by term over (slice, lag) pairs, O(m^2) per application."""
    m, nw, n = op.m, op.grid.n_window, op.n_cell
    g_ext = op.response(np.hstack([slab, op.ghost_values(ghost_terms)]))
    base, shifted = g_ext[:, :nw], g_ext[:, n:]

    def pick(s):
        return base[s] if s >= 0 else shifted[s + m]

    G = np.zeros((m, nw))
    for j in range(m):
        for lag in range(m):
            G[j] += op.E1**lag * (op.alpha * pick(j - lag)
                                  + op.beta * pick(j - lag - 1))
    w = np.empty((m, nw))
    w_next = op._ghost_memory(ghost_terms)
    for k in range(op.cells - 1, -1, -1):
        cols = slice(k * n, (k + 1) * n)
        w[:, cols] = G[:, cols] + op.EP[:n] * w_next
        w_next = w[:, cols]
    out = slab.copy()
    conv = op.grid.weight * (op.K @ w.T).T
    out[:, op.interior] = conv[:, op.interior]
    return out


def _apply_by_running_sums(op, slab, ghost_terms):
    """Reference for WaveOperator.apply: the running sums and the cell loop
    on fresh arrays, each step a new temporary."""
    m, nw, n = op.m, op.grid.n_window, op.n_cell
    u_ext = np.empty((m, nw + n))
    u_ext[:, :nw] = slab
    u_ext[:, nw:] = op.ghost_values(ghost_terms)
    g_ext = op.response(u_ext)
    h = np.concatenate([g_ext[:, n:], g_ext[:, :nw]])
    q = op.alpha * h[1:] + op.beta * h[:-1]
    powers = op.powers
    G = powers * np.cumsum((powers[::-1] * q[:m])[::-1], axis=0)[::-1]
    fresh = np.zeros(nw)
    for j in range(1, m):
        fresh = op.E1 * fresh + q[m + j - 1]
        G[j] += fresh
    w = np.empty((m, nw))
    w_next = op._ghost_memory(ghost_terms)
    for k in range(op.cells - 1, -1, -1):
        block = G[:, k * n:(k + 1) * n] + op.EP[:n][None, :] * w_next
        w[:, k * n:(k + 1) * n] = block
        w_next = block
    out = np.array(slab, dtype=float, copy=True)
    conv = op.grid.weight * (op.K @ w.T).T
    out[:, op.interior] = conv[:, op.interior]
    return out


def _slab_case(make_kernel, slices):
    grid = ew.PeriodicGrid(dim=1, cell_points=16, window_radius=4)
    c, rho = 3.0, 0.8
    op = WaveOperator(make_kernel(), _g(), c, grid, slices=slices)
    xi = grid.window_nodes[:, 0][None, :] - c * op.times[:, None]
    slab = np.minimum(np.exp(-rho * xi), 1.0)
    return op, slab, [(np.ones(grid.cell_points), rho)]


_SLAB_CASES = pytest.mark.parametrize(
    "make_kernel, slices",
    [(k, s) for k in (_box, _striped_kernel) for s in (4, 16)],
    ids=[f"{k}-{s}" for k in ("box", "striped") for s in (4, 16)])


@_SLAB_CASES
def test_running_sum_matches_the_slice_pair_sum(make_kernel, slices):
    op, slab, ghost = _slab_case(make_kernel, slices)
    expected = _apply_by_slice_pairs(op, slab, ghost)
    got = op.apply(slab, ghost)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@_SLAB_CASES
def test_workspace_apply_equals_the_running_sums_bit_for_bit(make_kernel,
                                                             slices):
    op, slab, ghost = _slab_case(make_kernel, slices)
    for _ in range(2):  # the second apply reuses the filled workspace
        assert np.array_equal(op.apply(slab, ghost),
                              _apply_by_running_sums(op, slab, ghost))


def test_apply_hands_out_no_workspace():
    op, slab, ghost = _slab_case(_striped_kernel, 16)
    before = slab.copy()
    first = op.apply(slab, ghost)
    kept = first.copy()
    second = op.apply(0.5 * slab, ghost)
    assert np.array_equal(first, kept)
    assert not np.shares_memory(first, second)
    assert np.array_equal(slab, before)


def test_apply_allocates_at_most_four_slabs(front):
    """Past the first apply, which sizes the product's buffers, one apply
    without out allocates the product's output and little else."""
    op, slab, ghost = front["op"], front["pair"].sup, front["pair"].sup_ghost
    assert slab.shape == (16, 2560)
    op.apply(slab, ghost)
    tracemalloc.start()
    try:
        op.apply(slab, ghost)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * slab.nbytes


def test_applications_into_out_allocate_less_than_a_slab(front):
    """After a warm-up, ten applications into a slab of the caller's
    allocate nothing but the tail's ghost fields and small views: the
    traced peak of each, above what was held before it, sums to less
    than one slab over the ten."""
    op, slab, ghost = front["op"], front["pair"].sup, front["pair"].sup_ghost
    out = np.empty_like(slab)
    op.apply(slab, ghost, out=out)
    total = 0
    tracemalloc.start()
    try:
        for _ in range(10):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            op.apply(slab, ghost, out=out)
            total += tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert total < slab.nbytes


def test_apply_reads_the_tail_terms_on_every_call(front):
    """The ghost fields are made from the terms each call: terms changed
    in place between two applications give the image of the new terms."""
    op, slab = front["op"], front["pair"].sup
    coef, rho = front["pair"].sup_ghost[0]
    terms = [(coef.copy(), rho)]
    before = op.apply(slab, terms)
    terms[0] = (2.0 * coef, rho)
    rebound = op.apply(slab, terms)
    assert np.array_equal(rebound, op.apply(slab, [(2.0 * coef, rho)]))
    assert not np.array_equal(rebound, before)
    terms[0][0][:] = 3.0 * coef
    assert np.array_equal(op.apply(slab, terms),
                          op.apply(slab, [(3.0 * coef, rho)]))


def test_apply_into_out_equals_a_fresh_apply(front):
    op, pair = front["op"], front["pair"]
    for slab, ghost in ((pair.sup, pair.sup_ghost), (pair.sub, pair.sub_ghost)):
        out = np.full_like(slab, np.nan)
        assert op.apply(slab, ghost, out=out) is out
        assert np.array_equal(out, op.apply(slab, ghost))


def test_apply_refuses_an_out_of_another_shape_or_the_slab_itself(front):
    op, pair = front["op"], front["pair"]
    slab = pair.sup.copy()
    for out in (np.empty((op.m, op.grid.n_window - 1)),
                np.empty((op.m + 1, op.grid.n_window)),
                np.empty(slab.shape, dtype=np.float32),
                np.empty(slab.shape[::-1]).T,
                slab, slab[:]):
        with pytest.raises(ValidationError, match="out must be"):
            op.apply(slab, pair.sup_ghost, out=out)
    assert np.array_equal(slab, pair.sup)


def test_later_applications_leave_the_front_and_its_pair_alone(front):
    """construct_wave's iterate and image alternate between two slabs of
    its own: the operator's workspace never holds the returned front."""
    pair, wave = front["pair"], front["wave"]
    kept = [wave.u.copy(), pair.sup.copy(), pair.sub.copy()]
    out = np.empty_like(wave.u)
    for slab, ghost in ((wave.u, pair.sup_ghost), (pair.sub, pair.sub_ghost),
                        (0.5 * pair.sup, pair.sup_ghost)):
        pair.op.apply(slab, ghost)
        pair.op.apply(slab, ghost, out=out)
    for now, before in zip((wave.u, pair.sup, pair.sub), kept):
        assert np.array_equal(now, before)
    assert not np.shares_memory(wave.u, pair.sup)


def test_a_supersolution_rate_past_the_root_reports_its_eigenvalue(
        front, monkeypatch):
    # a margin of 9 puts rho_super = 10 rho past the upper dispersion root
    monkeypatch.setattr(profile, "_SUPER_MARGIN", 9.0)
    with pytest.raises(ConvergenceError, match="supersolution rate") as info:
        build_sub_super(front["kernel"], front["g"], front["c"],
                        front["grid"], front["steady"], speed=front["speed"])
    assert set(vars(info.value)) == {"rho_super", "lam_super"}
    assert info.value.rho_super == pytest.approx(10.0 * front["pair"].rho)
    assert info.value.lam_super >= 1.0


def test_an_iterate_below_the_subsolution_reports_where(front):
    pair = dataclasses.replace(front["pair"], sub=front["pair"].sup + 1.0)
    with pytest.raises(ConvergenceError, match="below the subsolution") as info:
        construct_wave(pair)
    assert set(vars(info.value)) == {"iteration", "low"}
    assert info.value.iteration == 1
    assert info.value.low < -0.5


def test_certificate_pair_is_ordered_with_a_positive_bump(front):
    pair = front["pair"]
    assert np.all(pair.sub <= pair.sup)
    assert np.any(pair.sub > 0)
    assert 0 < pair.rho < pair.rho_prime < 2 * pair.rho
    assert pair.rho < pair.rho_super < pair.rho_prime
    assert pair.M >= 1.0
    xi = front["grid"].window_nodes[:, 0][None, :] - front["c"] * (
        front["op"].times[:, None])
    assert np.all(pair.sub[xi <= 0] == 0.0)


def test_flat_state_is_an_exact_fixed_point(front):
    op, steady = front["op"], front["steady"]
    slab = np.tile(front["pair"].steady_window, (op.m, 1))
    image = op.apply(slab, [(steady.values, 0.0)])
    assert np.max(np.abs((image - slab)[:, op.interior])) <= 1e-12


def test_front_iteration_descends_to_a_profile(front):
    wave, pair = front["wave"], front["pair"]
    assert wave.residual <= 1e-5
    assert wave.ascent <= 1e-12
    assert wave.iterations < 200
    assert wave.increments[-1] < 1e-6
    assert np.all(np.diff(wave.increments) <= 1e-12)
    assert np.all(wave.u >= pair.sub - 1e-12)
    assert np.all(wave.u <= pair.sup + 1e-12)


def test_front_iteration_stops_at_its_budget(front, monkeypatch):
    # the front takes 64 steps to settle
    monkeypatch.setattr(profile, "_MAX_ITER", 3)
    with pytest.raises(ConvergenceError,
                       match="still moving after 3 steps") as info:
        construct_wave(front["pair"])
    assert set(vars(info.value)) == {"iterations", "increments"}
    assert info.value.iterations == 3
    assert info.value.increments == list(front["wave"].increments[:3])


def test_front_tails_flatten_with_the_offset(front):
    diag = front["wave"].front_diagnostics
    assert set(diag) == {5.0, 10.0, 15.0, 20.0}
    ahead = [diag[d]["ahead_sup"] for d in (5.0, 10.0, 15.0, 20.0)]
    behind = [diag[d]["behind_gap"] for d in (5.0, 10.0, 15.0, 20.0)]
    assert np.all(np.diff(ahead) < 0)
    assert np.all(np.diff(behind) < 0)


def test_front_tail_rates_match_the_dispersion_roots(front):
    """Ahead the profile decays at the lower dispersion root; behind it
    relaxes to the steady level at the rear rate frozen from the scalar
    oracle."""
    diag = front["wave"].front_diagnostics
    ahead = np.log(diag[15.0]["ahead_sup"] / diag[20.0]["ahead_sup"]) / 5.0
    behind = np.log(diag[15.0]["behind_gap"] / diag[20.0]["behind_gap"]) / 5.0
    assert abs(ahead - front["pair"].rho) <= 0.02
    assert abs(behind - FROZEN["kappa_at_2cstar"]) <= 0.02


def test_striped_medium_keeps_the_certificates():
    grid = ew.PeriodicGrid(dim=1, cell_points=32, window_radius=40)
    kernel = _striped_kernel()
    g = _g()
    speed = minimal_speed(kernel, g, grid)
    steady = solve_steady_state(
        ew.time_integrate_kernel(kernel, grid), g, tol=1e-13
    )
    c = 2.0 * speed.c_star
    pair = build_sub_super(kernel, g, c, grid, steady, speed=speed)
    op = WaveOperator(kernel, g, c, grid)
    assert np.max((op.apply(pair.sup, pair.sup_ghost) - pair.sup)
                  [:, op.interior]) <= 1e-12
    assert np.min((op.apply(pair.sub, pair.sub_ghost) - pair.sub)
                  [:, op.interior]) >= -1e-12
    wave = construct_wave(pair)
    assert wave.residual <= 1e-5
    assert wave.ascent <= 1e-12
    assert np.all(wave.u >= pair.sub - 1e-12)


def test_fronts_need_supercritical_speeds(front):
    grid, kernel, g = front["grid"], front["kernel"], front["g"]
    speed, steady = front["speed"], front["steady"]
    with pytest.raises(ValidationError, match="exceed"):
        build_sub_super(kernel, g, 0.9 * speed.c_star, grid, steady,
                        speed=speed)
    with pytest.raises(ValidationError, match="rest"):
        build_sub_super(_box(0.5), g, 1.0, grid, np.ones(grid.n_cell))


def test_fronts_too_near_the_minimal_speed_fail_loudly(front):
    # the subsolution's positive band outgrows the window: refused as input
    with pytest.raises(ValidationError, match="enlarge the window"):
        build_sub_super(front["kernel"], front["g"],
                        1.0005 * front["speed"].c_star, front["grid"],
                        front["steady"], speed=front["speed"])


def test_wave_operator_input_validation(front):
    g = _g()
    kernel = _box()
    with pytest.raises(ValidationError, match="slices"):
        WaveOperator(kernel, g, 1.0, front["grid"], slices=2)
    with pytest.raises(ValidationError, match="positive"):
        WaveOperator(kernel, g, 0.0, front["grid"])
    with pytest.raises(ValidationError, match="reach"):
        WaveOperator(kernel, g, 1.0, ew.PeriodicGrid(1, 16, 2))
    with pytest.raises(ValidationError, match="one-dimensional"):
        WaveOperator(ew.separable_contact_kernel(2.0, 1.0, dim=2), g, 1.0,
                     ew.PeriodicGrid(2, 8, 4))
    op = front["op"]
    with pytest.raises(ValidationError, match="match"):
        op.apply(np.zeros((3, 5)), front["pair"].sup_ghost)
    with pytest.raises(ValidationError, match="tol"):
        construct_wave(front["pair"], tol=0.0)


def test_fronts_need_a_positive_steady_state(front):
    grid, g = front["grid"], front["g"]
    with pytest.raises(ValidationError, match="steady"):
        build_sub_super(front["kernel"], g, front["c"], grid, None,
                        speed=front["speed"])
    with pytest.raises(ValidationError, match="positive"):
        build_sub_super(front["kernel"], g, front["c"], grid,
                        np.zeros(grid.n_cell), speed=front["speed"])


def test_front_frames_refuse_a_leftward_speed():
    """The decay root follows the speed's direction; the front and the
    oscillating bump, whose frames run along +x, refuse it."""
    grid = ew.PeriodicGrid(dim=1, cell_points=32, window_radius=20)
    kernel, g = _striped_kernel(), _g()
    speed = minimal_speed(kernel, g, grid, direction=[-1.0])
    assert speed.direction.tolist() == [-1.0]
    with pytest.raises(ValidationError, match=r"\+x only"):
        build_sub_super(kernel, g, 2.0 * speed.c_star, grid,
                        np.ones(grid.n_cell), speed=speed)
    c = 0.98 * speed.c_star
    with pytest.raises(ValidationError, match=r"\+x only"):
        oscillating_subsolution(kernel, g, c, grid, speed=speed)
    root = complex_decay_root(kernel, g, c, grid, speed=speed)
    assert root.direction.tolist() == [-1.0]
    with pytest.raises(ValidationError, match=r"\+x only"):
        oscillating_subsolution(kernel, g, c, grid, root=root)


# -------------------------------------------------------------- oscillation


@pytest.fixture(scope="module")
def slow_bump():
    grid = ew.PeriodicGrid(dim=1, cell_points=32, window_radius=20)
    kernel = _box()
    g = _g()
    speed = minimal_speed(kernel, g, grid)
    osc = oscillating_subsolution(kernel, g, 0.98 * speed.c_star, grid,
                                  speed=speed)
    return {"grid": grid, "kernel": kernel, "g": g, "speed": speed,
            "osc": osc}


def test_oscillating_bump_sits_below_its_image(slow_bump):
    osc = slow_bump["osc"]
    assert osc.min_slack >= 0.0
    assert osc.min_slack_on_support > 0.0
    assert np.any(osc.support_mask)
    assert np.all(osc.values[~osc.band_mask] == 0.0)
    assert np.all(osc.applied >= 0.0)
    assert abs(osc.band - 3 * np.pi / (4 * osc.rho_I)) <= 1e-12


def test_band_edges_are_strictly_negative_with_the_expected_value(slow_bump):
    """The cutoff is placed where the oscillation is provably negative;
    for constant eigenfunctions the edge value has a closed form."""
    osc = slow_bump["osc"]
    left, right = osc.edge_values()
    assert left < 0 and right < 0
    # an instance built from its fields alone gives the same edge values
    assert dataclasses.replace(osc).edge_values() == (left, right)
    pr, pi = osc.phi_R[0], osc.phi_I[0]
    assert np.allclose(osc.phi_R, pr) and np.allclose(osc.phi_I, pi)
    expect_right = (np.sqrt(2) / 2) * (-pr + pi) * np.exp(-osc.rho_R * osc.band)
    expect_left = (np.sqrt(2) / 2) * (-pr + pi) * np.exp(osc.rho_R * osc.band)
    assert abs(right - expect_right) <= 1e-10 * abs(expect_right)
    assert abs(left - expect_left) <= 1e-10 * abs(expect_left)


def test_bump_vanishes_continuously_at_the_band_edge(slow_bump):
    osc = slow_bump["osc"]
    x = slow_bump["grid"].window_nodes[:, 0]
    near_edge = (np.abs(np.abs(x) - osc.band) < 0.3) & osc.band_mask
    assert np.any(near_edge)
    assert np.all(osc.values[near_edge] == 0.0)


def test_closed_form_history_matches_brute_quadrature(slow_bump):
    """Rebuild the operator image with a dense trapezoid rule in the time
    lag; only the closed-form exponential segments should differ, at the
    level of the trapezoid error."""
    from epiwave.domain.kernels import window_pair_matrix

    osc = slow_bump["osc"]
    grid = slow_bump["grid"]
    kernel = slow_bump["kernel"]
    c = osc.c
    x = grid.window_nodes[:, 0]
    mu = kernel.decay(grid.window_nodes)
    pr = grid.periodic_on_window(osc.phi_R)
    pi = grid.periodic_on_window(osc.phi_I)
    taus = np.linspace(0.0, 40.0, 32001)
    hist = np.zeros_like(x)
    for j in range(x.size):
        s = x[j] + c * taus
        v = (np.hypot(pr[j], pi[j]) * np.exp(-osc.rho_R * s)
             * np.cos(osc.rho_I * s - np.arctan2(pi[j], pr[j])))
        v = np.where(np.abs(s) <= osc.band, np.maximum(v, 0.0), 0.0)
        hist[j] = np.trapezoid(np.exp(-mu[j] * taus) * v, taus)
    K = window_pair_matrix(grid, kernel)
    rebuilt = slow_bump["g"].slope0 * grid.weight * (K @ hist)
    denom = np.max(np.abs(osc.applied))
    assert denom > 0
    assert np.max(np.abs(rebuilt - osc.applied)) <= 1e-6 * denom


def test_oscillation_rejects_real_rates(slow_bump):
    speed = slow_bump["speed"]
    with pytest.raises(ValidationError, match="below the minimal"):
        oscillating_subsolution(slow_bump["kernel"], slow_bump["g"],
                                speed.c_star, slow_bump["grid"], speed=speed)


def test_oscillation_needs_a_window_covering_the_band(slow_bump):
    small = ew.PeriodicGrid(dim=1, cell_points=32, window_radius=8)
    speed = minimal_speed(slow_bump["kernel"], slow_bump["g"], small)
    with pytest.raises(ValidationError, match="enlarge the window"):
        oscillating_subsolution(slow_bump["kernel"], slow_bump["g"],
                                0.98 * speed.c_star, small, speed=speed)


def test_oscillation_flags_an_off_root(slow_bump):
    """A deliberately detuned rate is no longer an eigenmode, so the bump
    pokes above its image somewhere and the check must say where."""
    speed = slow_bump["speed"]
    c = 0.98 * speed.c_star
    root = complex_decay_root(slow_bump["kernel"], slow_bump["g"], c,
                              slow_bump["grid"], speed=speed)
    detuned = DispersionPoint(rho=complex(root.rho) + 5e-3, c=c,
                              direction=root.direction, value=root.value,
                              phi=root.phi, residual=root.residual)
    with pytest.raises(ConvergenceError, match="below the bump"):
        oscillating_subsolution(slow_bump["kernel"], slow_bump["g"], c,
                                slow_bump["grid"], root=detuned)
    try:
        oscillating_subsolution(slow_bump["kernel"], slow_bump["g"], c,
                                slow_bump["grid"], root=detuned)
    except ConvergenceError as err:
        assert err.slack < 0
        assert abs(err.node) <= slow_bump["osc"].band


def test_striped_oscillation_also_verifies():
    grid = ew.PeriodicGrid(dim=1, cell_points=32, window_radius=20)
    kernel = _striped_kernel()
    g = _g()
    speed = minimal_speed(kernel, g, grid)
    osc = oscillating_subsolution(kernel, g, 0.98 * speed.c_star, grid,
                                  speed=speed)
    assert osc.min_slack >= 0.0
    assert osc.min_slack_on_support > 0.0
    assert osc.rho_I > 0
    left, right = osc.edge_values()
    assert left < 0 and right < 0
