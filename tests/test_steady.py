import numpy as np
import pytest
from scipy import optimize

import epiwave as ew
from epiwave import ConvergenceError, ValidationError, steady
from epiwave.spectral import assemble_periodic, principal_eigenpair
from epiwave.steady import apply_T, solve_steady_state, uniqueness_probe

from oracles import FROZEN


def _heterogeneous(grid):
    kernel = ew.separable_contact_kernel(
        2.2, 0.375,
        target_factor=lambda P: 1.0 + 0.3 * np.cos(2 * np.pi * P[:, 0]),
        source_factor=lambda P: np.exp(0.2 * np.sin(2 * np.pi * P[:, 0])),
        decay=lambda P: 1.0 + 0.5 * np.sin(np.pi * P[:, 0]) ** 2,
    )
    return ew.time_integrate_kernel(kernel, grid)


def test_flat_steady_state_is_scalar_root(box_scenario):
    st = solve_steady_state(box_scenario["transfer"], box_scenario["response"])
    assert st.present
    assert np.ptp(st.values) < 1e-12
    assert st.values[0] == pytest.approx(FROZEN["zstar_beta2"], abs=1e-9)
    assert st.residual <= 1e-10
    assert st.seed_scale == pytest.approx(0.5)
    assert st.eigenvalue == pytest.approx(2.0, abs=1e-12)


def test_subcritical_has_no_steady_state():
    grid = ew.PeriodicGrid(1, 64, 2)
    transfer = ew.time_integrate_kernel(ew.separable_contact_kernel(0.5, 1.0), grid)
    st = solve_steady_state(transfer, ew.saturating_exponential())
    assert not st.present
    assert st.values is None
    assert st.residual < 1e-8


def test_critical_case_cannot_be_certified_quickly(monkeypatch):
    grid = ew.PeriodicGrid(1, 32, 2)
    transfer = ew.time_integrate_kernel(ew.separable_contact_kernel(1.0, 1.0), grid)
    monkeypatch.setattr(steady, "_MAX_ITER", 500)
    with pytest.raises(ConvergenceError, match="threshold"):
        solve_steady_state(transfer, ew.saturating_exponential())


def test_heterogeneous_state_sits_in_scalar_bracket():
    grid = ew.PeriodicGrid(1, 64, 2)
    resp = ew.saturating_exponential()
    transfer = _heterogeneous(grid)
    st = solve_steady_state(transfer, resp)
    assert st.present and st.residual <= 1e-10

    rows = transfer.cell_matrix.sum(axis=1) * grid.weight
    # bracket argument needs both flat problems supercritical
    assert resp.slope0 * rows.min() > 1.0
    z_lo = optimize.brentq(lambda z: rows.min() * resp(z) - z, 1e-12, 10.0)
    z_hi = optimize.brentq(lambda z: rows.max() * resp(z) - z, 1e-12, 10.0)
    assert np.min(st.values) >= z_lo - 1e-9
    assert np.max(st.values) <= z_hi + 1e-9


def test_apply_T_basics(box_scenario):
    transfer, resp = box_scenario["transfer"], box_scenario["response"]
    n = transfer.grid.n_cell
    assert np.allclose(apply_T(np.zeros(n), transfer, resp), 0.0)
    z = 0.7
    flat = apply_T(np.full(n, z), transfer, resp)
    assert np.allclose(flat, 2.0 * resp(z), atol=1e-13)
    rng = np.random.default_rng(3)
    low = rng.uniform(0.0, 1.0, n)
    high = low + rng.uniform(0.0, 1.0, n)
    assert np.all(apply_T(high, transfer, resp) >= apply_T(low, transfer, resp))
    with pytest.raises(ValidationError):
        apply_T(np.full(n, -0.1), transfer, resp)


def test_climb_is_monotone_from_seed(box_scenario):
    transfer, resp = box_scenario["transfer"], box_scenario["response"]
    pair = principal_eigenpair(assemble_periodic(transfer, resp))
    eps = 0.5 * resp.slope0 * (pair.value - 1.0) / (resp.curvature * pair.value)
    u = eps * pair.vector
    for _ in range(40):
        u_next = apply_T(u, transfer, resp)
        assert np.min(u_next - u) >= -1e-13
        u = u_next


def test_descent_from_constant_bound(box_scenario):
    transfer, resp = box_scenario["transfer"], box_scenario["response"]
    rows = transfer.cell_matrix.sum(axis=1) * transfer.grid.weight
    u = np.full(transfer.grid.n_cell, resp.bound * rows.max())
    for _ in range(40):
        u_next = apply_T(u, transfer, resp)
        assert np.max(u_next - u) <= 1e-13
        u = u_next


def test_stronger_kernel_gives_larger_state():
    grid = ew.PeriodicGrid(1, 64, 2)
    resp = ew.saturating_exponential()
    base = ew.time_integrate_kernel(ew.separable_contact_kernel(2.0, 1.0), grid)
    boosted = ew.time_integrate_kernel(ew.separable_contact_kernel(2.6, 1.0), grid)
    u_base = solve_steady_state(base, resp).values
    u_boost = solve_steady_state(boosted, resp).values
    assert np.all(u_boost >= u_base - 1e-12)


def test_uniqueness_from_climbing_and_descending_seeds(box_scenario):
    transfer, resp = box_scenario["transfer"], box_scenario["response"]
    pair = principal_eigenpair(assemble_periodic(transfer, resp))
    tol = 1e-10
    seeds = [0.05 * pair.vector,
             np.full(transfer.grid.n_cell, resp.bound * 2.0)]
    assert uniqueness_probe(transfer, resp, seeds, tol=tol) <= 2 * tol
    assert uniqueness_probe(transfer, resp, seeds[:1], tol=tol) == 0.0


def test_uniqueness_heterogeneous_three_seeds():
    grid = ew.PeriodicGrid(1, 64, 2)
    resp = ew.saturating_exponential()
    transfer = _heterogeneous(grid)
    n = grid.n_cell
    tol = 1e-10
    seeds = [np.full(n, 0.01), np.full(n, 3.0),
             0.5 + 0.2 * np.sin(2 * np.pi * grid.cell_nodes[:, 0])]
    assert uniqueness_probe(transfer, resp, seeds, tol=tol) <= 2 * tol


def test_probe_rejects_bad_seeds(box_scenario):
    transfer, resp = box_scenario["transfer"], box_scenario["response"]
    with pytest.raises(ValidationError):
        uniqueness_probe(transfer, resp, [])
    with pytest.raises(ValidationError):
        uniqueness_probe(transfer, resp, [np.ones(5)])
    with pytest.raises(ValidationError):
        uniqueness_probe(transfer, resp, [np.zeros(transfer.grid.n_cell)])


def test_solver_validates_tolerance(box_scenario):
    with pytest.raises(ValidationError):
        solve_steady_state(box_scenario["transfer"], box_scenario["response"],
                           tol=0.0)
