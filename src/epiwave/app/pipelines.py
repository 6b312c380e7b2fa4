"""One pipeline per CLI command, shared plumbing for artifact text.

Every pipeline is a pure function from a loaded ScenarioConfig to
(artifacts, results): artifacts maps file names to their full text,
results is the headline summary echoed into the run manifest.  The
model (grid, kernel, response, forcing, direction, SIR state) was built
and checked when the scenario was loaded; a pipeline builds none of it
and only runs the solvers on it.  Nothing here touches the filesystem,
so a failed run never leaves partial output behind.

Float formatting is fixed at 17 significant digits with a '.' decimal
point; together with the deterministic solvers this makes artifact
bytes a pure function of the config document.  The march tables
(simulate.csv, sir.csv) have one row per frame and window node: their t
and node columns are formatted once per frame and once per node, and
since a value formatted once reads the same wherever it repeats, the
text is the one a row-by-row formatter would write.
"""

from __future__ import annotations

import json

import numpy as np

from .. import dynamics, spectral, steady, waves
from ..domain.kernels import time_integrate_kernel
from ..errors import ValidationError
from ..sir import equivalence_check, simulate_sir
from ..waves.profile import _require_1d, _require_forward
from .scenario import ScenarioConfig


def _csv(header, *columns, frames=None, nodes=None) -> str:
    """CSV text of equal-length columns, every value as %.17g.

    The table is formatted by one C-level % operation over a repeated
    line template; '%.17g' is the conversion f"{float(v):.17g}" does.

    With `frames` (one value per frame) and `nodes` (one row per node),
    the rows are frames x nodes, frame-major: row f * len(nodes) + j
    reads frames[f], nodes[j], then the columns' values.  Each frame and
    node value is formatted once and baked into the line template, so
    only `columns`, of length len(frames) * len(nodes), go through %.
    """
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    if frames is None:
        template = line * table.shape[0]
    else:
        # header-less calls give each node row's and frame value's text;
        # %.17g text holds no whitespace, so split() yields its lines
        tails = ["," + x + "," + line
                 for x in _csv([], *np.transpose(nodes)).split()]
        template = "".join(t + t.join(tails) for t in _csv([], frames).split())
    body = template % tuple(table.ravel().tolist())
    return ",".join(header) + "\n" + body


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _node_columns(grid):
    return ["x"] if grid.dim == 1 else ["x1", "x2"]


def _time_stride(n_frames: int, cap: int = 41) -> int:
    return max(1, -(-n_frames // cap))


def run_threshold(cfg: ScenarioConfig):
    grid, kernel, response = cfg.grid, cfg.kernel, cfg.response
    transfer = time_integrate_kernel(kernel, grid)
    pair = spectral.principal_eigenpair(
        spectral.assemble_periodic(transfer, response), tol=cfg.tol)
    sweep = spectral.ball_eigenvalue_sweep(transfer, response, tol=cfg.tol)
    outcome = (dynamics.Outcome.PROPAGATES if pair.value > 1.0
               else dynamics.Outcome.FADES_OUT)
    summary = {
        "lambda1": pair.value,
        "outcome": outcome.value,
        "residual": pair.residual,
        "iterations": pair.iterations,
        "sweep_gap": pair.value - sweep[-1].value,
    }
    table = np.array([(p.radius, p.value, p.residual, p.iterations)
                      for p in sweep])
    artifacts = {
        "threshold.csv": _csv(["R", "lambda_R", "residual", "iterations"],
                              *table.T),
        "threshold.json": _json_text(summary),
    }
    return artifacts, {"lambda1": pair.value, "outcome": outcome.value}


def run_steady(cfg: ScenarioConfig):
    grid, kernel, response = cfg.grid, cfg.kernel, cfg.response
    transfer = time_integrate_kernel(kernel, grid)
    state = steady.solve_steady_state(transfer, response, tol=cfg.tol)
    summary = {
        "present": state.present,
        "lambda1": state.eigenvalue,
        "residual": state.residual,
        "iterations": state.iterations,
    }
    artifacts = {"steady.json": _json_text(summary)}
    if state.present:
        artifacts["steady.csv"] = _csv(_node_columns(grid) + ["U"],
                                       *grid.cell_nodes.T, state.values)
    return artifacts, {"present": state.present, "lambda1": state.eigenvalue}


def run_simulate(cfg: ScenarioConfig):
    grid, kernel, response = cfg.grid, cfg.kernel, cfg.response
    # the tail mask and the march refuse windows too small for the tail and
    # for the kernel reach, so they go first, before the cell table is built
    tail = dynamics.tail_mask(grid, cfg.tail_radius, cfg.boundary_margin)
    field = dynamics.solve_initial_value(kernel, cfg.forcing, response, grid,
                                         dt=cfg.dt, horizon=cfg.horizon)
    transfer = time_integrate_kernel(kernel, grid)
    final, settled = dynamics.long_time_limit(field)
    state = steady.solve_steady_state(transfer, response, tol=cfg.tol)
    outcome = dynamics.classify_outcome(final, state, cfg.tail_radius,
                                        tol=cfg.classify_tol, grid=grid,
                                        boundary_margin=cfg.boundary_margin)
    summary = {
        "outcome": outcome.value,
        "settled": bool(settled),
        "tail_min": float(np.min(final[tail])),
        "tail_max": float(np.max(final[tail])),
        "dt": cfg.dt,
        "horizon": cfg.horizon,
    }
    if state.present:
        gap = np.abs(final - grid.periodic_on_window(state.values))
        summary["tail_steady_gap"] = float(np.max(gap[tail]))

    stride = _time_stride(field.values.shape[0])
    frames = (cfg.dt * np.arange(field.values.shape[0]))[::stride]
    artifacts = {
        "simulate.csv": _csv(["t"] + _node_columns(grid) + ["u"],
                             field.values[::stride].ravel(),
                             frames=frames, nodes=grid.window_nodes),
        "simulate.json": _json_text(summary),
    }
    return artifacts, {"outcome": outcome.value, "settled": bool(settled)}


def run_speed(cfg: ScenarioConfig):
    grid, kernel, response = cfg.grid, cfg.kernel, cfg.response
    result = waves.minimal_speed(kernel, response, grid,
                                 direction=cfg.direction)
    summary = {
        "c_star": result.c_star,
        "rho_star": result.rho_star,
        "at_rest": result.at_rest,
        "direction": list(result.direction),
        "lambda_witness": result.value,
    }
    return {"speed.json": _json_text(summary)}, {
        "c_star": result.c_star, "at_rest": result.at_rest}


def run_wave(cfg: ScenarioConfig):
    grid, kernel, response = cfg.grid, cfg.kernel, cfg.response
    # the document alone decides these, so they go before the speed search
    _require_1d(grid)
    _require_forward(cfg.direction)
    result = waves.minimal_speed(kernel, response, grid,
                                 direction=cfg.direction)
    if result.at_rest:
        raise ValidationError(
            "the scenario is subcritical; no fronts exist to construct"
        )
    c = cfg.speed_factor * result.c_star
    transfer = time_integrate_kernel(kernel, grid)
    state = steady.solve_steady_state(transfer, response, tol=cfg.tol)
    pair = waves.build_sub_super(kernel, response, c, grid, state,
                                 speed=result, slices=cfg.slices)
    solution = waves.construct_wave(pair, tol=cfg.wave_tol)
    x = grid.window_nodes[:, 0]
    summary = {
        "c": c,
        "c_star": result.c_star,
        "rho": pair.rho,
        "rho_prime": pair.rho_prime,
        "rho_super": pair.rho_super,
        "M": pair.M,
        "residual": solution.residual,
        "iterations": solution.iterations,
        "ascent": solution.ascent,
        "front_diagnostics": {
            str(k): v for k, v in solution.front_diagnostics.items()},
    }
    artifacts = {
        "wave.csv": _csv(["xi", "x_cell", "u"], solution.xi().ravel(),
                         np.tile(x - np.floor(x), len(solution.times)),
                         solution.u.ravel()),
        "wave.json": _json_text(summary),
    }
    return artifacts, {"c": c, "residual": solution.residual,
                       "iterations": solution.iterations}


def run_dispersion(cfg: ScenarioConfig):
    tilted = waves.TiltedOperator(cfg.kernel, cfg.response, cfg.grid,
                                  cfg.direction)
    lam = [tilted.point(rho, c).value
           for c in cfg.c_values for rho in cfg.rho_values]
    csv = _csv(["rho", "c", "lambda"],
               np.tile(cfg.rho_values, len(cfg.c_values)),
               np.repeat(cfg.c_values, len(cfg.rho_values)), lam)
    return {"dispersion.csv": csv}, {
        "points": len(lam),
        "lambda_min": min(lam),
        "lambda_max": max(lam),
    }


def run_sir_verify(cfg: ScenarioConfig):
    state = cfg.sir
    # refuses, through its renewal march, a window too small for the reach
    gap = equivalence_check(state, dt=cfg.sir_dt, horizon=cfg.sir_horizon)
    sim = simulate_sir(state, dt=cfg.sir_dt, horizon=cfg.sir_horizon)
    grid = state.grid
    attack = sim.log_attack()
    stride = _time_stride(sim.S.shape[0])
    frames = sim.times[::stride]
    csv = _csv(["t"] + _node_columns(grid) + ["S", "I", "u"],
               sim.S[::stride].ravel(), sim.I[::stride].ravel(),
               attack[::stride].ravel(),
               frames=frames, nodes=grid.window_nodes)
    summary = {
        "sup_difference": gap,
        "dt": cfg.sir_dt,
        "spacing": grid.spacing,
    }
    artifacts = {
        "sir.csv": csv,
        "sir.json": _json_text(summary),
    }
    return artifacts, {"sup_difference": gap}


def run_subwave_diag(cfg: ScenarioConfig):
    grid, kernel, response = cfg.grid, cfg.kernel, cfg.response
    # the document alone decides these, so they go before the speed search
    _require_1d(grid)
    _require_forward(cfg.direction)
    result = waves.minimal_speed(kernel, response, grid,
                                 direction=cfg.direction)
    if result.at_rest:
        raise ValidationError(
            "the scenario is subcritical; below-minimal frames need c_star > 0"
        )
    c = cfg.sub_speed_factor * result.c_star
    osc = waves.oscillating_subsolution(kernel, response, c, grid,
                                        speed=result)
    # strict slack on the bump's support; NaN (no support) reads False
    dominated = bool(osc.min_slack_on_support > 0.0)
    summary = {
        "c": c,
        "c_star": result.c_star,
        "rho_real": osc.rho_R,
        "rho_imag": osc.rho_I,
        "band": osc.band,
        "min_slack": osc.min_slack,
        "min_slack_on_support": osc.min_slack_on_support,
        "dominated": dominated,
    }
    artifacts = {
        "subwave.csv": _csv(["x", "bump", "image"], grid.window_nodes[:, 0],
                            osc.values, osc.applied),
        "subwave.json": _json_text(summary),
    }
    return artifacts, {"dominated": dominated,
                       "min_slack_on_support": osc.min_slack_on_support}


COMMANDS = {
    "threshold": run_threshold,
    "steady": run_steady,
    "simulate": run_simulate,
    "speed": run_speed,
    "wave": run_wave,
    "dispersion": run_dispersion,
    "sir-verify": run_sir_verify,
    "subwave-diag": run_subwave_diag,
}
