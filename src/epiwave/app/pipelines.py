"""One pipeline per CLI command, shared plumbing for artifact text.

Every pipeline is a pure function from a loaded ScenarioConfig to
(artifacts, results): artifacts maps file names to their full text,
results is the headline summary echoed into the run manifest.  The
model (grid, kernel, response, forcing, direction, SIR state) was built
and checked when the scenario was loaded; a pipeline builds none of it
and only runs the solvers on it.  Nothing here touches the filesystem,
so a failed run never leaves partial output behind.

Every float in an artifact is written as '%.17g' writes it, byte for
byte; together with the deterministic solvers this makes artifact bytes
a pure function of the config document.  `_text` produces that text for
whole arrays in numpy: for 1e-28 <= |v| < 1e17 it computes the 17
correctly rounded significant digits exactly in float64 arithmetic and
lays them out by the %g rules, and it writes zeros directly.  Every
other value (NaN, infinities, nonzero |v| below 1e-28, |v| of 1e17 and
up) goes through '%.17g' itself, one value at a time.  The march tables
(simulate.csv, sir.csv) have one row per frame and window node: their t
and node columns are formatted once and repeated in every frame's rows.
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

# Exact '%.17g' text.  For 10**-28 <= x = |v| < 10**17 with
# k = floor(log10 x) and p = 16 - k, the digits are the integer
# D = x * 10**p rounded half to even, 10**16 <= D <= 10**17.  10**p
# (p <= 44) is the exact sum of two doubles, so two error-free products
# give x * 10**p = h + r + t + e exactly, with h an even integer >= 2**53
# and |r + t + e| < 32; two error-free sums then decide the rounding
# without error.  The products split their factors by Veltkamp's method
# (Dekker, Numer. Math. 18, 1971), since numpy has no fused multiply-add.
_K_MIN, _K_MAX = -28, 16
_SPLITTER = 134217729.0  # 2**27 + 1
# Each value's text goes into a record of fixed places: sign, the '0.000'
# of a small fixed-point number, then each of the 17 digits followed by a
# place for the point, then 'e-XX'.  The places a value leaves empty hold
# NUL, and NUL is dropped when the records are joined.  The last of the
# 48 bytes is free for the separator.
_RECORD = 48
_BLOCK = 8192           # values per pass of the kernel


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, a_hi, a_lo, b, b_hi, b_lo):
    p = a * b
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _two_sum(a, b):
    s = a + b
    b_part = s - a
    return s, (a - (s - b_part)) + (b - b_part)


def _ceil_power_of_ten(k: int) -> float:
    """The smallest double >= 10**k, so that x >= 10**k reads exactly."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    f = num / den
    low, high = f.as_integer_ratio()
    return float(np.nextafter(f, np.inf)) if low * den < num * high else f


def _power_of_ten_parts(p: int):
    hi = float(10 ** p)
    lo = float(10 ** p - int(hi))
    return (hi, *_split(hi), lo, *_split(lo))


# 10**k rounded up to a double for k = _K_MIN - 1 .. _K_MAX + 2: a guard
# at each end, so a log10 that misses by one still indexes the table
_TEN_UP = np.array([_ceil_power_of_ten(k)
                    for k in range(_K_MIN - 1, _K_MAX + 3)])
_POW10 = np.array([_power_of_ten_parts(p)
                   for p in range(17 - _K_MIN)]).T.copy()


def _group_tables():
    """Digits 1..16 come in four groups of four, digit i of group j at
    place 4 j + i (i = 1..4).  The text of a group is a uint64 word of
    four digits, each followed by an empty place.  Returns the word of
    each group value g, and by [j, g] the place of the last nonzero digit
    of group j = g (0 for 0000)."""
    group = np.arange(10000)
    text = np.zeros((10000, 8), np.uint8)
    for i, unit in enumerate((1000, 100, 10, 1)):
        text[:, 2 * i] = 48 + group // unit % 10
    zeros = sum((group % unit == 0).astype(int) for unit in (10, 100, 1000))
    last = np.where(group > 0, 4 - zeros + 4 * np.arange(4)[:, None], 0)
    return text.view(np.uint64)[:, 0], last.astype(np.uint8)


_GROUP_TEXT, _GROUP_LAST = _group_tables()
# by [j, m]: the mask that keeps the digits of group j at places <= m
_KEEP = np.frombuffer(b"".join(
    (b"\xff\0" * min(max(m - 4 * j, 0), 4)).ljust(8, b"\0")
    for j in range(4) for m in range(17)), np.uint64).reshape(4, 17)


def _layout_words(k: int) -> bytes:
    """The first and last words of a record of k: the sign place, '0.'
    and up to three zeros before the digits of -4 <= k < 0, the lead
    digit's places; then 'e-XX' for k < -4."""
    head = b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b""
    tail = b"e-%02d" % -k if k < -4 else b""
    return (b"\0" + head).ljust(8, b"\0") + tail.ljust(8, b"\0")


_HEAD, _SUFFIX = np.frombuffer(
    b"".join(_layout_words(k) for k in range(_K_MIN, _K_MAX + 1)),
    np.uint64).reshape(-1, 2).T


def _text_block(v):
    n = len(v)
    x = np.abs(v)
    exact = (x >= _TEN_UP[1]) & (x < _TEN_UP[-2])
    x = np.where(exact, x, 1.0)
    k = np.floor(np.log10(x)).astype(np.intp)
    k += x >= _TEN_UP[k + (2 - _K_MIN)]
    k -= x < _TEN_UP[k + (1 - _K_MIN)]
    ten = [part[16 - k] for part in _POW10]
    x_hi, x_lo = _split(x)
    h, r = _two_product(x, x_hi, x_lo, *ten[:3])
    t, e = _two_product(x, x_hi, x_lo, *ten[3:])
    s, w = _two_sum(r, t)
    y, z = _two_sum(w, e)
    # x * 10**p = (h + m) + d + y + z with m = rint(s), |d| <= 1/2, and D
    # moves from h + m by sign(d) when (|d| - 1/2) + sign(d) (y + z) > 0.
    # That sign matters only for |d| >= 1/4, where |d| - 1/2 is exact and
    # a multiple of ulp(s) >= 2**-54, while |y| < 2**-47 has ulp(y) <=
    # 2**-99 and |z| <= ulp(y) / 2: `gap` is 0 only if the exact
    # (|d| - 1/2) + sign(d) y is, and otherwise exceeds |z| with the sign
    # of the whole sum.  An exact tie has r + t exact and y = z = 0, so
    # rint, which rounds a half to even, picks the even D (h is even).
    m = np.rint(s)
    d = s - m
    side = np.copysign(1.0, d)
    gap = (np.abs(d) - 0.5) + side * y
    step = np.where((gap > 0) | ((gap == 0) & (side * z > 0)), side, 0.0)
    digits = h.astype(np.int64) + m.astype(np.int64) + step.astype(np.int64)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    k += carry
    lead, rest = np.divmod(digits, 10 ** 16)
    lead[v == 0] = 0
    high, low = np.divmod(rest, 10 ** 8)
    groups = (*np.divmod(high, 10000), *np.divmod(low, 10000))
    last = np.zeros(n, np.uint8)
    for j, group in enumerate(groups):
        np.maximum(last, _GROUP_LAST[j][group], out=last)
    # digits at places <= kept are written even when zero: the integer
    # part of a fixed-point number, or the lead digit
    kept = np.where(k < -4, 0, np.maximum(k, -1))
    keep = np.maximum(last, kept)
    words = np.empty((n, _RECORD // 8), np.uint64)
    words[:, 0] = _HEAD[k - _K_MIN]
    for j, group in enumerate(groups):
        words[:, 1 + j] = _GROUP_TEXT[group] & _KEEP[j][keep]
    words[:, -1] = _SUFFIX[k - _K_MIN]
    text = words.view(np.uint8)
    text[:, 0] = np.signbit(v) * ord("-")
    text[:, 6] = 48 + lead
    # the point follows digit `kept`, and only if a digit follows it; a
    # fixed-point number below 1 has it in its '0.' already
    point = np.where(kept < 0, 16, kept)
    text.reshape(-1)[np.arange(n) * _RECORD + 7 + 2 * point] = (
        (keep > point) * ord("."))
    rare = np.flatnonzero(~exact & (v != 0))
    if len(rare):
        text[rare, :-1] = np.array(
            ["%.17g" % a for a in v[rare].tolist()],
            dtype=f"S{_RECORD - 1}").view(np.uint8).reshape(-1, _RECORD - 1)
    return text


def _text(values):
    """'%.17g' text of every value, as records of _RECORD bytes: an
    array of shape values.shape + (_RECORD,) whose bytes other than NUL,
    read in order, are the text; the last byte of a record is NUL.

    The text is byte-identical to '%.17g' % v, the conversion
    f"{float(v):.17g}" does.  It is computed in float64 arithmetic for
    zeros and for 1e-28 <= |v| < 1e17; NaN, infinities and the other
    magnitudes go through '%.17g' one value at a time.
    """
    v = np.asarray(values, dtype=float)
    blocks = np.array_split(v.ravel(), max(1, -(-v.size // _BLOCK)))
    text = np.concatenate([_text_block(block) for block in blocks])
    return text.reshape(v.shape + (_RECORD,))


def _csv(header, *columns, frames=None, nodes=None) -> str:
    """CSV text of equal-length columns, every value as '%.17g' writes it.

    With `frames` (one value per frame) and `nodes` (one row per node),
    the rows are frames x nodes, frame-major: row f * len(nodes) + j
    reads frames[f], nodes[j], then the columns' values.  The frame and
    node text is made once and broadcast into every block of rows; a
    block is a whole number of frames (of rows, without frames) of about
    _BLOCK values, so the text is built a block at a time.
    """
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    if frames is None:
        lead, per_frame, n_frames = 0, 1, len(table)
    else:
        nodes = np.asarray(nodes, dtype=float)
        lead, per_frame, n_frames = 1 + nodes.shape[1], len(nodes), len(frames)
        frame_text = _text(frames)
    table = table.reshape(n_frames, per_frame, table.shape[1])
    count = max(1, _BLOCK // max(1, per_frame * table.shape[2]))
    # a record per cell; the last byte of each is its separator
    cells = np.empty((count, per_frame, lead + table.shape[2], _RECORD),
                     np.uint8)
    cells[..., -1] = ord(",")
    cells[:, :, -1, -1] = ord("\n")
    if lead:
        cells[:, :, 1:lead, :-1] = _text(nodes)[..., :-1]
    parts = [",".join(header) + "\n"]
    for start in range(0, n_frames, count):
        values = table[start:start + count]
        block = cells[:len(values)]
        block[:, :, lead:, :-1] = _text(values)[..., :-1]
        if lead:
            block[:, :, 0, :-1] = frame_text[start:start + count, None, :-1]
        parts.append(block.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)


# a march table keeps every stride-th frame, at most this many
_MAX_FRAMES = 41


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _node_columns(grid):
    return ["x"] if grid.dim == 1 else ["x1", "x2"]


def _time_stride(n_frames: int) -> int:
    return max(1, -(-n_frames // _MAX_FRAMES))


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
