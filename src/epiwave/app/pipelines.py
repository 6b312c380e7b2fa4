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
a pure function of the config document.  `_text_block` produces that
text for arrays of values in numpy: for 1e-28 <= |v| < 1e17 it computes
the 17 correctly rounded significant digits exactly in float64
arithmetic and lays them out by the %g rules, and it writes zeros
directly.  Every
other value (NaN, infinities, nonzero |v| below 1e-28, |v| of 1e17 and
up) goes through '%.17g' itself, one value at a time.  The march tables
(simulate.csv, sir.csv) have one row per frame and window node: their t
and node columns are formatted once, each packed to the width of its
longest text, and copied into every frame's rows.  simulate and
sir-verify copy the rows they write and let their trajectories go before
the text is made, and wave lets its solver state go (the certificate
pair, its slab operator and the solution) once it holds its columns.

A table's text is assembled a block of rows at a time.  A block stacks
its own rows of the columns, so no copy of the whole table is made, and
the kernel runs over them in passes of whole rows.  Each pass writes its
intermediate arrays into one workspace (_TextWork) that the table makes
once, so no block allocates them, or faults their pages in, again; a
value's record is laid out in workspace rows spent by then and written
with one transposed copy.  A row's bytes are its packed fields and one
record per value, and bytes.translate drops their NUL padding.
"""

from __future__ import annotations

import json
from dataclasses import replace

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
# values per block of CSV rows and per pass of the kernel: the kernel's
# workspace takes about 370 bytes a value and a block's records 48 bytes
# a cell, while each pass costs some 100 numpy calls whatever its size
_BLOCK = 4608


def _split(a, hi=None, lo=None):
    c = np.multiply(_SPLITTER, a, out=hi)
    hi = np.subtract(c, np.subtract(c, a, out=lo), out=hi)  # c - (c - a)
    return hi, np.subtract(a, hi, out=lo)


def _two_product(a, a_hi, a_lo, b, b_hi, b_lo, p, err, tmp):
    """p = a b and its error ((a_hi b_hi - p) + a_hi b_lo + a_lo b_hi)
    + a_lo b_lo, into p and err."""
    np.multiply(a, b, out=p)
    np.multiply(a_hi, b_hi, out=err)
    err -= p
    err += np.multiply(a_hi, b_lo, out=tmp)
    err += np.multiply(a_lo, b_hi, out=tmp)
    err += np.multiply(a_lo, b_lo, out=tmp)


def _two_sum(a, b, s, err, part, tmp):
    """s = a + b and its error (a - (s - part)) + (b - part), part = s - a,
    into s and err."""
    np.add(a, b, out=s)
    np.subtract(s, a, out=part)
    np.subtract(a, np.subtract(s, part, out=tmp), out=tmp)
    np.add(tmp, np.subtract(b, part, out=part), out=err)


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
# the first word's sign place holding '-', and its lead digit place holding
# each digit d: both places are empty in every _HEAD word
_MINUS = np.frombuffer(b"-".ljust(8, b"\0"), np.uint64)[0]
_LEAD = np.frombuffer(b"".join(b"\0" * 6 + b"%d\0" % d for d in range(10)),
                      np.uint64)


class _TextWork:
    """The text kernel's arrays for passes of up to `size` values: a row
    for each intermediate, written once in a pass, and the scratch rows
    a, b, at, flag, other and byte, which a step fills and the next
    overwrites.  The float rows are spent by the time the record is laid
    out, and then hold its six words and their masks."""

    def __init__(self, size: int):
        self.size = size
        self.floats = np.empty((16, size))
        self.ten = np.empty((6, size))
        self.ints = np.empty((11, size), np.int64)
        self.groups = np.empty((4, size), np.int64)
        self.flags = np.empty((4, size), bool)
        self.bytes = np.empty((2, size), np.uint8)
        self.dot_at = np.arange(size) * _RECORD + 7  # first point place
        self.text = np.empty((size, _RECORD), np.uint8)


def _divide(a, d, quotient, remainder):
    """quotient, remainder = divmod(a, d) for a >= 0, d > 0, into the
    given int64 arrays: a floor division and a multiply-subtract, about
    half the time of np.divmod."""
    np.floor_divide(a, d, out=quotient)
    np.subtract(a, np.multiply(quotient, d, out=remainder), out=remainder)


def _text_block(v, work):
    """'%.17g' text of the values v, at most work.size of them, as
    records of _RECORD bytes: work.text[:len(v)], which is returned.  A
    record's bytes other than NUL, read in order, are the text; its last
    byte is NUL.

    The text is byte-identical to '%.17g' % v, the conversion
    f"{float(v):.17g}" does.  It is computed in float64 arithmetic for
    zeros and for 1e-28 <= |v| < 1e17; NaN, infinities and the other
    magnitudes go through '%.17g' one value at a time.  Every step writes
    into the workspace, with the operations and in the order of the
    arithmetic on fresh arrays, so the text is the same.  A record's six
    words are assembled in spent float rows, one row per word, and
    written into work.text with one transposed copy.
    """
    n = len(v)
    text = work.text[:n]
    x, x_hi, x_lo, h, r, t, e, s, w, y, z, m, d, side, a, b = (
        work.floats[:, :n])
    ten = work.ten[:, :n]
    k, place, digits, lead, rest, high, low, kept, keep, point, at = (
        work.ints[:, :n])
    groups = work.groups[:, :n]
    exact, up, flag, other = work.flags[:, :n]
    last, byte = work.bytes[:, :n]
    np.abs(v, out=x)
    np.greater_equal(x, _TEN_UP[1], out=exact)
    exact &= np.less(x, _TEN_UP[-2], out=flag)
    np.copyto(x, 1.0, where=np.logical_not(exact, out=flag))
    np.copyto(k, np.floor(np.log10(x, out=a), out=a), casting="unsafe")
    # mode="clip": every index is valid, and "raise" buffers the output
    _TEN_UP.take(np.add(k, 2 - _K_MIN, out=at), out=a, mode="clip")
    np.add(k, 1, out=k, where=np.greater_equal(x, a, out=flag))
    _TEN_UP.take(np.add(k, 1 - _K_MIN, out=at), out=a, mode="clip")
    np.subtract(k, 1, out=k, where=np.less(x, a, out=flag))
    _POW10.take(np.subtract(16, k, out=at), axis=1, out=ten, mode="clip")
    _split(x, x_hi, x_lo)
    _two_product(x, x_hi, x_lo, *ten[:3], h, r, a)
    _two_product(x, x_hi, x_lo, *ten[3:], t, e, a)
    _two_sum(r, t, s, w, a, b)
    _two_sum(w, e, y, z, a, b)
    # x * 10**p = (h + m) + d + y + z with m = rint(s), |d| <= 1/2, and D
    # moves from h + m by sign(d) when (|d| - 1/2) + sign(d) (y + z) > 0.
    # That sign matters only for |d| >= 1/4, where |d| - 1/2 is exact and
    # a multiple of ulp(s) >= 2**-54, while |y| < 2**-47 has ulp(y) <=
    # 2**-99 and |z| <= ulp(y) / 2: `gap` is 0 only if the exact
    # (|d| - 1/2) + sign(d) y is, and otherwise exceeds |z| with the sign
    # of the whole sum.  An exact tie has r + t exact and y = z = 0, so
    # rint, which rounds a half to even, picks the even D (h is even).
    np.rint(s, out=m)
    np.subtract(s, m, out=d)
    np.copysign(1.0, d, out=side)
    gap = np.abs(d, out=a)
    gap -= 0.5
    gap += np.multiply(side, y, out=b)
    # the step, side where (gap > 0) | ((gap == 0) & (side z > 0)), else 0
    np.greater(np.multiply(side, z, out=b), 0.0, out=up)
    up &= np.equal(gap, 0.0, out=flag)
    up |= np.greater(gap, 0.0, out=flag)
    # D = h + m + step, each term made an integer
    np.copyto(digits, h, casting="unsafe")
    np.copyto(at, m, casting="unsafe")
    digits += at
    np.copyto(at, side, casting="unsafe")
    np.add(digits, at, out=digits, where=up)
    carry = np.equal(digits, 10 ** 17, out=flag)
    np.copyto(digits, 10 ** 16, where=carry)
    np.add(k, 1, out=k, where=carry)
    _divide(digits, 10 ** 16, lead, rest)
    np.copyto(lead, 0, where=np.equal(v, 0.0, out=flag))
    _divide(rest, 10 ** 8, high, low)
    _divide(high, 10000, groups[0], groups[1])
    _divide(low, 10000, groups[2], groups[3])
    last.fill(0)
    for j, group in enumerate(groups):
        np.maximum(last, _GROUP_LAST[j].take(group, out=byte, mode="clip"),
                   out=last)
    # digits at places <= kept are written even when zero: the integer
    # part of a fixed-point number, or the lead digit
    np.maximum(k, -1, out=kept)
    np.copyto(kept, 0, where=np.less(k, -4, out=flag))
    np.copyto(keep, last)
    np.maximum(keep, kept, out=keep)
    # the record's words, one per row, in float rows spent by now
    words = work.floats[:6, :n].view(np.uint64)
    mask = work.floats[6, :n].view(np.uint64)
    np.subtract(k, _K_MIN, out=place)
    _HEAD.take(place, out=words[0], mode="clip")
    np.bitwise_or(words[0], _MINUS, out=words[0],
                  where=np.signbit(v, out=flag))
    words[0] |= _LEAD.take(lead, out=mask, mode="clip")
    for j, group in enumerate(groups):
        _GROUP_TEXT.take(group, out=words[1 + j], mode="clip")
        words[1 + j] &= _KEEP[j].take(keep, out=mask, mode="clip")
    _SUFFIX.take(place, out=words[5], mode="clip")
    text.view(np.uint64)[:] = words.T
    # the point follows digit `kept`, and only if a digit follows it; a
    # fixed-point number below 1 has it in its '0.' already
    np.copyto(point, kept)
    np.copyto(point, 16, where=np.less(kept, 0, out=flag))
    np.greater(keep, point, out=flag)
    np.multiply(flag.view(np.uint8), np.uint8(ord(".")), out=byte)
    np.multiply(point, 2, out=at)
    at += work.dot_at[:n]
    text.reshape(-1)[at] = byte
    rare = np.logical_not(exact, out=flag)
    rare &= np.not_equal(v, 0.0, out=other)
    if rare.any():
        rare = np.flatnonzero(rare)
        text[rare, :-1] = np.array(
            ["%.17g" % a for a in v[rare].tolist()],
            dtype=f"S{_RECORD - 1}").view(np.uint8).reshape(-1, _RECORD - 1)
    return text


def _records(values, records, work):
    """Write the text of values, a (rows, columns) array, into all but the
    last byte of records, their (rows, columns, _RECORD) records, in
    passes of whole rows through work, a _TextWork of at least a row."""
    rows = work.size // values.shape[1]
    for start in range(0, len(values), rows):
        chunk = values[start:start + rows]
        text = _text_block(chunk.ravel(), work)
        records[start:start + len(chunk), :, :-1] = text.reshape(
            chunk.shape + (_RECORD,))[..., :-1]


def _csv(header, *columns, frames=None, nodes=None) -> str:
    """CSV text of equal-length columns, every value as '%.17g' writes it.

    With `frames` (one value per frame) and `nodes` (one row per node),
    the rows are frames x nodes, frame-major: row f * len(nodes) + j
    reads frames[f], nodes[j], then the columns' values.  The frame and
    node text is made once, each column packed to the width of its longest
    text, and copied into every block of rows; a block is a whole number of frames
    (of rows, without frames) of at most _BLOCK values, or one frame, so
    the text is built a block at a time, in passes of whole rows through
    one _TextWork.  No copy of the whole table is made: each block stacks
    its own rows.
    """
    # the join holds the text twice, so the blocks' arrays are gone by then
    return "".join([",".join(header) + "\n",
                    *_csv_blocks(columns, frames, nodes)])


def _fields(values, work):
    """The text of the 1-D array values packed to the width of the
    longest: row i of the (len(values), width + 1) bytes returned is the
    text of values[i], NUL-padded, then a comma."""
    records = np.empty((len(values), 1, _RECORD), np.uint8)
    records[..., -1] = ord("\n")
    _records(values[:, None], records, work)
    texts = records.tobytes().translate(None, b"\0").split(b"\n")[:-1]
    texts = np.array(texts, dtype=bytes)
    fields = np.full((len(values), texts.itemsize + 1), ord(","), np.uint8)
    fields[:, :-1] = texts.view(np.uint8).reshape(len(values), texts.itemsize)
    return fields


def _csv_blocks(columns, frames, nodes) -> list:
    """The text of _csv's rows, one string per block.  A row's bytes are
    its packed frame and node fields (none without frames), then a record
    of _RECORD bytes per column; translate drops their NUL padding."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    width = len(columns)
    if frames is None:
        per_frame, n_frames = 1, len(columns[0])
    else:
        nodes = np.asarray(nodes, dtype=float)
        per_frame, n_frames = len(nodes), len(frames)
    count = max(1, min(n_frames, _BLOCK // max(1, per_frame * width)))
    # one workspace for every pass of the kernel, a whole number of rows:
    # a block in one pass, unless one frame holds more than _BLOCK values
    rows = max(1, min(_BLOCK // width, count * per_frame))
    work = _TextWork(rows * width)
    # the frame's field, then the nodes' fields, one per axis
    lead = [] if frames is None else [
        _fields(np.asarray(frames, dtype=float), work),
        *(_fields(axis, work) for axis in nodes.T)]
    cells = np.empty((count, per_frame), [
        ("lead", np.uint8, sum(field.shape[1] for field in lead)),
        ("values", np.uint8, (width, _RECORD))])
    # a record per value; the last byte of each is its separator
    records = cells["values"]
    records[..., -1] = ord(",")
    records[..., -1, -1] = ord("\n")
    if lead:
        frame_fields, frame_width = lead[0], lead[0].shape[1]
        cells["lead"][..., frame_width:] = np.concatenate(lead[1:], axis=1)
    stacked = np.empty((count * per_frame, width))
    parts = []
    for start in range(0, n_frames, count):
        block = cells[:min(count, n_frames - start)]
        first, n_rows = start * per_frame, block.size
        for j, column in enumerate(columns):
            stacked[:n_rows, j] = column[first:first + n_rows]
        _records(stacked[:n_rows],
                 records[:len(block)].reshape(n_rows, width, _RECORD), work)
        if lead:
            block["lead"][..., :frame_width] = frame_fields[
                start:start + len(block), None]
        parts.append(block.tobytes().translate(None, b"\0").decode("ascii"))
    return parts


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
    tail = dynamics.tail_mask(grid, kernel.half_width, cfg.tail_radius,
                              cfg.boundary_margin)
    field = dynamics.solve_initial_value(kernel, cfg.forcing, response, grid,
                                         dt=cfg.dt, horizon=cfg.horizon)
    transfer = time_integrate_kernel(kernel, grid)
    final, settled = dynamics.long_time_limit(field)
    state = steady.solve_steady_state(transfer, response, tol=cfg.tol)
    summary = {
        "settled": bool(settled),
        "tail_min": float(np.min(final[tail])),
        "tail_max": float(np.max(final[tail])),
        "dt": cfg.dt,
        "horizon": field.horizon,
    }
    if state.present:
        gap = np.abs(final - grid.periodic_on_window(state.values))
        summary["tail_steady_gap"] = float(np.max(gap[tail]))
    outcome = dynamics.classify_outcome(
        summary["tail_min"], summary["tail_max"],
        summary.get("tail_steady_gap"), cfg.classify_tol)
    summary["outcome"] = outcome.value

    stride = _time_stride(field.values.shape[0])
    frames = field.times[::stride]
    written = field.values[::stride].copy()
    # the trajectory (field, and final, a view of its last row) goes before
    # the text is made: the table needs only the written rows
    del field, final
    artifacts = {
        "simulate.csv": _csv(["t"] + _node_columns(grid) + ["u"],
                             written.ravel(), frames=frames,
                             nodes=grid.window_nodes),
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
    results = {"c": c, "residual": solution.residual,
               "iterations": solution.iterations}
    x = grid.window_nodes[:, 0]
    columns = (solution.xi().ravel(),
               np.tile(x - np.floor(x), len(solution.times)),
               solution.u.ravel())
    # the solver state (the speed search's result, the cell matrix and
    # steady state, the certificate pair with its slab operator and
    # buffers, the solution) goes before the text is made: the table needs
    # only its columns
    del result, transfer, state, pair, solution
    artifacts = {
        "wave.csv": _csv(["xi", "x_cell", "u"], *columns),
        "wave.json": _json_text(summary),
    }
    return artifacts, results


def run_dispersion(cfg: ScenarioConfig):
    tilted = waves.TiltedOperator(cfg.kernel, cfg.response, cfg.grid,
                                  cfg.direction)
    # rate by rate, so each rate's lattice sum is taken once whatever the
    # operator's cache holds; the rows go speed by speed
    by_rate = [[tilted.point(rho, c).value for c in cfg.c_values]
               for rho in cfg.rho_values]
    lam = [value for by_speed in zip(*by_rate) for value in by_speed]
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
    stride = _time_stride(sim.S.shape[0])
    written = replace(sim, times=sim.times[::stride],
                      S=sim.S[::stride].copy(), I=sim.I[::stride].copy())
    # the march's trajectory goes before the text is made: the table needs
    # only the written rows, and their attack u
    del sim
    csv = _csv(["t"] + _node_columns(grid) + ["S", "I", "u"],
               written.S.ravel(), written.I.ravel(),
               written.log_attack().ravel(),
               frames=written.times, nodes=grid.window_nodes)
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
