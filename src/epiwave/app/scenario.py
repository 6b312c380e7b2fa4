"""Scenario configuration: JSON schema, expression grammar, model building.

A scenario document is a JSON object with optional sections "grid",
"kernel", "response", "forcing", "run", "sir" and "output"; every field
has a default, so {} is the homogeneous reference scenario.  Spatial
heterogeneities (the kernel's source/target factors and decay rate, and
the initial susceptibles of the compartmental bridge) are written in a
deliberately tiny expression language

    expr := term (('+' | '-') term)*
    term := unary ('*' unary)*
    unary := '-' unary | atom
    atom := NUMBER | pi | x | x1 | x2 | sin(expr) | cos(expr) | exp(expr)
         | (expr)

evaluated pointwise on node coordinates.  No eval(), no locale, no
hidden state: the same document always builds the same objects.

Loading a document builds its whole model once: the grid, the separable
kernel, the response, the bump forcing, the direction and the SIR state.
Building the model is the document check.  What a constructor refuses,
load refuses, with the section named, so every command gives the same
verdict on the same document; the pipelines only use what load built.

Heterogeneities are compiled once and must have period 1 on every axis,
as the periodic medium of the theory does: every kernel matrix between
window nodes is built from the kernel's values on the periodicity cell
(domain/kernels.py, CellBlockMatrix), so an expression such as
"1 + 0.05*x" would silently stand for its periodization.  The loader
evaluates each expression on the window nodes and refuses it unless the
values are finite and repeat those on the cell nodes, and unless they
are nonnegative there.  The kernel's decay rate must be strictly positive
at every cell node: at a zero rate no transfer operator of the theory is
bounded, and the time march has no recovery.
"""

from __future__ import annotations

import hashlib
import json
import operator
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from ..domain.forcing import bump_forcing
from ..domain.kernels import SeparableKernel, separable_contact_kernel
from ..domain.grid import MAX_CELL_BYTES, PeriodicGrid, cell_bytes
from ..domain.nonlinearity import Nonlinearity, saturating_exponential
from ..errors import ValidationError
from ..sir import SirState

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
                    r"|([A-Za-z_][A-Za-z_0-9]*)|(.))")
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}
# Deepest nesting of parentheses, unary minus and function calls; a level
# costs up to four Python frames to parse, far inside the recursion limit.
_MAX_NESTING = 100


def _is_number(raw) -> bool:
    """A finite JSON number a float can hold: NaN, the infinities and
    integers beyond the float range all fail the comparison."""
    return (not isinstance(raw, bool) and isinstance(raw, (int, float))
            and abs(raw) <= sys.float_info.max)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            break
        number, name, sym = m.groups()
        if number is not None:
            value = float(m.group(0))
            if not _is_number(value):
                raise ValidationError(
                    f"number {m.group(0)!r} in {text!r} is not finite"
                )
            tokens.append(("num", value))
        elif name is not None:
            tokens.append(("name", name))
        elif sym.strip():
            tokens.append(("sym", sym))
        pos = m.end()
    tokens.append(("end", ""))
    return tokens


def _chain(first, rest):
    """first op1 f1 op2 f2 ... combined left to right in a loop, in the
    order nested binary closures would, so long chains cost no recursion."""
    def evaluate(X):
        acc = first(X)
        for op, fn in rest:
            acc = op(acc, fn(X))
        return acc

    return evaluate if rest else first


class _Parser:
    """Recursive descent over the grammar above; builds a closure tree."""

    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.tokens = _tokenize(text)
        self.pos = 0

    def _fail(self, why: str):
        text = self.text if len(self.text) <= 60 else self.text[:57] + "..."
        raise ValidationError(f"bad expression {text!r}: {why}")

    def _peek(self):
        return self.tokens[self.pos]

    def _take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        fn = self._expr(0)
        kind, val = self._peek()
        if kind != "end":
            self._fail(f"unexpected {val!r}")
        return fn

    def _deeper(self, depth):
        if depth == _MAX_NESTING:
            self._fail(f"nests deeper than {_MAX_NESTING} levels of "
                       "parentheses, unary minus and function calls")
        return depth + 1

    def _expr(self, depth):
        first = self._term(depth)
        rest = []
        while self._peek() in (("sym", "+"), ("sym", "-")):
            rest.append((_BINARY[self._take()[1]], self._term(depth)))
        return _chain(first, rest)

    def _term(self, depth):
        first = self._unary(depth)
        rest = []
        while self._peek() == ("sym", "*"):
            rest.append((_BINARY[self._take()[1]], self._unary(depth)))
        return _chain(first, rest)

    def _unary(self, depth):
        if self._peek() == ("sym", "-"):
            self._take()
            inner = self._unary(self._deeper(depth))
            return lambda X: -inner(X)
        return self._atom(depth)

    def _atom(self, depth):
        kind, val = self._take()
        if kind == "num":
            return lambda X: val
        if kind == "name":
            if val == "pi":
                return lambda X: np.pi
            if val in ("x", "x1"):
                return lambda X: X[:, 0]
            if val == "x2":
                if self.dim < 2:
                    self._fail("x2 on a one-dimensional grid")
                return lambda X: X[:, 1]
            if val in _FUNCTIONS:
                if self._take() != ("sym", "("):
                    self._fail(f"{val} needs parentheses")
                inner = self._expr(self._deeper(depth))
                if self._take() != ("sym", ")"):
                    self._fail("unbalanced parentheses")
                func = _FUNCTIONS[val]
                return lambda X: func(inner(X))
            self._fail(f"unknown name {val!r}")
        if (kind, val) == ("sym", "("):
            inner = self._expr(self._deeper(depth))
            if self._take() != ("sym", ")"):
                self._fail("unbalanced parentheses")
            return inner
        self._fail(f"unexpected {val!r}" if val else "it ends early")


def parse_expression(text, dim: int = 1):
    """Compile a heterogeneity expression to a callable on (n, dim) points.

    Plain numbers are accepted wherever an expression is, so configs can
    write "decay": 1.5 as well as "decay": "1.5".
    """
    if _is_number(text):
        value = float(text)
        return lambda X: np.full(np.asarray(X).shape[0], value)
    if not isinstance(text, str):
        raise ValidationError(
            f"expected an expression or a finite number, got {text!r}"
        )
    body = _Parser(text, dim).parse()

    def evaluate(X):
        X = np.asarray(X, dtype=float)
        out = body(X)
        if np.ndim(out) == 0:
            return np.full(X.shape[0], float(out))
        return np.asarray(out, dtype=float)

    return evaluate


# Largest gap a periodic expression may show between a window node and its
# cell image, relative to its largest value on the cell (at least 1). The
# window coordinates carry rounding of a few ulp of the window radius,
# which periodic expressions turn into gaps below 1e-13.
_PERIOD_TOL = 1e-9


def _take_section(doc, name):
    sec = doc.pop(name, {})
    if not isinstance(sec, dict):
        raise ValidationError(f"section '{name}' must be an object, got {sec!r}")
    return dict(sec)


def _finish_section(name, sec):
    if sec:
        raise ValidationError(
            f"unknown keys in section '{name}': {sorted(sec)}"
        )


def _number(sec, name, key, default, *, low=None, high=None, integer=False):
    raw = sec.pop(key, default)
    if not _is_number(raw):
        raise ValidationError(f"{name}.{key} must be a finite number, got {raw!r}")
    if integer and int(raw) != raw:
        raise ValidationError(f"{name}.{key} must be an integer, got {raw!r}")
    value = int(raw) if integer else float(raw)
    if low is not None and value < low:
        raise ValidationError(f"{name}.{key} = {value} is below {low}")
    if high is not None and value > high:
        raise ValidationError(f"{name}.{key} = {value} is above {high}")
    return value


def _positive(sec, name, key, default):
    value = _number(sec, name, key, default)
    if value <= 0:
        raise ValidationError(f"{name}.{key} = {value} must be positive")
    return value


def _heterogeneity(sec, name, key, grid: PeriodicGrid, positive=False):
    """Compile the expression at sec[key] (default 1) once and check it on
    the grid: finite on the window, period 1 on every axis and nonnegative
    on the cell, as every heterogeneity of the theory is; with positive,
    strictly positive on the cell, as the kernel's decay rate must be.
    Keeping the susceptibles away from zero is left to SirState."""
    text = sec.pop(key, "1")
    fn = _build(f"{name}.{key}", parse_expression, text, grid.dim)
    where = f"{name}.{key} = {text!r}"
    with np.errstate(over="ignore", invalid="ignore"):
        values = grid.window_field(fn)
        cell = grid.cell_field(fn)
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{where} is not finite on the window")
    gap = float(np.max(np.abs(values - grid.periodic_on_window(cell))))
    if gap > _PERIOD_TOL * max(1.0, float(np.max(np.abs(cell)))):
        raise ValidationError(
            f"{where} does not have period 1 on every axis: it differs by "
            f"{gap:.3g} between window nodes and their cell images"
        )
    low = float(np.min(cell))
    if low < 0 or (positive and low == 0):
        raise ValidationError(
            f"{where} is {'not positive' if positive else 'negative'} on the "
            f"cell: its least value at a cell node is {low:.3g}"
        )
    return fn


def _build(name, make, *args, **kwargs):
    """Run a model constructor; its refusal is a document error that names
    the section the model came from."""
    try:
        return make(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{name}: {exc}") from None


@dataclass
class ScenarioConfig:
    """A loaded scenario: its model, built and checked once, and the
    settings of the runs.

    The model objects are the ones every pipeline uses; the remaining
    fields mirror the "run" and "sir" sections of the document and the
    output path.  sha256 is the digest of the document bytes load_scenario
    parsed (None for a config built from a dict).
    """

    grid: PeriodicGrid
    kernel: SeparableKernel
    response: Nonlinearity
    forcing: object
    direction: np.ndarray | None
    sir: SirState
    dt: float
    horizon: float
    tol: float
    wave_tol: float
    slices: int
    speed_factor: float
    sub_speed_factor: float
    tail_radius: float
    boundary_margin: float
    classify_tol: float
    rho_values: list
    c_values: list
    sir_dt: float
    sir_horizon: float
    output: str | None
    sha256: str | None = field(default=None, init=False)


def load_scenario(path) -> ScenarioConfig:
    """Read a scenario document and build its model; raises ValidationError,
    before anything is written, on malformed content and on any model the
    loader or a constructor refuses."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"config root must be an object, got {doc!r}")
    config = scenario_from_dict(doc)
    config.sha256 = hashlib.sha256(raw).hexdigest()
    return config


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Check a scenario document by building its model: each section is
    read, each expression compiled once, and each model object constructed
    from them."""
    doc = dict(doc)

    sec = _take_section(doc, "grid")
    grid = _build(
        "grid", PeriodicGrid,
        dim=_number(sec, "grid", "dim", 1, integer=True),
        cell_points=_number(sec, "grid", "cell_points", 64, integer=True),
        window_radius=_number(sec, "grid", "window_radius", 8, integer=True),
    )
    _finish_section("grid", sec)

    sec = _take_section(doc, "kernel")
    mass = _number(sec, "kernel", "mass", 2.0)
    support_radius = _number(sec, "kernel", "support_radius", 1.0)
    decay = _heterogeneity(sec, "kernel", "decay", grid, positive=True)
    source, target = (_heterogeneity(sec, "kernel", key, grid)
                      for key in ("source", "target"))
    _finish_section("kernel", sec)
    table, gather = cell_bytes(grid.dim, grid.cell_points, support_radius,
                               grid.window_radius)
    if max(table, gather) > MAX_CELL_BYTES:
        raise ValidationError(
            f"kernel.support_radius = {support_radius} on a {grid.dim}-D "
            f"cell of {grid.cell_points} points per axis counts {table} "
            f"bytes for its image table, and over a window of "
            f"radius {grid.window_radius} gathers {gather} bytes per column "
            f"of a window product; each must stay within {MAX_CELL_BYTES}: "
            f"shrink kernel.support_radius, grid.cell_points or "
            f"grid.window_radius"
        )
    kernel = _build("kernel", separable_contact_kernel, mass, support_radius,
                    dim=grid.dim, source_factor=source, target_factor=target,
                    decay=decay)

    response = doc.pop("response", "saturating")
    if response != "saturating":
        raise ValidationError(
            f"unknown response {response!r}; only 'saturating' is available"
        )

    sec = _take_section(doc, "forcing")
    forcing = _build("forcing", bump_forcing,
                     amplitude=_number(sec, "forcing", "amplitude", 1.0),
                     radius=_number(sec, "forcing", "radius", 2.0),
                     rate=_number(sec, "forcing", "rate", 1.0))
    _finish_section("forcing", sec)

    run = _take_section(doc, "run")
    settings = dict(
        dt=_number(run, "run", "dt", 0.05),
        horizon=_number(run, "run", "horizon", 40.0),
        tol=_positive(run, "run", "tol", 1e-10),
        wave_tol=_positive(run, "run", "wave_tol", 1e-6),
        slices=_number(run, "run", "slices", 16, low=4, integer=True),
        speed_factor=_number(run, "run", "speed_factor", 2.0),
        sub_speed_factor=_number(run, "run", "sub_speed_factor", 0.98),
        tail_radius=_number(run, "run", "tail_radius", 6.0 * support_radius),
        boundary_margin=_number(run, "run", "boundary_margin",
                                4.5 * support_radius),
        classify_tol=_number(run, "run", "classify_tol", 1e-2, low=0.0),
    )
    if settings["speed_factor"] <= 1.0:
        raise ValidationError(
            f"run.speed_factor = {settings['speed_factor']} must exceed 1"
        )
    if not 0.0 < settings["sub_speed_factor"] < 1.0:
        raise ValidationError(
            f"run.sub_speed_factor = {settings['sub_speed_factor']} must "
            f"sit in (0, 1)"
        )
    direction = run.pop("direction", None)
    if direction is not None:
        if (not isinstance(direction, list) or len(direction) != grid.dim
                or not all(_is_number(v) for v in direction)
                or not any(direction)):
            raise ValidationError(
                f"run.direction must be a nonzero list of {grid.dim} finite "
                f"numbers, got {direction!r}"
            )
        direction = np.asarray(direction, dtype=float)
    for key, default in (("rho_values", [0.25 * k for k in range(1, 9)]),
                         ("c_values", [0.0, 0.5, 1.0, 2.0])):
        vals = run.pop(key, default)
        if (not isinstance(vals, list) or not vals
                or not all(_is_number(v) and v >= 0 for v in vals)):
            raise ValidationError(
                f"run.{key} must be a list of finite nonnegative numbers, "
                f"got {vals!r}"
            )
        settings[key] = [float(v) for v in vals]
    _finish_section("run", run)

    sec = _take_section(doc, "sir")
    settings["sir_dt"] = _number(sec, "sir", "dt", 0.05)
    settings["sir_horizon"] = _number(sec, "sir", "horizon", 3.0)
    seed_amplitude = _number(sec, "sir", "seed_amplitude", 0.2, low=0.0)
    seed_radius = _positive(sec, "sir", "seed_radius", 0.5)
    susceptible = _heterogeneity(sec, "sir", "susceptible", grid)
    _finish_section("sir", sec)
    r = np.linalg.norm(grid.window_nodes, axis=1)
    prof = np.cos(np.pi * r / (2.0 * seed_radius)) ** 2
    infected0 = seed_amplitude * np.where(r < seed_radius, prof, 0.0)
    if not np.any(infected0 > 0):
        raise ValidationError(
            f"sir.seed_amplitude = {seed_amplitude} and sir.seed_radius = "
            f"{seed_radius} seed no window node; the nearest lies "
            f"{np.min(r):.3g} from the origin")
    sir = _build("sir", SirState, grid=grid, kernel=kernel,
                 susceptible_fn=susceptible, infected0=infected0)

    output = doc.pop("output", None)
    if output is not None and not isinstance(output, str):
        raise ValidationError(f"output must be a path string, got {output!r}")

    if doc:
        raise ValidationError(f"unknown top-level sections: {sorted(doc)}")
    return ScenarioConfig(grid=grid, kernel=kernel,
                          response=saturating_exponential(), forcing=forcing,
                          direction=direction, sir=sir, output=output,
                          **settings)
