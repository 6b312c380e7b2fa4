"""Scenario configuration: JSON schema, expression grammar, object builders.

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

Heterogeneities must have period 1 on every axis, as the periodic
medium of the theory does: every kernel matrix between window nodes is
built from the kernel's values on the periodicity cell
(domain/kernels.py, CellBlockMatrix), so an expression such as
"1 + 0.05*x" would silently stand for its periodization.  The loader
evaluates each expression on the window nodes and refuses it unless the
values repeat those on the cell nodes.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from ..domain.forcing import Forcing, bump_forcing
from ..domain.kernels import separable_contact_kernel
from ..domain.grid import MAX_CELL_BYTES, PeriodicGrid, cell_bytes
from ..domain.nonlinearity import Nonlinearity, saturating_exponential
from ..errors import ValidationError

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
                    r"|([A-Za-z_][A-Za-z_0-9]*)|(.))")
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


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


class _Parser:
    """Recursive descent over the grammar above; builds a closure tree."""

    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.tokens = _tokenize(text)
        self.pos = 0

    def _fail(self, why: str):
        raise ValidationError(f"bad expression {self.text!r}: {why}")

    def _peek(self):
        return self.tokens[self.pos]

    def _take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        fn = self._expr()
        kind, val = self._peek()
        if kind != "end":
            self._fail(f"unexpected {val!r}")
        return fn

    def _expr(self):
        left = self._term()
        while self._peek() == ("sym", "+") or self._peek() == ("sym", "-"):
            op = self._take()[1]
            right = self._term()
            if op == "+":
                left = (lambda a, b: lambda X: a(X) + b(X))(left, right)
            else:
                left = (lambda a, b: lambda X: a(X) - b(X))(left, right)
        return left

    def _term(self):
        left = self._unary()
        while self._peek() == ("sym", "*"):
            self._take()
            right = self._unary()
            left = (lambda a, b: lambda X: a(X) * b(X))(left, right)
        return left

    def _unary(self):
        if self._peek() == ("sym", "-"):
            self._take()
            inner = self._unary()
            return lambda X: -inner(X)
        return self._atom()

    def _atom(self):
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
                inner = self._expr()
                if self._take() != ("sym", ")"):
                    self._fail("unbalanced parentheses")
                func = _FUNCTIONS[val]
                return lambda X: func(inner(X))
            self._fail(f"unknown name {val!r}")
        if (kind, val) == ("sym", "("):
            inner = self._expr()
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


_POSITION = {("name", "x"), ("name", "x1"), ("name", "x2")}


def _require_periodic(where: str, text, grid: PeriodicGrid):
    if _is_number(text) or _POSITION.isdisjoint(_tokenize(text)):
        return  # a constant has every period
    fn = parse_expression(text, grid.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        values = grid.window_field(fn)
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{where} = {text!r} is not finite on the window")
    cell = grid.cell_field(fn)
    gap = float(np.max(np.abs(values - grid.periodic_on_window(cell))))
    if gap > _PERIOD_TOL * max(1.0, float(np.max(np.abs(cell)))):
        raise ValidationError(
            f"{where} = {text!r} does not have period 1 on every axis: it "
            f"differs by {gap:.3g} between window nodes and their cell images"
        )


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


@dataclass
class ScenarioConfig:
    """Validated scenario with builders for the solver objects.

    Fields mirror the JSON document; expressions are kept as source text
    (already parse-checked) and compiled on demand by the builders.
    """

    dim: int = 1
    cell_points: int = 64
    window_radius: int = 8
    mass: float = 2.0
    support_radius: float = 1.0
    decay: object = "1"
    source: object = "1"
    target: object = "1"
    response_name: str = "saturating"
    forcing_amplitude: float = 1.0
    forcing_radius: float = 2.0
    forcing_rate: float = 1.0
    dt: float = 0.05
    horizon: float = 40.0
    tol: float = 1e-10
    wave_tol: float = 1e-6
    slices: int = 16
    direction: list | None = None
    speed_factor: float = 2.0
    sub_speed_factor: float = 0.98
    tail_radius: float = 6.0
    boundary_margin: float = 4.5
    classify_tol: float = 1e-2
    rho_values: list = field(default_factory=lambda: [0.25 * k for k in range(1, 9)])
    c_values: list = field(default_factory=lambda: [0.0, 0.5, 1.0, 2.0])
    sir_dt: float = 0.05
    sir_horizon: float = 3.0
    seed_amplitude: float = 0.2
    seed_radius: float = 0.5
    susceptible: object = "1"
    output: str | None = None

    def build_grid(self) -> PeriodicGrid:
        return PeriodicGrid(dim=self.dim, cell_points=self.cell_points,
                            window_radius=self.window_radius)

    def build_kernel(self):
        return separable_contact_kernel(
            self.mass, self.support_radius, dim=self.dim,
            source_factor=parse_expression(self.source, self.dim),
            target_factor=parse_expression(self.target, self.dim),
            decay=parse_expression(self.decay, self.dim),
        )

    def build_response(self) -> Nonlinearity:
        return saturating_exponential()

    def build_forcing(self) -> Forcing:
        return bump_forcing(amplitude=self.forcing_amplitude,
                            radius=self.forcing_radius,
                            rate=self.forcing_rate)

    def build_direction(self):
        if self.direction is None:
            return None
        return np.asarray(self.direction, dtype=float)

    def build_sir_state(self):
        from ..sir import SirState

        grid = self.build_grid()
        kernel = self.build_kernel()
        r = np.linalg.norm(grid.window_nodes, axis=1)
        prof = np.cos(np.pi * r / (2.0 * self.seed_radius)) ** 2
        infected0 = self.seed_amplitude * np.where(r < self.seed_radius,
                                                   prof, 0.0)
        return SirState(
            grid=grid, contact_fn=kernel.spatial_fn,
            support_radius=kernel.support_radius,
            recovery_fn=parse_expression(self.decay, self.dim),
            susceptible_fn=parse_expression(self.susceptible, self.dim),
            infected0=infected0,
        )


def load_scenario(path) -> ScenarioConfig:
    """Read and validate a scenario document; raises ValidationError on
    any malformed content, a grid PeriodicGrid refuses, a kernel reach whose
    image table would exceed MAX_CELL_BYTES on the cell, or a heterogeneity
    without period 1, before anything is written."""
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
    return scenario_from_dict(doc)


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    doc = dict(doc)
    cfg = ScenarioConfig()

    grid = _take_section(doc, "grid")
    cfg.dim = _number(grid, "grid", "dim", 1, low=1, high=2, integer=True)
    cfg.cell_points = _number(grid, "grid", "cell_points", 64, low=8,
                              integer=True)
    cfg.window_radius = _number(grid, "grid", "window_radius", 8, low=1,
                                integer=True)
    _finish_section("grid", grid)

    kernel = _take_section(doc, "kernel")
    cfg.mass = _number(kernel, "kernel", "mass", 2.0, low=0.0)
    cfg.support_radius = _number(kernel, "kernel", "support_radius", 1.0)
    if cfg.support_radius <= 0:
        raise ValidationError(
            f"kernel.support_radius = {cfg.support_radius} must be positive"
        )
    for key in ("decay", "source", "target"):
        text = kernel.pop(key, getattr(cfg, key))
        parse_expression(text, cfg.dim)
        setattr(cfg, key, text)
    _finish_section("kernel", kernel)

    response = doc.pop("response", "saturating")
    if response != "saturating":
        raise ValidationError(
            f"unknown response {response!r}; only 'saturating' is available"
        )
    cfg.response_name = response

    forcing = _take_section(doc, "forcing")
    cfg.forcing_amplitude = _number(forcing, "forcing", "amplitude", 1.0,
                                    low=0.0)
    cfg.forcing_radius = _number(forcing, "forcing", "radius", 2.0)
    cfg.forcing_rate = _number(forcing, "forcing", "rate", 1.0)
    _finish_section("forcing", forcing)

    run = _take_section(doc, "run")
    cfg.dt = _number(run, "run", "dt", 0.05)
    cfg.horizon = _number(run, "run", "horizon", 40.0)
    cfg.tol = _number(run, "run", "tol", 1e-10)
    cfg.wave_tol = _number(run, "run", "wave_tol", 1e-6)
    cfg.slices = _number(run, "run", "slices", 16, low=4, integer=True)
    cfg.speed_factor = _number(run, "run", "speed_factor", 2.0)
    cfg.sub_speed_factor = _number(run, "run", "sub_speed_factor", 0.98)
    cfg.tail_radius = _number(run, "run", "tail_radius", 6.0)
    cfg.boundary_margin = _number(run, "run", "boundary_margin", 4.5)
    cfg.classify_tol = _number(run, "run", "classify_tol", 1e-2, low=0.0)
    direction = run.pop("direction", None)
    if direction is not None:
        if (not isinstance(direction, list) or len(direction) != cfg.dim
                or not all(_is_number(v) for v in direction)):
            raise ValidationError(
                f"run.direction must be a list of {cfg.dim} finite numbers, "
                f"got {direction!r}"
            )
        direction = [float(v) for v in direction]
    cfg.direction = direction
    for key in ("rho_values", "c_values"):
        vals = run.pop(key, getattr(cfg, key))
        if (not isinstance(vals, list) or not vals
                or not all(_is_number(v) for v in vals)):
            raise ValidationError(
                f"run.{key} must be a list of finite numbers, got {vals!r}"
            )
        setattr(cfg, key, [float(v) for v in vals])
    _finish_section("run", run)

    sir = _take_section(doc, "sir")
    cfg.sir_dt = _number(sir, "sir", "dt", 0.05)
    cfg.sir_horizon = _number(sir, "sir", "horizon", 3.0)
    cfg.seed_amplitude = _number(sir, "sir", "seed_amplitude", 0.2, low=0.0)
    cfg.seed_radius = _number(sir, "sir", "seed_radius", 0.5)
    susceptible = sir.pop("susceptible", "1")
    parse_expression(susceptible, cfg.dim)
    cfg.susceptible = susceptible
    _finish_section("sir", sir)

    output = doc.pop("output", None)
    if output is not None and not isinstance(output, str):
        raise ValidationError(f"output must be a path string, got {output!r}")
    cfg.output = output

    if doc:
        raise ValidationError(f"unknown top-level sections: {sorted(doc)}")
    grid = cfg.build_grid()
    need = cell_bytes(cfg.dim, cfg.cell_points, cfg.support_radius)
    if need > MAX_CELL_BYTES:
        raise ValidationError(
            f"kernel.support_radius = {cfg.support_radius} on a {cfg.dim}-D "
            f"cell of {cfg.cell_points} points per axis needs {need} bytes of "
            f"node-pair arrays and image blocks, above the limit of "
            f"{MAX_CELL_BYTES}; shrink kernel.support_radius or grid.cell_points"
        )
    for key in ("decay", "source", "target"):
        _require_periodic(f"kernel.{key}", getattr(cfg, key), grid)
    _require_periodic("sir.susceptible", cfg.susceptible, grid)
    return cfg
