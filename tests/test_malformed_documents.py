"""A seeded sweep over malformed scenario documents.

Each document is BASE, on which every command exits 0, with one field
set to an invalid value drawn from a fixed table: a value of the wrong
type, a NaN or Infinity literal, a number out of range, a non-integer
for an integer field, an unknown key or section, or an expression that
is malformed, not periodic or negative. Each runs one command drawn
from the eight, in process. Every call exits 2 with a configuration
error, writes nothing, and prints no traceback and no RuntimeWarning.
Standard library only.
"""

import json
import math
import random
import warnings

from epiwave.app.cli import main

BASE = {"grid": {"window_radius": 12}}
COMMANDS = ("threshold", "steady", "simulate", "speed", "wave", "dispersion",
            "sir-verify", "subwave-diag")

_NOT_NUMBERS = ["1", True, None, [1], {"v": 1}, math.nan, math.inf,
                -math.inf, 1e400, 10**400]
_NOT_EXPRESSIONS = [
    True, None, [1], math.nan, math.inf, "", "1 +", "sin x", "(1", "1)",
    "foo", "x2", "2 ** x", "1e999", "(" * 101 + "1" + ")" * 101,
    "1 + 0.05*x", "x", "exp(800*cos(2*pi*x))"]
_NOT_LISTS = ["x", 1, [], [-0.25], [math.nan], [math.inf], ["1"], [True]]
_NOT_SECTIONS = [[], 1, "x", None]

# (path from the root to the field, invalid values); the run's dt,
# horizon, tail radius and margin are range-checked only by the commands
# that read them, so only their type is drawn here
INVALID = [
    (("grid",), _NOT_SECTIONS),
    (("grid", "dim"), _NOT_NUMBERS + [0, 3, 1.5]),
    (("grid", "cell_points"), _NOT_NUMBERS + [7, -8, 16.5, 10**6]),
    (("grid", "window_radius"), _NOT_NUMBERS + [0, -1, 2.5, 10**6]),
    (("grid", "cells"), [8]),
    (("kernel",), _NOT_SECTIONS),
    (("kernel", "mass"), _NOT_NUMBERS + [-0.5]),
    (("kernel", "support_radius"), _NOT_NUMBERS + [0, -1, 1e6]),
    (("kernel", "decay"), _NOT_EXPRESSIONS + ["0", "-1", "sin(2*pi*x)"]),
    (("kernel", "source"), _NOT_EXPRESSIONS + ["-1", "cos(2*pi*x)"]),
    (("kernel", "target"), _NOT_EXPRESSIONS + ["-1", "cos(2*pi*x)"]),
    (("kernel", "reach"), [1]),
    (("response",), ["linear", 1, None]),
    (("forcing",), _NOT_SECTIONS),
    (("forcing", "amplitude"), _NOT_NUMBERS + [-1]),
    (("forcing", "radius"), _NOT_NUMBERS + [0, -2]),
    (("forcing", "rate"), _NOT_NUMBERS + [0, -1]),
    (("run",), _NOT_SECTIONS),
    (("run", "dt"), _NOT_NUMBERS),
    (("run", "horizon"), _NOT_NUMBERS),
    (("run", "tol"), _NOT_NUMBERS + [0, -1e-10]),
    (("run", "wave_tol"), _NOT_NUMBERS + [0, -1e-6]),
    (("run", "slices"), _NOT_NUMBERS + [3, 0, 16.5]),
    (("run", "speed_factor"), _NOT_NUMBERS + [1, 0.5]),
    (("run", "sub_speed_factor"), _NOT_NUMBERS + [0, 1, 1.5]),
    (("run", "tail_radius"), _NOT_NUMBERS),
    (("run", "boundary_margin"), _NOT_NUMBERS),
    (("run", "classify_tol"), _NOT_NUMBERS + [-0.01]),
    (("run", "direction"), _NOT_LISTS + [[0], [0.0], [1, 1], 1e400]),
    (("run", "rho_values"), _NOT_LISTS),
    (("run", "c_values"), _NOT_LISTS),
    (("run", "steps"), [10]),
    (("sir",), _NOT_SECTIONS),
    (("sir", "dt"), _NOT_NUMBERS),
    (("sir", "horizon"), _NOT_NUMBERS),
    (("sir", "seed_amplitude"), _NOT_NUMBERS + [-0.2, 0]),
    (("sir", "seed_radius"), _NOT_NUMBERS + [0, -0.5, 0.001]),
    (("sir", "susceptible"), _NOT_EXPRESSIONS + ["0", "-1", "cos(2*pi*x)"]),
    (("output",), [1, [], {"path": "x"}]),
    (("extra",), [{}]),
]


def malformed_documents(seed: int, count: int):
    """(command, document) pairs: BASE with one invalid field, and a
    command, drawn from the seed."""
    rng = random.Random(seed)
    calls = []
    for _ in range(count):
        path, values = rng.choice(INVALID)
        doc = node = json.loads(json.dumps(BASE))
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = rng.choice(values)
        calls.append((rng.choice(COMMANDS), doc))
    return calls


def test_malformed_documents_exit_2_and_write_nothing(tmp_path, capsys):
    for i, (command, doc) in enumerate(malformed_documents(1, 300)):
        cfg = tmp_path / f"doc{i:03d}.json"
        cfg.write_text(json.dumps(doc))  # NaN and Infinity as literals
        out = tmp_path / f"out{i:03d}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([command, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, (command, doc, err)
        assert err.startswith("epiwave: configuration error: "), (command, doc)
        assert not out.exists(), (command, doc)
        assert "Traceback" not in err and "Warning" not in err, (command, doc)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"doc{i:03d}.json" for i in range(300)]
