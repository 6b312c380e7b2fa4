"""Seeded scenario generator for the three benchmark workloads.

A workload is a fixed list of CLI calls (command, scenario document) that
one pass runs in order.  The seed draws the media; the grid sizes, the
commands and the number of calls are fixed per workload, so every seed
asks for the same kind and amount of solver work.

Media families:

* box       -- homogeneous box kernel, mass in [1.9, 2.7];
* striped   -- source = 1 + a*cos(2*pi*(x-p)), decay = 1 + b*sin(2*pi*x),
               a in [0.25, 0.5], b in [0.1, 0.25], same mass range;
* subcritical -- box kernel with mass in [0.5, 0.8] (lambda1 < 1);
* hetero    -- box kernel plus a heterogeneous sir.susceptible field.

The supercritical mass range keeps the minimal speed between 1 and 2 for
every family (box c* runs from 1.13 to 1.88, striped from 1.10 to 1.89),
so the speed search brackets c* in [1, 2] and does the same number of
bisection steps on every seed.  The generator writes JSON documents and
nothing else; the program only ever sees those files.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("threshold-sweep", "speed-front", "march-io")

SUPER_MASS = (1.9, 2.7)
SUB_MASS = (0.5, 0.8)

# the sixteen decay rates of the dispersion surface (four speeds by default)
DISPERSION_RHO = [0.25 * k for k in range(1, 17)]


@dataclass
class Medium:
    """One seeded medium: the kernel section of a scenario plus what the
    checks may assume about it."""

    name: str
    family: str
    kernel: dict
    mass: float
    supercritical: bool
    sir: dict = field(default_factory=dict)

    @property
    def homogeneous_box(self) -> bool:
        return self.family in ("box", "subcritical", "hetero")


@dataclass
class Call:
    """One CLI call of a pass."""

    command: str
    medium: Medium
    doc: dict
    config: str = ""  # path of the written document
    dim: int = 1


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _box(name, rng, mass_range=SUPER_MASS, family="box") -> Medium:
    mass = _draw(rng, *mass_range)
    return Medium(name=name, family=family, kernel={"mass": mass},
                  mass=mass, supercritical=mass_range[0] > 1.0)


def _striped(name, rng) -> Medium:
    mass = _draw(rng, *SUPER_MASS)
    a = _draw(rng, 0.25, 0.5)
    b = _draw(rng, 0.1, 0.25)
    p = _draw(rng, 0.0, 1.0)
    kernel = {"mass": mass,
              "source": f"1 + {a}*cos(2*pi*(x - {p}))",
              "decay": f"1 + {b}*sin(2*pi*x)"}
    return Medium(name=name, family="striped", kernel=kernel, mass=mass,
                  supercritical=True)


def _hetero(name, rng) -> Medium:
    medium = _box(name, rng, family="hetero")
    s = _draw(rng, 0.2, 0.4)
    q = _draw(rng, 0.0, 1.0)
    medium.sir = {"susceptible": f"1 + {s}*cos(2*pi*(x - {q}))"}
    return medium


def _doc(medium: Medium, cell_points: int, window_radius: int, dim: int = 1,
         run: dict | None = None) -> dict:
    grid = {"cell_points": cell_points, "window_radius": window_radius}
    if dim != 1:
        grid = {"dim": dim, **grid}
    doc = {"grid": grid, "kernel": dict(medium.kernel)}
    if run:
        doc["run"] = run
    if medium.sir:
        doc["sir"] = dict(medium.sir)
    return doc


def _threshold_sweep(rng):
    box = _box("box", rng)
    striped = _striped("striped", rng)
    sub = _box("subcritical", rng, SUB_MASS, family="subcritical")
    box2d = _box("box-2d", rng)
    calls = []
    for medium, doc, dim in ((box, _doc(box, 128, 10), 1),
                             (striped, _doc(striped, 128, 10), 1),
                             (sub, _doc(sub, 128, 10), 1),
                             (box2d, _doc(box2d, 12, 4, dim=2), 2)):
        calls.append(Call("threshold", medium, doc, dim=dim))
        calls.append(Call("steady", medium, doc, dim=dim))
    return calls


def _speed_front(rng):
    box = _box("box", rng)
    striped = _striped("striped", rng)
    box2d = _box("box-2d", rng)
    calls = []
    for medium in (box, striped):
        calls.append(Call("speed", medium, _doc(medium, 64, 8)))
        calls.append(Call("dispersion", medium, _doc(
            medium, 64, 8, run={"rho_values": DISPERSION_RHO})))
        calls.append(Call("wave", medium, _doc(medium, 32, 40)))
        calls.append(Call("subwave-diag", medium, _doc(medium, 32, 20)))
    calls.append(Call("speed", box2d, _doc(box2d, 8, 4, dim=2,
                                           run={"direction": [1.0, 1.0]}),
                      dim=2))
    return calls


def _march_io(rng):
    media = [_box("box", rng), _striped("striped", rng),
             _box("subcritical", rng, SUB_MASS, family="subcritical"),
             _hetero("hetero", rng)]
    calls = []
    for medium in media:
        doc = _doc(medium, 64, 12)
        calls.append(Call("simulate", medium, doc))
        calls.append(Call("sir-verify", medium, doc))
    return calls


_BUILDERS = {
    "threshold-sweep": _threshold_sweep,
    "speed-front": _speed_front,
    "march-io": _march_io,
}


def generate(workload: str, seed: int, directory: str) -> list[Call]:
    """Draw the workload's media from the seed and write one document per
    distinct (medium, grid) pair into directory; returns the calls of one
    pass in order."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    calls = _BUILDERS[workload](rng)
    os.makedirs(directory, exist_ok=True)
    written: dict[str, str] = {}
    for call in calls:
        text = json.dumps(call.doc, sort_keys=True, indent=1) + "\n"
        if text not in written:
            path = os.path.join(directory, f"doc{len(written):02d}.json")
            with open(path, "w") as handle:
                handle.write(text)
            written[text] = path
        call.config = written[text]
    return calls
