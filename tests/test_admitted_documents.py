"""A seeded sweep over scenario documents that load admits.

The documents cover kernel reach 1 to 12, box and striped media, cells of
16 to 64 points, and 1-D and 2-D grids, with lambda1 on both sides of 1
and well away from it (steady's critical case is slow by design). Every
call of threshold, steady and speed, run in process, exits 0 with its
artifacts, or exits 2 with a message and writes nothing: none fails
numerically, prints a traceback or raises a RuntimeWarning. On the exits
0 the sweep checks two properties of the homogeneous box: lambda1
equals the mass, and the minimal speed scales with the reach.
"""

import json
import random
import warnings

import pytest

from epiwave.app.cli import main

_SUB_MASS = (0.4, 0.8)
_SUPER_MASS = (1.3, 3.0)
_ARTIFACTS = {"threshold": "threshold.json", "steady": "steady.json",
              "speed": "speed.json"}


def admitted_documents(seed: int, count: int):
    """(family, document) pairs from a seeded draw, standard library only.

    Every sixth document is 2-D, on a 16-point cell and a window of
    radius 2 with reach at most 2: a 2-D ball sweep at reach 6 to 10
    takes seconds. The others draw reach 1 to 12, cell 16, 32 or 64 and
    window 2, 4 or 8. Families alternate in pairs, so both meet the 2-D
    grid. A striped medium modulates the source by up to 40% and the
    decay rate by up to 20%; that moves lambda1 off the mass by a few
    percent, and the mass ranges end 0.2 below and 0.3 above 1.
    """
    rng = random.Random(seed)
    docs = []
    for i in range(count):
        dim = 2 if i % 6 == 5 else 1
        if dim == 2:
            reach, cell, window = rng.randint(1, 2), 16, 2
        else:
            reach = rng.randint(1, 12)
            cell = rng.choice((16, 32, 64))
            window = rng.choice((2, 4, 8))
        mass = round(rng.uniform(*rng.choice((_SUB_MASS, _SUPER_MASS))), 4)
        kernel = {"mass": mass, "support_radius": reach}
        family = ("box", "striped")[(i // 2) % 2]
        if family == "striped":
            a = round(rng.uniform(0.1, 0.4), 3)
            b = round(rng.uniform(0.05, 0.2), 3)
            kernel["source"] = f"1 + {a}*cos(2*pi*(x - {rng.random():.3f}))"
            kernel["decay"] = f"1 + {b}*sin(2*pi*x)"
        docs.append((family, {"grid": {"dim": dim, "cell_points": cell,
                                       "window_radius": window},
                              "kernel": kernel}))
    return docs


def _run(tmp_path, capsys, command, doc, tag):
    """Exit code and artifact summary (None unless exit 0) of one call."""
    cfg = tmp_path / f"{tag}.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / f"{tag}-{command}"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err, (command, doc)
    assert code in (0, 2), (command, doc, err)
    if code == 2:
        assert "configuration error" in err, (command, doc, err)
        assert not out.exists(), (command, doc)
        return code, None
    return code, json.loads((out / _ARTIFACTS[command]).read_text())


def test_admitted_documents_exit_0_or_refuse(tmp_path, capsys):
    box_lambdas = scaled_speeds = 0
    unit_speed = {}
    for k, (family, doc) in enumerate(admitted_documents(seed=1, count=24)):
        kernel, grid = doc["kernel"], doc["grid"]
        results = {command: _run(tmp_path, capsys, command, doc, f"d{k}")
                   for command in _ARTIFACTS}
        code, threshold = results["threshold"]
        if code == 0:
            assert abs(threshold["lambda1"] - 1.0) >= 1e-3, doc
            if family == "box":
                assert threshold["lambda1"] == pytest.approx(kernel["mass"],
                                                             rel=1e-10)
                box_lambdas += 1
        code, speed = results["speed"]
        if (code == 0 and family == "box" and grid["dim"] == 1
                and grid["cell_points"] == 64 and kernel["mass"] > 1.0):
            # K_R(z) = K_1(z / R) / R, so c*(R) = R c*(1) up to the
            # discretization of the 64-point cell
            mass = kernel["mass"]
            if mass not in unit_speed:
                unit = {"grid": {"cell_points": 64}, "kernel": {"mass": mass}}
                ref_code, ref = _run(tmp_path, capsys, "speed", unit,
                                     f"unit{k}")
                assert ref_code == 0
                unit_speed[mass] = ref["c_star"]
            want = kernel["support_radius"] * unit_speed[mass]
            assert speed["c_star"] == pytest.approx(want, rel=1e-3), doc
            scaled_speeds += 1
    # the seed reaches both invariants
    assert box_lambdas >= 6 and scaled_speeds >= 2
