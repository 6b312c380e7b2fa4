"""A seeded sweep over scenario documents that load admits.

The documents cover kernel reach 1 to 12, box and striped media, cells of
16 to 64 points, and 1-D and 2-D grids, with lambda1 on both sides of 1
and well away from it (steady's critical case is slow by design). Every
call of threshold, steady and speed, run in process, exits 0 with its
artifacts, or exits 2 with a message and writes nothing: none fails
numerically, prints a traceback or raises a RuntimeWarning. On the exits
0 the sweep checks two properties of the homogeneous box: lambda1
equals the mass, and the minimal speed scales with the reach.

A second sweep checks the threshold theorem as agreement between the
commands that answer its question: threshold's lambda1, steady's positive
state, speed's front at rest, simulate's march and dispersion's surface.
"""

import csv
import io
import json
import math
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


def _run(tmp_path, capsys, command, doc, tag, artifact=None):
    """Exit code and artifact (None unless exit 0) of one call: a JSON
    artifact as its summary, a CSV one as its rows of floats keyed by
    column."""
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
    text = (out / (artifact or _ARTIFACTS[command])).read_text()
    if artifact and artifact.endswith(".csv"):
        return code, [{key: float(value) for key, value in row.items()}
                      for row in csv.DictReader(io.StringIO(text))]
    return code, json.loads(text)


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


def _march_window(doc):
    """The window simulate marches a document on: in 1-D, wide enough for
    the default tail, 6R from the seed and 4.5R from the edge, up to reach
    3, and the radius 12 of README's example beyond; in 2-D its own."""
    grid, reach = doc["grid"], doc["kernel"]["support_radius"]
    if grid["dim"] == 2:
        return grid["window_radius"]
    least = math.floor(10.5 * reach) + 2 if reach <= 3 else 12
    return max(grid["window_radius"], least)


def test_commands_agree_on_the_threshold(tmp_path, capsys):
    """lambda1 > 1 exactly when steady finds its positive state and speed's
    front moves; simulate's verdict, where it reaches one, is threshold's;
    every other simulate call is a refusal; and below c*, the dispersion
    surface stays above 1, falling in c at each decay rate."""
    verdicts = []
    refused = 0
    for k, (_, doc) in enumerate(admitted_documents(seed=1, count=24)):
        tag = f"d{k}"
        results = {command: _run(tmp_path, capsys, command, doc, tag)
                   for command in _ARTIFACTS}
        assert {code for code, _ in results.values()} == {0}, doc
        outcome = results["threshold"][1]["outcome"]
        propagates = outcome == "propagates"
        assert results["steady"][1]["present"] is propagates, doc
        speed = results["speed"][1]
        assert speed["at_rest"] is not propagates, doc

        march = {**doc, "grid": {**doc["grid"],
                                 "window_radius": _march_window(doc)}}
        code, summary = _run(tmp_path, capsys, "simulate", march, tag,
                             "simulate.json")
        if code == 0:
            verdicts.append(summary["outcome"])
            assert summary["outcome"] in (outcome, "undetermined"), march
        else:
            refused += 1

        code, rows = _run(tmp_path, capsys, "dispersion", doc, tag,
                          "dispersion.csv")
        assert code == 0, doc
        below = [row for row in rows if row["c"] < speed["c_star"] - 1e-6]
        assert all(row["lambda"] > 1.0 for row in below), doc
        # and at each decay rate lambda falls as the speed grows
        for rho in {row["rho"] for row in rows}:
            cut = sorted((row["c"], row["lambda"]) for row in rows
                         if row["rho"] == rho)
            assert all(a[1] > b[1] for a, b in zip(cut, cut[1:])), (doc, rho)
    # the seed marches both sides of the threshold, and refuses too; no
    # march of the seed ends undetermined
    assert {"propagates", "fades_out"} <= set(verdicts) and refused
    assert "undetermined" not in verdicts
