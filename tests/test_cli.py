"""Command-line surface: exit codes, artifacts, manifests, determinism."""

import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import epiwave
from epiwave import dynamics, spectral, waves
from epiwave.app import pipelines, scenario
from epiwave.app.cli import main
from epiwave.app.scenario import load_scenario, parse_expression
from epiwave.domain.grid import MAX_CELL_BYTES, MAX_WINDOW_NODES
from epiwave.dynamics import MAX_TRAJECTORY_VALUES
from epiwave.errors import ConvergenceError, ValidationError
from epiwave.sir import simulate_sir

from oracles import FROZEN


def _write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    body = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    return header, body


def _rows_csv(header, rows):
    """Reference emitter: the row-by-row formatter the pipelines used
    before they formatted whole tables at once."""
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(f"{float(v):.17g}" for v in row) + "\n")
    return out.getvalue()


_SMALL = {
    "grid": {"cell_points": 32, "window_radius": 6},
    "run": {"rho_values": [0.5, 1.0, 1.5], "c_values": [0.0, 1.0]},
    "sir": {"dt": 0.1, "horizon": 2.0},
}


def test_threshold_writes_artifacts_and_manifest(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, _SMALL)
    out = tmp_path / "out"
    opened = []
    real_open = open

    def counting(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting)
    assert main(["threshold", "--config", cfg, "--out", str(out)]) == 0
    monkeypatch.undo()
    # the manifest hashes the bytes load parsed, not a second read
    assert opened.count(cfg) == 1

    header, body = _read_csv(out / "threshold.csv")
    assert header == ["R", "lambda_R", "residual", "iterations"]
    assert body.shape[0] == 6
    assert np.all(np.diff(body[:, 1]) > 0.0)

    summary = json.loads((out / "threshold.json").read_text())
    assert abs(summary["lambda1"] - 2.0) <= 1e-9
    assert summary["outcome"] == "propagates"

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "threshold"
    assert manifest["results"]["outcome"] == "propagates"
    assert sorted(manifest["artifacts"]) == ["threshold.csv", "threshold.json"]
    digest = hashlib.sha256(open(cfg, "rb").read()).hexdigest()
    assert manifest["config"]["sha256"] == digest
    assert set(manifest["timings_seconds"]) == {"load", "run", "write"}
    assert set(manifest["versions"]) == {"epiwave", "numpy", "python"}


def test_identical_config_reproduces_artifact_bytes(tmp_path):
    cfg = _write_config(tmp_path, _SMALL)
    for cmd, name in (("dispersion", "dispersion.csv"), ("steady", "steady.csv")):
        out_a, out_b = tmp_path / f"{cmd}_a", tmp_path / f"{cmd}_b"
        assert main([cmd, "--config", cfg, "--out", str(out_a)]) == 0
        assert main([cmd, "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_steady_csv_matches_saturation_level(tmp_path):
    cfg = _write_config(tmp_path, _SMALL)
    out = tmp_path / "steady"
    assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
    header, body = _read_csv(out / "steady.csv")
    assert header == ["x", "U"]
    assert body.shape[0] == 32
    assert np.max(np.abs(body[:, 1] - FROZEN["zstar_beta2"])) <= 1e-8
    summary = json.loads((out / "steady.json").read_text())
    assert summary["present"] is True


def test_speed_summary_fields(tmp_path):
    cfg = _write_config(tmp_path, _SMALL)
    out = tmp_path / "speed"
    assert main(["speed", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "speed.json").read_text())
    assert abs(summary["c_star"] - FROZEN["c_star"]) <= 2e-3
    assert abs(summary["rho_star"] - FROZEN["rho_star"]) <= 2e-2
    assert summary["at_rest"] is False
    assert summary["direction"] == [1.0]


def test_wide_kernels_get_a_speed(tmp_path):
    """A tilted eigenvalue grows like exp(rho R) with the reach R, and the
    power iteration stops at the rounding error of its product once that
    exceeds its tolerance: the speed exits 0 at reach 3 and 10. A
    homogeneous box's speed scales with its reach, up to discretization."""
    speeds = {}
    for radius in (1, 3, 10):
        cfg = _write_config(tmp_path, {"kernel": {"support_radius": radius}},
                            f"reach-{radius}.json")
        out = tmp_path / f"reach-{radius}"
        assert main(["speed", "--config", cfg, "--out", str(out)]) == 0
        speeds[radius] = json.loads((out / "speed.json").read_text())["c_star"]
    for radius in (3, 10):
        scaled = radius * speeds[1]
        assert abs(speeds[radius] - scaled) <= 1e-3 * scaled


@pytest.mark.parametrize("dim, direction", [
    (1, [1e200]), (1, [1e-200]), (2, [1e308, 1e308])],
    ids=["huge-1d", "tiny-1d", "huge-2d"])
def test_speed_normalizes_huge_and_tiny_directions_exactly(
        tmp_path, dim, direction):
    """The direction is scaled by a power of two before its norm is taken,
    so a direction whose squared norm overflows or underflows gives the
    speed of [1] or [1, 1], bit for bit, and no warning."""
    texts = []
    for name, d in (("scaled", direction), ("unit", [1.0] * dim)):
        cfg = _write_config(tmp_path, {
            "grid": {"dim": dim, "cell_points": 8 * dim, "window_radius": 3},
            "run": {"direction": d}}, f"{name}.json")
        out = tmp_path / name
        assert main(["speed", "--config", cfg, "--out", str(out)]) == 0
        texts.append((out / "speed.json").read_bytes())
    assert texts[0] == texts[1]
    if dim == 1:
        assert json.loads(texts[0])["direction"] == [1.0]


def test_dispersion_surface_decreases_in_speed(tmp_path):
    cfg = _write_config(tmp_path, _SMALL)
    out = tmp_path / "disp"
    assert main(["dispersion", "--config", cfg, "--out", str(out)]) == 0
    header, body = _read_csv(out / "dispersion.csv")
    assert header == ["rho", "c", "lambda"]
    assert body.shape == (6, 3)
    for rho in (0.5, 1.0, 1.5):
        cut = body[body[:, 0] == rho]
        assert cut[cut[:, 1] == 0.0][0, 2] > cut[cut[:, 1] == 1.0][0, 2]


def test_simulate_classifies_spread(tmp_path):
    cfg = _write_config(tmp_path, {
        "grid": {"cell_points": 32, "window_radius": 12},
        "run": {"horizon": 40.0, "dt": 0.05},
    })
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "simulate.json").read_text())
    assert summary["outcome"] == "propagates"
    assert summary["settled"] is True
    assert summary["tail_steady_gap"] <= 1e-2
    header, body = _read_csv(out / "simulate.csv")
    assert header == ["t", "x", "u"]
    frames = np.unique(body[:, 0])
    assert frames[0] == 0.0 and len(frames) <= 41


def test_simulate_reports_the_horizon_it_marched(tmp_path):
    """A horizon that is not a whole number of steps marches to the nearest
    one; simulate.json reports that horizon, the time of the CSV's last
    frame, not the one the document asked for."""
    cfg = _write_config(tmp_path, {"grid": {"window_radius": 12},
                                   "run": {"dt": 0.03, "horizon": 1.0}})
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "simulate.json").read_text())
    _, body = _read_csv(out / "simulate.csv")
    assert summary["horizon"] == body[-1, 0] == 33 * 0.03


def test_simulate_is_not_settled_when_its_last_step_moved(tmp_path):
    """At dt = 2.5 a time unit is less than one step; settled compares the
    last frame with the one before it, and this march's last step moved u
    far beyond the drift tolerance."""
    cfg = _write_config(tmp_path, {
        "grid": {"cell_points": 16, "window_radius": 12},
        "kernel": {"decay": 0.1, "mass": 0.3},
        "run": {"dt": 2.5, "horizon": 40}})
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "simulate.json").read_text())
    _, body = _read_csv(out / "simulate.csv")
    times = np.unique(body[:, 0])
    assert times[-1] - times[-2] == 2.5
    last, before = (body[body[:, 0] == t, 2] for t in times[-2:][::-1])
    assert np.max(np.abs(last - before)) > 0.1
    assert summary["settled"] is False


def test_sir_verify_reports_gap(tmp_path):
    cfg = _write_config(tmp_path, _SMALL)
    out = tmp_path / "sir"
    assert main(["sir-verify", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "sir.json").read_text())
    assert summary["sup_difference"] <= 0.05
    assert summary["dt"] == 0.1
    assert summary["spacing"] == 1.0 / 32
    header, body = _read_csv(out / "sir.csv")
    assert header == ["t", "x", "S", "I", "u"]
    assert np.min(body[:, 2]) > 0.0
    assert np.min(body[:, 3]) >= 0.0


def test_sir_verify_freezes_a_2d_box_by_its_reach_per_axis(tmp_path):
    """A 2-D box of half-width 2.5 reaches 2.5 along each axis, though its
    Euclidean reach is 2.5 sqrt(2) = 3.54: the window of radius 3 holds the
    frozen layer of the bridged march, and the two routes agree on the
    interior it leaves."""
    cfg = _write_config(tmp_path, {
        "grid": {"dim": 2, "cell_points": 8, "window_radius": 3},
        "kernel": {"support_radius": 2.5}})
    out = tmp_path / "sir"
    assert main(["sir-verify", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "sir.json").read_text())
    assert 0.0 < summary["sup_difference"] <= 0.05
    assert (out / "sir.csv").stat().st_size > 0


def test_wave_pipeline_certifies_front(tmp_path):
    cfg = _write_config(tmp_path, {
        "grid": {"cell_points": 32, "window_radius": 40},
    })
    out = tmp_path / "wave"
    assert main(["wave", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "wave.json").read_text())
    assert summary["residual"] <= 1e-5
    assert summary["ascent"] == 0.0
    assert 0.0 < summary["rho"] < summary["rho_prime"]
    header, body = _read_csv(out / "wave.csv")
    assert header == ["xi", "x_cell", "u"]
    assert np.min(body[:, 2]) >= 0.0
    assert np.all(body[:, 1] >= 0.0) and np.all(body[:, 1] < 1.0)


def test_subwave_diag_reports_domination(tmp_path):
    cfg = _write_config(tmp_path, {
        "grid": {"cell_points": 32, "window_radius": 20},
    })
    out = tmp_path / "subwave"
    assert main(["subwave-diag", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "subwave.json").read_text())
    assert summary["dominated"] is True
    assert summary["min_slack"] >= 0.0
    assert summary["min_slack_on_support"] > 0.0
    assert summary["rho_imag"] > 0.0
    header, body = _read_csv(out / "subwave.csv")
    assert header == ["x", "bump", "image"]
    assert np.all(body[:, 2] + 1e-15 >= body[:, 1])


@pytest.mark.parametrize("slack", [0.0, np.nan])
def test_subwave_diag_dominated_needs_strict_slack_on_support(
        tmp_path, monkeypatch, slack):
    real = waves.oscillating_subsolution

    def flat(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs),
                                   min_slack_on_support=slack)

    monkeypatch.setattr(waves, "oscillating_subsolution", flat)
    cfg = _write_config(tmp_path, {
        "grid": {"cell_points": 16, "window_radius": 12},
    })
    out = tmp_path / "subwave"
    assert main(["subwave-diag", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "subwave.json").read_text())
    assert summary["min_slack"] >= 0.0
    assert summary["dominated"] is False
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["dominated"] is False


_BOX_1D = {"cell_points": 16, "window_radius": 4}
_BOX_2D = {"dim": 2, "cell_points": 8, "window_radius": 2}
_SIMULATE_1D = {"grid": {"cell_points": 16, "window_radius": 8},
                "run": {"horizon": 4.0, "tail_radius": 2.0,
                        "boundary_margin": 1.5}}
_SIMULATE_2D = {"grid": _BOX_2D,
                "run": {"horizon": 1.0, "tail_radius": 0.5,
                        "boundary_margin": 1.0}}
_SIR_1D = {"grid": _BOX_1D, "sir": {"dt": 0.1, "horizon": 2.0}}
_SIR_2D = {"grid": _BOX_2D, "sir": {"dt": 0.1, "horizon": 1.0}}


@pytest.mark.parametrize("command, doc", [
    pytest.param("threshold", {"grid": _BOX_1D}, id="threshold"),
    pytest.param("steady", {"grid": _BOX_1D}, id="steady-1d"),
    pytest.param("steady", {"grid": _BOX_2D}, id="steady-2d"),
    pytest.param("simulate", _SIMULATE_1D, id="simulate"),
    pytest.param("simulate", _SIMULATE_2D, id="simulate-2d"),
    pytest.param("wave", {"grid": {"cell_points": 16, "window_radius": 24}},
                 id="wave"),
    pytest.param("dispersion", {
        "grid": _BOX_1D,
        "run": {"rho_values": [0.5, 1.0], "c_values": [0.0, 1.0]},
    }, id="dispersion"),
    pytest.param("sir-verify", _SIR_1D, id="sir-verify-1d"),
    pytest.param("sir-verify", _SIR_2D, id="sir-verify-2d"),
    pytest.param("subwave-diag",
                 {"grid": {"cell_points": 16, "window_radius": 12}},
                 id="subwave-diag"),
])
def test_csv_artifacts_match_row_by_row_formatter(tmp_path, command, doc):
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    written = sorted(out.glob("*.csv"))
    assert written
    for path in written:
        text = path.read_text()
        lines = text.splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert rows and all(len(row) == len(rows[0]) for row in rows)
        expected = _rows_csv(lines[0].split(","), rows).splitlines()
        # report the first differing line, not a diff of the whole file
        bad = next((n for n, pair in enumerate(zip(expected, lines))
                    if pair[0] != pair[1]), None)
        assert bad is None, f"{path.name} line {bad}: {lines[bad]!r}"
        assert len(expected) == len(lines) and text.endswith("\n")


def test_csv_emitter_formats_extreme_values():
    x1 = np.array([0.0, -0.0, 0.5, -1.25, 3.0, 1e-300])
    x2 = np.array([1.0, 2.0, -3.5, 0.1, 1.0 / 3.0, -7.0])
    values = np.array([np.nan, np.inf, -np.inf, 5e-324, 1e308, -0.0])
    counts = np.arange(6)
    text = pipelines._csv(["x1", "x2", "u", "n"], x1, x2, values, counts)
    assert text == _rows_csv(["x1", "x2", "u", "n"],
                             zip(x1, x2, values, counts))
    assert text.splitlines()[1:] == [
        "0,1,nan,0",
        "-0,2,inf,1",
        "0.5,-3.5,-inf,2",
        "-1.25,0.10000000000000001,4.9406564584124654e-324,3",
        "3,0.33333333333333331,1e+308,4",
        "1e-300,-7,-0,5",
    ]

    # frames x nodes: the same text as the fully expanded table
    extremes = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, 1e-300]
    frames = np.array(extremes + [0.1])
    nodes = np.array([extremes, extremes[::-1]]).T
    n_rows = len(frames) * len(nodes)
    S = np.resize(extremes + [1.0 / 3.0], n_rows)
    u = np.resize(extremes[::-1] + [-2.5, 7.0], n_rows)
    header = ["t", "x1", "x2", "S", "u"]
    text = pipelines._csv(header, S, u, frames=frames, nodes=nodes)
    assert text == _rows_csv(header, zip(
        np.repeat(frames, len(nodes)), *np.tile(nodes, (len(frames), 1)).T,
        S, u))
    assert text.splitlines()[1:3] == [
        "-0,-0,1e-300,-0,1e-300",
        "-0,nan,1e+308,nan,1e+308",
    ]


def _spread_values(rng, size):
    """Signed values from 1e-35 to 1e20, a few of them zero or NaN."""
    values = 10.0 ** rng.uniform(-35.0, 20.0, size) * rng.choice([-1, 1], size)
    values[rng.random(size) < 0.05] = 0.0
    values[rng.random(size) < 0.01] = np.nan
    return values


def _march_rows(frames, nodes, *columns):
    """The rows of a frames x nodes march table, written out in full."""
    return zip(np.repeat(frames, len(nodes)),
               *np.tile(nodes, (len(frames), 1)).T, *columns)


@pytest.mark.parametrize("n_frames, n_nodes, dim, n_columns", [
    pytest.param(5, 1536, 1, 3, id="a-frame-per-block"),
    pytest.param(100, 50, 1, 2, id="frames-per-block"),
    pytest.param(2, 3000, 1, 3, id="a-frame-over-a-block"),
    pytest.param(7, 40, 2, 2, id="2-d-nodes"),
    pytest.param(1, 1, 1, 1, id="a-single-row"),
    pytest.param(1, 1, 2, 3, id="a-single-row-2-d"),
    pytest.param(1, 1, 2, 1, id="a-row-narrower-than-its-nodes"),
])
def test_march_csv_blocks_match_row_by_row_formatter(
        n_frames, n_nodes, dim, n_columns):
    rng = np.random.default_rng(n_frames * n_nodes + dim)
    frames = np.cumsum(rng.uniform(0.0, 0.3, n_frames))
    nodes = rng.uniform(-12.0, 12.0, (n_nodes, dim))
    columns = [_spread_values(rng, n_frames * n_nodes)
               for _ in range(n_columns)]
    header = ["t", *[f"x{d}" for d in range(dim)],
              *[f"c{j}" for j in range(n_columns)]]
    text = pipelines._csv(header, *columns, frames=frames, nodes=nodes)
    assert text == _rows_csv(header, _march_rows(frames, nodes, *columns))


# values whose '%.17g' text runs from 1 character to 24
_WIDE_AND_NARROW = np.array([
    0.0, -1.2345678901234567e-300, 7.0, -0.5, 0.10000000000000001, 12.25,
    -3e-05, 1e+16, 2.5e-07, -1.0])


@pytest.mark.parametrize("dim, n_nodes, n_columns", [
    pytest.param(1, 30, 3, id="1-d"),
    pytest.param(2, 30, 2, id="2-d"),
    pytest.param(1, pipelines._BLOCK // 2 + 7, 2, id="a-frame-over-a-block"),
    pytest.param(2, pipelines._BLOCK + 5, 1, id="a-frame-over-a-block-2-d"),
])
def test_march_csv_packs_frame_and_node_fields_of_every_width(
        dim, n_nodes, n_columns):
    """The frame and node fields are packed to their longest text: frames
    and node coordinates from '0' to '-1.2345678901234567e-300' give the
    same rows as the row-by-row formatter, also when a frame's values
    fill more than one pass of the kernel."""
    widths = sorted(len("%.17g" % v) for v in _WIDE_AND_NARROW)
    assert (widths[0], widths[-1]) == (1, 24)
    rng = np.random.default_rng(n_nodes + dim)
    frames = _WIDE_AND_NARROW[[1, 0, 2, 6, 4]]
    nodes = np.column_stack([
        np.resize(np.roll(_WIDE_AND_NARROW, axis), n_nodes)
        for axis in range(dim)])
    columns = [_spread_values(rng, len(frames) * n_nodes)
               for _ in range(n_columns)]
    header = ["t", *[f"x{d}" for d in range(dim)],
              *[f"c{j}" for j in range(n_columns)]]
    text = pipelines._csv(header, *columns, frames=frames, nodes=nodes)
    assert text == _rows_csv(header, _march_rows(frames, nodes, *columns))


def test_march_csv_with_an_all_zero_frame():
    # one frame per block, and the middle frame holds nothing but zeros
    n_nodes = pipelines._BLOCK // 2
    rng = np.random.default_rng(24)
    frames = np.array([0.0, 0.5, 1.0])
    nodes = np.linspace(-8.0, 8.0, n_nodes)[:, None]
    columns = [_spread_values(rng, 3 * n_nodes) for _ in range(2)]
    columns[0][n_nodes:2 * n_nodes] = 0.0
    columns[1][n_nodes:2 * n_nodes] = -0.0
    header = ["t", "x", "S", "u"]
    text = pipelines._csv(header, *columns, frames=frames, nodes=nodes)
    assert text == _rows_csv(header, _march_rows(frames, nodes, *columns))
    assert text.splitlines()[1 + n_nodes].endswith(",0,-0")


def test_csv_longer_than_one_block():
    # three columns: blocks of _BLOCK // 3 rows, the last one partly full
    rng = np.random.default_rng(2024)
    n_rows = 2 * (pipelines._BLOCK // 3) + 17
    columns = [_spread_values(rng, n_rows) for _ in range(3)]
    text = pipelines._csv(["a", "b", "c"], *columns)
    assert text == _rows_csv(["a", "b", "c"], zip(*columns))


def _traced_peak(make):
    """make()'s result and the peak of memory it allocated beside what was
    held when it began, by tracemalloc."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        made = make()
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return made, peak


def test_a_wave_sized_csv_holds_little_beside_its_text():
    """A table of 16 slices x 2560 nodes x 3 columns, as wave.csv, peaks
    at the text twice (the blocks' strings and their join) and half a
    megabyte: no copy of the table is made, each block stacks its own
    rows, and the kernel's workspace is made once per table and let go
    before the join."""
    rng = np.random.default_rng(29)
    n = 16 * 2560
    xi = np.linspace(-40.0, 40.0, n)
    columns = [xi, np.tile(np.linspace(0.0, 1.0, 2560), 16),
               rng.random(n) * np.exp(-np.abs(xi))]
    text, peak = _traced_peak(
        lambda: pipelines._csv(["xi", "x_cell", "u"], *columns))
    assert peak <= 2 * len(text) + 2**19


def test_a_sir_sized_csv_holds_little_beside_its_text():
    """41 frames x 1536 nodes x 3 columns, as sir.csv at cell 64 and
    window 12, holds no more: the frame and node fields are packed once,
    and a block is one frame."""
    rng = np.random.default_rng(30)
    frames = 0.1 * np.arange(41)
    nodes = (np.arange(1536)[:, None] + 0.5) / 64.0 - 12.0
    columns = [rng.random(41 * 1536) for _ in range(3)]
    text, peak = _traced_peak(lambda: pipelines._csv(
        ["t", "x", "S", "I", "u"], *columns, frames=frames, nodes=nodes))
    assert len(text.splitlines()) == 1 + 41 * 1536
    assert peak <= 2 * len(text) + 2**19


def test_simulate_lets_its_trajectory_go_before_its_text(tmp_path):
    """On a march-io-sized document (cell 64, window 12, 801 steps) the
    pipeline's peak stays below the trajectory's bytes plus one copy of
    its text: the march is released before the table is formatted, whose
    text is then held twice (its blocks and their join)."""
    cfg = load_scenario(_write_config(
        tmp_path, {"grid": {"cell_points": 64, "window_radius": 12}}))
    (artifacts, _), peak = _traced_peak(lambda: pipelines.run_simulate(cfg))
    trajectory = (round(cfg.horizon / cfg.dt) + 1) * cfg.grid.n_window * 8
    assert trajectory == 801 * 1536 * 8
    assert peak < trajectory + len(artifacts["simulate.csv"])


def test_wave_lets_its_solver_state_go_before_its_text(monkeypatch):
    """On speed-front's wave document (cell 32, window 40, 16 slices) the
    pipeline holds little beside wave.csv's three columns when its text
    begins, and its peak stays below the solver's own plus one copy of the
    text: the speed search, the certificate pair with its slab operator
    and the solution are released before the table is formatted, whose
    text is then held twice (its blocks and their join)."""
    cfg = scenario.scenario_from_dict({"grid": {"cell_points": 32,
                                                "window_radius": 40}})
    at_text = []
    real = pipelines._csv

    def csv(*args, **kwargs):
        at_text.append(tracemalloc.get_traced_memory())
        return real(*args, **kwargs)

    monkeypatch.setattr(pipelines, "_csv", csv)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        artifacts, _ = pipelines.run_wave(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    (held, solver_peak), = at_text
    columns = 3 * cfg.slices * cfg.grid.n_window * 8
    assert columns == 3 * 16 * 2560 * 8
    assert held - base < columns + 2**16
    assert peak < solver_peak - base + len(artifacts["wave.csv"])


def test_csv_on_both_sides_of_the_exact_range():
    # below 1e-28 and from 1e17 up the text comes from '%.17g' itself
    edges = []
    for edge in (1e-28, 1e17):
        below = above = edge
        for _ in range(5):
            below, above = np.nextafter(below, 0), np.nextafter(above, np.inf)
            edges += [below, above]
        edges += [edge, edge / 10, edge * 10]
    edges = np.array(edges)
    text = pipelines._csv(["v", "w"], edges, -edges)
    assert text == _rows_csv(["v", "w"], zip(edges, -edges))
    assert pipelines._csv([], [1e17, 9.9999999999999984e16]).split() == [
        "1e+17", "99999999999999984"]


def test_csv_of_a_single_row():
    text = pipelines._csv(["a", "b", "c"], [0.1], [-0.0], [2.5e-7])
    assert text == _rows_csv(["a", "b", "c"], [(0.1, -0.0, 2.5e-7)])
    assert text == "a,b,c\n0.10000000000000001,-0,2.4999999999999999e-07\n"


@pytest.mark.parametrize("command, doc", [
    pytest.param("simulate", _SIMULATE_1D, id="simulate-1d"),
    pytest.param("simulate", _SIMULATE_2D, id="simulate-2d"),
    pytest.param("sir-verify", _SIR_1D, id="sir-verify-1d"),
    pytest.param("sir-verify", _SIR_2D, id="sir-verify-2d"),
])
def test_march_csv_row_pairs_frame_time_window_node_and_values(
        tmp_path, command, doc):
    """Row f * n_window + j of simulate.csv / sir.csv carries the f-th
    written frame time, window node j and that frame's values at node j."""
    path = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 0
    cfg = load_scenario(path)
    if command == "simulate":
        grid = cfg.grid
        field = dynamics.solve_initial_value(
            cfg.kernel, cfg.forcing, cfg.response, grid, dt=cfg.dt,
            horizon=cfg.horizon)
        times = cfg.dt * np.arange(field.values.shape[0])
        series = [field.values]
        name, value_columns = "simulate.csv", ["u"]
    else:
        grid = cfg.sir.grid
        sim = simulate_sir(cfg.sir, dt=cfg.sir_dt, horizon=cfg.sir_horizon)
        times = sim.times
        series = [sim.S, sim.I, sim.log_attack()]
        name, value_columns = "sir.csv", ["S", "I", "u"]
    stride = pipelines._time_stride(len(times))
    frames = times[::stride]
    assert len(frames) > 1

    header, body = _read_csv(out / name)
    node_columns = ["x"] if grid.dim == 1 else ["x1", "x2"]
    assert header == ["t"] + node_columns + value_columns
    assert body.shape[0] == len(frames) * grid.n_window
    table = body.reshape(len(frames), grid.n_window, len(header))
    for f, t in enumerate(frames):
        assert np.all(table[f, :, 0] == t)
        assert np.array_equal(table[f, :, 1:1 + grid.dim], grid.window_nodes)
        for k, values in enumerate(series):
            assert np.array_equal(table[f, :, 1 + grid.dim + k],
                                  values[f * stride])


@pytest.mark.parametrize("command, doc", [
    ("simulate", {"run": {"dt": 1e-9}}),
    ("simulate", {"run": {"horizon": 1e12}}),
    ("sir-verify", {"sir": {"dt": 1e-9}}),
    ("sir-verify", {"sir": {"horizon": 1e12}}),
])
def test_oversized_march_exits_2_without_files(tmp_path, capsys, command,
                                               doc):
    cfg = _write_config(tmp_path, {
        "grid": {"cell_points": 32, "window_radius": 12}, **doc})
    out = tmp_path / "should_not_exist"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(MAX_TRAJECTORY_VALUES) in err


@pytest.mark.parametrize("command", sorted(pipelines.COMMANDS))
@pytest.mark.parametrize("grid", [
    {"window_radius": 10**21},
    {"window_radius": 10**8},
    {"window_radius": 513},  # 65,664 window nodes, one cell past the limit
    {"dim": 2, "cell_points": 128, "window_radius": 2},
])
def test_oversized_window_exits_2_without_files(tmp_path, capsys, command,
                                                grid):
    cfg = _write_config(tmp_path, {"grid": grid})
    out = tmp_path / "should_not_exist"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(MAX_WINDOW_NODES) in err


@pytest.mark.parametrize("command", sorted(pipelines.COMMANDS))
@pytest.mark.parametrize("grid", [
    # each window holds 65,536 nodes, within its bound; the cells would
    # need pair arrays of gigabytes
    {"dim": 2, "cell_points": 128, "window_radius": 1},
    {"cell_points": 32768, "window_radius": 1},
])
def test_oversized_cell_exits_2_without_files(tmp_path, capsys, command, grid):
    cfg = _write_config(tmp_path, {"grid": grid})
    out = tmp_path / "should_not_exist"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(MAX_CELL_BYTES) in err


@pytest.mark.parametrize("command", sorted(pipelines.COMMANDS))
@pytest.mark.parametrize("doc", [
    {"kernel": {"support_radius": 1e6}},
    # (2 * 32 + 1)**2 images of 64**2 node pairs: 138,510,336 bytes
    {"kernel": {"support_radius": 32},
     "grid": {"dim": 2, "cell_points": 8, "window_radius": 2}},
])
def test_oversized_kernel_reach_exits_2_without_files(tmp_path, capsys,
                                                      command, doc):
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "should_not_exist"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(MAX_CELL_BYTES) in err


def test_kernel_reach_within_the_cell_budget_loads(tmp_path):
    # (2 * 31 + 1)**2 images of 64**2 node pairs: 130,121,728 bytes
    cfg = load_scenario(_write_config(tmp_path, {
        "kernel": {"support_radius": 31},
        "grid": {"dim": 2, "cell_points": 8, "window_radius": 2}}))
    assert cfg.kernel.half_width == 31.0


@pytest.mark.parametrize("command", sorted(pipelines.COMMANDS))
@pytest.mark.parametrize("window", [8, 16])
def test_window_gather_over_the_cell_budget_exits_2_without_files(
        tmp_path, capsys, command, window):
    """At reach 31 a product over the window of radius 8 would gather 496
    MB per column, and at 16 1984 MB: load refuses both before it builds
    anything, while radius 2 (31 MB) loads."""
    cfg = _write_config(tmp_path, {
        "kernel": {"support_radius": 31},
        "grid": {"dim": 2, "cell_points": 8, "window_radius": window}})
    out = tmp_path / "should_not_exist"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"gathers {(2 * window) ** 2 * 63**2 * 64 * 8} bytes" in err
    assert str(MAX_CELL_BYTES) in err


def test_overflowing_decay_rate_exits_2_without_files_or_warnings(tmp_path):
    """A dispersion rate whose tilt would overflow is refused by name,
    before any exponential runs: nothing written and no numpy warning, in
    a child with the default warning filters."""
    cfg = _write_config(tmp_path, {"run": {"rho_values": [0.5, 800.0]}})
    out = tmp_path / "should_not_exist"
    src = os.path.dirname(os.path.dirname(epiwave.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONWARNINGS", None)
    run = subprocess.run(
        [sys.executable, "-m", "epiwave.app.cli", "dispersion", "--config",
         cfg, "--out", str(out)], env=env, capture_output=True, text=True)
    assert run.returncode == 2, run.stderr
    assert not out.exists()
    assert "Warning" not in run.stderr and "Traceback" not in run.stderr
    assert "decay rate" in run.stderr and "got 800.0" in run.stderr


def test_a_rate_whose_tilt_stays_finite_is_evaluated(tmp_path):
    """At reach 45 the tilt stays finite up to a rate of about 15, so rate 8
    (the top of the speed search's default grid) is evaluated, not
    refused; a speed this large brings its eigenvalue near one."""
    cfg = _write_config(tmp_path, {
        "kernel": {"support_radius": 45},
        "run": {"rho_values": [8.0], "c_values": [1e153]}})
    out = tmp_path / "out"
    assert main(["dispersion", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "dispersion.csv").read_text().splitlines()
    assert rows[0] == "rho,c,lambda" and len(rows) == 2
    assert 0.5 < float(rows[1].split(",")[2]) < 1.0


# Run in a child: ru_maxrss (KiB on Linux) after importing the CLI and its
# pipelines, then after one command; prints the exit code and the growth
# in bytes.
_PEAK_GROWTH = """
import json, resource, sys
import epiwave.app.cli, epiwave.app.pipelines
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = epiwave.app.cli.main(sys.argv[1:])
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps([code, (after - before) * 1024]))
"""


@pytest.mark.parametrize("command, code, budget", [
    ("threshold", 0, 0.1),
    ("steady", 0, 0.1),
    ("speed", 0, 0.05),
    ("dispersion", 0, 0.1),
    ("simulate", 2, 0.1),
    ("sir-verify", 2, 0.1),
])
def test_cell_budget_bounds_peak_memory(tmp_path, command, code, budget):
    """The largest reach the cell budget admits (a 2-D cell of 8 x 8 at
    reach 31, whose image table would take 130 MB) grows peak RSS by a
    small fraction of MAX_CELL_BYTES: a 2-D box's matrices go axis by
    axis, and its cell matrix, plain or tilted, is the Kronecker product
    of its line table's sums, so no command makes an image table.
    simulate and sir-verify refuse its window, too small for the reach and
    for simulate's tail, before they build anything."""
    cfg = _write_config(tmp_path, {
        "kernel": {"support_radius": 31},
        "grid": {"dim": 2, "cell_points": 8, "window_radius": 2}})
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(epiwave.__file__))
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", _PEAK_GROWTH, command, "--config", cfg,
         "--out", str(out)],
        env=env, capture_output=True, text=True, check=True)
    exit_code, growth = json.loads(run.stdout.splitlines()[-1])
    assert exit_code == code, run.stderr
    assert out.exists() == (code == 0)
    assert growth <= budget * MAX_CELL_BYTES


@pytest.mark.parametrize("command", sorted(pipelines.COMMANDS))
@pytest.mark.parametrize("doc", [
    {"sir": {"susceptible": "1 + 0.05*x"}},
    {"kernel": {"source": "1 + 0.5*sin(x)"}},
    {"kernel": {"target": "exp(-x*x)"}},
    {"kernel": {"decay": "2 + 0.1*x2"}, "grid": {"dim": 2, "cell_points": 8,
                                                 "window_radius": 2}},
])
def test_non_periodic_heterogeneity_exits_2_without_files(tmp_path, capsys,
                                                          command, doc):
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "should_not_exist"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "period 1" in err


def test_periodic_heterogeneities_load(tmp_path):
    cfg = load_scenario(_write_config(tmp_path, {
        "grid": {"dim": 2, "cell_points": 12, "window_radius": 3},
        "kernel": {"source": "1 + 0.5*cos(2*pi*(x1 - 0.3))*sin(2*pi*x2)",
                   "target": "exp(3*cos(4*pi*x2))",
                   "decay": 1.5},
        "sir": {"susceptible": "2 - cos(2*pi*x1)*cos(2*pi*x1)"}}))
    assert cfg.kernel.dim == 2
    with pytest.raises(ValidationError, match="not finite"):
        load_scenario(_write_config(tmp_path, {
            "kernel": {"source": "exp(1000*cos(2*pi*x))"}}, "inf.json"))


def test_malformed_config_exits_2_without_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    out = tmp_path / "should_not_exist"
    assert main(["threshold", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()

    schema = _write_config(tmp_path, {"grid": {"cell_points": "lots"}},
                           "schema.json")
    assert main(["threshold", "--config", schema, "--out", str(out)]) == 2
    assert not out.exists()

    extra = _write_config(tmp_path, {"grid": {}, "mystery": {}}, "extra.json")
    assert main(["threshold", "--config", extra, "--out", str(out)]) == 2
    assert not out.exists()


def test_numerical_failure_exits_1_with_diagnostic(tmp_path, monkeypatch):
    # a subsolution coefficient that the doubling cannot find below its cap
    # is a solver failure: the run must fail loudly and leave the rates it
    # tried behind
    monkeypatch.setattr(waves.profile, "_M_CAP", 1.0)
    cfg = _write_config(tmp_path, {
        "grid": {"cell_points": 32, "window_radius": 40},
        "run": {"speed_factor": 1.0005},
    })
    out = tmp_path / "near"
    assert main(["wave", "--config", cfg, "--out", str(out)]) == 1
    failure = json.loads((out / "failure.json").read_text())
    assert failure["error"] == "ConvergenceError"
    assert "subsolution coefficient" in failure["message"]
    assert len(failure["details"]["curve"]) == 3
    assert not (out / "wave.csv").exists()


@pytest.mark.parametrize("doc", [
    {"kernel": {"support_radius": 3}},
    {"grid": {"cell_points": 32, "window_radius": 40},
     "run": {"speed_factor": 1.0005}},
], ids=["reach-3", "near-minimal-speed"])
def test_front_window_too_narrow_exits_2_without_files(tmp_path, capsys, doc):
    """A subsolution whose positive band does not fit the window is mended
    by a larger window: the input is refused, nothing is written."""
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "should_not_exist"
    assert main(["wave", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "enlarge the window" in err
    assert "Traceback" not in err


def test_failure_json_carries_solver_details(tmp_path, monkeypatch):
    def stuck(cfg):
        err = ConvergenceError("no decay rate has eigenvalue below one")
        err.curve = [(np.float64(0.5), np.float64(1.25)), (0.75, 1.5)]
        err.node = np.float64(-2.5)
        err.slack = -3e-4
        raise err

    monkeypatch.setitem(pipelines.COMMANDS, "wave", stuck)
    cfg = _write_config(tmp_path, {})
    out = tmp_path / "stuck"
    assert main(["wave", "--config", cfg, "--out", str(out)]) == 1
    failure = json.loads((out / "failure.json").read_text())
    assert failure["details"] == {"curve": [[0.5, 1.25], [0.75, 1.5]],
                                  "node": -2.5, "slack": -3e-4}
    assert failure["config_sha256"] == hashlib.sha256(b"{}").hexdigest()


def test_speed_search_cap_writes_its_data(tmp_path, monkeypatch):
    # the box medium's c* = 1.23 lies past a cap of 0.5
    monkeypatch.setattr(waves.dispersion, "_C_MAX", 0.5)
    cfg = _write_config(tmp_path, {})
    out = tmp_path / "capped"
    assert main(["speed", "--config", cfg, "--out", str(out)]) == 1
    failure = json.loads((out / "failure.json").read_text())
    assert "no speed up to 0.5" in failure["message"]
    details = failure["details"]
    assert sorted(details) == ["c_max", "last_minimum", "rho"]
    assert details["c_max"] == 0.5 and details["last_minimum"] > 1.0
    assert details["rho"] > 0.0


def test_power_iteration_stall_writes_its_data(tmp_path, monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_ITER", 2)
    cfg = _write_config(tmp_path, {})
    out = tmp_path / "stall"
    assert main(["threshold", "--config", cfg, "--out", str(out)]) == 1
    failure = json.loads((out / "failure.json").read_text())
    assert "power iteration stalled" in failure["message"]
    details = failure["details"]
    assert sorted(details) == ["iterations", "residual", "tol", "value"]
    assert details["iterations"] == 2
    assert details["tol"] == spectral.DEFAULT_EIGEN_TOL < details["residual"]
    assert details["value"] > 0.0


_INVALID_MODELS = [
    {"kernel": {"source": "-1"}},
    {"kernel": {"target": "cos(2*pi*x)"}},
    {"sir": {"susceptible": "-1"}},
    {"sir": {"seed_radius": -1}},
    {"forcing": {"rate": -1}},
    {"run": {"tol": 0}},
    {"run": {"wave_tol": 0}},
    {"run": {"speed_factor": 1}},
    {"run": {"sub_speed_factor": 1}},
    {"run": {"direction": [0.0]}},
]


@pytest.mark.parametrize("command", sorted(pipelines.COMMANDS))
def test_negative_kernel_exits_2_without_files(tmp_path, capsys, command):
    """Models outside the theory's hypotheses are refused at load, by
    every command alike."""
    for n, doc in enumerate(_INVALID_MODELS):
        cfg = _write_config(tmp_path, doc, f"doc{n}.json")
        out = tmp_path / f"should_not_exist{n}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2, doc
        assert not out.exists(), doc
        assert "Traceback" not in capsys.readouterr().err, doc


def test_simulate_refuses_its_tail_before_the_march(tmp_path, capsys,
                                                    monkeypatch):
    def no_march(*args, **kwargs):
        raise AssertionError("the march ran")

    monkeypatch.setattr(dynamics, "solve_initial_value", no_march)
    cfg = _write_config(tmp_path, {})
    out = tmp_path / "should_not_exist"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert "tail radius 6.0 leaves no nodes" in capsys.readouterr().err


def test_simulate_refuses_a_tail_inside_the_frozen_layer(tmp_path, capsys):
    """At reach 7 the march freezes |x| > 5 of a window of radius 12; the
    default tail, from 6R = 42 and 4.5R from the edge, holds no marched
    node, so simulate refuses instead of reading frozen zeros."""
    cfg = _write_config(tmp_path, {
        "grid": {"cell_points": 16, "window_radius": 12},
        "kernel": {"mass": 2.6642, "support_radius": 7}})
    out = tmp_path / "should_not_exist"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "tail radius 42.0 leaves no nodes" in err
    assert "Traceback" not in err


def test_simulate_refuses_a_tail_that_catches_no_node(tmp_path, capsys):
    """A tail radius below the layer's inner edge, 7, but above the last
    node inside it, 6.9375, leaves an empty tail: a refusal, not a
    traceback."""
    cfg = _write_config(tmp_path, {
        "grid": {"cell_points": 8, "window_radius": 8},
        "run": {"tail_radius": 6.95, "boundary_margin": 1.0}})
    out = tmp_path / "should_not_exist"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "tail radius 6.95 leaves no nodes" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("reach, window", [(2, 23), (3, 33)])
def test_simulate_tail_scales_with_the_reach(tmp_path, reach, window):
    """The default tail, from 6R and 4.5R from the edge, lies past the
    front's wake and the frozen layer's dip: a supercritical box reads
    propagates, and the verdict follows from simulate.json's own numbers."""
    cfg = _write_config(tmp_path, {
        "grid": {"cell_points": 16, "window_radius": window},
        "kernel": {"mass": 2.0, "support_radius": reach}})
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "simulate.json").read_text())
    assert summary["outcome"] == "propagates"
    assert summary["tail_steady_gap"] < 1e-3
    verdict = dynamics.classify_outcome(summary["tail_min"],
                                        summary["tail_max"],
                                        summary["tail_steady_gap"], 1e-2)
    assert verdict.value == summary["outcome"]


_COMMANDS_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from epiwave.app.cli import main
config, out, *commands = sys.argv[1:]
print(json.dumps({command: main([command, "--config", config,
                                 "--out", f"{out}/{command}"])
                  for command in commands}))
"""


def test_commands_run_without_scipy(tmp_path):
    """The program needs numpy alone: with scipy unimportable every
    command gives its usual exit code on {} and prints no traceback."""
    cfg = _write_config(tmp_path, {})
    src = os.path.dirname(os.path.dirname(epiwave.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", _COMMANDS_WITHOUT_SCIPY, cfg,
         str(tmp_path / "out"), *pipelines.COMMANDS],
        env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    codes = json.loads(run.stdout.splitlines()[-1])
    assert codes == {command: 2 if command in ("simulate", "subwave-diag")
                     else 0 for command in pipelines.COMMANDS}


@pytest.mark.parametrize("command", sorted(pipelines.COMMANDS))
def test_default_document(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, {})
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out)])
    if command in ("simulate", "subwave-diag"):
        # the default tail radius and oscillation band do not fit the
        # default window of radius 8
        assert code == 2
        assert not out.exists()
    else:
        assert code == 0
    assert "Traceback" not in capsys.readouterr().err


def test_each_expression_is_compiled_once_per_load(tmp_path, monkeypatch):
    compiled = []
    real = scenario.parse_expression

    def counting(text, dim=1):
        compiled.append(text)
        return real(text, dim)

    monkeypatch.setattr(scenario, "parse_expression", counting)
    texts = {"source": "1 + 0.5*cos(2*pi*x)", "target": "2",
             "decay": "1 + 0.25*sin(2*pi*x)",
             "susceptible": "1 + 0.3*cos(2*pi*x)"}
    cfg = load_scenario(_write_config(tmp_path, {
        "kernel": {k: texts[k] for k in ("source", "target", "decay")},
        "sir": {"susceptible": texts["susceptible"]}}))
    assert sorted(compiled) == sorted(texts.values())
    # one kernel serves the renewal solvers and the SIR state
    assert cfg.sir.kernel is cfg.kernel


def test_wave_slab_beyond_the_march_budget_exits_2_without_files(
        tmp_path, capsys, monkeypatch):
    # 16 slices over 768 window and 16 ghost-cell nodes: 12,544 values
    budget = 16 * (768 + 16) - 1
    monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_VALUES", budget)
    cfg = _write_config(tmp_path, {
        "grid": {"cell_points": 16, "window_radius": 24}})
    out = tmp_path / "should_not_exist"
    assert main(["wave", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(budget) in err


@pytest.mark.parametrize("command", ["wave", "subwave-diag"])
def test_front_commands_refuse_the_document_before_the_speed_search(
        tmp_path, capsys, monkeypatch, command):
    """Fronts and bumps are built on 1-D windows in a frame that runs
    along +x. A 2-D grid or a 1-D direction along -x is refused from the
    document alone, before the speed search, rather than pairing the
    speed with a profile it does not fit."""
    def no_search(*args, **kwargs):
        raise AssertionError("the speed search ran")

    monkeypatch.setattr(waves, "minimal_speed", no_search)
    for n, (doc, message) in enumerate([
            ({"grid": {"cell_points": 32, "window_radius": 20},
              "kernel": {"source": "1 + 0.5*cos(2*pi*x)",
                         "decay": "1 + 0.25*sin(2*pi*x)"},
              "run": {"direction": [-1]}}, "+x only"),
            ({"grid": {"dim": 2, "cell_points": 8, "window_radius": 4}},
             "one-dimensional windows")]):
        cfg = _write_config(tmp_path, doc, f"doc{n}.json")
        out = tmp_path / f"should_not_exist{n}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in err, err


_REFUSED_AT_LOAD = [
    ({"kernel": {"source": "(" * 250 + "1" + ")" * 250}}, "kernel.source"),
    ({"kernel": {"decay": "-" * 2000 + "1"}}, "kernel.decay"),
    # zero at the first node of the 64-point cell, positive between nodes
    ({"kernel": {"decay": "sin(pi*(x-0.0078125))*sin(pi*(x-0.0078125))"}},
     "kernel.decay"),
    ({"sir": {"susceptible": "exp(" * 101 + "0" + ")" * 101}},
     "sir.susceptible"),
    ({"sir": {"seed_radius": 0.001}}, "sir.seed_radius"),
    ({"sir": {"seed_amplitude": 0}}, "sir.seed_amplitude"),
    ({"run": {"c_values": [-1]}}, "run.c_values"),
    ({"run": {"rho_values": [0.5, -0.5]}}, "run.rho_values"),
]


@pytest.mark.parametrize("command", sorted(pipelines.COMMANDS))
def test_documents_refused_at_load_exit_2_without_files(tmp_path, capsys,
                                                        command):
    """Expressions nested too deep, a decay rate that vanishes at a cell
    node, a SIR seed that seeds no node and negative dispersion rates or
    speeds: every command refuses them at load, naming the key."""
    for n, (doc, key) in enumerate(_REFUSED_AT_LOAD):
        cfg = _write_config(tmp_path, doc, f"doc{n}.json")
        out = tmp_path / f"should_not_exist{n}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2, key
        assert not out.exists(), key
        err = capsys.readouterr().err
        assert "Traceback" not in err, key
        assert key in err, err


def _left_to_right(operands, ops):
    acc = operands[0]
    for op, v in zip(ops, operands[1:]):
        acc = {"+": acc + v, "-": acc - v, "*": acc * v}[op]
    return acc


def test_long_sums_and_products_evaluate_left_to_right():
    """A flat chain of any length evaluates without recursion, and in the
    order of the nested binary form, so values are bit for bit the same."""
    X = np.linspace(-1.0, 2.0, 7)[:, None]
    x = X[:, 0]
    n = 1500
    terms = [0.1 * (k % 7) for k in range(n)]
    signs = ["+-"[k % 2] for k in range(n - 1)]
    text = str(terms[0]) + "".join(f"{op}{t}*x" for op, t in
                                   zip(signs, terms[1:]))
    expected = _left_to_right([terms[0]] + [t * x for t in terms[1:]], signs)
    assert np.array_equal(parse_expression(text, 1)(X), expected)
    factors = [1.0 + 1e-4 * k for k in range(n)]
    text = "*".join(f"{f}*x" if k % 100 == 0 else str(f)
                    for k, f in enumerate(factors))
    expected = _left_to_right(
        [f * x if k % 100 == 0 else f for k, f in enumerate(factors)],
        ["*"] * (n - 1))
    assert np.array_equal(parse_expression(text, 1)(X), expected)


def test_expression_nesting_is_bounded():
    X = np.linspace(-1.0, 2.0, 7)[:, None]
    deep = scenario._MAX_NESTING
    for text in ("(" * deep + "x" + ")" * deep, "-" * deep + "x",
                 "sin(" * deep + "x" + ")" * deep):
        parse_expression(text, 1)(X)
        with pytest.raises(ValidationError, match="nests deeper"):
            parse_expression(text.replace("x", "(x)"), 1)
    assert np.array_equal(parse_expression("-(-(-x))", 1)(X), -X[:, 0])


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, doc", [
    ("threshold", {"kernel": {"mass": _NAN}}),
    ("threshold", {"run": {"tol": _NAN}}),
    ("threshold", {"kernel": {"support_radius": _INF}}),
    ("threshold", {"kernel": {"source": "1 + 1e999*x"}}),
    ("threshold", {"kernel": {"mass": 10**400}}),
    ("steady", {"kernel": {"decay": _NAN}}),
    ("steady", {"kernel": {"support_radius": -1.0}}),
    ("speed", {"kernel": {"support_radius": 0}}),
    ("speed", {"run": {"direction": [-_INF]}}),
    ("dispersion", {"run": {"rho_values": [_NAN]}}),
    ("dispersion", {"run": {"c_values": [0.0, _INF]}}),
    ("simulate", {"grid": {"cell_points": 4}}),
    ("sir-verify", {"sir": {"horizon": _NAN}}),
    ("wave", {"run": {"speed_factor": _INF}}),
    ("subwave-diag", {"grid": {"cell_points": 7}}),
])
def test_out_of_range_numbers_exit_2_without_files(tmp_path, capsys, command,
                                                   doc):
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "should_not_exist"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert "Traceback" not in capsys.readouterr().err


def test_unknown_command_rejected(tmp_path):
    cfg = _write_config(tmp_path, {})
    with pytest.raises(SystemExit) as err:
        main(["mystery-mode", "--config", cfg])
    assert err.value.code == 2


def test_config_output_field_used_when_out_flag_absent(tmp_path):
    target = tmp_path / "from_config"
    cfg = _write_config(tmp_path, {**_SMALL, "output": str(target)})
    assert main(["speed", "--config", cfg]) == 0
    assert (target / "speed.json").exists()


def test_expression_language():
    X = np.linspace(-1.0, 2.0, 7)[:, None]
    fn = parse_expression("1 + 0.5*cos(2*pi*x)", 1)
    assert np.allclose(fn(X), 1.0 + 0.5 * np.cos(2 * np.pi * X[:, 0]))
    assert np.allclose(parse_expression("2*exp(-x)", 1)(X),
                       2.0 * np.exp(-X[:, 0]))
    assert np.allclose(parse_expression("-x*x + 3", 1)(X),
                       3.0 - X[:, 0] ** 2)
    assert np.allclose(parse_expression(1.5, 1)(X), 1.5)
    Y = np.stack([X[:, 0], 2.0 * X[:, 0]], axis=1)
    assert np.allclose(parse_expression("sin(x1)*sin(x2)", 2)(Y),
                       np.sin(Y[:, 0]) * np.sin(Y[:, 1]))


def test_expression_language_rejects_junk():
    for text in ("1 +", "sin 3", "x2", "foo(3)", "1/2", "(1 + 2", "", "1 2"):
        with pytest.raises(ValidationError):
            parse_expression(text, 1)
    with pytest.raises(ValidationError):
        parse_expression(True, 1)


def test_scenario_defaults_round_trip(tmp_path):
    cfg = load_scenario(_write_config(tmp_path, {}))
    grid = cfg.grid
    assert grid.dim == 1 and grid.cell_points == 64 and grid.window_radius == 8
    kernel = cfg.kernel
    assert kernel.half_width == 1.0
    assert cfg.response.bound == 1.0
    # the default bump: amplitude 1 at the origin, radius 2
    limit = cfg.forcing(np.array([[0.0], [1.0], [2.0]]))(np.inf)
    assert np.allclose(limit, [1.0, 0.5, 0.0], rtol=0.0, atol=1e-15)
    state = cfg.sir
    assert state.grid.n_window == grid.n_window
    with pytest.raises(ValidationError, match="direction"):
        load_scenario(_write_config(tmp_path,
                                    {"run": {"direction": [1.0, 0.0]}},
                                    "dir.json"))
