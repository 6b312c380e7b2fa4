"""Command-line surface: exit codes, artifacts, manifests, determinism."""

import hashlib
import json
import os

import numpy as np
import pytest

from epiwave.app import pipelines
from epiwave.app.cli import main
from epiwave.app.scenario import load_scenario, parse_expression
from epiwave.errors import ConvergenceError, ValidationError

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


_SMALL = {
    "grid": {"cell_points": 32, "window_radius": 6},
    "run": {"rho_values": [0.5, 1.0, 1.5], "c_values": [0.0, 1.0]},
    "sir": {"dt": 0.1, "horizon": 2.0},
}


def test_threshold_writes_artifacts_and_manifest(tmp_path):
    cfg = _write_config(tmp_path, _SMALL)
    out = tmp_path / "out"
    assert main(["threshold", "--config", cfg, "--out", str(out)]) == 0

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
    assert {"epiwave", "numpy", "scipy", "python"} <= set(manifest["versions"])


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


def test_numerical_failure_exits_1_with_diagnostic(tmp_path):
    # just above the minimal speed the subsolution certificate cannot fit
    # the slab; the run must fail loudly and leave a diagnostic behind
    cfg = _write_config(tmp_path, {
        "grid": {"cell_points": 32, "window_radius": 40},
        "run": {"speed_factor": 1.0005},
    })
    out = tmp_path / "near"
    assert main(["wave", "--config", cfg, "--out", str(out)]) == 1
    failure = json.loads((out / "failure.json").read_text())
    assert failure["error"] == "ConvergenceError"
    assert "window" in failure["message"]
    assert not (out / "wave.csv").exists()


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


@pytest.mark.parametrize("command",
                         ["threshold", "steady", "speed", "dispersion"])
def test_negative_kernel_exits_2_without_files(tmp_path, command):
    cfg = _write_config(tmp_path, {"kernel": {"source": "-1"}})
    out = tmp_path / "should_not_exist"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


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


def test_thread_cap_applies(tmp_path, monkeypatch):
    monkeypatch.setenv("EPIWAVE_THREADS", "1")
    cfg = _write_config(tmp_path, _SMALL)
    out = tmp_path / "threads"
    assert main(["speed", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "speed.json").exists()


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
    assert cfg.dim == 1 and cfg.cell_points == 64 and cfg.window_radius == 8
    grid = cfg.build_grid()
    kernel = cfg.build_kernel()
    assert kernel.support_radius == 1.0
    assert cfg.build_response().bound == 1.0
    assert cfg.build_forcing().support_radius == 2.0
    state = cfg.build_sir_state()
    assert state.grid.n_window == grid.n_window
    with pytest.raises(ValidationError, match="direction"):
        load_scenario(_write_config(tmp_path,
                                    {"run": {"direction": [1.0, 0.0]}},
                                    "dir.json"))
