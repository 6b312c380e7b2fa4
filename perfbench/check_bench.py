"""The benchmark's own checks: tracer completeness, the work counts measured
on reference documents, and counters that repeat exactly.

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps it out of the repository's default test collection;
it forks CLI calls and takes about a minute.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

cli = bench.import_program()

# Binding sites named when the benchmark was defined; install() must find
# each of them (it may find more).
EXPECTED_SITES = [
    *[(m, "principal_eigenpair") for m in (
        "epiwave.spectral", "epiwave.steady", "epiwave.waves.dispersion",
        "epiwave.waves.profile")],
    *[(m, "window_pair_matrix") for m in (
        "epiwave.domain.kernels", "epiwave.dynamics", "epiwave.sir",
        "epiwave.waves.profile", "epiwave.waves.oscillation")],
    *[(m, "periodize_kernel") for m in (
        "epiwave.domain.kernels", "epiwave.waves.dispersion", "epiwave",
        "epiwave.domain")],
    ("epiwave.dynamics", "solve_initial_value"),
    ("epiwave.sir", "solve_initial_value"),
    *[(m, "minimal_speed") for m in (
        "epiwave.waves.dispersion", "epiwave.waves", "epiwave.waves.profile")],
    *[("epiwave.app.pipelines.COMMANDS", c) for c in bench.COMMANDS],
]


def _traced_call(tmp_path, command, doc):
    config = tmp_path / "doc.json"
    config.write_text(json.dumps(doc))
    spans = tmp_path / "spans.json"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, code, _ = bench.run_call(
            cli.main, [command, "--config", str(config),
                       "--out", str(tmp_path / "out")],
            str(tmp_path / "err"), tracer=tracer, span_path=str(spans))
    finally:
        tracer.uninstall()
    assert code == 0, (tmp_path / "err").read_text()
    return tracing.layer_metrics(tracing.aggregate([str(spans)]))


def test_install_wraps_every_binding_site():
    tracer = tracing.Tracer()
    before = tracer.binding_sites()
    assert set(EXPECTED_SITES) <= set(before)
    tracer.install()
    try:
        assert tracer.unwrapped_sites() == []
    finally:
        tracer.uninstall()
    assert tracer.binding_sites() == before
    assert not hasattr(cli.main, "__wrapped__")


@pytest.mark.parametrize("command, doc, expected", [
    ("speed", {}, {"spectral.eigen.calls": 2188,
                   "domain.kernels.periodize.calls": 244}),
    ("wave", {"grid": {"cell_points": 32, "window_radius": 40}},
     {"waves.profile.apply.calls": 65, "waves.profile.wave.iterations": 64}),
    ("sir-verify", {"grid": {"cell_points": 64, "window_radius": 12}},
     {"domain.kernels.window_matrix.builds": 3}),
    ("threshold", {"grid": {"cell_points": 128, "window_radius": 12}},
     {"spectral.eigen.iterations": 4158}),
])
def test_work_counts_on_reference_documents(tmp_path, command, doc, expected):
    metrics = _traced_call(tmp_path, command, doc)
    assert {key: metrics[key] for key in expected} == expected


def _profiled_counts(tmp_path, command, doc):
    """Spans per traced function against the calls a profiler sees reach
    the original code objects; a caller that bypasses the wrappers shows
    up as a surplus on the profiler side."""
    config = tmp_path / f"{command}.json"
    config.write_text(json.dumps(doc))
    tracer = tracing.Tracer()
    tracer.install()
    codes = {id(fn.__code__): name
             for name, fn in tracer._originals.values()}
    apply_fn = tracer._apply[1]
    codes[id(apply_fn.__code__)] = tracing.APPLY_SPAN
    seen = {}

    def profile(frame, event, arg):
        if event == "call":
            name = codes.get(id(frame.f_code))
            if name is not None:
                seen[name] = seen.get(name, 0) + 1

    sys.setprofile(profile)
    try:
        code = cli.main([command, "--config", str(config),
                         "--out", str(tmp_path / command)])
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    assert code == 0
    spans = {}
    for span in tracer.spans:
        if span[0] != tracing.ROOT_SPAN:
            spans[span[0]] = spans.get(span[0], 0) + 1
    return seen, spans


@pytest.mark.parametrize("command, doc", [
    ("threshold", {"grid": {"cell_points": 16, "window_radius": 3}}),
    ("steady", {"grid": {"cell_points": 16, "window_radius": 3}}),
    ("simulate", {"grid": {"cell_points": 16, "window_radius": 12},
                  "run": {"horizon": 5.0}}),
    ("speed", {"grid": {"cell_points": 16, "window_radius": 3}}),
    ("dispersion", {"grid": {"cell_points": 16, "window_radius": 3}}),
    ("wave", {"grid": {"cell_points": 16, "window_radius": 40}}),
    ("sir-verify", {"grid": {"cell_points": 16, "window_radius": 6}}),
    ("subwave-diag", {"grid": {"cell_points": 16, "window_radius": 20}}),
])
def test_no_call_bypasses_the_wrappers(tmp_path, command, doc):
    seen, spans = _profiled_counts(tmp_path, command, doc)
    assert seen == spans


def test_generator_is_a_function_of_the_seed(tmp_path):
    def docs(seed, where):
        calls = workloads.generate("speed-front", seed, str(where))
        return [open(call.config).read() for call in calls]

    assert docs(5, tmp_path / "a") == docs(5, tmp_path / "b")
    assert docs(5, tmp_path / "a") != docs(6, tmp_path / "c")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_and_answers_pass(tmp_path, workload):
    """Two traced passes over the same seed give identical work counts."""
    b = bench.Bench(cli, workload, 11, str(tmp_path))
    b.references()
    counts = []
    for index in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result = b.run_pass(index, tracer)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(result["agg"])
        counts.append({k: v for k, v in metrics.items()
                       if not k.endswith("_s")})
    assert b.problems == []
    assert counts[0] == counts[1]
    assert counts[0]["trace.spans"] > 0
