"""Answer checks: every timed call's artifacts against closed forms and the
solvers' own certificates.

A call passes when it exits 0, writes a manifest, and its artifacts pass
the check for its command.  Tolerances are the solvers' own (the scenario
tol and wave_tol defaults, the eigen tolerance) or the acceptance gate's
bar for the same quantity (criterion 08 for c*, criterion 13 for the SIR
bridge); none is tuned to the benchmark's media.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

EIGEN_TOL = 1e-10          # spectral.DEFAULT_EIGEN_TOL and the scenario tol
WAVE_TOL = 1e-6            # scenario run.wave_tol default
BOX_LAMBDA_TOL = 1e-6      # criterion 01: lambda1 equals the box mass
BOX_SPEED_TOL = 1e-3       # criterion 08: c* against the scalar box oracle
RICHARDSON = (1.5, 3.0)    # criterion 13: coarse/fine gap ratio of the bridge


class Context:
    """What the checks of one run share: reference answers computed before
    timing, and the threshold answers of the pass being checked."""

    def __init__(self):
        self.box_speed = {}      # medium name -> oracle c*
        self.outcome = {}        # medium name -> reference threshold outcome
        self.coarse_gap = {}     # medium name -> sup_difference at 2h, 2dt
        self.lambda1 = {}        # medium name -> lambda1 from this pass


def read_json(out_dir, name):
    with open(os.path.join(out_dir, name)) as handle:
        return json.load(handle)


def _rows(out_dir, name):
    with open(os.path.join(out_dir, name), newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, [[float(v) for v in row] for row in reader]


def _expect(problems, ok, message):
    if not ok:
        problems.append(message)


def _check_threshold(call, out_dir, ctx, problems):
    summary = read_json(out_dir, "threshold.json")
    _, rows = _rows(out_dir, "threshold.csv")
    lam = summary["lambda1"]
    ctx.lambda1[call.medium.name] = lam
    sweep = [row[1] for row in rows]
    _expect(problems, summary["residual"] <= EIGEN_TOL,
            f"eigen residual {summary['residual']:.3e} above {EIGEN_TOL}")
    _expect(problems, all(b > a for a, b in zip(sweep, sweep[1:])),
            "ball sweep is not increasing")
    _expect(problems, all(v <= lam + EIGEN_TOL for v in sweep),
            f"ball sweep {max(sweep)!r} exceeds lambda1 {lam!r}")
    want = "propagates" if call.medium.supercritical else "fades_out"
    _expect(problems, summary["outcome"] == want,
            f"outcome {summary['outcome']} for a medium built to {want}")
    _expect(problems, (lam > 1.0) == call.medium.supercritical,
            f"lambda1 {lam!r} on the wrong side of 1")
    if call.medium.homogeneous_box:
        _expect(problems, abs(lam - call.medium.mass) <= BOX_LAMBDA_TOL,
                f"lambda1 {lam!r} strays from the box mass "
                f"{call.medium.mass!r}")


def _saturation(mass):
    """Flat steady state z = mass * (1 - exp(-z)) of the box medium."""
    z = mass
    for _ in range(200):
        z = mass * -math.expm1(-z)
    return z


def _check_steady(call, out_dir, ctx, problems):
    summary = read_json(out_dir, "steady.json")
    present = summary["present"]
    _expect(problems, present == call.medium.supercritical,
            f"steady state present={present} on a medium built "
            f"{'super' if call.medium.supercritical else 'sub'}critical")
    lam = ctx.lambda1.get(call.medium.name)
    if lam is not None:
        _expect(problems, abs(summary["lambda1"] - lam) <= 2 * EIGEN_TOL,
                f"steady lambda1 {summary['lambda1']!r} differs from the "
                f"threshold lambda1 {lam!r}")
    if not present:
        _expect(problems, summary["residual"] < 1e-8,
                f"collapse stopped at sup {summary['residual']:.3e}")
        return
    _expect(problems, summary["residual"] < EIGEN_TOL,
            f"fixed-point residual {summary['residual']:.3e}")
    if call.medium.homogeneous_box:
        # the flat state is exact on grid-aligned box kernels; the error is
        # at most residual / (1 - q) with q the contraction at the state
        z = _saturation(call.medium.mass)
        q = call.medium.mass * math.exp(-z)
        _, rows = _rows(out_dir, "steady.csv")
        worst = max(abs(row[-1] - z) for row in rows)
        _expect(problems, worst <= 2 * EIGEN_TOL / (1.0 - q),
                f"steady state misses the flat level {z!r} by {worst:.3e}")


def _check_speed(call, out_dir, ctx, problems):
    summary = read_json(out_dir, "speed.json")
    c_star = summary["c_star"]
    _expect(problems, not summary["at_rest"] and c_star > 0.0,
            f"supercritical medium reported at rest (c* = {c_star!r})")
    _expect(problems, summary["lambda_witness"] <= 1.0 + EIGEN_TOL,
            f"eigenvalue {summary['lambda_witness']!r} at c* exceeds one")
    want = ctx.box_speed.get(call.medium.name)
    if want is not None and call.dim == 1:
        _expect(problems, abs(c_star - want) <= BOX_SPEED_TOL,
                f"c* = {c_star!r} strays from the box oracle {want!r}")


def _check_dispersion(call, out_dir, ctx, problems):
    _, rows = _rows(out_dir, "dispersion.csv")
    doc_run = call.doc.get("run", {})
    want = len(doc_run.get("rho_values", [])) * len(
        doc_run.get("c_values", [0.0, 0.5, 1.0, 2.0]))
    _expect(problems, len(rows) == want,
            f"{len(rows)} dispersion points, expected {want}")
    by_rho = {}
    for rho, c, lam in rows:
        by_rho.setdefault(rho, []).append((c, lam))
    for rho, cut in by_rho.items():
        cut.sort()
        values = [lam for _, lam in cut]
        _expect(problems, all(b < a for a, b in zip(values, values[1:]))
                and values[-1] > 0.0,
                f"lambda(rho={rho}, c) is not positive and decreasing in c")


def _check_wave(call, out_dir, ctx, problems):
    summary = read_json(out_dir, "wave.json")
    _expect(problems, summary["residual"] <= WAVE_TOL,
            f"front residual {summary['residual']:.3e} above {WAVE_TOL}")
    _expect(problems, abs(summary["c"] - 2.0 * summary["c_star"])
            <= 1e-12 * summary["c"],
            f"frame speed {summary['c']!r} is not twice c*")


def _check_subwave(call, out_dir, ctx, problems):
    summary = read_json(out_dir, "subwave.json")
    _expect(problems, summary["dominated"] is True,
            f"bump not dominated (min slack {summary['min_slack']!r})")


def _check_simulate(call, out_dir, ctx, problems):
    summary = read_json(out_dir, "simulate.json")
    want = ctx.outcome.get(call.medium.name)
    _expect(problems, summary["outcome"] == want,
            f"march outcome {summary['outcome']} but threshold says {want}")


def _check_sir(call, out_dir, ctx, problems):
    gap = read_json(out_dir, "sir.json")["sup_difference"]
    coarse = ctx.coarse_gap.get(call.medium.name)
    if not math.isfinite(gap) or coarse is None:
        problems.append(f"sup_difference {gap!r} (coarse {coarse!r})")
        return
    ratio = coarse / gap if gap > 0 else math.inf
    _expect(problems, RICHARDSON[0] <= ratio <= RICHARDSON[1],
            f"bridge gap {gap:.3e} against {coarse:.3e} at twice dt and "
            f"spacing: ratio {ratio:.3g} is not first order")


_CHECKS = {
    "threshold": _check_threshold,
    "steady": _check_steady,
    "speed": _check_speed,
    "dispersion": _check_dispersion,
    "wave": _check_wave,
    "subwave-diag": _check_subwave,
    "simulate": _check_simulate,
    "sir-verify": _check_sir,
}


def check_call(call, out_dir, exit_code, ctx) -> list[str]:
    """Problems with one call's answer; empty when it passes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    problems: list[str] = []
    try:
        read_json(out_dir, "manifest.json")
        _CHECKS[call.command](call, out_dir, ctx, problems)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        problems.append(f"unreadable artifacts: {exc!r}")
    return problems


def artifact_digest(out_dir) -> dict:
    """File name -> sha256 of every artifact except manifest.json."""
    digest = {}
    for name in sorted(os.listdir(out_dir)):
        if name != "manifest.json":
            with open(os.path.join(out_dir, name), "rb") as handle:
                digest[name] = hashlib.sha256(handle.read()).hexdigest()
    return digest
