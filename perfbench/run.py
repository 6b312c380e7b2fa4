"""Benchmark of the epiwave CLI pipelines on seeded workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from its
src/ directory.  One client runs the workload's calls in a closed loop:
each call is epiwave.app.cli.main in a child forked from this process,
timed from fork until the child is reaped.  This process has imported
the CLI, the pipelines and numpy/scipy but never runs a command itself,
so no call inherits state from an earlier one, as with separate
`epiwave ...` invocations.  BLAS is pinned to one thread before numpy
loads.

A pass runs every call of the workload once; passes repeat until the
next one would end past --seconds (at least two, so the byte-identity
check always has a repeat).  The last line of standard output is one
JSON object: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (there untraced and traced passes alternate, and
the traced children inherit wrappers installed before the fork).

The host this was written on changes speed by up to 40% in phases of
several seconds, for interpreter and BLAS work alike, and whole runs
differ by up to 2x.  So a fixed probe runs between calls, and the
end-to-end times are reported at a reference host speed: median wall
times * REFERENCE_PROBE_S / (median probe time of the run).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before anything can load numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

COMMANDS = ("threshold", "steady", "simulate", "speed", "wave", "dispersion",
            "sir-verify", "subwave-diag")
MIN_PASSES = 2
SETUP_SAMPLES = 5
IMPORTS = "import epiwave.app.cli, epiwave.app.pipelines"
# median probe time on the 2-vCPU VM the benchmark was defined on
REFERENCE_PROBE_S = 0.0055


class Abort(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


class Timing(NamedTuple):
    seconds: float      # wall time, fork to reap
    rss_mb: float       # child ru_maxrss


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import the CLI and the pipelines from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "epiwave", "__init__.py")):
        raise Abort(f"no epiwave sources under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import epiwave
    import epiwave.app.cli as cli
    import epiwave.app.pipelines  # noqa: F401

    if os.path.dirname(os.path.dirname(epiwave.__file__)) != SRC:
        raise Abort(f"epiwave imported from {epiwave.__file__}, not {SRC}")
    return cli


def setup_sample() -> float:
    """Wall time for a fresh interpreter, in this process's environment, to
    import the CLI and the pipelines."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", IMPORTS],
                          env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise Abort("fresh interpreter cannot import epiwave: "
                    + proc.stderr.decode(errors="replace"))
    return seconds


def run_call(main, argv, err_path, tracer=None, span_path=None, call_id=0):
    """Run main(argv) in a forked child; returns (seconds, exit code,
    max RSS in MB) with the time taken from fork until the child is reaped."""
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            null = os.open(os.devnull, os.O_WRONLY)
            err = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                          0o644)
            os.dup2(null, 1)
            os.dup2(err, 2)
            if tracer is None:
                code = main(argv)
            else:
                try:
                    code = tracer.call(tracing.ROOT_SPAN, main, argv)
                finally:
                    tracer.dump(span_path, call_id)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except BaseException:
            traceback.print_exc()
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code if isinstance(code, int) else 70)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    seconds = time.perf_counter() - start
    return seconds, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def _box_oracle(mass):
    """c* of the homogeneous box medium from the frozen scalar oracle."""
    import importlib.util

    path = os.path.join(ROOT, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles.box_minimal_speed(mass, 1.0, 1.0)[0]


class Bench:
    """One workload's calls, their reference answers and check results."""

    def __init__(self, cli, workload, seed, work):
        import numpy as np

        self.cli = cli
        self.workload = workload
        self.work = work
        self.calls = workloads.generate(workload, seed,
                                        os.path.join(work, "docs"))
        self.ctx = checks.Context()
        self.digests = {}       # call index -> artifact digest of first pass
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup_samples = []  # wall seconds of fresh-interpreter imports
        self.probes = []         # every host probe of the run, in seconds
        self._probe_matrix = np.full((160, 160), 0.5)

    def probe(self) -> float:
        """Seconds for a fixed mix of interpreter loop and BLAS work that
        shares no code with epiwave: the host's current speed, measured
        between calls."""
        start = time.perf_counter()
        total = 0.0
        for i in range(40000):
            total += i * 0.5
        for _ in range(8):
            self._probe_matrix @ self._probe_matrix
        seconds = time.perf_counter() - start
        self.probes.append(seconds)
        return seconds

    def to_reference_speed(self, seconds: float) -> float:
        """Scale a wall time from this run's host speed to the reference."""
        return seconds * REFERENCE_PROBE_S / statistics.median(self.probes)

    def sample_setup(self):
        """One set-up sample, with a host probe on either side."""
        self.probe()
        self.setup_samples.append(setup_sample())
        self.probe()

    def _child(self, command, config, tag, **kw):
        out = os.path.join(self.work, "out", tag)
        err = os.path.join(self.work, "out", tag + ".err")
        os.makedirs(os.path.dirname(out), exist_ok=True)
        seconds, code, rss = run_call(
            self.cli.main, [command, "--config", config, "--out", out],
            err, **kw)
        return out, seconds, code, rss

    def _write_doc(self, name, doc):
        path = os.path.join(self.work, "docs", name)
        with open(path, "w") as handle:
            json.dump(doc, handle, sort_keys=True)
        return path

    def default_doc_codes(self) -> dict:
        """Exit code of every command on the empty document (untimed)."""
        config = self._write_doc("empty.json", {})
        codes = {}
        for command in COMMANDS:
            _, _, codes[command], _ = self._child(command, config,
                                                  f"default-{command}")
        return codes

    def references(self):
        """Answers the checks compare against, computed before timing."""
        media = {call.medium.name: call for call in self.calls}
        for name, call in media.items():
            if (self.workload == "speed-front" and call.dim == 1
                    and call.medium.family == "box"):
                self.ctx.box_speed[name] = _box_oracle(call.medium.mass)
            if self.workload != "march-io":
                continue
            # lambda1 lives on the cell, so a two-cell window gives the
            # threshold outcome without the full ball sweep
            doc = copy.deepcopy(call.doc)
            doc["grid"]["window_radius"] = 2
            out = self._reference("threshold", f"ref-{name}", doc)
            if out:
                self.ctx.outcome[name] = checks.read_json(
                    out, "threshold.json")["outcome"]
            # the same bridge at twice the spacing and twice the step
            doc = copy.deepcopy(call.doc)
            doc["grid"]["cell_points"] //= 2
            sir = doc.setdefault("sir", {})
            sir["dt"] = 2 * sir.get("dt", 0.05)
            out = self._reference("sir-verify", f"coarse-{name}", doc)
            if out:
                self.ctx.coarse_gap[name] = checks.read_json(
                    out, "sir.json")["sup_difference"]

    def _reference(self, command, tag, doc):
        out, _, code, _ = self._child(
            command, self._write_doc(f"{tag}.json", doc), tag)
        if code != 0:
            self.problems.append(f"reference {command} [{tag}] exited {code}")
            return None
        return out

    def run_pass(self, index, tracer=None):
        """One pass over the workload's calls.  Answers are checked after
        the clock stops; outputs and span files are removed."""
        tag = f"p{index}"
        spans_dir = os.path.join(self.work, "spans", tag)
        os.makedirs(spans_dir, exist_ok=True)
        records = []
        probes = [self.probe()]
        start = time.perf_counter()
        for k, call in enumerate(self.calls):
            kw = {}
            if tracer is not None:
                kw = {"tracer": tracer, "call_id": k,
                      "span_path": os.path.join(spans_dir, f"{k:02d}.json")}
            records.append(self._child(call.command, call.config,
                                       f"{tag}/{k:02d}", **kw))
            probes.append(self.probe())
        pass_s = time.perf_counter() - start - sum(probes[1:])

        self.ctx.lambda1 = {}
        for k, (call, (out, _, code, _)) in enumerate(zip(self.calls,
                                                          records)):
            problems = checks.check_call(call, out, code, self.ctx)
            if not problems:
                digest = checks.artifact_digest(out)
                if digest != self.digests.setdefault(k, digest):
                    problems.append("artifact bytes differ from the first "
                                    "pass on the same document")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(
                    f"pass {index} call {k} {call.command} "
                    f"[{call.medium.name}]: {'; '.join(problems)}")
        shutil.rmtree(os.path.join(self.work, "out", tag))
        agg = None
        if tracer is not None:
            agg = tracing.aggregate(sorted(
                os.path.join(spans_dir, f) for f in os.listdir(spans_dir)))
        shutil.rmtree(spans_dir)
        timings = [Timing(seconds, rss) for _, seconds, _, rss in records]
        return {"pass_s": pass_s, "calls": timings, "agg": agg,
                "probe_s": statistics.median(probes)}


def measure(bench, seconds, trace):
    """Run passes until the next one would end past the budget: untraced
    ones, or untraced and traced in turn.  Between untraced passes a set-up
    sample is taken, so those samples spread over the run too."""
    passes = []
    start = time.perf_counter()
    while True:
        tracer = None
        if trace and len(passes) % 2 == 1:
            tracer = tracing.Tracer()
            tracer.install()
            missing = tracer.unwrapped_sites()
            if missing:
                bench.problems.append("tracer missed binding sites: "
                                      + ", ".join(missing))
        try:
            passes.append(bench.run_pass(len(passes), tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if not trace and len(bench.setup_samples) < SETUP_SAMPLES:
            bench.sample_setup()
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["pass_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            return passes


def call_medians(passes, key) -> list[float]:
    """Median of key(timing) for each call of the workload across passes.
    The median drops the samples a slow phase of the host hit."""
    return [statistics.median(key(p["calls"][k]) for p in passes)
            for k in range(len(passes[0]["calls"]))]


def end_to_end(bench, passes, exit_codes):
    wall = call_medians(passes, lambda t: t.seconds)
    return {
        "setup_s": (bench.to_reference_speed(
            statistics.median(bench.setup_samples)), "s"),
        "pass_norm_s": (bench.to_reference_speed(sum(wall)), "s"),
        "peak_rss_mb": (statistics.median(
            max(t.rss_mb for t in p["calls"]) for p in passes), "MB"),
        "answers_ok_ratio": (1.0 - bench.failed / bench.attempted, "ratio"),
        "default_doc_ok": (sum(code == 0 for code in exit_codes.values()),
                           "count"),
    }


_UNITS = {"_s": "s", "calls": "count", "builds": "count",
          "iterations": "count", "steps": "count", "flops": "flop",
          "bytes": "bytes", "spans": "count", "per_search": "count",
          "ratio": "ratio"}


def _unit(name):
    for suffix, unit in _UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def per_layer(bench, passes):
    plain = [p for p in passes if p["agg"] is None]
    traced = [p for p in passes if p["agg"] is not None]
    layers = [tracing.layer_metrics(p["agg"]) for p in traced]
    out = {key: (statistics.median(m[key] for m in layers), _unit(key))
           for key in layers[0]}
    wall = call_medians(plain, lambda t: t.seconds)
    untraced_s = sum(wall)
    traced_s = sum(call_medians(traced, lambda t: t.seconds))
    out["trace.pass_s"] = (traced_s, "s")
    out["trace.untraced_pass_s"] = (untraced_s, "s")
    out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    out["trace.remainder_s"] = (statistics.median(
        p["pass_s"] - sum(p["agg"]["self_s"].values()) for p in traced), "s")
    out["host.probe_s"] = (statistics.median(bench.probes), "s")
    for command in COMMANDS:
        if command != "steady":
            out[f"cmd.{command.replace('-', '_')}_s"] = (float(sum(
                s for call, s in zip(bench.calls, wall)
                if call.command == command)), "s")
    return out


def _report(bench, passes, exit_codes, args):
    for line in bench.problems:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(passes)} "
          f"passes of {len(bench.calls)} calls; exit codes on {{}}: "
          f"{exit_codes}", file=sys.stderr)
    print("perfbench: pass wall s "
          + " ".join(f"{p['pass_s']:.3f}" for p in passes) + " probe ms "
          + " ".join(f"{p['probe_s'] * 1e3:.2f}" for p in passes),
          file=sys.stderr)
    for k, call in enumerate(bench.calls):
        walls = " ".join(f"{p['calls'][k].seconds:.3f}" for p in passes)
        print(f"perfbench: call {k} {call.command} [{call.medium.name}] "
              f"wall s {walls}", file=sys.stderr)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        cli = import_program()
    except (Abort, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(cli, args.workload, args.seed, work)
        if not args.trace:
            bench.sample_setup()
        exit_codes = bench.default_doc_codes()
        bench.references()
        passes = measure(bench, args.seconds, args.trace == 1)
    except Abort as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    _report(bench, passes, exit_codes, args)
    metrics = (per_layer(bench, passes) if args.trace
               else end_to_end(bench, passes, exit_codes))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
