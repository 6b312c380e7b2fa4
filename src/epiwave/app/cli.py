"""Argparse front end: scenario in, artifact files and a manifest out.

Exit codes follow the usual pipeline convention: 0 on success, 2 for
anything wrong with the invocation or the configuration (nothing is
written), 1 for a numerical failure inside a solver (a diagnostic JSON,
with the solver's error attributes under "details", is written).

Thread caps from --threads or EPIWAVE_THREADS are applied to the loaded
BLAS through threadpoolctl, and exported to the usual environment
variables for any library initialized later.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys
import time

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="epiwave",
        description="Periodic epidemic scenarios: thresholds, steady "
                    "states, fronts, and the compartmental cross-check.",
    )
    parser.add_argument("command",
                        choices=["threshold", "steady", "simulate", "speed",
                                 "wave", "dispersion", "sir-verify",
                                 "subwave-diag"],
                        help="pipeline to run")
    parser.add_argument("--config", required=True,
                        help="path to the scenario JSON document")
    parser.add_argument("--out", default=None,
                        help="output directory (default: config's 'output' "
                             "field, else ./epiwave-out)")
    parser.add_argument("--threads", type=int, default=None,
                        help="cap numeric threads (fallback: EPIWAVE_THREADS)")
    return parser.parse_args(argv)


def _limit_threads(count):
    if count is None:
        raw = os.environ.get("EPIWAVE_THREADS", "").strip()
        if not raw:
            return
        try:
            count = int(raw)
        except ValueError:
            print(f"epiwave: ignoring EPIWAVE_THREADS={raw!r} (not an "
                  "integer)", file=sys.stderr)
            return
    if count < 1:
        print(f"epiwave: ignoring thread cap {count} (must be >= 1)",
              file=sys.stderr)
        return
    for var in _THREAD_VARS:
        os.environ.setdefault(var, str(count))
    try:
        import threadpoolctl
        threadpoolctl.threadpool_limits(limits=count)
    except ImportError:
        pass


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _versions() -> dict:
    import numpy
    import scipy

    from .. import __version__

    return {
        "epiwave": __version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def _write_all(out_dir, artifacts) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, text in artifacts.items():
        with open(os.path.join(out_dir, name), "w", newline="") as handle:
            handle.write(text)


def main(argv=None) -> int:
    args = _parse_args(argv)
    _limit_threads(args.threads)

    from ..errors import ConvergenceError, ValidationError
    from .pipelines import COMMANDS
    from .scenario import load_scenario

    timings = {}
    started = time.perf_counter()
    try:
        config = load_scenario(args.config)
    except ValidationError as exc:
        print(f"epiwave: configuration error: {exc}", file=sys.stderr)
        return 2
    timings["load"] = time.perf_counter() - started
    config_hash = _sha256(args.config)
    out_dir = args.out or config.output or "epiwave-out"

    tick = time.perf_counter()
    try:
        artifacts, results = COMMANDS[args.command](config)
    except ValidationError as exc:
        print(f"epiwave: configuration error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        failure = {
            "command": args.command,
            "config_sha256": config_hash,
            "error": type(exc).__name__,
            "message": str(exc),
            "details": vars(exc),
            "versions": _versions(),
        }
        _write_all(out_dir, {"failure.json":
                             json.dumps(failure, indent=2, sort_keys=True)
                             + "\n"})
        print(f"epiwave: numerical failure: {exc}", file=sys.stderr)
        print(f"epiwave: diagnostic written to "
              f"{os.path.join(out_dir, 'failure.json')}", file=sys.stderr)
        return 1
    timings["run"] = time.perf_counter() - tick

    tick = time.perf_counter()
    _write_all(out_dir, artifacts)
    timings["write"] = time.perf_counter() - tick
    manifest = {
        "command": args.command,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": {"path": os.path.abspath(args.config),
                   "sha256": config_hash},
        "versions": _versions(),
        "timings_seconds": {k: round(v, 6) for k, v in timings.items()},
        "artifacts": sorted(artifacts),
        "results": results,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name in sorted(artifacts):
        print(os.path.join(out_dir, name))
    print(os.path.join(out_dir, "manifest.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
