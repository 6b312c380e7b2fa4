"""Argparse front end: scenario in, artifact files and a manifest out.

Exit codes follow the usual pipeline convention: 0 on success, 2 for
anything wrong with the invocation or the configuration (nothing is
written), 1 for a numerical failure inside a solver (a diagnostic JSON,
with the solver's error attributes under "details", is written).
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import sys
import time


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
    return parser.parse_args(argv)


def _versions() -> dict:
    import numpy

    from .. import __version__

    return {
        "epiwave": __version__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }


def _write_all(out_dir, artifacts) -> None:
    """Write each text in slices of io's buffer size: text mode hands an
    ASCII slice no longer than its chunk size on as it is, where a whole
    table would first be encoded into a copy of its own."""
    os.makedirs(out_dir, exist_ok=True)
    for name, text in artifacts.items():
        with open(os.path.join(out_dir, name), "w", newline="") as handle:
            for start in range(0, len(text), io.DEFAULT_BUFFER_SIZE):
                handle.write(text[start:start + io.DEFAULT_BUFFER_SIZE])


def main(argv=None) -> int:
    args = _parse_args(argv)

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
            "config_sha256": config.sha256,
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
                   "sha256": config.sha256},
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
