#!/usr/bin/env python3
"""Harness benchmark for wattbench.

Run from the repository root:

    python3 perfbench/run.py --workload floor --seed 1 --seconds 38 --trace 0

Workloads are ``floor``, ``commits`` and ``history`` (see README.md).
With ``--trace 0`` the result line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, and the
traced run's end-to-end figures are printed above it. The last line of
standard output is always one JSON object.
"""

from __future__ import annotations

import time

_PERF_START = time.perf_counter()

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def seconds_since_process_start() -> float:
    """Wall time since the kernel started this process (10 ms resolution)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _PERF_START


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("floor", "commits", "history"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the run's set-up, print its seconds and exit; the benchmark "
                             "starts itself this way to time further cold set-ups")
    args = parser.parse_args(argv)

    if not (SRC / "wattbench" / "__init__.py").is_file():
        print(f"error: wattbench sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )

    import workloads

    if args.setup_only:
        print(workloads.setup_only(args.workload, args.seed, args.seconds, bool(args.trace),
                                   seconds_since_process_start))
        return 0
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           seconds_since_process_start)
    for line in result.lines:
        print(line)
    for error in result.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    metrics = result.per_layer if args.trace else result.end_to_end
    print(json.dumps({
        "correct": not result.errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
